"""Tests for the packet model, tunnels, and channels."""

import random
import sys
import types
from collections import deque

import pytest

from repro.net.addr import IPAddress
from repro.net.channel import ChannelClosed, ChannelPair, Endpoint, _DispatchContext
from repro.net.packet import (
    Packet,
    PacketError,
    icmp_echo_reply,
    icmp_ttl_exceeded,
)
from repro.net.tunnel import Tunnel, TunnelEndpoint, TunnelError


def packet(ttl=64):
    return Packet(src=IPAddress("10.0.0.1"), dst=IPAddress("10.0.0.2"), ttl=ttl)


class TestPacket:
    def test_hop_records_and_decrements(self):
        p = packet().hop(100).hop(200)
        assert p.trace == (100, 200)
        assert p.ttl == 62

    def test_negative_ttl_rejected(self):
        with pytest.raises(PacketError):
            Packet(src=IPAddress("10.0.0.1"), dst=IPAddress("10.0.0.2"), ttl=-1)

    def test_decrement_at_zero_rejected(self):
        with pytest.raises(PacketError):
            packet(ttl=0).decrement_ttl()

    def test_expired(self):
        assert packet(ttl=0).expired
        assert not packet(ttl=1).expired

    def test_reply_swaps_addresses(self):
        reply = packet().reply(payload="pong")
        assert reply.src == IPAddress("10.0.0.2")
        assert reply.dst == IPAddress("10.0.0.1")
        assert reply.payload == "pong"

    def test_encapsulation_roundtrip(self):
        inner = packet()
        outer = inner.encapsulate(IPAddress("100.64.0.1"), IPAddress("100.64.0.2"))
        assert outer.proto == "tunnel"
        assert outer.decapsulate() == inner

    def test_decapsulate_plain_packet_rejected(self):
        with pytest.raises(PacketError):
            packet().decapsulate()

    def test_unique_idents(self):
        assert packet().ident != packet().ident

    def test_icmp_helpers(self):
        original = packet().hop(1)
        exceeded = icmp_ttl_exceeded(original, IPAddress("192.0.2.1"))
        assert exceeded.dst == original.src
        assert exceeded.proto == "icmp-ttl-exceeded"
        reply = icmp_echo_reply(original, IPAddress("10.0.0.2"))
        assert reply.dst == original.src
        assert reply.payload["original_ident"] == original.ident

    def test_immutability(self):
        p = packet()
        hopped = p.hop(5)
        assert p.ttl == 64 and p.trace == ()
        assert hopped is not p


class TestTunnel:
    def make(self, **kwargs):
        left = TunnelEndpoint(IPAddress("100.64.0.1"), "server")
        right = TunnelEndpoint(IPAddress("100.64.0.2"), "client")
        tunnel = Tunnel(left, right, **kwargs)
        return tunnel, left, right

    def test_bidirectional_delivery(self):
        tunnel, left, right = self.make()
        got = []
        right.on_packet = got.append
        left.send(packet())
        assert len(got) == 1
        assert got[0] == packet().__class__(**{**got[0].__dict__})  # decapsulated
        got_left = []
        left.on_packet = got_left.append
        right.send(packet())
        assert len(got_left) == 1

    def test_counters(self):
        tunnel, left, right = self.make()
        right.on_packet = lambda p: None
        left.send(packet())
        assert left.tx_packets == 1
        assert right.rx_packets == 1

    def test_down_tunnel_rejects(self):
        tunnel, left, right = self.make()
        tunnel.take_down()
        with pytest.raises(TunnelError):
            left.send(packet())
        tunnel.bring_up()
        right.on_packet = lambda p: None
        left.send(packet())

    def test_rate_limit_and_tick(self):
        tunnel, left, right = self.make(rate_limit=2)
        right.on_packet = lambda p: None
        left.send(packet())
        left.send(packet())
        with pytest.raises(TunnelError):
            left.send(packet())
        assert tunnel.dropped == 1
        tunnel.tick()
        left.send(packet())

    def test_mtu(self):
        tunnel, left, right = self.make(mtu=50)
        right.on_packet = lambda p: None
        left.send(packet())  # small enough
        big = Packet(
            src=IPAddress("10.0.0.1"),
            dst=IPAddress("10.0.0.2"),
            payload=b"x" * 100,
        )
        with pytest.raises(TunnelError):
            left.send(big)

    def test_unattached_endpoint(self):
        lonely = TunnelEndpoint(IPAddress("100.64.0.9"))
        with pytest.raises(TunnelError):
            lonely.send(packet())

    def test_log_keeps_encapsulated_frames(self):
        tunnel, left, right = self.make()
        right.on_packet = lambda p: None
        left.send(packet())
        assert len(tunnel.log) == 1
        assert tunnel.log[0].inner is not None

    def test_log_is_bounded_to_the_most_recent_frames(self):
        tunnel, left, right = self.make()
        right.on_packet = lambda p: None
        keep = tunnel.log.maxlen
        sent = [packet() for _ in range(keep + 10)]
        for p in sent:
            left.send(p)
        assert left.tx_packets == right.rx_packets == keep + 10
        assert len(tunnel.log) == keep
        assert tunnel.log[0].inner is sent[10]
        assert tunnel.log[-1].inner is sent[-1]


class TestChannel:
    def test_pair_connected(self):
        pair = ChannelPair("t")
        assert pair.a.connected and pair.b.connected

    def test_send_receive_queue(self):
        pair = ChannelPair("t")
        pair.a.send(b"one")
        pair.a.send(b"two")
        assert pair.b.pending() == 2
        assert pair.b.receive() == b"one"
        assert pair.b.drain() == [b"two"]
        assert pair.b.receive() is None

    def test_push_mode(self):
        pair = ChannelPair("t")
        got = []
        pair.b.on_receive = got.append
        pair.a.send(b"x")
        assert got == [b"x"]

    def test_closed_send_rejected(self):
        pair = ChannelPair("t")
        pair.a.close()
        with pytest.raises(ChannelClosed):
            pair.a.send(b"x")
        with pytest.raises(ChannelClosed):
            pair.b.send(b"x")

    def test_close_notifies_peer(self):
        pair = ChannelPair("t")
        closed = []
        pair.b.on_close = lambda: closed.append(True)
        pair.a.close()
        assert closed == [True]
        pair.a.close()  # idempotent
        assert closed == [True]

    def test_unconnected_endpoint(self):
        lonely = Endpoint("x")
        with pytest.raises(ChannelClosed):
            lonely.send(b"data")

    def test_counters(self):
        pair = ChannelPair("t")
        pair.a.send(b"x")
        assert pair.a.sent_count == 1
        assert pair.b.received_count == 1

    def test_run_to_completion_ordering(self):
        """A message sent from inside a handler is delivered after the
        current handler finishes (no re-entrant delivery)."""
        pair = ChannelPair("t")
        events = []

        def handler_b(data):
            events.append(("b-start", data))
            if data == b"ping":
                pair.b.send(b"pong")
            events.append(("b-end", data))

        def handler_a(data):
            events.append(("a", data))

        pair.b.on_receive = handler_b
        pair.a.on_receive = handler_a
        pair.a.send(b"ping")
        assert events == [
            ("b-start", b"ping"),
            ("b-end", b"ping"),
            ("a", b"pong"),
        ]


class _ReferenceContext:
    """The dispatch context before direct delivery: every message goes
    through the queue, and the queue is drained whoever appended."""

    def __init__(self):
        self.queue = deque()
        self.dispatching = False

    def dispatch(self, target, data):
        self.queue.append((target, data))
        if self.dispatching:
            return
        self.dispatching = True
        try:
            while self.queue:
                endpoint, message = self.queue.popleft()
                if not endpoint.closed:
                    endpoint._deliver(message)
        finally:
            self.dispatching = False


class _ReferenceEndpoint(Endpoint):
    """`Endpoint` on the reference context, with the `send` that builds a
    `forward` closure for every message, hook or no hook."""

    def __init__(self, name=""):
        super().__init__(name)
        self._ctx = _ReferenceContext()

    def send(self, data):
        if self.closed:
            raise ChannelClosed(f"endpoint {self.name!r} is closed")
        if self._peer is None:
            raise ChannelClosed(f"endpoint {self.name!r} is not connected")
        if self._peer.closed:
            raise ChannelClosed(f"peer of {self.name!r} is closed")
        self.sent_count += 1
        peer = self._peer
        ctx = self._ctx

        def forward(payload):
            if not peer.closed:
                ctx.dispatch(peer, payload)

        if self.transit is not None:
            self.transit(data, forward)
        else:
            forward(data)


class _Boom(Exception):
    """Raised by a scripted receive handler."""


def _run_channel_script(seed, make_endpoint, coverage=None):
    """Two connected pairs driven by a seeded script of sends, engine
    advances, hook changes, redeliveries and closes; receive handlers send
    nested messages in both directions and across pairs, close endpoints
    and raise.  Returns everything observable, in order."""
    from repro.sim import Engine

    rng = random.Random(seed)
    engine = Engine()
    log = []
    count = coverage if coverage is not None else {}

    def bump(key):
        count[key] = count.get(key, 0) + 1

    endpoints = []
    for p in range(2):
        a, b = make_endpoint(f"a{p}"), make_endpoint(f"b{p}")
        a.connect(b)
        endpoints += [a, b]
    serial = iter(range(10**6))

    def payload(depth):
        return f"m{next(serial)}.d{depth}".encode()

    def attempt(label, action):
        try:
            action()
        except ChannelClosed:
            log.append((label, "closed"))
        except _Boom:
            log.append((label, "boom"))

    def handler(endpoint):
        def on_receive(data):
            log.append(("recv", endpoint.name, data))
            depth = int(data.split(b".d")[1])
            if depth < 3:
                for _ in range(rng.randrange(3)):
                    sender = rng.choice([endpoint, endpoint._peer, rng.choice(endpoints)])
                    bump("nested")
                    attempt("nested", lambda: sender.send(payload(depth + 1)))
            roll = rng.random()
            if roll < 0.04:
                victim = rng.choice([endpoint, endpoint._peer, rng.choice(endpoints)])
                log.append(("close-in-handler", victim.name))
                bump("closed_mid_dispatch")
                victim.close()
            elif roll < 0.12:
                log.append(("raise", endpoint.name, data))
                if endpoint._ctx.queue:
                    bump("raised_with_leftovers")
                raise _Boom()
            log.append(("done", endpoint.name, data))

        return on_receive

    def transit(endpoint):
        def hook(data, forward):
            mode = rng.choice(("pass", "drop", "defer", "dup"))
            log.append(("transit", endpoint.name, data, mode))
            bump(mode)
            if mode == "pass":
                forward(data)
            elif mode == "dup":
                forward(data)
                attempt("dup", lambda: forward(data))
            elif mode == "defer":
                engine.schedule(
                    rng.choice((0.0, 1.0, 2.5)),
                    lambda: attempt("deferred", lambda: forward(data)),
                )

        return hook

    for endpoint in endpoints:
        if rng.random() < 0.8:
            endpoint.on_receive = handler(endpoint)

    for _ in range(rng.randrange(20, 60)):
        endpoint = rng.choice(endpoints)
        op = rng.random()
        if op < 0.5:
            if endpoint._ctx.queue and not endpoint._ctx.dispatching:
                bump("send_behind_leftovers")
            attempt("send", lambda: endpoint.send(payload(0)))
        elif op < 0.65:
            engine.run_for(rng.choice((0.5, 1.0, 3.0)))
            log.append(("ran", engine.now))
        elif op < 0.77:
            endpoint.transit = transit(endpoint) if endpoint.transit is None else None
            log.append(("hook", endpoint.name, endpoint.transit is not None))
        elif op < 0.87:
            if endpoint.closed:
                bump("redeliver_closed")
            attempt("redeliver", lambda: endpoint.redeliver(payload(0)))
        elif op < 0.92:
            log.append(("drain", endpoint.name, endpoint.drain()))
        elif op < 0.95:
            endpoint.on_receive = None if endpoint.on_receive else handler(endpoint)
        else:
            log.append(("close", endpoint.name))
            endpoint.close()
    engine.run()
    log.append(("ran", engine.now))
    for endpoint in endpoints:
        log.append((
            endpoint.name, endpoint.sent_count, endpoint.received_count,
            endpoint.pending(), endpoint.closed,
            [(target.name, data) for target, data in endpoint._ctx.queue],
        ))
    return log


def test_dispatch_equals_always_queue_reference():
    coverage = {}
    for seed in range(250):
        assert _run_channel_script(seed, Endpoint, coverage) == _run_channel_script(
            seed, _ReferenceEndpoint
        ), f"seed {seed}"
    # The scripts reach every path the fast delivery has to agree on.
    for key in ("nested", "pass", "drop", "defer", "dup", "closed_mid_dispatch",
                "raised_with_leftovers", "send_behind_leftovers", "redeliver_closed"):
        assert coverage.get(key, 0) >= 20, (key, coverage)


def test_send_without_hook_builds_no_closure_and_dispatches_once(monkeypatch):
    calls = []
    original = _DispatchContext.dispatch

    def counted(ctx, target, data):
        calls.append(data)
        return original(ctx, target, data)

    monkeypatch.setattr(_DispatchContext, "dispatch", counted)
    pair = ChannelPair("t")
    pair.b.on_receive = lambda data: pair.b.send(b"re:" + data) if len(data) < 8 else None
    pair.a.on_receive = lambda data: None
    made = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is Endpoint.send.__code__:
            made.extend(
                v for v in frame.f_locals.values() if isinstance(v, types.FunctionType)
            )

    sys.setprofile(watch)
    try:
        for i in range(50):
            pair.a.send(b"%d" % i)
    finally:
        sys.setprofile(None)
    assert made == []
    assert len(calls) == pair.a.sent_count + pair.b.sent_count == 100
    assert pair.a.received_count == pair.b.received_count == 50
