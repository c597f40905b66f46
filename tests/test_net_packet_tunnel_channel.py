"""Tests for the packet model, tunnels, and channels."""

import pytest

from repro.net.addr import IPAddress
from repro.net.channel import ChannelClosed, ChannelPair, Endpoint
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
