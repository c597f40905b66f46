"""Session-level tests: handshake, updates, timers, failures."""

import enum
import sys
import types

import pytest

from repro.net.addr import IPAddress, Prefix
from repro.net.channel import ChannelPair, Endpoint, _DispatchContext
from repro.sim import Engine
from repro.bgp import messages
from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.errors import BGPError
from repro.bgp.fsm import FsmEvent, State
from repro.bgp.session import BGPSession, SessionConfig, connect


def make_pair(engine, add_path=(False, False), hold=(90, 90), passive_right=True):
    pair = ChannelPair("test")
    left = BGPSession(
        engine,
        SessionConfig(
            local_asn=47065,
            peer_asn=3356,
            local_id=IPAddress("10.0.0.1"),
            hold_time=hold[0],
            add_path=add_path[0],
            description="left",
        ),
        pair.a,
    )
    right = BGPSession(
        engine,
        SessionConfig(
            local_asn=3356,
            peer_asn=47065,
            local_id=IPAddress("10.0.0.2"),
            hold_time=hold[1],
            add_path=add_path[1],
            passive=passive_right,
            description="right",
        ),
        pair.b,
    )
    return left, right


class TestHandshake:
    def test_active_passive(self):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        assert left.established and right.established

    def test_simultaneous_open(self):
        engine = Engine()
        left, right = make_pair(engine, passive_right=False)
        connect(engine, left, right)
        assert left.established and right.established

    def test_both_passive_rejected(self):
        engine = Engine()
        left, right = make_pair(engine)
        left.config.passive = True
        with pytest.raises(BGPError):
            connect(engine, left, right)

    def test_wrong_asn_tears_down(self):
        engine = Engine()
        left, right = make_pair(engine)
        right.config.peer_asn = 9999  # expects someone else
        connect(engine, left, right)
        assert not left.established and not right.established
        assert right.last_error is not None

    def test_hold_time_negotiated_to_min(self):
        engine = Engine()
        left, right = make_pair(engine, hold=(90, 30))
        connect(engine, left, right)
        assert left.negotiated_hold_time == 30
        assert right.negotiated_hold_time == 30

    def test_add_path_requires_both(self):
        engine = Engine()
        left, right = make_pair(engine, add_path=(True, False))
        connect(engine, left, right)
        assert not left.add_path_active and not right.add_path_active

    def test_add_path_negotiated(self):
        engine = Engine()
        left, right = make_pair(engine, add_path=(True, True))
        connect(engine, left, right)
        assert left.add_path_active and right.add_path_active


class TestUpdates:
    def attrs(self):
        return PathAttributes(
            as_path=ASPath.from_asns([47065]), next_hop=IPAddress("10.0.0.1")
        )

    def test_update_delivered(self):
        engine = Engine()
        left, right = make_pair(engine)
        received = []
        right.on_update = lambda _s, u: received.append(u)
        connect(engine, left, right)
        left.announce([Prefix("184.164.224.0/24")], self.attrs())
        assert len(received) == 1
        assert received[0].prefixes() == [Prefix("184.164.224.0/24")]
        assert received[0].attributes.as_path.asns() == (47065,)

    def test_withdraw_delivered(self):
        engine = Engine()
        left, right = make_pair(engine)
        received = []
        right.on_update = lambda _s, u: received.append(u)
        connect(engine, left, right)
        left.withdraw([Prefix("184.164.224.0/24")])
        assert received[0].withdrawn_prefixes() == [Prefix("184.164.224.0/24")]

    def test_update_before_established_raises(self):
        engine = Engine()
        left, _right = make_pair(engine)
        with pytest.raises(BGPError):
            left.announce([Prefix("10.0.0.0/8")], self.attrs())

    def test_path_ids_require_add_path(self):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        with pytest.raises(BGPError):
            left.announce([Prefix("10.0.0.0/8")], self.attrs(), path_ids=[1])

    def test_add_path_update(self):
        engine = Engine()
        left, right = make_pair(engine, add_path=(True, True))
        received = []
        right.on_update = lambda _s, u: received.append(u)
        connect(engine, left, right)
        left.announce(
            [Prefix("10.0.0.0/8"), Prefix("10.0.0.0/8")], self.attrs(), path_ids=[1, 2]
        )
        assert received[0].nlri == ((1, Prefix("10.0.0.0/8")), (2, Prefix("10.0.0.0/8")))

    def test_counters(self):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        left.announce([Prefix("10.0.0.0/8")], self.attrs())
        assert left.updates_sent == 1
        assert right.updates_received == 1


class TestIdlePath:
    """What an established session pair may spend trading keepalives."""

    INTERVALS = 100

    def test_keepalive_intervals_allocate_and_hash_nothing(self, monkeypatch):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        assert left.established and right.established
        observed = {left: [], right: []}
        for session in (left, right):
            session.fsm.observers.append(
                lambda old, event, new, seen=observed[session]: seen.append(event)
            )
        endpoints = (left.endpoint, right.endpoint)
        sent_before = sum(e.sent_count for e in endpoints)

        counts = {"keepalives": 0, "enum_hashes": 0, "dispatches": 0}
        closures = []

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(messages.KeepaliveMessage, "__init__",
                            counting("keepalives", messages.KeepaliveMessage.__init__))
        monkeypatch.setattr(enum.Enum, "__hash__", counting("enum_hashes", enum.Enum.__hash__))
        monkeypatch.setattr(_DispatchContext, "dispatch",
                            counting("dispatches", _DispatchContext.dispatch))

        def watch(frame, event, arg):
            if event == "return" and frame.f_code is Endpoint.send.__code__:
                closures.extend(
                    v for v in frame.f_locals.values() if isinstance(v, types.FunctionType)
                )

        sys.setprofile(watch)
        try:
            engine.run_for(self.INTERVALS * left._keepalive_timer.interval)
        finally:
            sys.setprofile(None)

        messages_sent = sum(e.sent_count for e in endpoints) - sent_before
        assert messages_sent == 2 * self.INTERVALS
        assert counts == {"keepalives": 0, "enum_hashes": 0, "dispatches": messages_sent}
        assert closures == []
        for session in (left, right):
            assert observed[session] == [FsmEvent.KEEPALIVE_RECEIVED] * self.INTERVALS
            assert list(session.fsm.history)[-self.INTERVALS:] == [
                (State.ESTABLISHED, FsmEvent.KEEPALIVE_RECEIVED, State.ESTABLISHED)
            ] * self.INTERVALS
            assert session.established


class TestTimers:
    def test_keepalives_maintain_session(self):
        engine = Engine()
        left, right = make_pair(engine, hold=(9, 9))
        connect(engine, left, right)
        engine.run(until=100)
        assert left.established and right.established

    def test_hold_expires_without_keepalives(self):
        engine = Engine()
        left, right = make_pair(engine, hold=(9, 9))
        connect(engine, left, right)
        downs = []
        left.on_down = lambda _s, reason: downs.append(reason)
        # Break the keepalive mechanism on the right: stop its timer.
        right._keepalive_timer.stop()
        engine.run(until=30)
        assert not left.established
        assert downs and "hold" in downs[0]

    def test_established_callback(self):
        engine = Engine()
        left, right = make_pair(engine)
        ups = []
        left.on_established = lambda s: ups.append(s)
        connect(engine, left, right)
        assert ups == [left]


class TestShutdown:
    def test_stop_notifies_peer(self):
        engine = Engine()
        left, right = make_pair(engine)
        downs = []
        right.on_down = lambda _s, reason: downs.append(reason)
        connect(engine, left, right)
        left.stop()
        assert not left.established and not right.established
        assert downs and "CEASE" in downs[0]

    def test_channel_close_detected(self):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        left.endpoint.close()
        assert not left.established and not right.established

    def test_stop_idempotent(self):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        left.stop()
        left.stop()
        assert not left.established


class TestGarbageInput:
    def test_garbage_bytes_tear_down(self):
        engine = Engine()
        left, right = make_pair(engine)
        connect(engine, left, right)
        # Inject garbage directly into left's receive path.
        left.endpoint._deliver(b"\x00" * 19)
        assert not left.established
