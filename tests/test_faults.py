"""Fault injection and recovery: injector semantics, links, scripted
plans, mux crash/restart, client failover — and the full deterministic
chaos run the PR's acceptance criteria specify."""

import pytest

from repro.core import Testbed
from repro.faults import FaultConfig, FaultInjector, FaultPlan, Link
from repro.inet.gen import InternetConfig
from repro.inet.topology import ASKind
from repro.net.addr import IPAddress, Prefix
from repro.net.channel import ChannelPair
from repro.sim import Engine
from repro.bgp.session import BGPSession, SessionConfig


# -- injector -----------------------------------------------------------------


def make_wire(engine, config):
    pair = ChannelPair("wire")
    received = []
    pair.b.on_receive = received.append
    injector = FaultInjector(engine, config, label="test")
    injector.attach(pair)
    return pair, received, injector


class TestFaultConfig:
    @pytest.mark.parametrize("field", ["drop_rate", "duplicate_rate", "corrupt_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(ValueError):
            FaultConfig(**{field: value})

    def test_delays_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            FaultConfig(delay=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(jitter=-0.5)


class TestFaultInjector:
    def test_default_config_is_transparent(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, None)
        pair.a.send(b"hello")
        assert received == [b"hello"]
        assert injector.stats.seen == 1
        assert injector.stats.dropped == 0

    def test_drop_everything(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, FaultConfig(drop_rate=1.0))
        for i in range(10):
            pair.a.send(bytes([i]))
        assert received == []
        assert injector.stats.seen == 10
        assert injector.stats.dropped == 10

    def test_duplicate_everything(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, FaultConfig(duplicate_rate=1.0))
        pair.a.send(b"once")
        assert received == [b"once", b"once"]
        assert injector.stats.duplicated == 1

    def test_corrupt_flips_exactly_one_bit(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, FaultConfig(corrupt_rate=1.0))
        payload = b"\x00" * 8
        pair.a.send(payload)
        assert injector.stats.corrupted == 1
        (mutated,) = received
        assert len(mutated) == len(payload)
        assert sum(bin(b).count("1") for b in mutated) == 1

    def test_delay_defers_through_engine(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, FaultConfig(delay=2.0))
        pair.a.send(b"later")
        assert received == []
        engine.run_for(3.0)
        assert received == [b"later"]
        assert injector.stats.delayed == 1

    def test_same_seed_same_faults(self):
        def pattern(seed):
            engine = Engine(seed=seed)
            pair, received, _ = make_wire(engine, FaultConfig(drop_rate=0.5))
            for i in range(100):
                pair.a.send(bytes([i]))
            return list(received)

        assert pattern(42) == pattern(42)
        assert pattern(42) != pattern(43)

    def test_detach_restores_transparency(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, FaultConfig(drop_rate=1.0))
        pair.a.send(b"eaten")
        injector.detach(pair)
        pair.a.send(b"through")
        assert received == [b"through"]
        assert injector.stats.seen == 1

    def test_inactive_passes_through_unseen(self):
        engine = Engine(seed=0)
        pair, received, injector = make_wire(engine, FaultConfig(drop_rate=1.0))
        injector.active = False
        pair.a.send(b"through")
        assert received == [b"through"]
        assert injector.stats.seen == 0


# -- links and plans ----------------------------------------------------------


def make_link(engine, name="link", fault_config=None):
    left = BGPSession(
        engine,
        SessionConfig(
            local_asn=47065,
            peer_asn=3356,
            local_id=IPAddress("10.0.0.1"),
            auto_reconnect=True,
            idle_hold_time=2.0,
            description=f"{name}-L",
        ),
    )
    right = BGPSession(
        engine,
        SessionConfig(
            local_asn=3356,
            peer_asn=47065,
            local_id=IPAddress("10.0.0.2"),
            passive=True,
            auto_reconnect=True,
            idle_hold_time=2.0,
            description=f"{name}-R",
        ),
    )
    link = Link(engine, left, right, name=name, fault_config=fault_config)
    link.start()
    return link


class TestLink:
    def test_sever_provisions_next_generation(self):
        engine = Engine(seed=1)
        link = make_link(engine)
        assert link.established
        assert link.generation == 1
        link.sever()
        engine.run_for(10)
        assert link.established
        assert link.generation == 2
        assert link.cuts == 1

    def test_cut_refuses_transport_until_restore(self):
        engine = Engine(seed=1)
        link = make_link(engine)
        link.cut()
        engine.run_for(60)
        assert not link.established
        assert link.left.connect_retry_count > 0
        link.restore()
        # The pending retry timer keeps its backed-off schedule; give the
        # tail of the ladder (tens of seconds by now) room to fire.
        engine.run_for(200)
        assert link.established

    def test_sessions_survive_lossy_wire(self):
        engine = Engine(seed=6)
        link = make_link(
            engine, fault_config=FaultConfig(delay=0.05, jitter=0.05)
        )
        engine.run_for(1)
        assert link.established
        assert link.injector.stats.seen > 0
        assert link.injector.stats.delayed > 0


class TestFaultPlan:
    def test_flap_logs_each_transition_at_fire_time(self):
        engine = Engine(seed=1)
        link = make_link(engine)
        plan = FaultPlan(engine, "flaps")
        plan.flap_link(link, at=5.0, down_for=2.0, times=2, spacing=10.0)
        assert plan.log == []  # nothing fired yet
        engine.run_for(30)
        assert plan.log == [
            (5.0, "cut", "link"),
            (7.0, "restore", "link"),
            (15.0, "cut", "link"),
            (17.0, "restore", "link"),
        ]
        assert link.established

    def test_overlapping_flaps_rejected(self):
        engine = Engine(seed=1)
        link = make_link(engine)
        plan = FaultPlan(engine, "bad")
        with pytest.raises(ValueError):
            plan.flap_link(link, at=0.0, down_for=10.0, times=2, spacing=5.0)

    def test_partition_heals_together(self):
        engine = Engine(seed=2)
        links = [make_link(engine, name=f"l{i}") for i in range(3)]
        plan = FaultPlan(engine, "part")
        plan.partition(links, at=10.0, heal_after=15.0)
        engine.run_for(12)
        assert not any(link.established for link in links)
        engine.run_for(388)
        assert all(link.established for link in links)

    def test_plans_chain(self):
        engine = Engine(seed=1)
        link = make_link(engine)
        plan = FaultPlan(engine, "chain")
        assert plan.sever_link(link, at=1.0).flap_link(link, at=5.0) is plan


# -- testbed recovery ---------------------------------------------------------


def build_testbed(engine_seed=0):
    tb = Testbed.build_default(
        InternetConfig(n_ases=120, total_prefixes=5_000, seed=11)
    )
    tb.engine.seed = engine_seed
    return tb


def access_asn(tb):
    return next(
        node.asn for node in tb.graph.nodes() if node.kind is ASKind.ACCESS
    )


class TestMuxRecovery:
    def test_crash_and_restart_heal_resilient_client(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        router = client.attach_bgp(
            "gatech01",
            resilient=True,
            idle_hold_time=2.0,
            graceful_restart=True,
        )
        prefix = client.prefixes[0]
        router.originate(prefix)
        tb.engine.run_for(1)
        assert prefix in tb.announced_prefixes()

        gt = tb.server("gatech01")
        gt.crash()
        assert not gt.alive
        assert gt.crash_count == 1
        assert prefix not in tb.announced_prefixes()
        sessions = client.attachments["gatech01"].sessions
        assert not any(s.established for s in sessions.values())
        # Reconnect attempts while the mux is down fail cleanly.
        tb.engine.run_for(5)
        assert not any(s.established for s in sessions.values())

        gt.restart()
        tb.engine.run_for(60)
        assert all(s.established for s in sessions.values())
        # The mux re-announced what the client had on the books.
        assert prefix in tb.announced_prefixes()

        kinds = [e.kind for e in tb.events.events]
        assert "mux-crash" in kinds
        assert "mux-restart" in kinds
        assert "session-reprovisioned" in kinds
        crash_at = kinds.index("mux-crash")
        assert "session-established" in kinds[crash_at:]

    def test_reconnect_refused_while_down(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach_bgp("gatech01", resilient=True, idle_hold_time=2.0)
        gt = tb.server("gatech01")
        gt.crash()
        assert gt.reconnect_endpoint("exp", next(iter(gt.site.upstream_asns))) is None

    def test_failover_moves_client_to_backup(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        router = client.attach_bgp("gatech01", resilient=True, idle_hold_time=2.0)
        prefix = client.prefixes[0]
        router.originate(prefix)
        tb.engine.run_for(1)
        client.enable_failover("gatech01", "usc01")

        tb.server("gatech01").crash()
        tb.engine.run_for(30)
        assert "gatech01" not in client.attachments
        assert "usc01" in client.attachments
        backup = client.attachments["usc01"]
        assert all(s.established for s in backup.sessions.values())
        # The prefix followed the client to the backup site.
        assert prefix in tb.announced_prefixes()
        assert any(e.kind == "client-failover" for e in tb.events.events)

    def test_failover_to_dead_backup_aborts(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        router = client.attach_bgp("gatech01", resilient=True, idle_hold_time=2.0)
        router.originate(client.prefixes[0])
        tb.engine.run_for(1)
        client.enable_failover("gatech01", "usc01")
        tb.server("usc01").crash()
        tb.server("gatech01").crash()
        tb.engine.run_for(30)
        # Both muxes dead: keep the primary attachment (it may restart)
        # rather than detaching into the void.
        assert sorted(client.attachments) == ["gatech01"]
        assert any(e.kind == "failover-aborted" for e in tb.events.events)
        # A dead mux refuses new clients outright.
        with pytest.raises(ValueError):
            tb.server("usc01").connect_client("someone-else")
        # The primary coming back heals everything without operator action.
        tb.server("gatech01").restart()
        tb.engine.run_for(120)
        sessions = client.attachments["gatech01"].sessions
        assert all(s.established for s in sessions.values())
        assert client.prefixes[0] in tb.announced_prefixes()


# -- the acceptance chaos run -------------------------------------------------

CRASH_AT = 150.0
CRASH_FOR = 20.0


def chaos_scenario(engine_seed):
    """Seeded chaos: every session bounced three times, then the mux
    crashes for 20 s and restarts.  Returns everything the assertions
    (and the determinism comparison) need."""
    tb = build_testbed(engine_seed)
    client = tb.register_client("chaos", "alice")
    router = client.attach_bgp(
        "gatech01",
        resilient=True,
        idle_hold_time=2.0,
        graceful_restart=True,
        restart_time=60,
    )
    prefix = client.prefixes[0]
    router.originate(prefix)
    gt = tb.server("gatech01")
    dest = access_asn(tb)
    dest_prefix = Prefix("203.0.113.0/24")
    gt.relay_destination("chaos", dest, dest_prefix)

    sessions = dict(sorted(client.attachments["gatech01"].sessions.items()))
    plan = FaultPlan(tb.engine, "chaos")
    for i, session in enumerate(sessions.values()):
        plan.bounce_session(session, at=10.0 + 7.0 * i, times=3, spacing=40.0)
    # Each bounce's End-of-RIB legitimately flushes the one-shot relayed
    # routes; push them again just before the crash so graceful-restart
    # retention has paths to retain.
    tb.engine.schedule_at(
        CRASH_AT - 5.0,
        lambda: gt.relay_destination("chaos", dest, dest_prefix),
        label="chaos:re-relay",
    )
    plan.crash_mux(gt, at=CRASH_AT, down_for=CRASH_FOR)
    return tb, client, router, gt, plan, sessions, prefix


class TestChaosRun:
    def test_chaos_run_recovers_everything(self):
        tb, client, router, gt, plan, sessions, prefix = chaos_scenario(3)

        # Mid-crash: mux dead, sessions down, stale paths retained.
        tb.engine.run_for(CRASH_AT + 2.0)
        assert not gt.alive
        assert not any(s.established for s in sessions.values())
        stale = sum(
            router.peer(f"mux-gatech01-{key}").adj_in.stale_count()
            for key in sessions
        )
        assert stale > 0
        assert all(s.last_down_graceful for s in sessions.values())

        # After recovery: everything re-established, nothing stale.
        tb.engine.run_for(400.0 - (CRASH_AT + 2.0))
        assert gt.alive
        assert all(s.established for s in sessions.values())
        for key in sessions:
            assert router.peer(f"mux-gatech01-{key}").adj_in.stale_count() == 0
        assert prefix in tb.announced_prefixes()

        # Every session was bounced three times and crashed once: at
        # least five establishments (initial + 3 bounces + crash).
        for session in sessions.values():
            assert session.established_count >= 5

        # Reconnect attempts during the crash window back off
        # exponentially (doubling base, jitter in [0.75, 1.0]).
        session = next(iter(sessions.values()))
        window = [
            delay
            for scheduled_at, delay in session.reconnect_log
            if CRASH_AT <= scheduled_at <= CRASH_AT + CRASH_FOR
        ]
        assert len(window) >= 2
        for earlier, later in zip(window, window[1:]):
            assert later > earlier
            assert 1.4 <= later / earlier <= 2.7

        # The plan itself fired every fault it scheduled.
        actions = [action for _, action, _ in plan.log]
        assert actions.count("bounce") == 3 * len(sessions)
        assert actions.count("crash") == 1
        assert actions.count("restart") == 1

    def test_chaos_run_is_seed_deterministic(self):
        def run(seed):
            tb, *_rest, plan, _sessions, _prefix = chaos_scenario(seed)
            tb.engine.run_for(400.0)
            return tb.events.log(), plan.log

        events_a, plan_a = run(9)
        events_b, plan_b = run(9)
        assert events_a == events_b
        assert plan_a == plan_b
        assert len(events_a) > 0

        events_c, _ = run(10)
        assert events_a != events_c
