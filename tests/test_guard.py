"""The supervision layer (repro.guard): circuit breakers, quarantine,
watchdog, control journaling — unit tests, integration tests against the
live testbed, stale-outcome regression tests, and the chaos acceptance
run the PR's criteria specify."""

import pytest

from repro.bgp.attributes import ASPath, Origin, PathAttributes
from repro.core import Testbed
from repro.core.alerts import Severity
from repro.core.safety import SafetyVerdict
from repro.core.server import AnnouncementSpec, MuxMode, spec_from_tuple, spec_to_tuple
from repro.faults import FaultPlan
from repro.guard import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ControlJournal,
    JournalRecord,
    QuarantineConfig,
    QuarantineManager,
    WatchdogConfig,
)
from repro.inet.gen import InternetConfig
from repro.net.addr import Prefix
from repro.sim import Engine
from repro.telemetry.routemon import BMPKind


# -- shared builders ----------------------------------------------------------


def build_testbed(engine_seed=0):
    tb = Testbed.build_default(
        InternetConfig(n_ases=120, total_prefixes=5_000, seed=11)
    )
    tb.engine.seed = engine_seed
    return tb


FAST_BREAKER = BreakerConfig(
    window_seconds=10.0,
    max_updates_per_window=20,
    max_flaps_per_window=8,
    max_prefixes=4,
    cooldown=20.0,
    probe_window=10.0,
)
FAST_QUARANTINE = QuarantineConfig(strike_threshold=2, base_duration=80.0)
FAST_WATCHDOG = WatchdogConfig(probe_interval=2.0, restart_delay=5.0)


def supervise_fast(tb):
    return tb.supervise(
        breaker=FAST_BREAKER, quarantine=FAST_QUARANTINE, watchdog=FAST_WATCHDOG
    )


def routes_of(outcome, graph):
    """Route-for-route snapshot of an outcome: asn -> AS path."""
    return {
        node.asn: outcome.as_path(node.asn)
        for node in graph.nodes()
    }


# -- journal unit tests -------------------------------------------------------


class TestControlJournal:
    def test_sequence_is_monotonic_and_shared(self):
        journal = ControlJournal()
        a = journal.append(0.0, "connect", server="s", client="c")
        direct = journal.next_seq()  # e.g. the safety audit log drawing
        b = journal.append(1.0, "announce", server="s", client="c",
                           prefix="184.164.224.0/24", spec=(None, 0, ()))
        assert a.seq < direct < b.seq

    def test_replay_folds_announce_withdraw(self):
        journal = ControlJournal()
        journal.append(0.0, "connect", server="s1", client="c1")
        journal.append(1.0, "announce", server="s1", client="c1",
                       prefix="184.164.224.0/24", spec=(None, 0, ()))
        journal.append(2.0, "announce", server="s1", client="c1",
                       prefix="184.164.225.0/24", spec=((7,), 2, (13,)))
        journal.append(3.0, "withdraw", server="s1", client="c1",
                       prefix="184.164.224.0/24")
        state = journal.server_state("s1")
        assert state == {"c1": {"184.164.225.0/24": ((7,), 2, (13,))}}

    def test_replay_is_idempotent_for_redundant_records(self):
        journal = ControlJournal()
        spec = (None, 0, ())
        for _ in range(3):  # re-announcing the same state is a no-op
            journal.append(0.0, "announce", server="s", client="c",
                           prefix="184.164.224.0/24", spec=spec)
        journal.append(1.0, "withdraw", server="s", client="c",
                       prefix="184.164.230.0/24")  # absent: ignored
        assert journal.server_state("s") == {"c": {"184.164.224.0/24": spec}}

    def test_quarantine_clears_client_everywhere_release_unblocks(self):
        journal = ControlJournal()
        for server in ("s1", "s2"):
            journal.append(0.0, "announce", server=server, client="evil",
                           prefix="184.164.224.0/24", spec=(None, 0, ()))
        journal.append(1.0, "announce", server="s1", client="good",
                       prefix="184.164.225.0/24", spec=(None, 0, ()))
        journal.append(2.0, "quarantine", client="evil")
        snap = journal.replay()
        assert snap.quarantined == ("evil",)
        assert journal.server_state("s1") == {
            "evil": {}, "good": {"184.164.225.0/24": (None, 0, ())}
        }
        assert journal.server_state("s2") == {"evil": {}}
        journal.append(3.0, "release", client="evil")
        assert journal.quarantined_clients() == ()

    def test_snapshot_compaction_invariant(self):
        """replay(snapshot + tail) == replay(full log) at every split."""
        actions = [
            (0.0, "connect", "s1", "c1", "", None),
            (1.0, "announce", "s1", "c1", "184.164.224.0/24", (None, 0, ())),
            (2.0, "announce", "s2", "c2", "184.164.225.0/24", ((9,), 1, ())),
            (3.0, "withdraw", "s1", "c1", "184.164.224.0/24", None),
            (4.0, "announce", "s1", "c1", "184.164.226.0/24", (None, 3, (5,))),
            (5.0, "quarantine", "", "c2", "", None),
            (6.0, "release", "", "c2", "", None),
            (7.0, "announce", "s2", "c2", "184.164.225.0/24", (None, 0, ())),
            (8.0, "disconnect", "s1", "c1", "", None),
        ]

        def journal_with(entries):
            j = ControlJournal()
            for time, action, server, client, prefix, spec in entries:
                j.append(time, action, server=server, client=client,
                         prefix=prefix, spec=spec)
            return j

        full = journal_with(actions).replay()
        for split in range(len(actions) + 1):
            j = journal_with(actions[:split])
            j.snapshot()  # compacts, truncates the tail
            assert j.records == []
            for time, action, server, client, prefix, spec in actions[split:]:
                j.append(time, action, server=server, client=client,
                         prefix=prefix, spec=spec)
            snap = j.replay()
            assert snap.announcements == full.announcements, f"split={split}"
            assert snap.quarantined == full.quarantined, f"split={split}"
            assert snap.attached == full.attached, f"split={split}"

    def test_dump_load_round_trip(self):
        journal = ControlJournal()
        journal.append(0.5, "connect", server="s", client="c")
        journal.append(1.5, "announce", server="s", client="c",
                       prefix="184.164.224.0/24", spec=((3, 4), 1, (9,)))
        lines = journal.dump_lines()
        loaded = ControlJournal.load_lines(iter(lines))
        assert loaded.records == journal.records
        assert loaded.replay().announcements == journal.replay().announcements
        # the loaded journal continues the sequence, not restarts it
        assert loaded.append(2.0, "release", client="c").seq > lines_last_seq(lines)

    def test_record_line_round_trip(self):
        record = JournalRecord(seq=7, time=3.25, action="announce", server="s",
                               client="c", prefix="184.164.224.0/24",
                               spec=((1, 2), 3, (4,)))
        assert JournalRecord.from_line(record.to_line()) == record

    def test_spec_tuple_round_trip(self):
        spec = AnnouncementSpec(peers=(7, 9), prepend=2, poison=(13,))
        assert spec_from_tuple(spec_to_tuple(spec)) == spec
        bare = AnnouncementSpec()
        assert spec_from_tuple(spec_to_tuple(bare)) == bare


def lines_last_seq(lines):
    import json

    return json.loads(lines[-1])["seq"]


# -- breaker unit tests -------------------------------------------------------


class TestCircuitBreaker:
    def test_update_storm_trips(self):
        b = CircuitBreaker(BreakerConfig(window_seconds=10, max_updates_per_window=5))
        assert all(b.admit_update(float(i) / 10) for i in range(5))
        assert not b.admit_update(0.6)
        assert b.state is BreakerState.OPEN
        assert "storm" in b.trip_reason

    def test_window_slides(self):
        b = CircuitBreaker(BreakerConfig(window_seconds=1.0, max_updates_per_window=5))
        for i in range(20):  # 2 per second: never more than 2 in any window
            assert b.admit_update(i * 0.5)
        assert b.state is BreakerState.CLOSED

    def test_flap_rate_trips(self):
        b = CircuitBreaker(BreakerConfig(window_seconds=10, max_flaps_per_window=3))
        for i in range(3):
            assert b.record_flap(float(i))
        assert not b.record_flap(3.0)
        assert b.state is BreakerState.OPEN

    def test_max_prefix_trips(self):
        b = CircuitBreaker(BreakerConfig(max_prefixes=2))
        assert b.admit_prefix_count(2, 0.0)
        assert not b.admit_prefix_count(3, 1.0)
        assert b.state is BreakerState.OPEN
        assert "max-prefix" in b.trip_reason

    def test_open_refuses_everything(self):
        b = CircuitBreaker()
        b.trip(0.0, "test")
        assert not b.admit_update(1.0)
        assert not b.record_flap(1.0)
        assert not b.admit_prefix_count(1, 1.0)

    def test_cooldown_doubles_and_caps(self):
        config = BreakerConfig(cooldown=10.0, cooldown_max=35.0)
        b = CircuitBreaker(config)
        assert b.trip(0.0, "first") == 10.0
        b.half_open(10.0)
        assert b.trip(11.0, "second") == 20.0
        b.half_open(31.0)
        assert b.trip(32.0, "third") == 35.0  # capped

    def test_clean_probe_resets_trip_ladder(self):
        b = CircuitBreaker(BreakerConfig(cooldown=10.0))
        b.trip(0.0, "once")
        b.half_open(10.0)
        b.close(20.0)
        assert b.state is BreakerState.CLOSED
        assert b.trips == 0
        assert b.trip(21.0, "fresh") == 10.0  # back to base cooldown

    def test_violation_while_half_open_retrips(self):
        b = CircuitBreaker(BreakerConfig(window_seconds=10, max_updates_per_window=2))
        b.trip(0.0, "first")
        b.half_open(30.0)
        assert b.admit_update(30.1)
        assert b.admit_update(30.2)
        assert not b.admit_update(30.3)  # probe failed
        assert b.state is BreakerState.OPEN
        assert b.trips == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(window_seconds=0)
        with pytest.raises(ValueError):
            BreakerConfig(max_prefixes=0)


# -- quarantine unit tests ----------------------------------------------------


class _StubSupervisor:
    """Just enough Supervisor surface for QuarantineManager unit tests."""

    def __init__(self):
        from repro.core.alerts import EventBus

        self.engine = Engine()
        self.events = EventBus(self.engine)
        self.contained = []
        self.readmitted = []

    def contain_client(self, client_id, reason):
        self.contained.append((client_id, reason))
        return 0

    def readmit_client(self, client_id):
        self.readmitted.append(client_id)


class TestQuarantineManager:
    def test_strikes_accumulate_to_quarantine(self):
        sup = _StubSupervisor()
        q = QuarantineManager(sup, QuarantineConfig(strike_threshold=3))
        assert not q.strike("c", "one", 0.0)
        assert not q.strike("c", "two", 1.0)
        assert q.strike("c", "three", 2.0)
        assert q.is_quarantined("c")
        assert sup.contained == [("c", "3 strikes: three")]

    def test_strikes_decay_outside_window(self):
        sup = _StubSupervisor()
        q = QuarantineManager(
            sup, QuarantineConfig(strike_threshold=2, strike_window=10.0)
        )
        q.strike("c", "old", 0.0)
        assert not q.strike("c", "much later", 100.0)  # first one decayed
        assert not q.is_quarantined("c")

    def test_duration_doubles_per_offense_and_caps(self):
        sup = _StubSupervisor()
        q = QuarantineManager(
            sup,
            QuarantineConfig(
                strike_threshold=1, base_duration=100.0, max_duration=300.0
            ),
        )
        assert q.quarantine("c", "first", 0.0) == 100.0
        q.release("c", 100.0)
        assert q.quarantine("c", "second", 200.0) == 200.0
        q.release("c", 400.0)
        assert q.quarantine("c", "third", 500.0) == 300.0  # capped

    def test_timed_release_fires_on_engine(self):
        sup = _StubSupervisor()
        q = QuarantineManager(
            sup, QuarantineConfig(strike_threshold=1, base_duration=50.0)
        )
        q.strike("c", "bad", 0.0)
        assert q.is_quarantined("c")
        sup.engine.run_for(49.0)
        assert q.is_quarantined("c")
        sup.engine.run_for(2.0)
        assert not q.is_quarantined("c")
        assert sup.readmitted == ["c"]

    def test_strikes_while_quarantined_are_ignored(self):
        sup = _StubSupervisor()
        q = QuarantineManager(sup, QuarantineConfig(strike_threshold=1))
        q.strike("c", "bad", 0.0)
        assert not q.strike("c", "still bad", 1.0)
        assert q.offenses("c") == 1


# -- safety enforcer satellites ------------------------------------------------


class TestSafetyAudit:
    def test_audit_entries_carry_monotonic_seq(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        client.announce(client.prefixes[0])
        client.announce(Prefix("10.0.0.0/24"))  # hijack: blocked
        log = tb.server("gatech01").safety.audit_log
        assert len(log) >= 2
        seqs = [entry.seq for entry in log]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_violation_counter_and_reset(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        safety = tb.server("gatech01").safety
        client.announce(Prefix("10.0.0.0/24"))
        client.announce(Prefix("10.0.1.0/24"))
        assert safety.violation_count("exp") == 2
        safety.reset_client("exp")
        assert safety.violation_count("exp") == 0

    def test_on_violation_hook_fires(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        seen = []
        tb.server("gatech01").safety.on_violation = (
            lambda cid, decision, now: seen.append((cid, decision.verdict))
        )
        client.announce(Prefix("10.0.0.0/24"))
        assert seen == [("exp", SafetyVerdict.PREFIX_OUTSIDE_TESTBED)]

    def test_supervised_audit_shares_journal_sequence(self):
        tb = build_testbed()
        supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        client.announce(client.prefixes[0])  # journaled
        client.announce(Prefix("10.0.0.0/24"))  # audited (blocked)
        journal_seqs = {r.seq for r in tb.journal.records}
        audit_seqs = {e.seq for e in tb.server("gatech01").safety.audit_log}
        assert journal_seqs and audit_seqs
        assert not journal_seqs & audit_seqs  # one shared counter, no collisions

    def test_damper_reset_peer_clears_entries(self):
        from repro.bgp.dampening import RouteFlapDamper

        damper = RouteFlapDamper()
        p = Prefix("184.164.224.0/24")
        for t in range(6):
            damper.record_withdrawal("c1", p, float(t))
        damper.record_withdrawal("c2", p, 0.0)
        assert damper.reset_peer("c1") == 1
        assert damper.flap_count("c1", p) == 0
        assert damper.flap_count("c2", p) == 1


class TestSeverity:
    def test_of_severity_filters_and_orders(self):
        tb = build_testbed()
        tb.events.emit("a", source="x", severity="info")
        tb.events.emit("b", source="x", severity="critical")
        tb.events.emit("c", source="x")  # untagged: never in severity views
        assert [e.kind for e in tb.events.of_severity(Severity.WARNING)] == ["b"]
        assert [e.kind for e in tb.events.of_severity(Severity.INFO)] == ["a", "b"]


# -- journal-driven crash recovery --------------------------------------------


class TestJournalRecovery:
    def test_unsupervised_hard_crash_loses_state(self):
        """The motivating failure: without the journal, a hard crash wipes
        announcement state and restart cannot restore it."""
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        gt = tb.server("gatech01")
        gt.crash(hard=True)
        gt.restart()
        assert gt.announcements_for("exp") == {}
        assert prefix not in tb.announced_prefixes()

    def test_supervised_hard_crash_restores_from_journal(self):
        """A hard-crashed mux rebuilds announcements_for() from the journal
        deterministically — no client reconnect, no manual re-announce."""
        tb = build_testbed()
        supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        spec = AnnouncementSpec(prepend=2)
        tb.server("gatech01").announce("exp", prefix, spec)
        before = routes_of(tb.outcome_for(prefix), tb.graph)

        gt = tb.server("gatech01")
        gt.crash(hard=True)
        assert prefix not in tb.announced_prefixes()
        tb.engine.run_for(30)  # watchdog detects + restarts; no client action

        assert gt.alive
        assert gt.announcements_for("exp") == {prefix: spec}
        assert prefix in tb.announced_prefixes()
        after = routes_of(tb.outcome_for(prefix), tb.graph)
        assert after == before  # route-for-route identical
        assert any(e.kind == "watchdog-restarted" for e in tb.events.events)

    def test_journal_records_intent_not_infrastructure(self):
        """Crash-driven retractions must not be journaled as withdrawals,
        else replay would restore nothing."""
        tb = build_testbed()
        supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        records_before = len(tb.journal.records)
        tb.server("gatech01").crash(hard=True)
        assert len(tb.journal.records) == records_before  # nothing journaled
        state = tb.journal.server_state("gatech01")
        assert str(prefix) in state["exp"]

    def test_snapshot_compaction_preserves_recovery(self):
        tb = build_testbed()
        supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        tb.journal.snapshot()  # compact mid-flight
        assert tb.journal.records == []
        tb.server("gatech01").crash(hard=True)
        tb.engine.run_for(30)
        assert prefix in tb.announced_prefixes()
        assert tb.server("gatech01").announcements_for("exp") == {
            prefix: AnnouncementSpec()
        }


# -- watchdog ------------------------------------------------------------------


class TestWatchdog:
    def test_wedged_mux_is_killed_and_restarted(self):
        tb = build_testbed()
        supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        gt = tb.server("gatech01")
        gt.wedge()
        assert gt.alive and gt.wedged
        assert not gt.probe()
        tb.engine.run_for(30)
        # wedged -> force hard-crash -> restart -> journal restore
        assert gt.alive and not gt.wedged
        assert gt.crash_count == 1
        assert prefix in tb.announced_prefixes()
        kinds = [e.kind for e in tb.events.events]
        assert "watchdog-wedged" in kinds
        assert kinds.index("watchdog-wedged") < kinds.index("watchdog-restarted")

    def test_wedged_mux_ignores_updates_and_relays_nothing(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        router = client.attach_bgp("gatech01", resilient=True, idle_hold_time=2.0)
        tb.engine.run_for(1)
        gt = tb.server("gatech01")
        gt.wedge()
        router.originate(client.prefixes[0])
        tb.engine.run_for(1)
        assert client.prefixes[0] not in tb.announced_prefixes()

    def test_watchdog_stops_cleanly(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        tb.engine.run_for(10)
        probes = sup.watchdog.probes
        sup.watchdog.stop()
        tb.engine.run_for(10)
        assert sup.watchdog.probes == probes


# -- breaker + quarantine integration ------------------------------------------


def storm_attrs(attachment):
    return PathAttributes(
        origin=Origin.IGP,
        as_path=ASPath(),
        next_hop=attachment.tunnel.address,
    )


def attach_and_originate(tb, client, site):
    """attach_bgp + originate + settle — the storm prefix must be a
    routinely-announced route so the *flap-rate breaker* (not the RFC 2439
    damper, which suppresses never-before-seen churn much faster) is the
    mechanism under test."""
    client.attach_bgp(site, resilient=True, idle_hold_time=2.0)
    tb.engine.run_for(1)
    att = client.attachments[site]
    att.router.originate(client.prefixes[0])
    tb.engine.run_for(1)
    return att


@pytest.mark.parametrize("mode", [MuxMode.QUAGGA, MuxMode.BIRD], ids=["quagga", "bird"])
def test_supervision_paths_in_both_mux_modes(mode):
    """Session count, supervision teardown, crash/restart, re-provisioning
    and disconnect act on every mux-side session of a client, whether it
    has one per peer (QUAGGA) or one ADD-PATH session keyed 0 (BIRD)."""
    tb = build_testbed()
    supervise_fast(tb)
    server = tb.server("usc01")
    peers = sorted(server.neighbor_asns)[:3]
    keys = [0] if mode is MuxMode.BIRD else peers
    client = tb.register_client("exp", "alice")
    client.attach_bgp("usc01", mode=mode, peer_asns=peers, resilient=True, idle_hold_time=2.0)
    tb.engine.run_for(1)
    att = client.attachments["usc01"]
    att.router.originate(client.prefixes[0])
    tb.engine.run_for(1)
    assert sorted(att.sessions) == keys
    assert server.client_session_count("exp") == server.client_session_count() == len(keys)
    assert client.prefixes[0] in tb.announced_prefixes()
    # A healthy session is not re-provisioned; an unknown key never is.
    assert server.reconnect_endpoint("exp", keys[0]) is None
    assert server.reconnect_endpoint("exp", 1) is None

    # observe() after connect taps each mux-side session exactly once.
    monitor = tb.observe().monitor

    def bmp(kind):
        return [m.peer for m in monitor.messages if m.kind is kind and m.client_id == "exp"]

    assert server.drop_client_sessions("exp") == len(keys)
    assert server.drop_client_sessions("exp") == 0  # nothing left to drop
    assert bmp(BMPKind.PEER_DOWN) == [key or None for key in keys]
    tb.engine.run_for(10)  # the client backs off, then re-provisions each key
    assert all(s.established for s in att.sessions.values())
    assert bmp(BMPKind.PEER_UP) == [key or None for key in keys]

    server.crash()
    assert not any(s.established for s in att.sessions.values())
    assert client.prefixes[0] not in tb.announced_prefixes()
    assert server.reconnect_endpoint("exp", keys[0]) is None  # mux is down
    tb.engine.run_for(30)  # the watchdog restarts the mux; sessions come back
    assert server.alive
    assert all(s.established for s in att.sessions.values())
    assert client.prefixes[0] in tb.announced_prefixes()
    assert server.client_session_count("exp") == len(keys)

    server.disconnect_client("exp")
    assert server.client_session_count() == 0
    assert server.drop_client_sessions("exp") == 0
    assert server.reconnect_endpoint("exp", keys[0]) is None
    assert client.prefixes[0] not in tb.announced_prefixes()


class TestBreakerIntegration:
    def test_storm_trips_breaker_and_tears_session_down(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        att = attach_and_originate(tb, client, "usc01")
        sess = att.sessions[sorted(att.sessions)[0]]
        plan = FaultPlan(tb.engine, "storm")
        plan.storm_updates(
            sess, client.prefixes[0], storm_attrs(att), at=3.0,
            updates=40, interval=0.25,
        )
        tb.engine.run_for(15)
        breaker = sup.breaker_for(tb.server("usc01"), "exp")
        assert breaker.state is BreakerState.OPEN
        assert not any(s.established for s in att.sessions.values())
        assert any(e.kind == "breaker-open" for e in tb.events.events)
        # Reprovisioning is refused while OPEN: reconnect can't defeat it.
        usc = tb.server("usc01")
        assert usc.reconnect_endpoint("exp", sorted(att.sessions)[0]) is None

    def test_half_open_readmits_then_closes_after_clean_probe(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        att = attach_and_originate(tb, client, "usc01")
        sess = att.sessions[sorted(att.sessions)[0]]
        plan = FaultPlan(tb.engine, "storm")
        plan.storm_updates(
            sess, client.prefixes[0], storm_attrs(att), at=3.0,
            updates=40, interval=0.25,
        )
        # storm ends by ~13s; cooldown 20s; probe window 10s; reconnect <30s
        tb.engine.run_for(60)
        breaker = sup.breaker_for(tb.server("usc01"), "exp")
        assert breaker.state is BreakerState.CLOSED
        assert any(s.established for s in att.sessions.values())
        kinds = [e.kind for e in tb.events.events]
        assert kinds.index("breaker-open") < kinds.index("breaker-half-open")
        assert kinds.index("breaker-half-open") < kinds.index("breaker-closed")

    def test_max_prefix_breaker_blocks_programmatic_announce(self):
        tb = build_testbed()
        supervise_fast(tb)
        client = tb.register_client("exp", "alice", prefix_count=6)
        client.attach("gatech01")
        server = tb.server("gatech01")
        decisions = [server.announce("exp", p) for p in client.prefixes[:4]]
        assert all(d.allowed for d in decisions)
        # 5th concurrent prefix exceeds max_prefixes=4: trips + refuses
        tripped = server.announce("exp", client.prefixes[4])
        assert tripped.verdict is SafetyVerdict.BREAKER_OPEN
        assert client.prefixes[4] not in tb.announced_prefixes()


class TestQuarantineIntegration:
    def _storming_client(self, tb):
        client = tb.register_client("bad", "mallory")
        client.attach_bgp("usc01", resilient=True, idle_hold_time=2.0)
        tb.engine.run_for(1)
        att = client.attachments["usc01"]
        sess = att.sessions[sorted(att.sessions)[0]]
        router = att.router
        router.originate(client.prefixes[0])
        tb.engine.run_for(1)
        plan = FaultPlan(tb.engine, "storm")
        # Long storm: survives the first trip, resumes on half-open
        # reconnect, trips again -> second strike -> quarantine.
        plan.storm_updates(
            sess, client.prefixes[0], storm_attrs(att), at=3.0,
            updates=400, interval=0.25,
        )
        return client, att

    def test_repeat_offender_is_quarantined_then_released(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        client, att = self._storming_client(tb)
        prefix = client.prefixes[0]
        assert prefix in tb.announced_prefixes()

        tb.engine.run_for(60)
        # Quarantined: withdrawn everywhere, no outcome, sessions down.
        assert sup.quarantine.is_quarantined("bad")
        assert prefix not in tb.announced_prefixes()
        assert tb.outcome_for(prefix) is None
        assert not any(s.established for s in att.sessions.values())
        # New attachments and programmatic announcements are refused.
        with pytest.raises(ValueError, match="quarantined"):
            tb.server("gatech01").connect_client("bad")
        decision = tb.server("usc01").announce("bad", prefix)
        assert decision.verdict is SafetyVerdict.QUARANTINED

        # Timed release on the backoff schedule: re-admitted, clean slate,
        # sessions re-establish, the router re-announces, routes return.
        tb.engine.run_for(200)
        assert not sup.quarantine.is_quarantined("bad")
        assert any(s.established for s in att.sessions.values())
        assert prefix in tb.announced_prefixes()
        assert tb.server("usc01").safety.violation_count("bad") == 0
        kinds = [e.kind for e in tb.events.events]
        assert kinds.index("client-quarantined") < kinds.index("client-released")

    def test_damping_violations_escalate_to_quarantine(self):
        """The other road to quarantine: churning a never-established
        prefix racks up RFC 2439 damping denials, each a safety violation,
        and the violation hook strikes the client out."""
        tb = build_testbed()
        sup = supervise_fast(tb)
        client = tb.register_client("bad", "mallory")
        client.attach_bgp("usc01", resilient=True, idle_hold_time=2.0)
        tb.engine.run_for(1)
        att = client.attachments["usc01"]
        sess = att.sessions[sorted(att.sessions)[0]]
        plan = FaultPlan(tb.engine, "churn")
        plan.storm_updates(
            sess, client.prefixes[0], storm_attrs(att), at=2.0,
            updates=40, interval=0.25,
        )
        tb.engine.run_for(20)
        assert sup.quarantine.is_quarantined("bad")
        strikes = tb.events.of_kind("client-strike")
        assert strikes and all(
            "damped" in e.detail_dict()["reason"] for e in strikes
        )

    def test_escalation_trail_severities(self):
        tb = build_testbed()
        supervise_fast(tb)
        self._storming_client(tb)
        tb.engine.run_for(60)
        critical = [e.kind for e in tb.events.of_severity(Severity.CRITICAL)]
        assert "breaker-open" in critical
        assert "client-quarantined" in critical
        warnings = [e.kind for e in tb.events.of_severity(Severity.WARNING)]
        assert "client-strike" in warnings


# -- stale-outcome regression (satellite: engine cache invalidation) -----------


class TestOutcomeInvalidation:
    def test_crash_invalidates_cached_outcome(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        client.attach("usc01")
        prefix = client.prefixes[0]
        client.announce(prefix, servers=["gatech01", "usc01"])
        before = tb.outcome_for(prefix)
        assert before is not None

        tb.server("gatech01").crash()
        after = tb.outcome_for(prefix)
        # usc01 still announces: the outcome must reconverge, not be the
        # stale two-site result.
        assert after is not None
        assert routes_of(after, tb.graph) != routes_of(before, tb.graph)

        tb.server("usc01").crash()
        assert tb.outcome_for(prefix) is None  # fully withdrawn: no routes

    def test_restart_reconverges_to_original_routes(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        before = routes_of(tb.outcome_for(prefix), tb.graph)
        tb.server("gatech01").crash()
        assert tb.outcome_for(prefix) is None
        tb.server("gatech01").restart()
        assert routes_of(tb.outcome_for(prefix), tb.graph) == before

    def test_quarantine_withdrawal_reaches_dataplane(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        assert tb.outcome_for(prefix) is not None
        sup.quarantine.quarantine("exp", "operator action", tb.engine.now)
        assert prefix not in tb.announced_prefixes()
        assert tb.outcome_for(prefix) is None
        assert tb.dataplane._outcomes.get(prefix) is None

    def test_engine_cache_not_stale_across_spec_change(self):
        tb = build_testbed()
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        plain = routes_of(tb.outcome_for(prefix), tb.graph)
        tb.server("gatech01").withdraw("exp", prefix)
        assert tb.outcome_for(prefix) is None
        decision = tb.server("gatech01").announce(
            "exp", prefix, AnnouncementSpec(prepend=4)
        )
        assert decision.allowed  # one flap cycle: below damping threshold
        prepended = routes_of(tb.outcome_for(prefix), tb.graph)
        assert plain != prepended  # prepending must shift some paths


# -- chaos acceptance ----------------------------------------------------------


def chaos_run(engine_seed=0):
    """The acceptance scenario: a mux hard-crashes mid-sweep while another
    client storms.  Returns (testbed, supervisor, good routes before/after,
    event kinds)."""
    tb = build_testbed(engine_seed)
    sup = supervise_fast(tb)

    good = tb.register_client("good", "alice")
    router = good.attach_bgp(
        "gatech01", resilient=True, idle_hold_time=2.0, graceful_restart=True
    )
    good_prefix = good.prefixes[0]
    router.originate(good_prefix)

    bad = tb.register_client("bad", "mallory")
    bad.attach_bgp("usc01", resilient=True, idle_hold_time=2.0)
    bad_att = bad.attachments["usc01"]
    bad_att.router.originate(bad.prefixes[0])
    tb.engine.run_for(1)

    before = routes_of(tb.outcome_for(good_prefix), tb.graph)

    sess = bad_att.sessions[sorted(bad_att.sessions)[0]]
    plan = FaultPlan(tb.engine, "chaos")
    plan.crash_mux(tb.server("gatech01"), at=10.0, hard=True)
    plan.storm_updates(
        sess, bad.prefixes[0], storm_attrs(bad_att), at=5.0,
        updates=400, interval=0.25,
    )
    plan.wedge_mux(tb.server("wisconsin01"), at=30.0)

    tb.engine.run_for(60)
    mid_quarantined = sup.quarantine.quarantined()
    mid_announced = set(tb.announced_prefixes())

    tb.engine.run_for(240)  # through release + re-admission
    after = routes_of(tb.outcome_for(good_prefix), tb.graph)
    return {
        "tb": tb,
        "sup": sup,
        "good_prefix": good_prefix,
        "bad_prefix": bad.prefixes[0],
        "before": before,
        "after": after,
        "mid_quarantined": mid_quarantined,
        "mid_announced": mid_announced,
    }


class TestChaosAcceptance:
    def test_self_healing_end_to_end(self):
        run = chaos_run()
        tb, sup = run["tb"], run["sup"]

        # The storming client ended up quarantined mid-run; its routes
        # were withdrawn everywhere (no stale routes).
        assert run["mid_quarantined"] == ["bad"]
        assert run["bad_prefix"] not in run["mid_announced"]

        # The well-behaved client's announcement survived a HARD mux crash
        # with zero manual calls: watchdog + journal restored it,
        # route-for-route identical.
        assert run["good_prefix"] in run["mid_announced"]
        assert run["after"] == run["before"]

        # The wedged mux was detected, killed, and restarted.
        assert sup.watchdog.kills == 1
        assert sup.watchdog.restarts >= 2  # gatech01 + wisconsin01
        assert tb.server("wisconsin01").probe()
        assert tb.server("gatech01").probe()

        # The storming client was re-admitted on the backoff schedule and
        # its announcement returned.
        assert not sup.quarantine.is_quarantined("bad")
        assert run["bad_prefix"] in tb.announced_prefixes()

        # Escalation trail ordering on the bus.
        kinds = [e.kind for e in tb.events.events]
        for earlier, later in [
            ("breaker-open", "client-quarantined"),
            ("client-quarantined", "client-released"),
            ("watchdog-crash-detected", "watchdog-restarted"),
            ("watchdog-wedged", "client-released"),
        ]:
            assert kinds.index(earlier) < kinds.index(later)

    def test_chaos_is_deterministic(self):
        log_a = chaos_run(engine_seed=7)["tb"].events.log()
        log_b = chaos_run(engine_seed=7)["tb"].events.log()
        assert log_a == log_b


# -- supervisor plumbing -------------------------------------------------------


class TestSupervisorPlumbing:
    def test_supervise_is_idempotent(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        assert tb.supervise() is sup

    def test_servers_added_later_are_adopted(self):
        from repro.core.server import SiteConfig, SiteKind

        tb = build_testbed()
        supervise_fast(tb)
        transit = next(
            n.asn for n in tb.graph.nodes() if n.kind.name == "TRANSIT"
        )
        server = tb.add_server(
            SiteConfig(name="late01", kind=SiteKind.UNIVERSITY,
                       upstream_asns=(transit,))
        )
        assert server.guard is tb.guard
        assert server.journal is tb.journal
        assert server.safety.seq_source is not None

    def test_quarantined_client_cannot_reattach_until_release(self):
        tb = build_testbed()
        sup = supervise_fast(tb)
        client = tb.register_client("exp", "alice")
        client.attach("gatech01")
        sup.quarantine.quarantine("exp", "operator action", tb.engine.now)
        with pytest.raises(ValueError, match="quarantined"):
            client.attach("usc01")
        sup.quarantine.release("exp", tb.engine.now)
        client.attach("usc01")  # clean after release
