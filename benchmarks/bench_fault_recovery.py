"""Benchmark: fault recovery under the supervision layer.

Run it (the command line and gates live in ``gates.py``):

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py \\
        --output BENCH_fault_recovery.json --check

Measures three recovery paths on a seeded testbed:

* **link_flap** — simulated seconds from a severed transport back to
  ESTABLISHED under RFC 4271 IdleHold backoff (20 flaps);
* **crash_recovery** — a HARD mux crash (in-memory announcement state
  wiped) under watchdog + control journal: detection latency, end-to-end
  recovery latency with ZERO manual calls, and the journal-replay restore
  rate in routes/second (wall clock);
* **containment** — an update storm from a misbehaving client: simulated
  seconds from storm start to the circuit breaker tripping, and how many
  updates the mux absorbed before cutting the client off.

``--check`` compares the *simulated* latencies against the committed
baseline (``BENCH_fault_recovery_baseline.json``).  Simulated time is
machine-independent — the event engine is deterministic — so the gate is
equality: a figure that moves at all means the order or timing of events
changed, on any machine.  The baseline is recorded at full size, so a
``--quick`` run fails the config gate.  The wall-clock restore rate is
reported but not gated.
"""

from __future__ import annotations

import sys
from pathlib import Path

from gates import clocked, fingerprint, main
from repro.bgp.session import BGPSession, SessionConfig
from repro.core import Testbed
from repro.faults import FaultPlan, Link
from repro.guard import BreakerConfig, QuarantineConfig, WatchdogConfig
from repro.inet.gen import InternetConfig
from repro.net.addr import IPAddress
from repro.sim import Engine

BASELINE = Path(__file__).with_name("BENCH_fault_recovery_baseline.json")


# -- link flap recovery -------------------------------------------------------


def build_link(engine, idle_hold_time=2.0):
    left = BGPSession(
        engine,
        SessionConfig(
            local_asn=47065,
            peer_asn=3356,
            local_id=IPAddress("10.0.0.1"),
            hold_time=90,
            auto_reconnect=True,
            idle_hold_time=idle_hold_time,
            description="bench-L",
        ),
    )
    right = BGPSession(
        engine,
        SessionConfig(
            local_asn=3356,
            peer_asn=47065,
            local_id=IPAddress("10.0.0.2"),
            hold_time=90,
            passive=True,
            auto_reconnect=True,
            idle_hold_time=idle_hold_time,
            description="bench-R",
        ),
    )
    link = Link(engine, left, right, name="bench")
    link.start()
    return link


def run_link_flap(idle_hold_time: float = 2.0, flaps: int = 20):
    engine = Engine(seed=2014)
    link = build_link(engine, idle_hold_time=idle_hold_time)
    gaps = []
    for _ in range(flaps):
        down_at = engine.now
        link.sever()
        while not link.established:
            engine.step()
        gaps.append(engine.now - down_at)
        engine.run_for(5)  # settle before the next flap
    return {
        "idle_hold_s": idle_hold_time,
        "flaps": flaps,
        "mean_downtime_s": round(sum(gaps) / len(gaps), 3),
        "worst_downtime_s": round(max(gaps), 3),
        "reconnect_attempts": link.left.reconnect_attempts
        + link.right.reconnect_attempts,
    }


# -- supervised crash recovery ------------------------------------------------


def build_supervised_testbed(quick: bool):
    if quick:
        config = InternetConfig(n_ases=120, total_prefixes=5_000, seed=99)
    else:
        config = InternetConfig(n_ases=300, total_prefixes=20_000, seed=99)
    tb = Testbed.build_default(config)
    tb.supervise(
        # Programmatic clients announce more prefixes than the default
        # max-prefix ceiling; the bench measures recovery, not limits.
        breaker=BreakerConfig(max_prefixes=1024),
        quarantine=QuarantineConfig(),
        watchdog=WatchdogConfig(probe_interval=5.0, restart_delay=10.0),
    )
    return tb


def run_crash_recovery(quick: bool):
    tb = build_supervised_testbed(quick)
    # The allocation pool is PEERING's /19 — 32 /24s — so the route count
    # is capped; full mode scales the internet, not the announcement set.
    n_clients = 4 if quick else 6
    prefixes_each = 8 if quick else 5
    server = tb.server("gatech01")
    expected = {}
    for i in range(n_clients):
        client = tb.register_client(
            f"bench{i}", "operator", prefix_count=prefixes_each
        )
        client.attach("gatech01")
        for prefix in client.prefixes:
            decision = server.announce(client.client_id, prefix)
            assert decision.allowed, decision
        expected[client.client_id] = set(client.prefixes)
    total_routes = sum(len(p) for p in expected.values())
    tb.engine.run_for(1)
    assert all(p in tb.announced_prefixes() for ps in expected.values() for p in ps)

    # Hard crash: memory wiped; only the watchdog + journal bring it back.
    crashed_at = tb.engine.now
    server.crash(hard=True)
    assert not any(
        p in tb.announced_prefixes() for ps in expected.values() for p in ps
    )

    def restored():
        return all(
            set(server.announcements_for(cid)) == ps
            for cid, ps in expected.items()
        )

    deadline = crashed_at + 600
    while not restored() and tb.engine.now < deadline:
        tb.engine.step()
    assert restored(), "watchdog failed to restore announcements"
    announced = set(tb.announced_prefixes())
    assert all(p in announced for ps in expected.values() for p in ps)

    detected = next(
        e.time for e in tb.events.of_kind("watchdog-crash-detected")
    )
    recovery_latency = tb.engine.now - crashed_at

    # Journal replay rate, wall clock: crash again and time restart()
    # itself — the replay is synchronous, so this isolates restore cost
    # from watchdog probe cadence.
    server.crash(hard=True)
    _, restore_wall = clocked(server.restart)
    assert restored()

    return {
        "clients": n_clients,
        "routes": total_routes,
        "journal_records": tb.journal.stats()["records"],
        "detect_latency_s": round(detected - crashed_at, 3),
        "recovery_latency_s": round(recovery_latency, 3),
        "manual_calls": 0,
        "restore_wall_s": round(restore_wall, 6),
        "routes_restored_per_s": round(total_routes / restore_wall, 1),
    }


# -- storm containment --------------------------------------------------------


def run_containment(quick: bool):
    from repro.bgp.attributes import ASPath, Origin, PathAttributes

    tb = build_supervised_testbed(quick)
    client = tb.register_client("storm", "operator")
    client.attach_bgp("usc01", resilient=True, idle_hold_time=2.0)
    tb.engine.run_for(1)
    att = client.attachments["usc01"]
    att.router.originate(client.prefixes[0])
    tb.engine.run_for(1)
    sess = att.sessions[sorted(att.sessions)[0]]
    attrs = PathAttributes(
        origin=Origin.IGP, as_path=ASPath(), next_hop=att.tunnel.address
    )
    storm_at = 3.0
    plan = FaultPlan(tb.engine, "containment")
    plan.storm_updates(
        sess, client.prefixes[0], attrs, at=storm_at, updates=200, interval=0.25
    )
    tb.engine.run_for(60)
    trip = next(e for e in tb.events.of_kind("breaker-open"))
    absorbed = sum(
        1 for t, action, _ in plan.log
        if action == "storm-update" and t <= trip.time
    )
    return {
        "containment_latency_s": round(trip.time - storm_at, 3),
        "updates_absorbed": absorbed,
        "trip_reason": trip.detail_dict()["reason"],
        "sessions_torn_down": len(tb.events.of_kind("session-down")),
    }


# -- harness ------------------------------------------------------------------


def run_benchmarks(quick: bool):
    return {
        "config": {"quick": quick},
        "link_flap": run_link_flap(),
        "crash_recovery": run_crash_recovery(quick),
        "containment": run_containment(quick),
        "machine": fingerprint(),
    }


# (section, metric) pairs gated by --check: all simulated-time values,
# identical on every machine.
GATED = [
    ("link_flap", "mean_downtime_s"),
    ("crash_recovery", "detect_latency_s"),
    ("crash_recovery", "recovery_latency_s"),
    ("containment", "containment_latency_s"),
]


def check(results, args, gates):
    """Fail unless every simulated recovery latency equals the committed
    baseline's."""
    baseline = gates.baseline(BASELINE)
    if baseline is None or not gates.same_config(results, baseline):
        return
    for section, metric in GATED:
        base = baseline[section][metric]
        now = results[section][metric]
        gates.hold(
            f"{section}.{metric}", now == base, f"{now:g} sim s (baseline {base:g})"
        )
    rate = results["crash_recovery"]["routes_restored_per_s"]
    print(f"info (not gated): journal restore rate {rate:g} routes/s")


if __name__ == "__main__":
    output = "BENCH_fault_recovery.json"
    sys.exit(main(__doc__, lambda args: run_benchmarks(args.quick), check, output))
