"""Ablation: BGP convergence and the MRAI timer (wire-level stack).

§1 motivates PEERING with classic interdomain pathologies — "BGP ...
can experience slow convergence [30]" (Labovitz et al.).  This bench
reproduces the underlying phenomenon on our wire-level BGP stack:

* **path hunting**: after a withdrawal, routers explore progressively
  longer alternate paths before giving up, generating a burst of updates;
* **MRAI's trade-off**: batching updates (larger MRAI) suppresses the
  exploration storm (fewer messages) at the cost of longer convergence.

Topology: a clique of transit routers, one of which also speaks to the
origin, so every router holds alternates of every length through the
others (a clique of n explores O(n) ever-longer paths per router).  A ring
is the control: a router's only other neighbour either routes through it
or hears the withdrawal from the other side, so there is nothing to hunt
through and a withdrawal costs about one message a session whatever the
timer.

Convergence time is the simulated time of the last UPDATE any router
receives after the withdrawal (a session tap per session), not the end
of the bounded run that drains it.
"""

import pytest
from conftest import emit

from repro.bgp.router import BGPRouter, PeerConfig, connect_routers
from repro.net.addr import IPAddress, Prefix
from repro.sim import Engine

PREFIX = Prefix("184.164.224.0/24")
ROUTERS = 8
MRAIS = (0.0, 5.0, 30.0)


def clique(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


TOPOLOGIES = {"clique": clique, "ring": ring}


def build(topology: str, mrai: float):
    """``ROUTERS`` transit routers wired as ``topology``; router 0 also
    speaks to the origin, which announces ``PREFIX``."""
    engine = Engine()
    routers = [
        BGPRouter(engine, asn=65000 + i, router_id=IPAddress(f"10.0.{i}.1"))
        for i in range(ROUTERS)
    ]
    origin = BGPRouter(engine, asn=64999, router_id=IPAddress("10.9.9.9"))
    for i, j in TOPOLOGIES[topology](ROUTERS):
        connect_routers(
            engine,
            routers[i],
            PeerConfig(f"to-{j}", routers[j].asn, routers[i].router_id, mrai=mrai),
            routers[j],
            PeerConfig(f"to-{i}", routers[i].asn, routers[j].router_id, mrai=mrai),
        )
    connect_routers(
        engine,
        origin,
        PeerConfig("to-r0", routers[0].asn, origin.router_id, mrai=mrai),
        routers[0],
        PeerConfig("to-origin", origin.asn, routers[0].router_id, mrai=mrai),
    )
    origin.originate(PREFIX)
    engine.run_for(3600)
    assert all(r.best_route(PREFIX) is not None for r in routers)
    return engine, origin, routers


def run_withdrawal(topology: str, mrai: float):
    """Withdraw at the origin; count the UPDATEs the transit routers send
    and time the last one any router receives."""
    engine, origin, routers = build(topology, mrai)
    sessions = [r.peer(pid).session for r in routers for pid in r.peers()]
    last_update = []

    def tap(_session, event, _update):
        if event == "update-received":
            last_update.append(engine.now)

    for session in sessions + [origin.peer("to-r0").session]:
        session.taps.append(tap)
    sent_before = sum(s.updates_sent for s in sessions)
    start = engine.now
    origin.withdraw_local(PREFIX)
    engine.run_for(3600)  # keepalives never stop; bound the drain
    assert all(r.best_route(PREFIX) is None for r in routers)
    return {
        "updates": sum(s.updates_sent for s in sessions) - sent_before,
        "time": last_update[-1] - start,
    }


@pytest.mark.parametrize("mrai", MRAIS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_withdrawal_convergence(benchmark, topology, mrai):
    result = benchmark.pedantic(
        run_withdrawal, args=(topology, mrai), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    emit(
        f"withdrawal convergence, MRAI={mrai:g}s ({topology} of {ROUTERS})",
        [
            ["update messages during path hunting", result["updates"]],
            ["time to the last update (sim s)", f"{result['time']:g}"],
        ],
    )


def sweep(topology):
    return {mrai: run_withdrawal(topology, mrai) for mrai in MRAIS}


def test_mrai_suppresses_update_storm(benchmark):
    """The headline shape on the clique: larger MRAI, no more messages and
    a later last update."""
    results = benchmark.pedantic(sweep, args=("clique",), rounds=1, iterations=1)
    emit(
        f"MRAI vs path-hunting storm (clique of {ROUTERS})",
        [
            [f"MRAI {mrai:4.0f}s", f"{r['updates']:4d} updates", f"{r['time']:5g} s"]
            for mrai, r in results.items()
        ],
    )
    updates = [results[mrai]["updates"] for mrai in MRAIS]
    times = [results[mrai]["time"] for mrai in MRAIS]
    assert updates == sorted(updates, reverse=True)
    assert times == sorted(times) and len(set(times)) == len(times)
    # Without MRAI, path hunting multiplies messages well beyond the
    # ~one withdrawal per session a router without alternates sends.
    assert updates[0] > 2 * ROUTERS


def test_ring_has_no_storm(benchmark):
    """The control: with nothing to hunt through, the withdrawal costs
    about one message per session at any MRAI."""
    results = benchmark.pedantic(sweep, args=("ring",), rounds=1, iterations=1)
    emit(
        f"MRAI on a ring of {ROUTERS} (control)",
        [
            [f"MRAI {mrai:4.0f}s", f"{r['updates']:4d} updates", f"{r['time']:5g} s"]
            for mrai, r in results.items()
        ],
    )
    for r in results.values():
        assert r["updates"] <= 2 * ROUTERS
