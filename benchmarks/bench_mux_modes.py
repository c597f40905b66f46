"""Ablation (§3 design choice): Quagga-mode vs BIRD-mode muxes.

"While Quagga suffices in our current deployment, it requires a single
connection between client and server for each upstream peer and thus
cannot support large IXPs with many peers.  We plan to substitute ...
the BIRD software router, which enables lightweight multiplexing by
using BGP Additional Paths."

Measured on the paper-scale world, where ``amsterdam01`` has 609 peers
(as AMS-IX did), for a client attached over the wire in each mode as the
peer count grows 4 -> 609: the sessions the mux holds for it, the bytes
attaching it cost (``tracemalloc``), and what keeping it costs while
nothing happens — events and CPU per simulated minute of
``run_for(600)``.  Expected shape: Quagga-mode grows O(peers) per client
in sessions, memory and idle work; BIRD-mode is one session with ADD-PATH
path ids doing the multiplexing.  Timings are printed, never asserted.
"""

import time
import tracemalloc

import pytest
from conftest import PAPER_CONFIG, emit

from repro.core import MuxMode, Testbed
from repro.net.addr import Prefix

PEER_COUNTS = [4, 16, 64, 256, 609]
MUX = "amsterdam01"
IDLE_WINDOW = 120.0  # simulated seconds: four keepalive intervals
IDLE_WINDOWS = 5  # run_for(600) in all
# Each side of an idle session sends a keepalive every hold/3 = 30 s.
EVENTS_PER_SESSION_MINUTE = 4


@pytest.fixture(scope="module")
def world():
    return Testbed.build_default(PAPER_CONFIG)


def attach_footprint(testbed, name, mode, peer_asns):
    """Register and attach one client over the wire; returns the client
    and the bytes the attachment left allocated once it is established."""
    client = testbed.register_client(name, researcher="bench")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        client.attach_bgp(MUX, mode=mode, peer_asns=peer_asns)
        testbed.engine.run_for(1)
        footprint = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return client, footprint


def idle_cost(engine):
    """Advance ``IDLE_WINDOWS`` windows of idle time; returns (events,
    CPU ms) per simulated minute — CPU from the least-disturbed window."""
    processed = engine.processed
    cpu = []
    for _ in range(IDLE_WINDOWS):
        start = time.process_time()
        engine.run_for(IDLE_WINDOW)
        cpu.append(time.process_time() - start)
    minutes = IDLE_WINDOW * IDLE_WINDOWS / 60
    return (engine.processed - processed) / minutes, min(cpu) * 1000 / (IDLE_WINDOW / 60)


def live_sessions(testbed):
    """Client sessions at every mux: all the idle traffic there is."""
    return sum(server.client_session_count() for server in testbed.servers.values())


def leave(testbed, clients):
    for client in clients:
        client.detach(MUX)
        testbed.retire_experiment(client.client_id)


@pytest.mark.parametrize("n_peers", PEER_COUNTS)
def test_mux_mode_scaling(world, benchmark, n_peers):
    testbed = world
    server = testbed.server(MUX)
    peer_asns = sorted(server.neighbor_asns)[:n_peers]
    if len(peer_asns) < n_peers:
        pytest.skip(f"only {len(peer_asns)} peers at this scale")

    def run():
        results = {}
        for mode in (MuxMode.QUAGGA, MuxMode.BIRD):
            name = f"bench-{mode.value}-{n_peers}"
            client, footprint = attach_footprint(testbed, name, mode, peer_asns)
            events, cpu_ms = idle_cost(testbed.engine)
            results[mode.value] = {
                "sessions": server.client_session_count(name),
                "live_sessions": live_sessions(testbed),
                "bytes": footprint,
                "events_per_min": events,
                "cpu_ms_per_min": cpu_ms,
            }
            leave(testbed, [client])
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for mode in ("quagga", "bird"):
        r = results[mode]
        benchmark.extra_info[mode] = r
        rows.append([
            f"{mode}-mode",
            f"{r['sessions']:4d} sessions",
            f"{r['bytes'] / 1024:8.1f} KiB/client",
            f"{r['events_per_min']:6.0f} events/sim-min",
            f"{r['cpu_ms_per_min']:6.2f} ms CPU/sim-min",
        ])
    emit(f"mux scaling at {n_peers} peers ({MUX})", rows)
    quagga, bird = results["quagga"], results["bird"]
    assert quagga["sessions"] == n_peers
    assert bird["sessions"] == 1
    for r in (quagga, bird):
        assert r["events_per_min"] == EVENTS_PER_SESSION_MINUTE * r["live_sessions"]
    assert bird["bytes"] < quagga["bytes"]


def test_quagga_sessions_at_ten_clients(world, benchmark):
    """Ten Quagga-mode clients on every AMS-IX peer: 6 090 sessions at one
    mux, the load §3 says a session per peer cannot carry."""
    testbed = world
    server = testbed.server(MUX)
    peer_asns = sorted(server.neighbor_asns)
    n_clients = 10

    def run():
        clients, footprint = [], 0
        for i in range(n_clients):
            client, size = attach_footprint(
                testbed, f"bench-ten-{i}", MuxMode.QUAGGA, peer_asns
            )
            clients.append(client)
            footprint += size
        sessions = sum(server.client_session_count(c.client_id) for c in clients)
        live = live_sessions(testbed)
        events, cpu_ms = idle_cost(testbed.engine)
        leave(testbed, clients)
        return sessions, live, footprint, events, cpu_ms

    sessions, live, footprint, events, cpu_ms = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        f"{n_clients} quagga-mode clients x {len(peer_asns)} peers ({MUX})",
        [
            ["sessions at the mux", sessions],
            ["attached memory", f"{footprint / 2**20:.1f} MiB"],
            ["events per sim-minute", f"{events:.0f}"],
            ["CPU per sim-minute", f"{cpu_ms:.1f} ms"],
        ],
    )
    assert sessions == n_clients * len(peer_asns)
    assert events == EVENTS_PER_SESSION_MINUTE * live


def test_route_relay_equivalence(world, benchmark):
    """Both modes must deliver the same per-peer route information; BIRD
    mode just multiplexes it with path ids."""
    testbed = world
    server = testbed.server(MUX)
    peer_asns = sorted(server.neighbor_asns)[:16]
    # A destination both selected and unselected peers have routes to, so
    # relaying an unselected peer's route would show.
    dest = next(
        node.asn
        for node in testbed.graph.nodes()
        if node.kind.value == "access"
        and set(server.routes_toward(node.asn)) & set(peer_asns)
        and set(server.routes_toward(node.asn)) - set(peer_asns)
    )
    expected = len(set(server.routes_toward(dest)) & set(peer_asns))
    prefix = Prefix("203.0.113.0/24")

    def run():
        clients = {}
        for mode in (MuxMode.QUAGGA, MuxMode.BIRD):
            name = f"relay-{mode.value}"
            client = testbed.register_client(name, researcher="bench")
            router = client.attach_bgp(
                MUX, mode=mode, local_asn=64512, peer_asns=peer_asns
            )
            sent = server.relay_destination(name, dest, prefix)
            received = [r for r in router.loc_rib.candidates(prefix)]
            clients[mode.value] = (sent, len(received), router)
        return clients

    clients = benchmark.pedantic(run, rounds=1, iterations=1)

    quagga_sent, quagga_recv, _ = clients["quagga"]
    bird_sent, bird_recv, bird_router = clients["bird"]
    emit(
        "route relay equivalence (16 peers)",
        [
            ["quagga-mode routes relayed", quagga_sent],
            ["bird-mode routes relayed", bird_sent],
            ["quagga-mode candidates at client", quagga_recv],
            ["bird-mode candidates at client", bird_recv],
        ],
    )
    assert quagga_sent == bird_sent == expected
    # BIRD-mode ADD-PATH preserves every alternate on one session.
    assert bird_recv == bird_sent
