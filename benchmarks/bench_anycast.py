"""Benchmark: population-scale anycast catchment mapping + the closed-loop
traffic engineer.

Run it (the command line and gates live in ``gates.py``):

    PYTHONPATH=src python benchmarks/bench_anycast.py \\
        --output BENCH_anycast.json --check

The full run deploys a three-site anycast service onto a CAIDA-calibrated
50k-AS topology (``build_caida_like``) and measures:

* **mapping** — a batch of steering variants of the service's
  multi-origin announcement converged in **one** ``propagate_many``
  sweep, every outcome mapped against a >=1.2M-client Zipf population
  by one gather of its root array.  Headline:
  ``clients_mapped_per_s`` (clients x variants / wall-clock for sweep +
  mapping).
* **engineer** — a full :class:`~repro.anycast.TrafficEngineer`
  rebalance toward even per-site targets: iterations to convergence,
  how many of them rode the engine's *shift* delta regime (the prepend
  screen's solo ladders — the "cheap by construction" property), the
  imbalance drop, and wall-clock.  The whole rebalance is then re-run
  from a fresh world and the two reports compared byte-for-byte.

``--check`` gates against ``BENCH_anycast_baseline.json``:

* ``clients_mapped_per_s`` may not degrade more than 3x (6x headroom in
  ``--quick``, where the sweep overhead amortizes over a far smaller
  population);
* >= 2 engineer iterations must ride the shift regime (hard, both
  modes);
* the rebalance must not worsen imbalance (hard);
* the rebalance must be byte-identical across reruns under the fixed
  seed (hard).
"""

from __future__ import annotations

import os
from pathlib import Path

from gates import clocked, main
from repro.anycast import (
    AnycastService,
    AnycastSite,
    CatchmentMap,
    EngineerConfig,
    SiteSteering,
    TrafficEngineer,
)
from repro.inet.gen import InternetConfig, build_caida_like, build_internet
from repro.inet.topology import ASKind
from repro.workloads import zipf_clients

BASELINE = Path(__file__).with_name("BENCH_anycast_baseline.json")

# Hard floor: evaluating iterations of the engineer that rode the shift
# regime (prepend screening through single-spec solo ladders).
SHIFT_ITERATIONS_FLOOR = 2

N_SITES = 3
UPLINKS_PER_SITE = 3
SWEEP_VARIANTS = 8
ENGINEER_SEED = 7


def build_world(quick: bool, seed_offset: int = 0):
    """A deployed service + population.  ``seed_offset`` keeps the world
    identical across determinism reruns (offset 0 both times) while
    letting future variants perturb it."""
    if quick:
        net = build_internet(
            InternetConfig(n_ases=2000, total_prefixes=150_000, seed=42)
        )
        pop_ases, pop_clients = 400, 120_000
    else:
        net = build_caida_like(50_000)
        pop_ases, pop_clients = 20_000, 1_200_000
    graph = net.graph
    transits = sorted(
        (n for n in graph.nodes() if n.kind == ASKind.TRANSIT),
        key=lambda n: (-n.prefix_count, n.asn),
    )
    picks = [n.asn for n in transits[: N_SITES * UPLINKS_PER_SITE]]
    sites = [
        AnycastSite(
            name=f"site{i:02d}",
            transits=tuple(
                picks[i * UPLINKS_PER_SITE : (i + 1) * UPLINKS_PER_SITE]
            ),
        )
        for i in range(N_SITES)
    ]
    service = AnycastService.deploy(graph, sites)
    population = zipf_clients(
        graph, ases=pop_ases, clients=pop_clients, seed=5 + seed_offset
    )
    return graph, service, population


def bench_mapping(service, population):
    """One batched sweep over SWEEP_VARIANTS steering variants,
    every outcome mapped against the full population."""
    site0 = service.sites[0].name
    variants = [
        service.announcement({site0: SiteSteering(prepend=depth)})
        for depth in range(SWEEP_VARIANTS)
    ]
    # Warm the compile (excluded: one-time cost, not mapping throughput).
    service.engine.propagate(variants[0])
    maps, elapsed = clocked(CatchmentMap.compute_many, service, population, variants)
    clients_mapped = population.total_clients * len(maps)
    assert all(
        sum(m.volume_by_site.values()) + m.unserved_volume
        == population.total_clients
        for m in maps
    )
    return {
        "variants": len(maps),
        "population_clients": population.total_clients,
        "population_ases": population.n_ases,
        "sweep_s": round(elapsed, 3),
        "clients_mapped": clients_mapped,
        "clients_mapped_per_s": round(clients_mapped / elapsed),
    }


# Deliberately skewed targets (by site order): a near-even natural
# catchment satisfies even targets immediately, which would let the
# engineer stop after one look — the gates want it to *work*.
TARGET_SKEW = (0.5, 0.3, 0.2)


def run_engineer(service, population):
    names = service.active_site_names()
    targets = {name: TARGET_SKEW[i] for i, name in enumerate(names)}
    engineer = TrafficEngineer(
        service,
        population,
        targets,
        EngineerConfig(max_iterations=6, seed=ENGINEER_SEED),
    )
    return clocked(engineer.rebalance)


def bench_engineer(quick: bool, first_report):
    report, elapsed = first_report
    # Determinism: the identical world, rebuilt from scratch, must
    # produce a byte-identical report under the fixed seed.
    _, service, population = build_world(quick)
    rerun, _ = run_engineer(service, population)
    return {
        "iterations": len(report.iterations),
        "shift_iterations": report.shift_iterations,
        "converged": report.converged,
        "imbalance_before": round(report.imbalance_before, 6),
        "imbalance_after": round(report.imbalance_after, 6),
        "moves_applied": report.moves_applied,
        "rebalance_s": round(elapsed, 3),
        "deterministic": report.to_json() == rerun.to_json(),
    }


def run_benchmarks(quick: bool):
    (graph, service, population), build_s = clocked(build_world, quick)
    mapping = bench_mapping(service, population)
    # The engineer starts from default steering: rebuild the service's
    # steering state is unnecessary (bench_mapping never mutates it).
    engineer = bench_engineer(quick, run_engineer(service, population))
    return {
        "config": {
            "quick": quick,
            "n_ases": len(graph),
            "sites": N_SITES,
            "uplinks_per_site": UPLINKS_PER_SITE,
            "cpu_count": os.cpu_count(),
            "build_s": round(build_s, 3),
        },
        "mapping": mapping,
        "engineer": engineer,
    }


def check(results, args, gates):
    """Fail on regression vs committed baseline (mapping rate) or broken
    invariants (shift iterations, imbalance, determinism)."""
    engineer = results["engineer"]
    gates.floor(
        "shift iterations", engineer["shift_iterations"], SHIFT_ITERATIONS_FLOOR
    )
    gates.hold(
        "imbalance not worsened",
        engineer["imbalance_after"] <= engineer["imbalance_before"] + 1e-9,
        f"{engineer['imbalance_before']} -> {engineer['imbalance_after']}",
    )
    gates.hold(
        "deterministic rerun",
        engineer["deterministic"],
        "byte-identical" if engineer["deterministic"] else "reports differ",
    )
    baseline = gates.baseline(BASELINE)
    if baseline is not None:
        # Quick runs map a much smaller population, so the per-sweep
        # overhead amortizes worse; give them double headroom.
        div = 6 if args.quick else 3
        gates.floor(
            "clients mapped/s",
            results["mapping"]["clients_mapped_per_s"],
            baseline["mapping"]["clients_mapped_per_s"] / div,
        )


if __name__ == "__main__":
    output = "BENCH_anycast.json"
    raise SystemExit(main(__doc__, lambda args: run_benchmarks(args.quick), check, output))
