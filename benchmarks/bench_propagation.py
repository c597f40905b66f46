"""Benchmark: compiled propagation engine vs the reference propagator.

Run it (the command line and gates live in ``gates.py``):

    PYTHONPATH=src python benchmarks/bench_propagation.py \\
        --output BENCH_propagation.json --check

Measures six regimes on a seeded internet:

* **single_shot** — one cold announcement, reference ``propagate()`` vs
  ``PropagationEngine.propagate(use_cache=False)``;
* **multi_spec** — the same comparison for a 3-spec multi-mux
  announcement (one AS announcing through three disjoint neighbor sets
  at three prepend depths — PEERING's defining move, §3), the full
  convergence the single-spec line does not cover;
* **secure** — a hijack under ROV 25 % + tier-1 Peerlock + 20 %
  Peerlock-lite, reference vs engine: the same kernel with its accept
  hook switched on;
* **cached** — the same announcement served repeatedly from the LRU
  result cache;
* **delta** — a single-announcement steering change (prepend bump)
  recomputed via ``propagate_delta`` against a full reconvergence;
* **sweep** — a 100-point steering sweep (a handful of steering configs
  x prepend levels, shuffled — the shape the engine's affinity ordering
  is built to recover), reference serial vs ``propagate_many``
  (delta-chained).

``--scale`` switches to the Internet-scale harness: a CAIDA-calibrated
50k-AS topology from ``build_caida_like`` (or an ingested serial
snapshot via ``--topology``), timing graph build, compile + first
convergence, single- and multi-spec full convergence, the secured
hijack against the same announcement unsecured, the delta regime, and a
100-point sweep.  Results go to
``BENCH_propagation_scale.json`` and are gated against
``BENCH_propagation_scale_baseline.json``.

``--check`` compares measured speedups against the committed baseline
and fails when one degrades by more than 2x — a ratio-of-ratios gate, so
it tolerates slow CI machines but catches real regressions in the
compiled kernel.  The delta gate additionally enforces the hard 10x
floor for single-announcement incremental reconvergence; the scale run
adds a 4x ceiling on what the security hook may cost over the unsecured
converge and bounds the 50k sweep wall-clock relative to its baseline.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from gates import clocked, fingerprint, main, timed, timed_pair
from repro.inet.engine import PropagationEngine
from repro.inet.gen import (
    InternetConfig,
    build_caida_like,
    build_internet,
    degree_stats,
    load_caida_serial,
)
from repro.inet.routing import Announcement, OriginSpec, propagate
from repro.net.addr import Prefix
from repro.secroute import Roa, RoaRegistry, SecurityPolicy

BASELINE = Path(__file__).with_name("BENCH_propagation_baseline.json")
SCALE_BASELINE = Path(__file__).with_name("BENCH_propagation_scale_baseline.json")

# Hard floor for the delta regime: a single-announcement steering change
# must reconverge at least this much faster than a full recompute.
DELTA_FLOOR = 10.0
# Hard ceiling at scale for the secured converge over the unsecured one:
# the filters are a per-settle hook on the same kernel, not a second one.
SECURE_CEILING = 4.0


def build_world(quick: bool):
    if quick:
        config = InternetConfig(n_ases=300, total_prefixes=5000, seed=99)
    else:
        config = InternetConfig(n_ases=1500, total_prefixes=150_000, seed=99)
    inet = build_internet(config)
    return inet.graph


def pick_origin(graph):
    """The best-connected AS — worst case for propagation fan-out."""
    return max(
        sorted(graph.asns()),
        key=lambda a: len(graph.providers(a)) + len(graph.peers(a)),
    )


def steering_sweep(graph, origin, points, groups=None):
    """Announcement variations a steering experiment would sweep over:
    a handful of steering *configs* (announce-to + poison choices), each
    swept across prepend levels, then shuffled.  Points sharing a config
    differ only by prepend — the shift regime — so a delta chain pays
    one full converge per config; the shuffle makes sure nothing gets
    that for free from input order (the engine's affinity partitioner
    has to regroup them)."""
    rng = random.Random(1)
    neighbors = sorted(graph.neighbors(origin))
    asns = sorted(graph.asns())
    if groups is None:
        groups = max(1, points // 10)
    configs = []
    for _ in range(groups):
        announce_to = None
        if neighbors and rng.random() < 0.7:
            announce_to = tuple(n for n in neighbors if rng.random() < 0.5)
        poison = ()
        if rng.random() < 0.3:
            poison = (rng.choice(asns),)
        configs.append((poison, announce_to))
    sweep = []
    for i in range(points):
        poison, announce_to = configs[i % groups]
        spec = OriginSpec(
            asn=origin,
            prepend=(i // groups) % 8,
            poison=poison,
            announce_to=announce_to,
        )
        sweep.append(Announcement(origins=(spec,)))
    rng.shuffle(sweep)
    return sweep


def multi_mux_announcement(graph, origin):
    """One AS announcing through three muxes: three specs of one origin
    over disjoint neighbor sets, each at its own prepend depth."""
    neighbors = sorted(graph.neighbors(origin))
    return Announcement(
        origins=tuple(
            OriginSpec(asn=origin, prepend=i, announce_to=tuple(neighbors[i::3]))
            for i in range(3)
        )
    )


def delta_regime(engine, origin, repeat=5):
    """Single-announcement steering change: full vs incremental.

    A prepend bump is the canonical steering knob (PEERING §3) and the
    cheapest delta class — same origin/export sets, uniform path-length
    shift — so this measures the engine's best-case incremental
    reconvergence against a cold full converge of the same variant.
    """
    base = Announcement.single(origin)
    variant = Announcement(origins=(OriginSpec(asn=origin, prepend=2),))
    prev = engine.propagate(base, use_cache=False)

    full_s = timed(lambda: engine.propagate(variant, use_cache=False), repeat)
    delta_s = timed(
        lambda: engine.propagate_delta(prev, variant, use_cache=False), repeat
    )
    return {
        "full_s": round(full_s, 6),
        "delta_s": round(delta_s, 6),
        "speedup": round(full_s / delta_s, 1),
    }


def secured_hijack(graph):
    """A stub hijacking another stub's ROA-covered prefix while a quarter
    of all ASes drop Invalids, the tier-1 clique runs Peerlock and a
    fifth run Peerlock-lite: ``(announcement, compiled security)``."""
    rng = random.Random(7)
    asns = sorted(graph.asns())
    victim, attacker = rng.sample(sorted(graph.stub_asns()), 2)
    prefix = Prefix("198.18.0.0/20")
    policy = SecurityPolicy(roas=RoaRegistry((Roa(prefix, victim),)))
    policy.deploy_rov(rng.sample(asns, len(asns) // 4))
    policy.lock_clique(sorted(graph.tier1_clique()))
    policy.peerlock_lite = frozenset(rng.sample(asns, len(asns) // 5))
    hijack = Announcement(
        origins=(OriginSpec(asn=victim), OriginSpec(asn=attacker)), prefix=prefix
    )
    return hijack, policy.compile_for(hijack)


def versus(reference_s, engine_s):
    return {
        "reference_s": round(reference_s, 6),
        "engine_s": round(engine_s, 6),
        "speedup": round(reference_s / engine_s, 3),
    }


def run_benchmarks(quick: bool):
    graph = build_world(quick)
    origin = pick_origin(graph)
    announcement = Announcement.single(origin)
    engine = PropagationEngine(graph)
    engine.compiled()  # compile outside the timed region

    repeat = 3
    single_ref = timed(lambda: propagate(graph, announcement), repeat)
    single_eng = timed(lambda: engine.propagate(announcement, use_cache=False), repeat)

    multi = multi_mux_announcement(graph, origin)
    multi_ref = timed(lambda: propagate(graph, multi), repeat)
    multi_eng = timed(lambda: engine.propagate(multi, use_cache=False), repeat)

    hijack, security = secured_hijack(graph)
    secure_ref = timed(lambda: propagate(graph, hijack, security), repeat)
    secure_eng = timed(
        lambda: engine.propagate(hijack, use_cache=False, security=security), repeat
    )

    engine.cache.clear()
    engine.propagate(announcement)  # warm the cache

    def cached_run():
        for _ in range(100):
            engine.propagate(announcement)

    cached_100 = timed(cached_run, repeat)

    delta = delta_regime(engine, origin)

    points = 20 if quick else 100
    sweep = steering_sweep(graph, origin, points)

    def ref_sweep():
        for item in sweep:
            propagate(graph, item)

    sweep_repeat = 1 if quick else 2
    sweep_ref = timed(ref_sweep, sweep_repeat)
    sweep_eng = timed(lambda: engine.propagate_many(sweep, use_cache=False), sweep_repeat)

    return {
        "config": {
            "quick": quick,
            "n_ases": len(graph),
            "sweep_points": points,
            "origin": origin,
            **fingerprint(),
        },
        "single_shot": versus(single_ref, single_eng),
        "multi_spec": {"specs": len(multi.origins), **versus(multi_ref, multi_eng)},
        "secure": versus(secure_ref, secure_eng),
        "cached": {
            "per_hit_us": round(cached_100 / 100 * 1e6, 3),
            "speedup_vs_reference": round(single_ref / (cached_100 / 100), 1),
        },
        "delta": delta,
        "sweep": {
            "reference_s": round(sweep_ref, 6),
            "engine_serial_s": round(sweep_eng, 6),
            "serial_speedup": round(sweep_ref / sweep_eng, 3),
        },
        "engine_stats": engine.stats(),
    }


def run_scale_benchmarks(n_ases: int, topology: str = None):
    """Internet-scale regime: CAIDA-calibrated topology, delta sweeps.

    No reference-propagator comparison here — at 50k ASes the reference
    run would dominate the whole benchmark; the gates are the delta
    speedup and the unsecured-vs-secured converge ratio (machine-
    independent) and the sweep wall-clock relative to the committed
    baseline.  ``topology`` swaps the generator for
    :func:`load_caida_serial` on a published (or fixture)
    AS-relationship snapshot.
    """
    if topology:
        world, build_s = clocked(load_caida_serial, topology)
    else:
        world, build_s = clocked(build_caida_like, n_ases)
    graph = world.graph

    engine = PropagationEngine(graph)
    origin = pick_origin(graph)
    announcement = Announcement.single(origin)

    compile_start = time.perf_counter()
    engine.compiled()
    engine.propagate(announcement, use_cache=False)
    first_converge_s = time.perf_counter() - compile_start

    repeat_converge_s = timed(lambda: engine.propagate(announcement, use_cache=False), 3)

    multi = multi_mux_announcement(graph, origin)
    multi_full_s = timed(lambda: engine.propagate(multi, use_cache=False), 3)

    hijack, security = secured_hijack(graph)
    unsecured_s, secured_s, secure_ratio = timed_pair(
        lambda: engine.propagate(hijack, use_cache=False),
        lambda: engine.propagate(hijack, use_cache=False, security=security),
        7,
    )

    delta = delta_regime(engine, origin)

    sweep = steering_sweep(graph, origin, 100)
    serial_s = timed(lambda: engine.propagate_many(sweep, use_cache=False))
    stats = engine.stats()

    return {
        "config": {
            "scale": True,
            "n_ases": len(graph),
            "sweep_points": len(sweep),
            "origin": origin,
            "topology": topology,
            **fingerprint(),
        },
        "topology": {
            "build_s": round(build_s, 3),
            "source": topology or "build_caida_like",
            **{k: round(v, 4) for k, v in degree_stats(graph).items()},
        },
        "converge": {
            "compile_and_first_s": round(first_converge_s, 3),
            "repeat_full_s": round(repeat_converge_s, 6),
            "multi_spec_full_s": round(multi_full_s, 6),
            "multi_spec_specs": len(multi.origins),
        },
        "secure": {
            "unsecured_s": round(unsecured_s, 6),
            "secured_s": round(secured_s, 6),
            # median of paired unsecured / secured
            "unsecured_vs_secured": round(secure_ratio, 3),
        },
        "delta": delta,
        "sweep": {
            "total_s": round(serial_s, 3),
            "per_point_ms": round(serial_s / len(sweep) * 1e3, 3),
        },
        "engine_stats": stats,
    }


def check(results, args, gates):
    """Fail on >2x regression vs committed baseline (single-shot,
    multi-spec, secure, sweep, and delta gates; 10x delta floor; with
    --scale the 4x secured-converge ceiling)."""
    if args.scale:
        return check_scale(results, gates)
    baseline = gates.baseline(BASELINE)
    if baseline is None:
        return
    # Quick smoke runs use a 300-AS world but the committed baseline is
    # recorded at full size, where the compiled engine's advantage is
    # larger (at 300 ASes per-call overhead, not the kernel, sets the
    # ratio: ~25x on the sweep against ~85x at 1500); give them 6x
    # headroom instead of 2x.
    div = 6 if args.quick else 2
    for label, section, key in (
        ("single-shot speedup", "single_shot", "speedup"),
        ("multi-spec speedup", "multi_spec", "speedup"),
        ("secure speedup", "secure", "speedup"),
        ("sweep serial speedup", "sweep", "serial_speedup"),
    ):
        gates.floor(label, results[section][key], baseline[section][key] / div)
    if args.quick:
        # The delta ratio grows with topology size (fixed per-call cost
        # vs O(n) full reconvergence), so a 300-AS smoke run can't be
        # held to a floor derived from the full-size baseline.
        gates.skip("delta speedup", "--quick; gated in full and --scale runs")
    else:
        base_delta = baseline.get("delta", {}).get("speedup", DELTA_FLOOR)
        gates.floor(
            "delta speedup",
            results["delta"]["speedup"],
            max(DELTA_FLOOR, base_delta / 2),
        )


def check_scale(results, gates):
    baseline = gates.baseline(SCALE_BASELINE)
    if baseline is None:
        return
    gates.floor(
        "scale delta speedup",
        results["delta"]["speedup"],
        max(DELTA_FLOOR, baseline["delta"]["speedup"] / 2),
    )
    gates.floor(
        "scale unsecured / secured converge",
        results["secure"]["unsecured_vs_secured"],
        max(1 / SECURE_CEILING, baseline["secure"]["unsecured_vs_secured"] / 2),
    )
    # Absolute wall-clock bound, but relative to the committed baseline
    # (which itself records a single-digit-second sweep) so slow CI
    # machines get 3x headroom before this trips.  Only comparable when
    # the topology matches the one the baseline was recorded on.
    same_world = (
        results["config"].get("topology") == baseline["config"].get("topology")
        and results["config"]["n_ases"] == baseline["config"]["n_ases"]
    )
    if same_world:
        gates.floor(
            "scale sweep budget (inverted, s)",
            baseline["sweep"]["total_s"] * 3 - results["sweep"]["total_s"],
            0.0,
        )
    else:
        gates.skip("scale sweep budget", "topology differs from baseline")


def measure(args):
    if args.scale:
        return run_scale_benchmarks(args.n_ases, topology=args.topology)
    return run_benchmarks(args.quick)


if __name__ == "__main__":
    sys.exit(main(
        __doc__,
        measure,
        check,
        output=lambda args: (
            "BENCH_propagation_scale.json" if args.scale else "BENCH_propagation.json"
        ),
        flags={
            "--scale": dict(
                action="store_true",
                help="Internet-scale regime: 50k-AS CAIDA-like topology",
            ),
            "--n-ases": dict(
                type=int, default=50_000, help="topology size for --scale (default 50000)"
            ),
            "--topology": dict(
                default=None,
                help="CAIDA AS-relationship serial snapshot to ingest for "
                "--scale instead of generating one (.gz/.bz2 ok); e.g. the "
                "checked-in tests/data/caida-as-rel-150.txt fixture",
            ),
        },
    ))
