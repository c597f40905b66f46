"""Benchmark: cost of full telemetry (metrics + tracing + route monitoring).

Run it (the command line and gates live in ``gates.py``):

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py \\
        --output BENCH_telemetry.json --check

Runs one identical announce/withdraw workload twice on same-seed
testbeds — once plain (registry only, no collector) and once under
``testbed.observe()`` with every span, BMP message, and counter live —
and reports the relative overhead.  ``--check`` fails when observed
overhead exceeds the gate (default 5%, the ISSUE's ceiling for the
instrumentation being "cheap enough"), taking the committed baseline
(``BENCH_telemetry_baseline.json``) as context in the report.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

from gates import main
from repro.bgp.dampening import DampeningConfig
from repro.core.safety import SafetyConfig
from repro.core.testbed import Testbed
from repro.inet.gen import InternetConfig

BASELINE = Path(__file__).with_name("BENCH_telemetry_baseline.json")
OVERHEAD_GATE_PCT = 5.0


def build_testbed(quick: bool) -> Testbed:
    if quick:
        config = InternetConfig(n_ases=800, total_prefixes=40_000, seed=17)
    else:
        config = InternetConfig(n_ases=800, total_prefixes=60_000, seed=17)
    return Testbed.build_default(config)


class SteeringWorkload:
    """Route-steering churn through the client control path — the route
    every telemetry hook (spans, safety counters, route monitor,
    propagation metrics) sits on.  Each iteration re-announces with a
    changed spec (peers / prepend / poison), the paper's steering use
    case, so every control op drives a full fresh convergence (the spec
    never repeats, so the outcome cache never short-circuits the work).
    """

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.client = testbed.register_client("bench", "bench-user")
        self.client.attach("gatech01")
        self.prefix = self.client.prefixes[0]
        server = testbed.server("gatech01")
        # Defang rate limiting and flap damping (same on both sides):
        # the workload must exercise the *accepted* path every
        # iteration, not measure how fast denials are.
        relaxed = SafetyConfig(
            max_announcements_per_window=10**9,
            dampening=DampeningConfig(
                suppress_threshold=float(10**9), reuse_threshold=1.0
            ),
        )
        server.safety.config = relaxed
        server.safety.damper.config = relaxed.dampening
        self.peers = sorted(server.neighbor_asns)
        self.poison_pool = [
            asn for asn in sorted(testbed.graph.asns())
            if asn != testbed.asn and asn not in server.neighbor_asns
        ]

    def run(self, start: int, count: int) -> None:
        peers, pool, flush = self.peers, self.poison_pool, self.testbed._flush_dirty
        n = len(pool)
        for i in range(start, start + count):
            # Two poison coordinates (i mod n, i//n mod n) keep the spec
            # sequence aperiodic for n^2 iterations; a single coordinate
            # wraps after ~n announcements, after which the outcome cache
            # short-circuits convergence and the plain/observed ratio
            # measures telemetry against near-zero work.
            self.client.announce(
                self.prefix,
                peers=peers[: 1 + i % len(peers)],
                prepend=i % 3,
                poison=(pool[i % n], pool[(i // n) % n]),
            )
            flush()


def run_benchmarks(quick: bool):
    chunk = 15
    chunks = 100 if quick else 140
    repeats = 2
    # Both testbeds live side by side and execute the identical workload
    # in small (~15-iteration) alternating chunks within one loop: host
    # speed drift — CPU frequency scaling, thermal state — moves far
    # slower than a chunk, so it lands on both sides' accounts equally
    # and cancels in the per-chunk ratio, while the median over all
    # chunks discards the ones an interference burst hit one-sided.
    # CPU time (scheduler interference off the books) with GC paused
    # (collection pauses likewise).
    plain_load = SteeringWorkload(build_testbed(quick))
    observed_testbed = build_testbed(quick)
    observed_testbed.observe()
    observed_load = SteeringWorkload(observed_testbed)
    # Warm up outside the timed region: the first announce compiles the
    # propagation topology, which would otherwise dominate chunk one.
    plain_load.run(0, 2)
    observed_load.run(0, 2)
    gc.collect()
    gc.disable()
    plain_s = 0.0
    observed_s = 0.0
    medians = []
    try:
        position = 2
        for _ in range(repeats):
            ratios = []
            for index in range(chunks):
                first, second = (
                    (plain_load, observed_load)
                    if index % 2 == 0
                    else (observed_load, plain_load)
                )
                begin = time.process_time()
                first.run(position, chunk)
                middle = time.process_time()
                second.run(position, chunk)
                done = time.process_time()
                if first is plain_load:
                    plain_chunk, observed_chunk = middle - begin, done - middle
                else:
                    observed_chunk, plain_chunk = middle - begin, done - middle
                plain_s += plain_chunk
                observed_s += observed_chunk
                ratios.append(observed_chunk / plain_chunk)
                position += chunk
            ratios.sort()
            medians.append(ratios[len(ratios) // 2])
    finally:
        gc.enable()
    iterations = repeats * chunks * chunk
    # Interference only ever *inflates* a pass (correlated drift moves a
    # whole pass's ratios together), so the smallest per-pass median is
    # the cleanest estimate of the true overhead.
    overhead_pct = (min(medians) - 1.0) * 100.0
    # What the observed side actually produced, for the report.
    produced = observed_load.testbed.telemetry.stats()

    return {
        "config": {"quick": quick, "iterations": iterations, "chunk": chunk},
        "plain_s": round(plain_s, 6),
        "observed_s": round(observed_s, 6),
        "overhead_pct": round(overhead_pct, 3),
        "gate_pct": OVERHEAD_GATE_PCT,
        "produced": produced,
    }


def check(results, args, gates):
    """Fail when telemetry overhead exceeds the 5% ceiling."""
    overhead = results["overhead_pct"]
    baseline = gates.baseline(BASELINE, required=False)
    note = f" (committed baseline: {baseline['overhead_pct']:.2f}%)" if baseline else ""
    gates.hold(
        "telemetry overhead",
        overhead <= OVERHEAD_GATE_PCT,
        f"telemetry adds {overhead:.2f}% (ceiling {OVERHEAD_GATE_PCT:.1f}%){note}",
    )


if __name__ == "__main__":
    output = "BENCH_telemetry.json"
    sys.exit(main(__doc__, lambda args: run_benchmarks(args.quick), check, output))
