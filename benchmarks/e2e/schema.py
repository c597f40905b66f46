"""Every metric, layer and workload of the benchmark, by name.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 benchmarks/e2e/run.py --print-schema``) and the smoke test
checks the two agree.  Written down *before* measuring: which end-to-end
metric each layer should move, and on which workload (``Layer.moves`` /
``Layer.on``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

RUN_SECONDS = 25
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


# Each of the four timings is the best reading among up to nine equal
# stretches of the run (see ``harness.end_to_end`` for why).
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "build world + deploy muxes + register/attach + one warm-up op "
        "(includes topology compile); median of three set-ups",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "ops completed per second, sim-clock advance between ops included",
    ),
    EndToEnd(
        "op_ms_p50", "ms", "lower", 0.25,
        "median op latency, first verb to last read-back of the op",
    ),
    EndToEnd(
        "op_ms_p90", "ms", "lower", 0.25,
        "90th percentile op latency",
    ),
    EndToEnd(
        "cpu_ms_per_op", "ms", "lower", 0.25,
        "process_time of this process plus reaped children per op - shows "
        "when a parallel change buys wall time with CPU",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05,
        "ru_maxrss of this process plus children once the workload's fixed "
        "op count is reached, so a faster engine is not charged for doing "
        "more ops in the same seconds",
    ),
)

# ``failed_share`` (ops refused, undelivered or failing the oracle / ops
# attempted) is reported by every run but is 0 on a correct run, so it
# cannot carry a relative bound; the run's ``attempted``/``failed``/
# ``correct`` fields carry it to the driver instead.
FAILED_SHARE = ("failed_share", "ratio", "lower")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "workflow_default",
        "paper scale (4000 ASes, 9 muxes, ~50 live BGP sessions, supervised): "
        "the only workload where bgp, core.*, guard and sim hold a visible "
        "share beside a 1-6 ms converge",
    ),
    Workload(
        "workflow_scale",
        "50k-AS CAIDA-like graph, 3 muxes, never-repeating specs: the engine "
        "does nearly all the work, so single-announcement latency is what "
        "moves and control-path changes must read no change",
    ),
    Workload(
        "anycast_sweep",
        "same 50k graph used the other way - batched propagate_many, delta "
        "chains, 1.2M-client catchments, rebalance every 5th op - so a "
        "single-shot gain that costs batch throughput shows",
    ),
    Workload(
        "traffic_flood",
        "64-packet bursts through FlowSpec rules on 25% of ASes: dataplane, "
        "flowspec and trie do the work, the engine almost none; 2% route "
        "changes make a precomputed-forwarding design pay its rebuild",
    ),
)

# (module, class or None for a module-level function, attribute names)
Wrap = Tuple[str, str, Tuple[str, ...]]


@dataclass(frozen=True)
class Layer:
    name: str
    wraps: Tuple[Wrap, ...]
    moves: Tuple[str, ...]
    on: Tuple[str, ...]
    # (suffix, unit, better) beyond the <layer>.calls / <layer>.self_ms pair
    extras: Tuple[Tuple[str, str, str], ...] = ()
    # "op": calls and self time are per op; "run": totals of the final
    # set-up plus the measured phase (set-up layers have no per-op meaning)
    per: str = "op"


ALL = tuple(w.name for w in WORKLOADS)

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "core.client",
        (("repro.core.client", "PeeringClient", ("announce", "withdraw", "ping")),),
        ("op_ms_p50",), ("workflow_default",),
    ),
    Layer(
        "core.server",
        (("repro.core.server", "PeeringServer",
          ("announce", "withdraw", "deliver_to_client")),),
        ("op_ms_p50",), ("workflow_default",),
    ),
    Layer(
        "core.safety",
        (("repro.core.safety", "SafetyEnforcer",
          ("check_announcement", "check_withdrawal", "check_packet")),),
        ("op_ms_p50",), ("workflow_default",),
        extras=(("refused", "count", "lower"),),
    ),
    Layer(
        "core.testbed",
        (("repro.core.testbed", "Testbed",
          ("announce", "retract", "outcome_for", "send_from", "inject_packet")),),
        ("op_ms_p50",), ("workflow_default", "traffic_flood"),
    ),
    Layer(
        "guard",
        (("repro.guard.journal", "ControlJournal", ("append",)),
         ("repro.guard.supervisor", "Supervisor",
          ("admit_update", "admit_prefix_count", "record_flap"))),
        ("op_ms_p50", "peak_rss_mb"), ("workflow_default",),
        extras=(("journal_records", "1/op", "lower"),),
    ),
    Layer(
        "bgp.router",
        (("repro.bgp.router", "BGPRouter", ("originate", "withdraw_local")),),
        ("op_ms_p50", "cpu_ms_per_op"), ("workflow_default",),
    ),
    Layer(
        "bgp.codec",
        (("repro.bgp.messages", "UpdateMessage", ("encode",)),
         ("repro.bgp.messages", "", ("decode",))),
        ("op_ms_p50", "cpu_ms_per_op"), ("workflow_default",),
        extras=(("msgs", "1/op", "lower"), ("bytes", "1/op", "lower")),
    ),
    Layer(
        "sim",
        (("repro.sim.engine", "Engine", ("run_for",)),),
        ("ops_per_s", "cpu_ms_per_op"), ("workflow_default",),
        extras=(("events", "1/op", "lower"),),
    ),
    Layer(
        "inet.engine.compile",
        (("repro.inet.engine", "PropagationEngine", ("compiled",)),),
        ("setup_s",), ("workflow_scale", "anycast_sweep"),
        extras=(("compiles", "count", "lower"),),
        per="run",
    ),
    Layer(
        "inet.engine.converge",
        (("repro.inet.engine", "PropagationEngine",
          ("propagate", "propagate_delta", "propagate_many")),),
        ("op_ms_p50", "op_ms_p90"), ("workflow_scale", "anycast_sweep"),
        extras=(
            ("cache_hit_ratio", "ratio", "higher"),
            ("runs_full", "1/op", "lower"),
            ("delta_noop", "1/op", "higher"),
            ("delta_shift", "1/op", "higher"),
            ("delta_cone", "1/op", "higher"),
            ("delta_fallback", "1/op", "lower"),
            ("delta_saved_slots", "1/op", "higher"),
            ("pool_chains", "1/op", "higher"),
            ("pool_fallbacks", "count", "lower"),
        ),
    ),
    Layer(
        "inet.dataplane.install",
        (("repro.inet.dataplane", "DataPlane", ("install", "uninstall")),),
        ("op_ms_p90",), ("workflow_scale", "traffic_flood"),
    ),
    Layer(
        "inet.dataplane.send",
        (("repro.inet.dataplane", "DataPlane", ("send",)),),
        ("ops_per_s", "op_ms_p50"), ("traffic_flood",),
        extras=(
            ("pkts_per_s", "1/s", "higher"),
            ("hops_per_pkt", "count", "lower"),
            ("delivered_ratio", "ratio", "higher"),
        ),
    ),
    Layer(
        "secroute.flowspec",
        (("repro.secroute.flowspec", "FlowSpecDistributor",
          ("decide", "announce", "revalidate")),),
        ("ops_per_s",), ("traffic_flood",),
        extras=(("matched_ratio", "ratio", "higher"),
                ("rules_installed", "count", "lower")),
    ),
    Layer(
        "net.trie",
        (("repro.net.trie", "PrefixTrie", ("lookup", "insert", "remove")),),
        ("ops_per_s",), ("traffic_flood",),
    ),
    Layer(
        "anycast.service",
        (("repro.anycast.service", "AnycastService",
          ("steer", "announcement", "fail_site", "restore_site")),),
        ("op_ms_p50",), ("anycast_sweep",),
    ),
    Layer(
        "anycast.catchment",
        (("repro.anycast.catchment", "CatchmentMap",
          ("compute", "compute_many", "diff")),),
        ("op_ms_p50", "ops_per_s"), ("anycast_sweep",),
        extras=(("clients_mapped_per_s", "1/s", "higher"),),
    ),
    Layer(
        "anycast.engineer",
        (("repro.anycast.engineer", "TrafficEngineer", ("rebalance",)),),
        ("op_ms_p90",), ("anycast_sweep",),
        extras=(("iterations", "count", "lower"),
                ("shift_iterations", "count", "higher")),
    ),
    Layer(
        "inet.gen",
        (("repro.inet.gen", "",
          ("build_internet", "build_caida_like", "build_amsix")),
         ("repro.workloads.traffic", "",
          ("zipf_clients", "zipf_attack_sources"))),
        ("setup_s", "peak_rss_mb"), ALL,
        per="run",
    ),
)

# The tracer itself: no wrapped callables, two figures about the trace.
TRACE_EXTRAS = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def per_layer() -> List[Dict[str, str]]:
    """Every per-layer metric as ``BENCHMARK.json`` lists it."""
    rows: List[Dict[str, str]] = []
    for layer in LAYERS:
        per_op = layer.per == "op"
        rows.append({"name": f"{layer.name}.calls",
                     "unit": "1/op" if per_op else "count", "better": "lower"})
        rows.append({"name": f"{layer.name}.self_ms",
                     "unit": "ms/op" if per_op else "ms", "better": "lower"})
        for suffix, unit, better in layer.extras:
            rows.append({"name": f"{layer.name}.{suffix}", "unit": unit,
                         "better": better})
    for name, unit, better in TRACE_EXTRAS:
        rows.append({"name": name, "unit": unit, "better": better})
    return rows


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": per_layer(),
    }
