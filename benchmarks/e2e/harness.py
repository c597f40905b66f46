"""The measurement loop every workload runs under.

One process, one client, closed loop: the next op starts when the last
one has been read back and checked.  A workload is an object with

* ``build()`` - set-up: world, muxes, client, one warm-up op (seed-free);
* ``reseed(seed)`` - the op stream's RNG;
* ``op(i, timer)`` - one op; calls ``timer.start(i)`` at its first verb and
  ``timer.stop()`` after its last read-back, returns an :class:`OpResult`;
* ``deep_check()`` - the expensive oracle on the last op, run outside
  every timer each ``DEEP_EVERY`` ops;
* ``counters()`` - cumulative counts read from public ``stats()``;
* ``fixed_ops`` - the op count at which the run's deterministic figures
  (peak RSS, result digest, count-type layer metrics) are taken, and which
  a traced run records; ``block`` - ops per repeating block.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .schema import LAYERS
from .tracer import Fold, Tracer

SETUP_REPEATS = 3
STRETCHES = 9
DEEP_EVERY = 25


@dataclass
class OpResult:
    latency_s: float
    ok: bool
    seen: Tuple[object, ...]  # what the op observed; feeds the result digest


class OpTimer:
    """Times one op's window and tells the tracer which window it is in."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._t0 = 0.0

    def idle(self, i: int, recording: bool) -> None:
        """Before op ``i``: what follows is its untimed sim-clock advance."""
        if self._tracer is not None:
            self._tracer.op = -2 - i
            self._tracer.recording = recording

    def start(self, i: int) -> None:
        if self._tracer is not None:
            self._tracer.op = i
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        elapsed = time.perf_counter() - self._t0
        if self._tracer is not None:
            self._tracer.op = -2 - self._tracer.op
        return elapsed


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def engine_counters(stats: Dict[str, object]) -> Dict[str, float]:
    """Flatten ``PropagationEngine.stats()`` into the layer's counters."""
    cache, delta, parallel = stats["cache"], stats["delta"], stats["parallel"]
    return {
        "inet.engine.compile.compiles": stats["compile_count"],
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "inet.engine.converge.delta_noop": delta["noop"],
        "inet.engine.converge.delta_shift": delta["shift"],
        "inet.engine.converge.delta_cone": delta["cone"],
        "inet.engine.converge.delta_fallback": delta["fallback"],
        "inet.engine.converge.delta_saved_slots": stats["delta_saved_slots"],
        "inet.engine.converge.pool_chains": parallel["chains"],
        "inet.engine.converge.pool_fallbacks": sum(parallel["pool_fallbacks"].values()),
    }


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    deep_checks: int = 0
    fixed_ops: int = 0  # ops the digest / RSS / count snapshot covers
    digest: str = ""
    rss_mib: float = 0.0
    counters_start: Dict[str, float] = field(default_factory=dict)
    counters_fixed: Dict[str, float] = field(default_factory=dict)
    latencies: List[Optional[float]] = field(default_factory=list)  # by op
    # (ops done, wall seconds, cpu seconds) at each block boundary, deep
    # checks taken out of both clocks
    marks: List[Tuple[int, float, float]] = field(default_factory=list)
    chunk: int = 0  # a traced run records every other chunk of this many ops
    sampled_ops: int = 0
    sampled_latency_s: float = 0.0


def set_up(factory: Callable[[], Any], repeats: int) -> Tuple[Any, List[float]]:
    """Build the workload ``repeats`` times, dropping each world before
    the next is built; the last one is measured."""
    times: List[float] = []
    workload = None
    for _ in range(repeats):
        workload = None  # let go of the previous world before building the next
        gc.collect()
        workload = factory()
        start = time.perf_counter()
        workload.build()
        times.append(time.perf_counter() - start)
    return workload, times


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    fixed_cap: Optional[int] = None,
) -> Run:
    """Run ops until ``seconds`` have passed, stopping on a whole-block
    boundary and not before ``fixed_ops``.  ``fixed_cap`` lowers the
    workload's ``fixed_ops`` (the smoke mode's short runs).

    A traced run records within the first ``fixed_ops`` ops only, so what
    it counts is the same op for op on every run of a seed, and there in
    every other chunk: neighbouring chunks with and without recording
    give the tracing overhead free of the machine's slow drift."""
    workload.reseed(seed)
    block = workload.block
    # ``fixed_ops`` is itself a whole number of blocks.
    fixed = workload.fixed_ops
    if fixed_cap is not None:  # whole blocks, two at least
        fixed = min(fixed, max(2, -(-fixed_cap // block)) * block)
    chunk = block * max(1, fixed // block // 10)
    timer = OpTimer(tracer)
    run = Run(counters_start=workload.counters(), chunk=chunk)
    digest = hashlib.sha256()
    gc.collect()
    gc.freeze()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    out_wall = out_cpu = 0.0
    run.marks.append((0, 0.0, 0.0))
    i = 0
    while True:
        sampled = tracer is not None and i < fixed and (i // chunk) % 2 == 0
        timer.idle(i, sampled)
        result = workload.op(i, timer)
        if tracer is not None:
            tracer.recording = False
        if sampled:
            run.sampled_ops += 1
            run.sampled_latency_s += result.latency_s
        ok = result.ok
        if i % DEEP_EVERY == 0:
            wall, cpu = time.perf_counter(), cpu_seconds()
            ok = workload.deep_check() and ok
            run.deep_checks += 1
            out_wall += time.perf_counter() - wall
            out_cpu += cpu_seconds() - cpu
        # A refused or wrong op has no latency: answering fast with a
        # refusal must not pull the percentiles down.
        run.latencies.append(result.latency_s if ok else None)
        run.failed += not ok
        if i < fixed:
            digest.update(repr((i, ok, result.seen)).encode())
        i += 1
        if i % block:
            continue
        run.marks.append((
            i, time.perf_counter() - wall0 - out_wall, cpu_seconds() - cpu0 - out_cpu
        ))
        if i == fixed:
            run.fixed_ops = fixed
            run.digest = digest.hexdigest()
            run.rss_mib = peak_rss_mib()
            run.counters_fixed = workload.counters()
        if i >= fixed and time.perf_counter() - wall0 >= seconds:
            break
    gc.unfreeze()
    run.attempted = i
    return run


def figures(run: Run, start: Tuple[int, float, float],
            end: Tuple[int, float, float]) -> Dict[str, float]:
    """The four timings over the ops between two marks.  Ops that failed
    have no latency; a stretch in which none passed has no percentiles."""
    (n0, wall0, cpu0), (n1, wall1, cpu1) = start, end
    out = {"ops_per_s": (n1 - n0) / (wall1 - wall0)}
    passed = [x for x in run.latencies[n0:n1] if x is not None]
    if passed:
        out["op_ms_p50"] = 1e3 * percentile(passed, 0.5)
        out["op_ms_p90"] = 1e3 * percentile(passed, 0.9)
    out["cpu_ms_per_op"] = 1e3 * (cpu1 - cpu0) / (n1 - n0)
    return out


def stretches(run: Run) -> List[Dict[str, float]]:
    """The timings of each of up to ``STRETCHES`` equal stretches of whole
    blocks; ten ops at least, so a stretch's 90th percentile means
    something."""
    steps = len(run.marks) - 1
    count = max(1, min(STRETCHES, steps, run.attempted // 10))
    edges = [run.marks[round(k * steps / count)] for k in range(count + 1)]
    return [figures(run, start, end) for start, end in zip(edges, edges[1:])]


def end_to_end(run: Run, setup_times: List[float]) -> Dict[str, float]:
    """Each timing is the best reading among the run's stretches.

    This machine's noise only ever slows a run down, by up to half and
    for seconds to minutes at a time, so totals over the run and medians
    over the stretches move with it while the fastest stretch mostly does
    not (README, "Why the best stretch", has the same-seed measurements).
    """
    out = {"setup_s": statistics.median(setup_times)}
    rows = stretches(run)
    for name in ("ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op"):
        readings = [row[name] for row in rows if name in row]
        if readings:
            out[name] = max(readings) if name == "ops_per_s" else min(readings)
    out["peak_rss_mb"] = run.rss_mib
    return out


def trace_overhead_pct(run: Run) -> float:
    """How much slower the recorded chunks ran than their unrecorded
    neighbours: median over the pairs, in percent."""
    wall_at = {n: wall for n, wall, _cpu in run.marks}
    edges = range(0, run.fixed_ops + 1, run.chunk)
    spent = [wall_at[b] - wall_at[a] for a, b in zip(edges, edges[1:])]
    pairs = list(zip(spent[0::2], spent[1::2]))
    return 100.0 * (statistics.median(t / u for t, u in pairs) - 1.0)


def per_layer(run: Run, tracer: Tracer, fold: Fold) -> Dict[str, float]:
    """Every per-layer metric of the schema; layers a workload leaves
    idle read 0."""
    sampled = max(1, run.sampled_ops)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        if layer.per == "op":
            out[f"{layer.name}.calls"] = fold.calls(layer.name) / sampled
            out[f"{layer.name}.self_ms"] = fold.self_ms(layer.name) / sampled
        else:
            out[f"{layer.name}.calls"] = fold.calls(layer.name, with_setup=True)
            out[f"{layer.name}.self_ms"] = fold.self_ms(layer.name, with_setup=True)
        for suffix, _unit, _better in layer.extras:
            out[f"{layer.name}.{suffix}"] = 0.0

    ops = max(1, run.fixed_ops)
    start, fixed = run.counters_start, run.counters_fixed

    def delta(key: str) -> float:
        return fixed.get(key, 0) - start.get(key, 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    for key in fixed:
        if key in out:
            out[key] = delta(key) / ops
    # Levels, not flows: read as they stand at the snapshot.
    for key in ("core.safety.refused", "inet.engine.compile.compiles",
                "inet.engine.converge.pool_fallbacks",
                "secroute.flowspec.rules_installed"):
        out[key] = fixed.get(key, 0)
    hits, misses = delta("cache_hits"), delta("cache_misses")
    cheap = sum(delta(f"inet.engine.converge.delta_{mode}")
                for mode in ("noop", "shift", "cone"))
    out["inet.engine.converge.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["inet.engine.converge.runs_full"] = (misses - cheap) / ops
    out["bgp.codec.msgs"] = out["bgp.codec.calls"]
    out["bgp.codec.bytes"] = tracer.sums.get("bgp.codec.bytes", 0) / sampled
    sends, send_ns = fold.by_name.get("DataPlane.send", (0, 0))
    out["inet.dataplane.send.pkts_per_s"] = ratio(sends, send_ns / 1e9)
    out["inet.dataplane.send.hops_per_pkt"] = ratio(delta("hops"), delta("pkts"))
    out["inet.dataplane.send.delivered_ratio"] = ratio(delta("delivered"), delta("pkts"))
    out["secroute.flowspec.matched_ratio"] = ratio(delta("matched"), delta("decides"))
    out["anycast.catchment.clients_mapped_per_s"] = ratio(
        tracer.sums.get("anycast.catchment.clients", 0),
        fold.inclusive_s("CatchmentMap.compute", "CatchmentMap.compute_many"),
    )
    rebalances = delta("rebalances")
    out["anycast.engineer.iterations"] = ratio(delta("iterations"), rebalances)
    out["anycast.engineer.shift_iterations"] = ratio(delta("shift_iterations"), rebalances)
    out["trace.overhead_pct"] = trace_overhead_pct(run)
    out["trace.coverage"] = ratio(fold.root_timed_ns / 1e9, run.sampled_latency_s)
    return out
