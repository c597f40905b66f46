"""Command line of the end-to-end benchmark.

One run, the way the driver calls it::

    python3 benchmarks/e2e/run.py --workload traffic_flood --seed 3 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` is the
separate traced run that yields the per-layer metrics.

Every number at once (each run in a process of its own)::

    python3 benchmarks/e2e/run.py --all --seed 1 --output results.json

exits non-zero if any op of any workload was refused, undelivered or
failed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from . import schema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SMOKE_OPS = 20
# What ``--all`` keeps of the untraced run beside its metrics.
CARRIED = ("attempted", "failed", "failed_share", "fixed_ops", "result_digest",
           "pooled", "stretches")


def workload_factory(name: str, smoke: bool) -> Callable[[], Any]:
    from .anycast import AnycastSweep
    from .flood import TrafficFlood
    from .workflow import WorkflowDefault, WorkflowScale

    classes = {
        cls.name: cls
        for cls in (WorkflowDefault, WorkflowScale, AnycastSweep, TrafficFlood)
    }
    return lambda: classes[name](smoke)


def commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = ROOT / ".git" / text[5:]
    return ref.read_text().strip() if ref.is_file() else None


def fingerprint() -> Dict[str, object]:
    from repro.inet.engine import default_parallelism

    return {
        "cpu_count": os.cpu_count(),
        "workers": default_parallelism(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "commit": commit(),
    }


def run_one(args: argparse.Namespace) -> Dict[str, Any]:
    """One workload, one process: set-up, measured phase, metrics."""
    from . import harness
    from .tracer import Fold, Tracer

    factory = workload_factory(args.workload, args.smoke)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install(schema.LAYERS)
            tracer.recording = True
        workload, setup_times = harness.set_up(
            factory, 1 if tracer is not None or args.smoke else harness.SETUP_REPEATS
        )
        if tracer is not None:
            tracer.recording = False
        if args.smoke:  # stop as soon as SMOKE_OPS are done
            run = harness.measure(workload, args.seed, 0.0, tracer, fixed_cap=SMOKE_OPS)
        else:
            run = harness.measure(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    units = {m.name: m.unit for m in schema.END_TO_END}
    if tracer is None:
        values = harness.end_to_end(run, setup_times)
    else:
        fold = Fold(tracer.spans)
        values = harness.per_layer(run, tracer, fold)
        units = {row["name"]: row["unit"] for row in schema.per_layer()}
        tracer.write(
            OUT / f"trace_{args.workload}.json", fold,
            {"workload": args.workload, "seed": args.seed, "sampled_ops": run.sampled_ops},
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted,
        "deep_checks": run.deep_checks,
        "fixed_ops": run.fixed_ops,
        "result_digest": run.digest,
        # The timings over the whole run and stretch by stretch: not metrics,
        # kept so the choice of statistic can be checked from any result file.
        "pooled": harness.figures(run, run.marks[0], run.marks[-1]),
        "stretches": harness.stretches(run),
        "fingerprint": fingerprint(),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def print_metrics(record: Dict[str, Any]) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['attempted']} deep_checks={record['deep_checks']} "
          f"digest[{record['fixed_ops']} ops]={record['result_digest'][:16]}")
    for name, metric in record["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6f} {metric['unit']}")
    name, unit, _better = schema.FAILED_SHARE
    print(f"{name:<44} {record['failed_share']:>16.6f} {unit}")


def run_all(args: argparse.Namespace) -> int:
    """Both runs of every workload, each in its own process, so no run
    inherits another's heap, caches or peak RSS."""
    OUT.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Any] = {"seed": args.seed, "workloads": {}}
    status = 0
    for workload in schema.WORKLOADS:
        merged: Dict[str, Any] = {}
        for trace in (0, 1):
            scratch = OUT / f"run_{workload.name}_{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--output", str(scratch),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            if not scratch.is_file():
                print(f"FAIL: {workload.name} --trace {trace} exited "
                      f"{done.returncode} without a result")
                status = 1
                continue
            record = json.loads(scratch.read_text())
            scratch.unlink()
            if done.returncode != 0 or not record["correct"]:
                print(f"FAIL: {workload.name} --trace {trace}: "
                      f"{record['failed']} of {record['attempted']} ops failed")
                status = 1
            kind = "per_layer" if trace else "end_to_end"
            merged[kind] = record.pop("metrics")
            if not trace:
                results.setdefault("fingerprint", record.pop("fingerprint"))
                merged.update({k: record[k] for k in CARRIED})
        results["workloads"][workload.name] = merged
    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=1) + "\n")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w.name for w in schema.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1,
                        help="op-stream seed (topology seeds are fixed)")
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"small worlds, {SMOKE_OPS} ops: a schema check, not a measurement")
    parser.add_argument("--all", action="store_true",
                        help="every workload, traced and untraced")
    parser.add_argument("--output", help="also write the result as JSON here")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the contents of BENCHMARK.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.print_schema:
        print(json.dumps(schema.benchmark_json(), indent=2))
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("one of --workload, --all, --print-schema is required")
    record = run_one(args)
    print_metrics(record)
    if args.output:
        Path(args.output).write_text(json.dumps(record) + "\n")
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if record["correct"] else 1
