"""The one runner behind the six gated benchmark scripts.

A script keeps its measurements and one ``check(results, args, gates)``
that declares its gates; this module owns the rest: the command line
(``--quick``, ``--output``, ``--check`` and any flags a script declares),
the result JSON, timing, the machine fingerprint, and the baseline rule.
Under ``--check`` a missing baseline is a failing gate, and so is an
exact-equality gate whose baseline was recorded under another ``config``;
without ``--check`` no gate runs and the exit status is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path


def fingerprint():
    """Where a result was recorded — baselines state it so a ratio that
    depends on the machine (wall-clock budget) can be
    read against the right hardware."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def timed(fn, repeat=1):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def clocked(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)`` of a single call."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def timed_pair(fn_a, fn_b, repeat):
    """Two callables run alternately: best time of each, and the median
    over rounds of ``a / b``.  Neighbours in time share the machine's
    mood, so the median ratio holds still where a ratio of two
    independent minima jumps with one lucky sample."""
    rounds = [(timed(fn_a), timed(fn_b)) for _ in range(repeat)]
    ratios = sorted(a / b for a, b in rounds)
    return (
        min(a for a, _ in rounds),
        min(b for _, b in rounds),
        ratios[len(ratios) // 2],
    )


class Gates:
    """Records gate outcomes; ``status()`` turns them into an exit code."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def hold(self, label: str, ok: bool, detail: str) -> bool:
        print(f"regression gate [{label}]: {detail} {'ok' if ok else 'FAIL'}")
        if not ok:
            self.failures.append(label)
        return ok

    def floor(self, label: str, now: float, floor: float) -> bool:
        return self.hold(label, now >= floor, f"{now:.2f} (floor {floor:.2f})")

    def skip(self, label: str, why: str) -> None:
        print(f"regression gate [{label}]: skipped ({why})")

    def baseline(self, path: Path, required: bool = True):
        """The committed baseline at ``path``, or None.  A missing file
        fails the check unless the baseline is context only
        (``required=False``)."""
        if path.exists():
            return json.loads(path.read_text())
        if required:
            self.hold(f"baseline {path.name}", False, f"no baseline at {path}")
        return None

    def same_config(self, results, baseline) -> bool:
        """Guard for exact-equality gates: figures recorded under another
        config are not comparable, and that is a failure, not a skip."""
        now, then = results["config"], baseline["config"]
        detail = "run matches" if now == then else f"run {now} vs baseline {then}"
        return self.hold("baseline config", now == then, detail)

    def status(self) -> int:
        if self.failures:
            print(f"FAIL: regressed vs gates: {', '.join(self.failures)}")
            return 1
        return 0


def main(doc, measure, check, output, flags=None, argv=None) -> int:
    """Run ``measure(args)``, write and print its JSON to ``--output``
    (default ``output``, or ``output(args)`` if callable), then gate it
    under ``--check`` (whose help is ``check``'s docstring)."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument(
        "--quick", action="store_true", help="small config for CI smoke runs"
    )
    for flag, options in (flags or {}).items():
        parser.add_argument(flag, **options)
    parser.add_argument("--output", help="result JSON path")
    parser.add_argument(
        "--check", action="store_true", help=check.__doc__.replace("%", "%%")
    )
    args = parser.parse_args(argv)

    results = measure(args)
    path = args.output or (output(args) if callable(output) else output)
    Path(path).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    if not args.check:
        return 0
    gates = Gates()
    check(results, args, gates)
    return gates.status()
