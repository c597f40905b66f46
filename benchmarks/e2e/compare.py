"""Compare two sets of benchmark results under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the candidate.  Each is a
file written by ``run.py --all --output``, or a directory of such files
(several runs of one commit).  For every (workload, end-to-end metric)
the medians are compared and one row is printed, with each side's
run-to-run spread (interquartile distance over the median):

* ``worse`` / ``better`` - B's median is beyond the metric's bound;
* ``same`` - within it;
* ``unresolved`` - A's own run-to-run spread (interquartile distance over
  its median) is wider than the bound, unless every run of B reads better
  than every run of A; also when a side has no value.

``failed_share`` has bound 0: any rise is ``worse``.  For runs that share
a seed the result digests must match: the two sides saw different outputs
otherwise.  Count-type layer metrics that differ are listed for
information - between two runs of one commit they should not, between a
parent and a candidate they are what an optimisation moves.  Exit status
1 if any row is ``worse`` or any digest differs, else 0.

One run a side cannot tell a slower commit from a slow minute of the
machine: give each side a directory of three or more ``--all`` runs, made
alternately, and the medians are compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__:
    from . import schema
else:  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e import schema

COUNT_UNITS = ("count", "1/op")


def load(path: str) -> List[Dict[str, Any]]:
    """The result files of one side, one dict per run."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"no result files in {path}")
    return [json.loads(f.read_text()) for f in files]


def values(runs: List[Dict[str, Any]], workload: str, kind: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        found = run["workloads"].get(workload, {}).get(kind, {}).get(metric)
        if found is not None:
            out.append(found["value"])
    return out


def spread(samples: List[float]) -> float:
    """Interquartile distance over the median (0 with fewer than 2 runs,
    or a median of 0 as ``failed_share`` has)."""
    median = statistics.median(samples) if samples else 0.0
    if len(samples) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return abs(q3 - q1) / abs(median)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if not a or not b:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        worse_by = sign * (med_b - med_a)
    else:
        worse_by = sign * (med_b - med_a) / abs(med_a)
    if spread(a) > bound > 0:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]]) -> int:
    status = 0
    print(f"{'workload':<18}{'metric':<16}{'A':>14}{'B':>14}{'change':>9}{'bound':>7}"
          f"{'iqr A':>8}{'iqr B':>8}  verdict")
    metrics = [(m.name, m.better, m.bound) for m in schema.END_TO_END]
    for workload in (w.name for w in schema.WORKLOADS):
        for name, better, bound in metrics:
            a = values(a_runs, workload, "end_to_end", name)
            b = values(b_runs, workload, "end_to_end", name)
            row = verdict(a, b, better, bound)
            status |= row == "worse"
            print_row(workload, name, a, b, bound, row)
        name, _unit, better = schema.FAILED_SHARE
        a = [r["workloads"][workload][name] for r in a_runs if workload in r["workloads"]]
        b = [r["workloads"][workload][name] for r in b_runs if workload in r["workloads"]]
        row = verdict(a, b, better, 0.0)
        status |= row == "worse"
        print_row(workload, name, a, b, 0.0, row)
    if min(len(a_runs), len(b_runs)) < 3:
        print("note: fewer than three runs a side; a slow minute of the machine "
              "reads like a slower commit")
    return status | exactness(a_runs, b_runs)


def print_row(
    workload: str, name: str, a: List[float], b: List[float], bound: float, row: str
) -> None:
    def med(samples: List[float]) -> Optional[float]:
        return statistics.median(samples) if samples else None

    def cell(value: Optional[float]) -> str:
        return f"{value:14.4f}" if value is not None else f"{'-':>14}"

    med_a, med_b = med(a), med(b)
    change = (
        f"{100.0 * (med_b - med_a) / med_a:+8.2f}%"
        if med_a and med_b is not None else f"{'-':>9}"
    )
    print(f"{workload:<18}{name:<16}{cell(med_a)}{cell(med_b)}{change}{100 * bound:6.0f}%"
          f"{100 * spread(a):7.1f}%{100 * spread(b):7.1f}%  {row}")


def count_differences(got_a: Dict[str, Any], got_b: Dict[str, Any]) -> List[str]:
    """Count-type layer metrics on which two runs of a workload differ."""
    units = {row["name"]: row["unit"] for row in schema.per_layer()}
    layers_a, layers_b = got_a.get("per_layer", {}), got_b.get("per_layer", {})
    return [
        name for name, metric in layers_a.items()
        if units.get(name) in COUNT_UNITS and name in layers_b
        and metric["value"] != layers_b[name]["value"]
    ]


def exactness(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]]) -> int:
    """Digests of runs that share a seed must agree; counts are reported.
    One line per (seed, workload), over every pair of an A and a B run."""
    # (seed, workload) -> [pairs, pairs whose digest differs, differing counts]
    found: Dict[Any, List[Any]] = {}
    for a in a_runs:
        for b in b_runs:
            if a["seed"] != b["seed"]:
                continue
            for workload, got_a in a["workloads"].items():
                got_b = b["workloads"].get(workload)
                if got_b is None:
                    continue
                row = found.setdefault((a["seed"], workload), [0, 0, set()])
                row[0] += 1
                row[1] += (
                    got_a["result_digest"] != got_b["result_digest"]
                    or got_a["fixed_ops"] != got_b["fixed_ops"]
                )
                row[2].update(count_differences(got_a, got_b))
    for (seed, workload), (pairs, unequal, counts) in found.items():
        print(f"{workload:<18}seed {seed}, {pairs} pair(s): result_digest "
              + (f"DIFFERS in {unequal}" if unequal else "identical")
              + "; count metrics "
              + (f"differ: {', '.join(sorted(counts))}" if counts else "identical"))
    return int(any(unequal for _pairs, unequal, _counts in found.values()))


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    return compare(load(args[0]), load(args[1]))


if __name__ == "__main__":
    sys.exit(main())
