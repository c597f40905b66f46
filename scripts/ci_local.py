"""Run the CI workflow's steps locally and print a verdict table.

    python3 scripts/ci_local.py

Reads ``.github/workflows/ci.yml`` (stdlib only, line by line: jobs,
their ``timeout-minutes``, and each step's ``name`` and ``run``) and runs
every ``run:`` from the repository root under ``bash -eo pipefail``, the
shell GitHub uses.  Two kinds of step are skipped: ``pip install`` lines
(the local interpreter already has what it has) and the ``mypy`` step
(mypy may not be importable).  A job's ``timeout-minutes`` bounds the sum
of its steps.  Unlike GitHub, a failed step does not skip the rest of its
job, so one run reports every step.  The ``tests`` matrix runs once, on
the local interpreter.

Each step's output goes to ``.ci_local/<job>.<n>.log``.  The exit status
is 1 when any step failed or timed out, else 0.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOGS = ROOT / ".ci_local"


def parse_workflow(text: str) -> list[dict]:
    """``[{"job", "timeout", "steps": [{"name", "run"}]}]`` in file order."""
    jobs: list[dict] = []
    in_jobs = False
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if indent == 0:
            in_jobs = line.startswith("jobs:")
            continue
        if not in_jobs:
            continue
        if indent == 2 and line.rstrip().endswith(":"):
            jobs.append({"job": line.strip()[:-1], "timeout": None, "steps": []})
            continue
        key, _, value = line.strip().removeprefix("- ").partition(":")
        value = value.strip()
        job = jobs[-1]
        if key == "timeout-minutes" and indent == 4:
            job["timeout"] = float(value) * 60
        elif line.lstrip().startswith("- ") and indent == 6:
            job["steps"].append({"name": None, "run": None})
            if key == "name":
                job["steps"][-1]["name"] = value
        elif job["steps"] and indent == 8 and key in ("name", "run"):
            if key == "run" and value in ("|", ">"):
                raise SystemExit(f"{job['job']}: multi-line run: is not supported")
            job["steps"][-1][key] = value
    return jobs


def skip_reason(step: dict) -> str | None:
    if re.search(r"\bpip install\b", step["run"]):
        return "pip install"
    if step["name"] == "mypy" or re.search(r"-m mypy\b", step["run"]):
        return "mypy"
    return None


def run_jobs(jobs: list[dict]) -> list[tuple]:
    LOGS.mkdir(exist_ok=True)
    rows = []
    for job in jobs:
        budget = job["timeout"]
        for index, step in enumerate(s for s in job["steps"] if s["run"]):
            name = step["name"] or step["run"]
            reason = skip_reason(step)
            if reason:
                rows.append((job["job"], name, f"skip ({reason})", 0.0))
                continue
            log = LOGS / f"{job['job']}.{index}.log"
            print(f"[{job['job']}] {name} ...", flush=True)
            start = time.perf_counter()
            with log.open("w") as out:
                try:
                    code = subprocess.run(
                        ["bash", "-eo", "pipefail", "-c", step["run"]],
                        cwd=ROOT,
                        stdout=out,
                        stderr=subprocess.STDOUT,
                        timeout=None if budget is None else max(budget, 0.0),
                    ).returncode
                except subprocess.TimeoutExpired:
                    code = "timeout"
            elapsed = time.perf_counter() - start
            if budget is not None:
                budget -= elapsed
            rows.append((job["job"], name, code, elapsed))
    return rows


def failed(status) -> bool:
    """An exit code other than 0, or a timeout; a skipped step never fails."""
    return status == "timeout" or (isinstance(status, int) and status != 0)


def print_table(rows: list[tuple]) -> None:
    print("| job | step | exit | seconds |")
    print("|---|---|---|---|")
    for job, name, code, elapsed in rows:
        print(f"| {job} | {name} | {code} | {elapsed:.1f} |")


def main() -> int:
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    rows = run_jobs(parse_workflow(workflow.read_text()))
    print_table(rows)
    bad = [row for row in rows if failed(row[2])]
    print(f"{len(bad)} of {len(rows)} steps failed; logs in {LOGS}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
