"""Which functions in ``src/`` does the system run, and which only tests?

    python3 scripts/reach_audit.py

Indexes every function and method under ``src/`` with ``ast``, then runs
two sets of commands under a ``sys.setprofile`` hook that records each
code object entered:

* the system: every ``examples/*.py``, ``benchmarks/e2e/run.py --all
  --smoke``, the paper benches in ``PAPER_BENCHES`` and the gated-bench
  commands that ``ci.yml`` runs, at its sizes (``GATED_BENCHES``).  The
  gated benches write their result JSON into the audit's temporary
  directory and run without ``--check``, so a gate that is red cannot
  stop the audit;
* tier-1: ``pytest`` over ``tests/``, with the hook re-installed before
  each test, because some tests install a profile hook of their own.

A ``sitecustomize`` module in a temporary directory, first on
``PYTHONPATH``, installs the hook in every Python process, so it also
sees the subprocesses ``run.py --all`` starts.  Each function is printed
as ``system`` (reached by the system), ``tier1`` (reached only by
tier-1) or ``none``, with its line count; the three totals come last,
once without the gated benches in the system and once with them.
A command that exits non-zero stops the audit.  Stdlib only.
"""

from __future__ import annotations

import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_VAR = "REACH_AUDIT_OUT"
PAPER_BENCHES = [
    "bench_table1_capabilities", "bench_fig2_memory", "bench_amsix_peering",
    "bench_amsix_reach", "bench_alexa_coverage", "bench_peer_exports",
    "bench_he_emulation", "bench_mux_modes", "bench_safety", "bench_steering",
]
# (script, arguments, result JSON name or None): ci.yml's gated-bench steps.
GATED_BENCHES = [
    ("bench_fault_recovery", [], "BENCH_fault_recovery.json"),
    ("bench_convergence", None, None),
    ("bench_propagation", ["--quick"], "BENCH_propagation.json"),
    ("bench_propagation", ["--scale"], "BENCH_propagation_scale.json"),
    ("bench_propagation", ["--scale", "--topology", "tests/data/caida-as-rel-150.txt"],
     "BENCH_propagation_fixture.json"),
    ("bench_telemetry_overhead", ["--quick"], "BENCH_telemetry.json"),
    ("bench_secroute", ["--quick"], "BENCH_secroute.json"),
    ("bench_flowspec", [], "BENCH_flowspec.json"),
    ("bench_anycast", [], "BENCH_anycast.json"),
]

_seen: set = set()
_dumping = False


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump() -> None:
    sys.setprofile(None)  # the hook would grow _seen while it is written
    src = str(SRC)
    with open(f"{os.environ[OUT_VAR]}.{os.getpid()}", "w") as out:
        for code in tuple(_seen):
            if code.co_filename.startswith(src):
                out.write(f"{code.co_filename}\t{code.co_firstlineno}\n")


def install() -> None:
    """Record in this process from now on and write the record at exit."""
    global _dumping
    if not _dumping:
        _dumping = True
        atexit.register(_dump)
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def pytest_runtest_setup(item) -> None:
    install()


def index() -> dict:
    """``{(file, first line): (qualified name, lines)}`` for each def in src/."""
    funcs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                funcs[(str(path), first)] = (prefix + child.name, child.end_lineno - child.lineno + 1)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return funcs


def reached(commands: list, tmp: Path, tag: str) -> set:
    """The (file, first line) of every src/ function the commands enter."""
    (tmp / "sitecustomize.py").write_text("import reach_audit\nreach_audit.install()\n")
    path = os.pathsep.join([str(tmp), str(ROOT / "scripts"), str(SRC)])
    env = dict(os.environ, PYTHONPATH=path, **{OUT_VAR: str(tmp / tag)})
    for command in commands:
        print("running:", " ".join(command[1:]), file=sys.stderr, flush=True)
        subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    lines = (line for dump in tmp.glob(f"{tag}.*") for line in dump.read_text().splitlines())
    return {(name, int(first)) for name, first in (line.split("\t") for line in lines)}


def gated_commands(py: str, tmp: Path) -> list:
    """ci.yml's gated-bench steps, writing into ``tmp``, without ``--check``."""
    commands = []
    for script, args, output in GATED_BENCHES:
        if args is None:  # a pytest module
            commands.append([py, "-m", "pytest", "-q", f"benchmarks/{script}.py"])
        else:
            commands.append([py, f"benchmarks/{script}.py", *args, "--output", str(tmp / output)])
    return commands


def main() -> int:
    py = sys.executable
    system = [[py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    system.append([py, "benchmarks/e2e/run.py", "--all", "--smoke"])
    system.append([py, "-m", "pytest", "-q", "--benchmark-disable"]
                  + [f"benchmarks/{b}.py" for b in PAPER_BENCHES])
    funcs = index()
    with tempfile.TemporaryDirectory() as tmp:
        by_system = reached(system, Path(tmp), "system")
        by_gates = reached(gated_commands(py, Path(tmp)), Path(tmp), "gates")
        by_tier1 = reached([[py, "-m", "pytest", "-q", "-p", "reach_audit"]], Path(tmp), "tier1")
    for key, (name, lines) in sorted(funcs.items()):
        kind = "system" if key in by_system | by_gates else "tier1" if key in by_tier1 else "none"
        print(f"{kind:6} {Path(key[0]).relative_to(SRC)}:{key[1]} {name} ({lines} lines)")
    print(f"\n{len(funcs)} functions in src/")
    for label, system_set in (("without", by_system), ("with", by_system | by_gates)):
        totals = {"system": [0, 0], "tier1": [0, 0], "none": [0, 0]}
        for key, (name, lines) in funcs.items():
            kind = "system" if key in system_set else "tier1" if key in by_tier1 else "none"
            totals[kind][0] += 1
            totals[kind][1] += lines
        print(f"{label} the gated benches:")
        for kind, (count, lines) in totals.items():
            print(f"  {kind:6} {count:5} functions {lines:6} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
