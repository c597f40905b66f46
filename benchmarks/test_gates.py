"""The gate runner's rules, checked on each gated script's real ``check``.

    PYTHONPATH=src python -m pytest benchmarks/test_gates.py -q

The committed baselines double as results: a run equal to its baseline
passes every gate, so each failure below is the rule under test and
nothing else.
"""

import copy
import json
from types import SimpleNamespace

import pytest

import bench_anycast
import bench_fault_recovery
import bench_flowspec
import bench_propagation
import bench_secroute
import bench_telemetry_overhead
from gates import Gates, main

FULL = SimpleNamespace(quick=False, scale=False)
SCALE = SimpleNamespace(quick=False, scale=True)

# (script, its baseline attribute, the args it is checked under)
READS_BASELINE = [
    (bench_propagation, "BASELINE", FULL),
    (bench_propagation, "SCALE_BASELINE", SCALE),
    (bench_anycast, "BASELINE", FULL),
    (bench_fault_recovery, "BASELINE", FULL),
    (bench_flowspec, "BASELINE", FULL),
    (bench_secroute, "BASELINE", FULL),
]
EXACT = [bench_fault_recovery, bench_flowspec, bench_secroute]


def committed(module, attr="BASELINE"):
    return json.loads(getattr(module, attr).read_text())


def run_check(module, results, args=FULL):
    gates = Gates()
    module.check(results, args, gates)
    return gates


def test_floor_is_inclusive():
    gates = Gates()
    assert gates.floor("at the floor", 2.0, 2.0)
    assert not gates.floor("under the floor", 1.99, 2.0)
    assert gates.failures == ["under the floor"]


def test_false_hold_fails_the_status():
    gates = Gates()
    gates.hold("kept", True, "fine")
    assert gates.status() == 0
    gates.hold("broken", False, "not fine")
    assert gates.status() == 1


def test_exit_status_is_zero_without_check(tmp_path):
    def check(results, args, gates):
        """Always fails."""
        gates.hold("always", False, "fails")

    def run(argv):
        out = str(tmp_path / "out.json")
        return main("doc", lambda args: {"config": {}}, check, out, argv=argv)

    assert run([]) == 0
    assert json.loads((tmp_path / "out.json").read_text()) == {"config": {}}
    assert run(["--check"]) == 1


@pytest.mark.parametrize(
    "module, attr, args",
    READS_BASELINE,
    ids=[f"{m.__name__}.{attr}" for m, attr, _ in READS_BASELINE],
)
def test_missing_baseline_fails(module, attr, args, tmp_path, monkeypatch):
    results = committed(module, attr)
    assert run_check(module, results, args).status() == 0
    monkeypatch.setattr(module, attr, tmp_path / "missing.json")
    gates = run_check(module, results, args)
    assert gates.status() == 1
    assert "baseline missing.json" in gates.failures


def test_context_only_baseline_may_be_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_telemetry_overhead, "BASELINE", tmp_path / "missing.json")
    gates = run_check(bench_telemetry_overhead, {"overhead_pct": 1.0})
    assert gates.status() == 0


@pytest.mark.parametrize("module", EXACT, ids=[m.__name__ for m in EXACT])
def test_config_mismatch_fails_exact_gates(module):
    results = copy.deepcopy(committed(module))
    results["config"]["quick"] = not results["config"]["quick"]
    gates = run_check(module, results)
    assert gates.status() == 1
    assert gates.failures == ["baseline config"]
