"""Schema and smoke checks for the end-to-end benchmark.

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``
only); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke runs use the small worlds of ``--smoke`` (400 / 2000 ASes, 20
ops): they validate what a run reports, not how fast it is.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import cli, compare, schema  # noqa: E402
from benchmarks.e2e.tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w.name for w in schema.WORKLOADS]


def test_benchmark_json_matches_schema():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == schema.benchmark_json()


def test_schema_limits():
    spec = schema.benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("lower", "higher")
    for row in spec["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in spec["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    setup = next(row for row in spec["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60


def test_every_layer_names_what_it_should_move():
    end_to_end = {m.name for m in schema.END_TO_END}
    for layer in schema.LAYERS:
        assert layer.moves and set(layer.moves) <= end_to_end, layer.name
        assert layer.on and set(layer.on) <= set(WORKLOADS), layer.name


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    def current():
        found = {}
        for layer in schema.LAYERS:
            for module_name, owner, attrs in layer.wraps:
                module = importlib.import_module(module_name)
                holder = getattr(module, owner) if owner else module
                for attr in attrs:
                    found[(module_name, owner, attr)] = holder.__dict__[attr]
        return found

    before = current()
    tracer = Tracer()
    tracer.install(schema.LAYERS)
    try:
        during = current()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.restore()
    assert current() == before
    assert tracer.patched == []


class AllOpsFail:
    """A workload whose every op fails its oracle."""

    fixed_ops = 4
    block = 1

    def __init__(self, smoke):
        pass

    def build(self):
        pass

    def reseed(self, seed):
        pass

    def op(self, i, timer):
        from benchmarks.e2e.harness import OpResult

        timer.start(i)
        return OpResult(timer.stop(), False, ())

    def deep_check(self):
        return True

    def counters(self):
        return {}


def test_a_run_whose_ops_all_fail_still_reports(monkeypatch, capsys):
    monkeypatch.setattr(cli, "workload_factory", lambda name, smoke: lambda: AllOpsFail(smoke))
    status = cli.main(["--workload", "traffic_flood", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] == 4
    assert "op_ms_p50" not in last["metrics"] and "ops_per_s" in last["metrics"]


@pytest.fixture(scope="module")
def smoke_results():
    """Every workload, untraced and traced, twice with one seed."""
    results = []
    for _ in range(2):
        merged = {"seed": 3, "workloads": {}}
        for name in WORKLOADS:
            entry = {}
            for trace in (0, 1):
                args = cli.build_parser().parse_args(
                    ["--workload", name, "--seed", "3", "--trace", str(trace), "--smoke"]
                )
                record = cli.run_one(args)
                assert record["correct"], (name, trace, record["failed"])
                entry["per_layer" if trace else "end_to_end"] = record["metrics"]
                if not trace:
                    entry.update({k: record[k] for k in cli.CARRIED})
            merged["workloads"][name] = entry
        results.append(merged)
    return results


def test_smoke_runs_report_the_schema(smoke_results):
    spec = schema.benchmark_json()
    for name, entry in smoke_results[0]["workloads"].items():
        assert list(entry["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert list(entry["per_layer"]) == [m["name"] for m in spec["per_layer"]]
        assert entry["failed"] == 0 and entry["attempted"] >= cli.SMOKE_OPS
        assert all(m["value"] > 0 for m in entry["end_to_end"].values()), name


def test_layers_show_where_predicted(smoke_results):
    for layer in schema.LAYERS:
        for name in layer.on:
            calls = smoke_results[0]["workloads"][name]["per_layer"][f"{layer.name}.calls"]
            assert calls["value"] > 0, (layer.name, name)
    idle = smoke_results[0]["workloads"]["anycast_sweep"]["per_layer"]
    for layer in ("core.client", "core.server", "guard", "bgp.router", "bgp.codec"):
        assert idle[f"{layer}.calls"]["value"] == 0


def test_same_seed_gives_same_digest_and_counts(smoke_results, capsys):
    first, second = smoke_results
    assert compare.exactness([first], [second]) == 0, capsys.readouterr().out
    for name in WORKLOADS:
        assert compare.count_differences(
            first["workloads"][name], second["workloads"][name]
        ) == [], name
