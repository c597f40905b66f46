"""Benchmark + determinism gate for the route-security subsystem.

Run it (the command line and gates live in ``gates.py``):

    PYTHONPATH=src python benchmarks/bench_secroute.py \\
        --output BENCH_secroute.json --check

Runs the three-scenario attack campaign (origin hijack, sub-prefix
hijack, route leak) on both propagation paths and reports:

* the coverage-vs-deployment table per scenario (compiled engine);
* wall-clock per campaign, compiled vs reference;
* the campaign-level leak-containment count.

``--check`` is a *determinism* gate, not a speed gate: the campaign is
fully seeded, so the coverage tables must match the committed baseline
(``BENCH_secroute_baseline.json``) **exactly**, every curve must be
monotone in deployment rate, and compiled and reference engines must
agree.  Any drift means route-security semantics changed and the
baseline needs a deliberate regeneration (rerun without ``--check`` and
commit the output).
"""

from __future__ import annotations

import sys
from pathlib import Path

from gates import clocked, main
from repro.secroute import CampaignConfig, run_campaign

BASELINE = Path(__file__).with_name("BENCH_secroute_baseline.json")


def campaign_config(quick: bool) -> CampaignConfig:
    if quick:
        return CampaignConfig(
            seed=1914, rates=(0.0, 0.5, 1.0), trials=2, n_ases=100, n_tier1=5
        )
    return CampaignConfig(
        seed=1914,
        rates=(0.0, 0.25, 0.5, 0.75, 1.0),
        trials=3,
        n_ases=150,
        n_tier1=5,
    )


def run_benchmarks(quick: bool):
    config = campaign_config(quick)

    compiled, compiled_s = clocked(run_campaign, config)
    reference, reference_s = clocked(run_campaign, config, use_reference=True)

    print(compiled.table())
    results = {
        "config": {
            "quick": quick,
            "seed": config.seed,
            "rates": list(config.rates),
            "trials": config.trials,
            "n_ases": config.n_ases,
            "n_tier1": config.n_tier1,
        },
        "campaign": compiled.to_dict(),
        "engines_agree": compiled.to_dict()["coverage"]
        == reference.to_dict()["coverage"],
        "monotone": {
            name: scenario.is_monotone()
            for name, scenario in compiled.scenarios.items()
        },
        "timing": {
            "compiled_s": round(compiled_s, 3),
            "reference_s": round(reference_s, 3),
            "speedup": round(reference_s / compiled_s, 3),
        },
    }
    return results


def check(results, args, gates):
    """Fail on coverage drift vs committed baseline or broken monotonicity."""
    gates.hold("engines agree", results["engines_agree"], "compiled vs reference coverage")
    for name, monotone in results["monotone"].items():
        gates.hold(f"{name} monotone", monotone, "coverage vs deployment rate")
    baseline = gates.baseline(BASELINE)
    if baseline is not None and gates.same_config(results, baseline):
        gates.hold(
            "coverage tables",
            baseline["campaign"]["coverage"] == results["campaign"]["coverage"],
            "equal to the committed baseline (a drift means semantics changed)",
        )


if __name__ == "__main__":
    output = "BENCH_secroute.json"
    sys.exit(main(__doc__, lambda args: run_benchmarks(args.quick), check, output))
