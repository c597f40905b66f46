"""Benchmark + determinism gate for the FlowSpec DDoS campaign.

Standalone script (no pytest dependency) so CI can run it in the
``security-scenarios`` job:

    PYTHONPATH=src python benchmarks/bench_flowspec.py \\
        --output BENCH_flowspec.json --check

Runs the DDoS-scrubbing campaign (surgical discard, scrubber redirect,
blunt discard) across the FlowSpec deployment-rate sweep plus the
rule-flood robustness scenario, and reports:

* the absorbed / leaked / collateral table per defense posture;
* the rule-flood outcome (install-limit ceiling, eviction/rejection
  counts, quarantined originators);
* wall-clock per campaign run;
* a ``dataplane`` section: packets/s through ``DataPlane.send`` with a
  distributor attached (21 rules on a quarter of a 1000-AS world, 1 in 4
  packets matching the discard) and ``decide()`` calls/s at one AS
  holding all 21 rules — the same world under ``--quick`` and not, so
  the two are comparable; ``--quick`` only takes fewer timing rounds.

``--check`` is a *determinism and robustness* gate first:

* the campaign is fully seeded, so the scenario tables must match the
  committed baseline (``BENCH_flowspec_baseline.json``) **exactly** —
  two seeded runs are byte-identical, and any drift means FlowSpec
  semantics changed (regenerate deliberately: rerun without ``--check``
  and commit the output);
* every absorbed-volume curve must be monotone non-decreasing in
  deployment rate (guaranteed by nested deployer sampling — a violation
  is a bug, not noise);
* the rule-flood scenario must never exceed the per-AS install limit
  and must end with the churning originator quarantined;

and a speed gate on the ``dataplane`` rates, with the headroom
convention of ``bench_propagation.py``: at least half the committed
baseline's rate (a sixth under ``--quick``, whose single round has no
best-of to absorb a noisy neighbour).  The baseline carries the
fingerprint of the machine that recorded it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from bench_propagation import _gate, machine_fingerprint
from repro.inet.dataplane import DataPlane
from repro.inet.engine import PropagationEngine
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet
from repro.secroute.ddos import DdosCampaignConfig, run_ddos_campaign
from repro.secroute.flowspec import (
    FlowSpecAction,
    FlowSpecDistributor,
    FlowSpecRule,
    resolver_from_outcomes,
)

BASELINE = Path(__file__).with_name("BENCH_flowspec_baseline.json")


def campaign_config(quick: bool) -> DdosCampaignConfig:
    if quick:
        return DdosCampaignConfig(
            seed=2014,
            rates=(0.0, 0.5, 1.0),
            trials=2,
            n_ases=100,
            n_tier1=5,
            n_sources=12,
            attack_packets=200,
        )
    return DdosCampaignConfig(seed=2014)


def dataplane_speed(quick: bool):
    """Packets/s through the enforcing data plane and ``decide()`` calls/s,
    best of a few rounds.  The rule set has the shape operators push under
    attack: one discard for the attack flow, and per protected prefix a
    handful of port filters that legitimate traffic is scanned against
    and passes."""
    rng = random.Random(2014)
    graph = build_internet(InternetConfig(n_ases=1000, seed=2014)).graph
    victim = rng.choice(sorted(a for a in graph.stub_asns() if graph.providers(a)))
    prefixes = [Prefix(f"184.164.{224 + k}.0/24") for k in range(4)]
    engine = PropagationEngine(graph)
    outcomes = {
        prefix: engine.propagate(Announcement.single(victim, prefix=prefix))
        for prefix in prefixes
    }
    plane = DataPlane(graph)
    for prefix, outcome in outcomes.items():
        plane.install(prefix, outcome, owner=victim)
    others = sorted(asn for asn in graph.asns() if asn != victim)
    deployers = rng.sample(others, len(others) // 4)
    distributor = FlowSpecDistributor(deployers, resolver_from_outcomes(outcomes))
    discard = FlowSpecAction.discard()
    rules = [FlowSpecRule(prefixes[0], victim, discard, protos=("udp",), dst_ports=((53, 53),))]
    rules += [
        FlowSpecRule(prefix, victim, discard, protos=("tcp",), dst_ports=((8000 + j,) * 2,))
        for prefix in prefixes
        for j in range(5)
    ]
    for rule in rules:
        distributor.announce(rule)
    plane.attach_flowspec(distributor)

    src = IPAddress("198.18.0.1")
    sources = [asn for asn in rng.sample(others, 64) if outcomes[prefixes[0]].reaches(asn)]
    attack = Packet(src=src, dst=prefixes[0].first_address() + 1, proto="udp", dst_port=53)
    legit = [
        Packet(src=src, dst=prefix.first_address() + 1, proto="tcp", src_port=40_000, dst_port=443)
        for prefix in prefixes
    ]
    burst = ([attack] + legit[1:]) * 16  # 64 packets, 1 in 4 the attack flow
    flows = [(asn, packet) for asn in sources for packet in burst]
    holder = next(asn for asn in deployers if len(distributor.rules_at(asn)) == len(rules))
    decide_packets = (legit + [attack]) * 2000

    send_s, decide_s, hops = [], [], 0
    for _ in range(1 if quick else 5):
        start = time.perf_counter()
        hops = sum(plane.send(asn, packet).hops for asn, packet in flows)
        send_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        for packet in decide_packets:
            distributor.decide(holder, packet)
        decide_s.append(time.perf_counter() - start)
    return {
        "n_ases": len(graph),
        "deployers": len(deployers),
        "rules_per_deployer": len(rules),
        "packets": len(flows),
        "mean_hops": round(hops / len(flows), 3),
        "rounds": len(send_s),
        "send_pkts_per_s": round(len(flows) / min(send_s)),
        "decide_calls_per_s": round(len(decide_packets) / min(decide_s)),
    }


def run_benchmarks(quick: bool):
    config = campaign_config(quick)

    start = time.perf_counter()
    result = run_ddos_campaign(config)
    first_s = time.perf_counter() - start

    start = time.perf_counter()
    rerun = run_ddos_campaign(config)
    second_s = time.perf_counter() - start

    print(result.table())
    payload = result.to_dict()
    return {
        "config": {
            "quick": quick,
            "seed": config.seed,
            "rates": list(config.rates),
            "trials": config.trials,
            "n_ases": config.n_ases,
            "n_tier1": config.n_tier1,
            "n_sources": config.n_sources,
            "attack_packets": config.attack_packets,
            "install_limit": config.install_limit,
            "churn_budget": config.churn_budget,
        },
        "campaign": payload,
        "reruns_identical": json.dumps(payload, sort_keys=True)
        == json.dumps(rerun.to_dict(), sort_keys=True),
        "monotone": {
            name: scenario.is_monotone_absorbed()
            for name, scenario in result.scenarios.items()
        },
        "rule_flood_ok": result.rule_flood is not None
        and result.rule_flood.limits_respected
        and bool(result.rule_flood.quarantined),
        "timing": {
            "first_run_s": round(first_s, 3),
            "second_run_s": round(second_s, 3),
        },
        "dataplane": dataplane_speed(quick),
        "machine": machine_fingerprint(),
    }


def check_regression(results, quick: bool = False) -> int:
    failures = []
    if not results["reruns_identical"]:
        failures.append("two seeded campaign runs differ (determinism broken)")
    for name, monotone in results["monotone"].items():
        if not monotone:
            failures.append(f"{name} absorbed-volume curve is not monotone")
    if not results["rule_flood_ok"]:
        failures.append(
            "rule-flood scenario violated install limits or failed to quarantine"
        )
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        if baseline["config"] != results["config"]:
            print("baseline config differs; skipping exact-table comparison")
        elif (
            baseline["campaign"]["scenarios"] != results["campaign"]["scenarios"]
            or baseline["campaign"]["rule_flood"] != results["campaign"]["rule_flood"]
        ):
            failures.append(
                "campaign tables drifted from the committed baseline "
                "(seeded campaign: this means FlowSpec semantics changed)"
            )
        div = 6 if quick else 2
        for key in ("send_pkts_per_s", "decide_calls_per_s"):
            _gate(
                f"dataplane {key} vs committed baseline",
                results["dataplane"][key],
                baseline["dataplane"][key] / div,
                failures,
            )
    else:
        print(f"no baseline at {BASELINE}; skipping baseline comparison")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "determinism gate: tables match baseline, absorbed curves monotone, "
        "install limits held, flooder quarantined"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small config for CI smoke runs"
    )
    parser.add_argument(
        "--output", default="BENCH_flowspec.json", help="result JSON path"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on table drift vs committed baseline, broken monotonicity, "
        "rule-flood limit violations, or a data-plane rate under its floor",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(args.quick)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    if args.check:
        return check_regression(results, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
