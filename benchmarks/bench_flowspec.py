"""Benchmark + determinism gate for the FlowSpec DDoS campaign.

Run it (the command line and gates live in ``gates.py``):

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

import json
import random
import sys
import time
from pathlib import Path

from gates import clocked, fingerprint, main
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

    result, first_s = clocked(run_ddos_campaign, config)
    rerun, second_s = clocked(run_ddos_campaign, config)

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
        "machine": fingerprint(),
    }


def check(results, args, gates):
    """Fail on table drift vs committed baseline, broken monotonicity,
    rule-flood limit violations, or a data-plane rate under its floor."""
    gates.hold("seeded reruns", results["reruns_identical"], "byte-identical")
    for name, monotone in results["monotone"].items():
        gates.hold(f"{name} monotone", monotone, "absorbed volume vs deployment rate")
    gates.hold(
        "rule flood", results["rule_flood_ok"], "install limits held, flooder quarantined"
    )
    baseline = gates.baseline(BASELINE)
    if baseline is None:
        return
    if gates.same_config(results, baseline):
        gates.hold(
            "campaign tables",
            all(
                baseline["campaign"][key] == results["campaign"][key]
                for key in ("scenarios", "rule_flood")
            ),
            "equal to the committed baseline (a drift means FlowSpec semantics changed)",
        )
    div = 6 if args.quick else 2
    for key in ("send_pkts_per_s", "decide_calls_per_s"):
        gates.floor(
            f"dataplane {key} vs committed baseline",
            results["dataplane"][key],
            baseline["dataplane"][key] / div,
        )


if __name__ == "__main__":
    output = "BENCH_flowspec.json"
    sys.exit(main(__doc__, lambda args: run_benchmarks(args.quick), check, output))
