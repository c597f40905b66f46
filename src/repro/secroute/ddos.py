"""DDoS-scrubbing campaigns: FlowSpec defense vs. attack volume.

The FlowSpec subsystem (:mod:`~repro.secroute.flowspec`) exists so this
experiment can be run: *how much FlowSpec deployment does a victim need
before an attack is absorbed instead of delivered — and what does the
defense cost bystander traffic?*  A campaign floods a victim prefix with
Zipf-weighted attack traffic (:func:`repro.workloads.zipf_attack_sources`
— a few heavy sources, a long tail, exactly the shape scrubbing centers
see) plus a bystander population of legitimate clients, then sweeps the
FlowSpec deployment rate and scores three defense postures:

* **surgical-discard** — the victim announces a rule matching the attack
  5-tuple (protocol + destination port) with ``traffic-rate 0``; attack
  packets die at the first deploying AS on their path, legitimate
  traffic is untouched.
* **scrubber-redirect** — same match, ``redirect`` to a scrubbing AS:
  attack volume is diverted instead of dropped (the Tangled/anycast
  story — the testbed absorbs the attack somewhere it can be studied).
* **blunt-discard** — a destination-prefix-only discard, the panic
  button: absorbs the most attack volume and the most legitimate
  traffic with it.  The collateral column is the point.

Deployment sampling is **nested** (one permutation per trial, rate ``r``
deploys its first ``ceil(r·n)``), FlowSpec does not alter unicast
routing, and discard/redirect enforcement is volume-independent, so a
packet absorbed at rate ``r`` is absorbed at every higher rate —
per-trial absorbed-volume curves are monotone **by construction**, and
averaging trials preserves that (the ``--check`` gate in
``benchmarks/bench_flowspec.py`` asserts it anyway).

The campaign ends with a **rule-flood** robustness scenario: the victim
floods more (valid) rules than the per-AS install limit admits — the
§5.1 most-specific-first eviction must hold the limit exactly — and a
rogue AS first spews rules for the victim's prefix (all must die in §6
validation), then churns announce/withdraw until the flood breaker
quarantines it.  Everything derives from ``DdosCampaignConfig.seed``;
two runs with equal configs are byte-identical.

Attack waves are driven through :class:`repro.faults.plan.FaultPlan`
(``inject_flowspec`` + ``flood_traffic`` on the shared event engine), so
DDoS scenarios compose with link/mux faults and hijacks on one
deterministic timeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..inet.dataplane import DataPlane, Delivery, DeliveryStatus
from ..inet.engine import PropagationEngine
from ..inet.gen import InternetConfig, build_internet
from ..inet.routing import Announcement, RoutingOutcome
from ..inet.topology import ASGraph
from ..net.addr import IPAddress, Prefix, parse_prefix
from ..net.packet import Packet
from ..sim.engine import Engine
from ..telemetry.metrics import MetricsRegistry
from ..workloads.traffic import attack_flows, client_population, zipf_attack_sources
from .campaign import _deployers
from .flowspec import (
    FlowSpecAction,
    FlowSpecDistributor,
    FlowSpecRule,
    Resolver,
    resolver_from_outcomes,
)

__all__ = [
    "DDOS_PREFIX",
    "DDOS_SCENARIOS",
    "DdosCampaignConfig",
    "DdosScenarioResult",
    "RuleFloodResult",
    "DdosCampaignResult",
    "run_ddos_campaign",
]

# RFC 2544 benchmark space, distinct from the hijack campaign's block.
DDOS_PREFIX = parse_prefix("198.18.128.0/20")

DDOS_SCENARIOS = ("surgical-discard", "scrubber-redirect", "blunt-discard")

_ABSORBED = (DeliveryStatus.FLOWSPEC_DROPPED, DeliveryStatus.SCRUBBED)


@dataclass(frozen=True)
class DdosCampaignConfig:
    """Knobs for one DDoS campaign; everything derives from ``seed``."""

    seed: int = 2014
    rates: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    trials: int = 2
    n_ases: int = 150
    n_tier1: int = 5
    n_sources: int = 20
    attack_packets: int = 400
    legit_clients: int = 12
    legit_packets_each: int = 5
    attack_proto: str = "udp"
    attack_port: int = 123  # NTP-reflection flavor
    legit_proto: str = "tcp"
    legit_port: int = 443
    zipf_exponent: float = 1.1
    install_limit: int = 16
    churn_budget: int = 40

    def __post_init__(self) -> None:
        if not self.rates or any(not (0.0 <= r <= 1.0) for r in self.rates):
            raise ValueError("rates must be within [0, 1]")
        if list(self.rates) != sorted(self.rates):
            raise ValueError("rates must be ascending")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.install_limit < 1 or self.churn_budget < 1:
            raise ValueError("install_limit and churn_budget must be >= 1")


@dataclass(frozen=True)
class DdosScenarioResult:
    """Per-rate mean (over trials) volume fractions for one posture."""

    scenario: str
    rates: Tuple[float, ...]
    absorbed: Tuple[float, ...]  # attack volume dropped or scrubbed
    leaked: Tuple[float, ...]  # attack volume delivered to the victim
    collateral: Tuple[float, ...]  # legitimate volume lost to the defense
    trial_absorbed: Tuple[Tuple[float, ...], ...]

    def is_monotone_absorbed(self, tolerance: float = 1e-12) -> bool:
        return all(
            b >= a - tolerance
            for curve in self.trial_absorbed + (self.absorbed,)
            for a, b in zip(curve, curve[1:])
        )


@dataclass(frozen=True)
class RuleFloodResult:
    """Outcome of the rule-flood robustness scenario."""

    rules_offered: int
    install_limit: int
    max_installed_at_one_as: int
    evicted: int
    rejected_validation: int
    rejected_quarantine: int
    quarantined: Tuple[int, ...]
    limits_respected: bool


@dataclass(frozen=True)
class DdosCampaignResult:
    config: DdosCampaignConfig
    victim: int
    scrubber: int
    rogue: int
    attack_volume: int
    legit_volume: int
    scenarios: Dict[str, DdosScenarioResult] = field(default_factory=dict)
    rule_flood: Optional[RuleFloodResult] = None

    def table(self) -> str:
        """Absorbed / leaked / collateral fractions vs deployment rate."""
        rates = self.config.rates
        header = "scenario            metric     " + "".join(
            f"{r:>8.0%}" for r in rates
        )
        lines = [header, "-" * len(header)]
        for name in DDOS_SCENARIOS:
            result = self.scenarios[name]
            for metric, curve in (
                ("absorbed", result.absorbed),
                ("leaked", result.leaked),
                ("collateral", result.collateral),
            ):
                label = name if metric == "absorbed" else ""
                lines.append(
                    f"{label:<20}{metric:<11}"
                    + "".join(f"{v:>8.3f}" for v in curve)
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        flood = self.rule_flood
        return {
            "seed": self.config.seed,
            "rates": list(self.config.rates),
            "victim": self.victim,
            "scrubber": self.scrubber,
            "rogue": self.rogue,
            "attack_volume": self.attack_volume,
            "legit_volume": self.legit_volume,
            "scenarios": {
                name: {
                    "absorbed": list(result.absorbed),
                    "leaked": list(result.leaked),
                    "collateral": list(result.collateral),
                }
                for name, result in self.scenarios.items()
            },
            "rule_flood": None
            if flood is None
            else {
                "rules_offered": flood.rules_offered,
                "install_limit": flood.install_limit,
                "max_installed_at_one_as": flood.max_installed_at_one_as,
                "evicted": flood.evicted,
                "rejected_validation": flood.rejected_validation,
                "rejected_quarantine": flood.rejected_quarantine,
                "quarantined": list(flood.quarantined),
                "limits_respected": flood.limits_respected,
            },
        }


# -- campaign internals --------------------------------------------------------


def _attack_rules(
    config: DdosCampaignConfig, victim: int, scrubber: int
) -> Dict[str, FlowSpecRule]:
    protos = (config.attack_proto,)
    ports: Tuple[Tuple[int, int], ...] = ((config.attack_port, config.attack_port),)
    return {
        "surgical-discard": FlowSpecRule(
            dst_prefix=DDOS_PREFIX,
            originator=victim,
            action=FlowSpecAction.discard(),
            protos=protos,
            dst_ports=ports,
        ),
        "scrubber-redirect": FlowSpecRule(
            dst_prefix=DDOS_PREFIX,
            originator=victim,
            action=FlowSpecAction.redirect(scrubber),
            protos=protos,
            dst_ports=ports,
        ),
        "blunt-discard": FlowSpecRule(
            dst_prefix=DDOS_PREFIX,
            originator=victim,
            action=FlowSpecAction.discard(),
        ),
    }


def _run_wave(
    plane: DataPlane,
    distributor: FlowSpecDistributor,
    rule: FlowSpecRule,
    attack: List[Tuple[int, Packet]],
    legit: List[Tuple[int, Packet]],
) -> Tuple[List[Delivery], List[Delivery]]:
    """One scenario cell on the fault-plan timeline: rule at t=0, attack
    wave at t=1, bystander wave at t=2."""
    engine = Engine(seed=0)
    plan = FaultPlan(engine, name="ddos")
    attack_deliveries: List[Delivery] = []
    legit_deliveries: List[Delivery] = []
    plane.attach_flowspec(distributor)
    plan.inject_flowspec(distributor, rule, at=0.0)
    plan.flood_traffic(plane, attack, at=1.0, collect=attack_deliveries)
    plan.flood_traffic(plane, legit, at=2.0, collect=legit_deliveries)
    engine.run()
    return attack_deliveries, legit_deliveries


def _rule_flood(
    config: DdosCampaignConfig,
    population: Sequence[int],
    resolver: Resolver,
    victim: int,
    rogue: int,
    metrics: Optional[MetricsRegistry],
) -> Tuple[RuleFloodResult, FlowSpecDistributor]:
    """Full-deployment distributor under a rule flood: valid-rule
    pressure on the install limit, rogue-rule validation kills, and a
    churn storm that must end in quarantine."""
    distributor = FlowSpecDistributor(
        deployers=population,
        resolver=resolver,
        install_limit=config.install_limit,
        churn_budget=config.churn_budget,
    )
    if metrics is not None:
        distributor.bind_metrics(metrics)
    offered = 0

    # The victim floods valid rules past the limit: first per-port /20
    # rules, then more-specific /24 sub-prefix rules that must displace
    # them (most-specific-first retention).
    for i in range(config.install_limit + 8):
        distributor.announce(
            FlowSpecRule(
                dst_prefix=DDOS_PREFIX,
                originator=victim,
                action=FlowSpecAction.discard(),
                dst_ports=((1000 + i, 1000 + i),),
            )
        )
        offered += 1
    for sub in list(DDOS_PREFIX.subnets(24))[:8]:
        distributor.announce(
            FlowSpecRule(
                dst_prefix=sub,
                originator=victim,
                action=FlowSpecAction.discard(),
            )
        )
        offered += 1

    # A rogue AS pushes rules for space it does not originate: §6
    # validation must reject every installation.
    for i in range(4):
        distributor.announce(
            FlowSpecRule(
                dst_prefix=DDOS_PREFIX,
                originator=rogue,
                action=FlowSpecAction.discard(),
                dst_ports=((2000 + i, 2000 + i),),
            )
        )
        offered += 1

    # ...then churns announce/withdraw until the flood breaker trips.
    for i in range(config.churn_budget + 10):
        if i % 2 == 0:
            distributor.announce(
                FlowSpecRule(
                    dst_prefix=DDOS_PREFIX,
                    originator=rogue,
                    action=FlowSpecAction.discard(),
                    dst_ports=((3000, 3000),),
                )
            )
        else:
            distributor.withdraw(rogue, DDOS_PREFIX)
        offered += 1

    stats = distributor.stats()
    max_at_one = stats["max_installed_at_one_as"]
    assert isinstance(max_at_one, int)
    return (
        RuleFloodResult(
            rules_offered=offered,
            install_limit=config.install_limit,
            max_installed_at_one_as=max_at_one,
            evicted=distributor.counts["evicted"],
            rejected_validation=distributor.counts["rejected_validation"],
            rejected_quarantine=distributor.counts["rejected_quarantine"],
            quarantined=distributor.quarantined_originators(),
            limits_respected=max_at_one <= config.install_limit,
        ),
        distributor,
    )


def run_ddos_campaign(
    config: DdosCampaignConfig = DdosCampaignConfig(),
    graph: Optional[ASGraph] = None,
    metrics: Optional[MetricsRegistry] = None,
    return_distributor: bool = False,
) -> DdosCampaignResult:
    """Run the three defense postures over the deployment-rate sweep,
    then the rule-flood robustness scenario.

    ``metrics`` receives the FlowSpec lifecycle counters.  Everything is
    seeded: two calls with equal configs produce identical results.
    ``return_distributor`` keeps the rule-flood distributor on the result
    (``result.distributor``) for looking-glass rendering.
    """
    if graph is None:
        graph = build_internet(
            InternetConfig(
                n_ases=config.n_ases, n_tier1=config.n_tier1, seed=config.seed
            )
        ).graph
    engine = PropagationEngine(graph)
    rng = random.Random(config.seed)

    stubs = sorted(asn for asn in graph.stub_asns() if graph.providers(asn))
    if len(stubs) < 2:
        raise ValueError("graph too small for a DDoS campaign")
    victim = rng.choice(stubs)
    scrubber = sorted(graph.tier1_clique())[0]

    announcement = Announcement.single(victim, prefix=DDOS_PREFIX)
    outcome: RoutingOutcome = engine.propagate(announcement)
    reachable = outcome.reachable_asns()
    plane = DataPlane(graph)
    plane.install(DDOS_PREFIX, outcome, owner=victim)
    resolver = resolver_from_outcomes({DDOS_PREFIX: outcome})

    unreachable = set(graph.asns()) - reachable
    sources = zipf_attack_sources(
        graph,
        config.n_sources,
        config.attack_packets,
        seed=config.seed,
        exponent=config.zipf_exponent,
        exclude=sorted(unreachable | {victim}),
    )
    source_asns = {asn for asn, _ in sources}
    rogue = next(asn for asn in sorted(source_asns) if asn != scrubber)
    attack_volume = sum(n for _, n in sources)

    legit_asns = [
        asn
        for asn in client_population(graph, config.legit_clients, seed=config.seed + 1)
        if asn in reachable and asn != victim and asn not in source_asns
    ]
    target = IPAddress(DDOS_PREFIX.address.value + 1, 4)
    legit_flows = [
        (asn, packet)
        for asn in legit_asns
        for _, packet in attack_flows(
            [(asn, config.legit_packets_each)],
            target,
            proto=config.legit_proto,
            dst_port=config.legit_port,
        )
    ]
    legit_volume = len(legit_flows)
    if legit_volume == 0:
        raise ValueError("no legitimate clients reach the victim")

    attack_wave = list(
        attack_flows(
            sources, target, proto=config.attack_proto, dst_port=config.attack_port
        )
    )

    rules = _attack_rules(config, victim, scrubber)
    population = sorted(reachable - source_asns - {victim}) + [victim]

    curves: Dict[str, Dict[str, List[Tuple[float, ...]]]] = {
        name: {"absorbed": [], "leaked": [], "collateral": []}
        for name in DDOS_SCENARIOS
    }
    for trial in range(config.trials):
        trial_rng = random.Random(config.seed * 1_000_003 + trial)
        perm = list(population)
        trial_rng.shuffle(perm)
        for name in DDOS_SCENARIOS:
            absorbed_curve: List[float] = []
            leaked_curve: List[float] = []
            collateral_curve: List[float] = []
            for rate in config.rates:
                distributor = FlowSpecDistributor(
                    deployers=_deployers(perm, rate),
                    resolver=resolver,
                    install_limit=config.install_limit,
                    churn_budget=config.churn_budget,
                )
                if metrics is not None:
                    distributor.bind_metrics(metrics)
                attack_out, legit_out = _run_wave(
                    plane, distributor, rules[name], attack_wave, legit_flows
                )
                absorbed = sum(1 for d in attack_out if d.status in _ABSORBED)
                leaked = sum(
                    1 for d in attack_out if d.status is DeliveryStatus.DELIVERED
                )
                lost = sum(
                    1 for d in legit_out if d.status is not DeliveryStatus.DELIVERED
                )
                absorbed_curve.append(absorbed / attack_volume)
                leaked_curve.append(leaked / attack_volume)
                collateral_curve.append(lost / legit_volume)
            curves[name]["absorbed"].append(tuple(absorbed_curve))
            curves[name]["leaked"].append(tuple(leaked_curve))
            curves[name]["collateral"].append(tuple(collateral_curve))

    def mean_curve(trial_curves: List[Tuple[float, ...]]) -> Tuple[float, ...]:
        return tuple(
            sum(curve[i] for curve in trial_curves) / len(trial_curves)
            for i in range(len(config.rates))
        )

    scenarios = {
        name: DdosScenarioResult(
            scenario=name,
            rates=config.rates,
            absorbed=mean_curve(curves[name]["absorbed"]),
            leaked=mean_curve(curves[name]["leaked"]),
            collateral=mean_curve(curves[name]["collateral"]),
            trial_absorbed=tuple(curves[name]["absorbed"]),
        )
        for name in DDOS_SCENARIOS
    }

    flood_result, flood_distributor = _rule_flood(
        config, population, resolver, victim, rogue, metrics
    )

    result = DdosCampaignResult(
        config=config,
        victim=victim,
        scrubber=scrubber,
        rogue=rogue,
        attack_volume=attack_volume,
        legit_volume=legit_volume,
        scenarios=scenarios,
        rule_flood=flood_result,
    )
    if return_distributor:
        # Not part of the frozen result payload; stashed for the looking
        # glass / examples to render install state after the flood.
        object.__setattr__(result, "distributor", flood_distributor)
    return result
