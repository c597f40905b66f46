"""Attack-campaign harness: hijacks and leaks vs. defense deployment.

This is the experiment machinery the route-security subsystem exists to
feed.  A campaign runs three seeded attack scenarios against a synthetic
Internet at a sweep of defense deployment rates and scores **protection
coverage** — the fraction of (eligible) ASes still routing to the
legitimate origin:

* **origin hijack** — the attacker announces the victim's exact prefix;
  ROV deployers drop the RPKI-Invalid attacker routes.
* **sub-prefix hijack** — the attacker announces a more-specific; the
  covering ROA's maxLength makes it Invalid, but longest-prefix match
  means only ASes with *no* route for the sub-prefix stay protected
  (:func:`repro.inet.routing.resolve_lpm` models the data plane).
* **route leak** — a multihomed stub re-originates its learned path for
  the victim's prefix (``OriginSpec.path_suffix``), which its providers
  prefer as a customer route.  The leaked path is RPKI-*Valid* — ROV is
  blind to it — so containment comes from Peerlock at the tier-1 clique
  and Peerlock-lite at transit ASes.

Deployment sampling is **nested**: each trial fixes one random
permutation of the deployer population, and rate ``r`` deploys the first
``ceil(r·n)`` of it.  Higher rates therefore strictly add deployers, and
since every defense is a pure route filter (it only ever removes
attacker/leak candidates), per-trial coverage curves are monotone —
averaging trials preserves that.  Everything derives from
``CampaignConfig.seed``, so a campaign is reproducible run-to-run and
identical between the compiled engine and the reference propagation
path (their route-for-route equivalence is property-tested).

:func:`secure_propagate` also lives here: the two-pass evaluation that
gives ``RovMode.DEPREFER_INVALID`` its semantics (drop Invalid only when
a non-Invalid alternative exists) by composing two plain filtered runs —
strict (deprefer folded into drop) overlaid on loose (drop only).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..inet.engine import PropagationEngine
from ..inet.gen import InternetConfig, build_internet
from ..inet.routing import (
    Announcement,
    ASRoute,
    OriginSpec,
    RoutingOutcome,
    propagate,
    resolve_lpm,
)
from ..inet.topology import ASGraph
from ..net.addr import IPAddress, Prefix, parse_prefix
from ..telemetry.metrics import MetricsRegistry
from .policy import CompiledSecurity, RovMode, SecurityPolicy
from .rpki import Roa, RoaRegistry

__all__ = [
    "secure_propagate",
    "AttackSurface",
    "CampaignConfig",
    "ScenarioResult",
    "CampaignResult",
    "run_campaign",
    "SCENARIOS",
]

SCENARIOS = ("origin-hijack", "subprefix-hijack", "route-leak")

# RFC 2544 benchmark space: guaranteed not to collide with anything the
# testbed-side allocator hands out.
VICTIM_PREFIX = parse_prefix("198.18.0.0/20")
HIJACK_SUBPREFIX = parse_prefix("198.18.0.0/24")


# -- deprefer-aware propagation ------------------------------------------------


class _MergedOutcome:
    """Overlay of the strict pass on the loose pass (see
    :func:`secure_propagate`).  Implements the read side of the
    :class:`~repro.inet.routing.RoutingOutcome` interface."""

    def __init__(self, strict: RoutingOutcome, loose: RoutingOutcome) -> None:
        self._strict = strict
        self._loose = loose

    def route(self, asn: int) -> Optional[ASRoute]:
        route = self._strict.route(asn)
        return route if route is not None else self._loose.route(asn)

    def reachable_asns(self) -> Set[int]:
        return self._strict.reachable_asns() | self._loose.reachable_asns()

    def as_path(self, asn: int) -> Optional[Tuple[int, ...]]:
        route = self.route(asn)
        return route.path if route is not None else None

    def items(self) -> Iterable[Tuple[int, ASRoute]]:
        for asn in sorted(self.reachable_asns()):
            route = self.route(asn)
            assert route is not None
            yield asn, route


def _run_filtered(
    graph: ASGraph,
    announcement: Announcement,
    compiled_sec: Optional[CompiledSecurity],
    engine: Optional[PropagationEngine],
) -> RoutingOutcome:
    if engine is not None:
        return engine.propagate(announcement, security=compiled_sec)
    return propagate(graph, announcement, compiled_sec)


def secure_propagate(
    graph: ASGraph,
    announcement: Announcement,
    policy: Optional[SecurityPolicy] = None,
    engine: Optional[PropagationEngine] = None,
) -> RoutingOutcome:
    """Converge ``announcement`` under ``policy``, with full
    ``RovMode.DEPREFER_INVALID`` semantics.

    Drop-invalid and Peerlock are plain route filters and run natively
    inside either propagation path.  Deprefer ("accept Invalid only as a
    last resort") is not expressible as a monotone filter, so it is
    evaluated as two filtered runs: pass A treats deprefer deployers as
    droppers; pass B lets them accept.  Where A found a route the
    deployer (or its downstream) had a non-Invalid option — keep it;
    only where A found nothing does B's Invalid-tolerant route apply.
    Both passes use the same native filtering, so the composition is
    identical between the compiled engine and the reference path.
    """
    if policy is None:
        return _run_filtered(graph, announcement, None, engine)
    strict = policy.compile_for(announcement, deprefer_as_drop=True)
    if not policy.has_deprefer():
        return _run_filtered(graph, announcement, strict, engine)
    loose = policy.compile_for(announcement, deprefer_as_drop=False)
    out_strict = _run_filtered(graph, announcement, strict, engine)
    out_loose = _run_filtered(graph, announcement, loose, engine)
    return _MergedOutcome(out_strict, out_loose)


# -- scriptable attack surface -------------------------------------------------


class AttackSurface:
    """Mutable per-prefix announcement state that attack steps drive.

    This is the object :class:`repro.faults.plan.FaultPlan`'s
    ``hijack_prefix`` / ``withdraw_prefix`` steps mutate
    (duck-typed there, so :mod:`repro.faults` never imports this
    package).  Outcomes are recomputed on demand under the surface's
    security policy; :meth:`resolve` applies longest-prefix match across
    every announced prefix."""

    def __init__(
        self,
        graph: ASGraph,
        policy: Optional[SecurityPolicy] = None,
        engine: Optional[PropagationEngine] = None,
    ) -> None:
        self.graph = graph
        self.policy = policy
        self.engine = engine
        self._specs: Dict[Prefix, List[OriginSpec]] = {}

    def announce(self, asn: int, prefix: Prefix, **spec_kwargs: Any) -> None:
        self._specs.setdefault(prefix, []).append(OriginSpec(asn=asn, **spec_kwargs))

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        specs = [s for s in self._specs.get(prefix, []) if s.asn != asn]
        if specs:
            self._specs[prefix] = specs
        else:
            self._specs.pop(prefix, None)

    def leak(self, leaker: int, prefix: Prefix) -> None:
        """Re-originate ``leaker``'s currently-selected route for
        ``prefix`` — the classic path-preserving route leak."""
        path = self.outcome(prefix).as_path(leaker)
        if path is None:
            raise ValueError(f"AS{leaker} holds no route for {prefix}; nothing to leak")
        self.announce(leaker, prefix, path_suffix=path)

    def announced_prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(self._specs)

    def announcement(self, prefix: Prefix) -> Announcement:
        specs = self._specs.get(prefix)
        if not specs:
            raise KeyError(str(prefix))
        return Announcement(origins=tuple(specs), prefix=prefix)

    def outcome(self, prefix: Prefix) -> RoutingOutcome:
        return secure_propagate(
            self.graph, self.announcement(prefix), self.policy, self.engine
        )

    def outcomes(self) -> Dict[Prefix, RoutingOutcome]:
        return {prefix: self.outcome(prefix) for prefix in self._specs}

    def resolve(
        self, asn: int, target: Union[IPAddress, Prefix]
    ) -> Optional[Tuple[Prefix, ASRoute]]:
        return resolve_lpm(self.outcomes(), asn, target)


# -- campaign configuration and results ----------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one attack campaign.  Everything is derived from
    ``seed``; two campaigns with equal configs produce equal results."""

    seed: int = 1914
    rates: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    trials: int = 3
    rov_mode: RovMode = RovMode.DROP_INVALID
    n_ases: int = 150
    n_tier1: int = 5

    def __post_init__(self) -> None:
        if not self.rates or any(not (0.0 <= r <= 1.0) for r in self.rates):
            raise ValueError("rates must be within [0, 1]")
        if list(self.rates) != sorted(self.rates):
            raise ValueError("rates must be ascending")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class ScenarioResult:
    """Coverage curve for one scenario: per-rate mean over trials, plus
    the per-trial curves for monotonicity/determinism checks."""

    scenario: str
    rates: Tuple[float, ...]
    coverage: Tuple[float, ...]
    trial_curves: Tuple[Tuple[float, ...], ...]

    def is_monotone(self, tolerance: float = 1e-12) -> bool:
        return all(
            b >= a - tolerance for a, b in zip(self.coverage, self.coverage[1:])
        )


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    engine: str  # "compiled" | "reference"
    victim: int
    attacker: int
    leaker: int
    scenarios: Dict[str, ScenarioResult] = field(default_factory=dict)
    leaks_contained: int = 0

    def table(self) -> str:
        """Coverage-vs-deployment as an aligned text table."""
        rates = self.config.rates
        header = "scenario          " + "".join(f"{r:>8.0%}" for r in rates)
        lines = [header, "-" * len(header)]
        for name in SCENARIOS:
            result = self.scenarios[name]
            lines.append(
                f"{name:<18}" + "".join(f"{c:>8.3f}" for c in result.coverage)
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.config.seed,
            "engine": self.engine,
            "rates": list(self.config.rates),
            "victim": self.victim,
            "attacker": self.attacker,
            "leaker": self.leaker,
            "coverage": {
                name: list(result.coverage)
                for name, result in self.scenarios.items()
            },
            "leaks_contained": self.leaks_contained,
        }


# -- campaign internals --------------------------------------------------------


def _pick_actors(graph: ASGraph, rng: random.Random) -> Tuple[int, int, int]:
    """Deterministically choose (victim, attacker, leaker): single-homed
    or multihomed stubs for victim/attacker, a multihomed stub for the
    leaker (so it has a provider to leak to and no legitimate transit
    role — any selected path containing it is the leak)."""
    stubs = sorted(asn for asn in graph.stub_asns() if graph.providers(asn))
    multihomed = [asn for asn in stubs if len(graph.providers(asn)) >= 2]
    if len(stubs) < 3 or not multihomed:
        raise ValueError("graph too small for a campaign: need 3 distinct stubs")
    victim = rng.choice(stubs)
    attacker = rng.choice([asn for asn in stubs if asn != victim])
    leaker_pool = [asn for asn in multihomed if asn not in (victim, attacker)]
    if not leaker_pool:
        leaker_pool = [asn for asn in stubs if asn not in (victim, attacker)]
    leaker = rng.choice(leaker_pool)
    return victim, attacker, leaker


def _deployers(population: Sequence[int], rate: float) -> Sequence[int]:
    return population[: math.ceil(rate * len(population))]


def _selects_origin(outcome: RoutingOutcome, asn: int, origin: int) -> bool:
    route = outcome.route(asn)
    return route is not None and bool(route.path) and route.path[-1] == origin


def _rov_policy(
    roas: RoaRegistry, deployers: Iterable[int], mode: RovMode
) -> SecurityPolicy:
    return SecurityPolicy(roas=roas).deploy_rov(deployers, mode)


def _leak_policy(
    tier1: Sequence[int], deployers: Iterable[int]
) -> SecurityPolicy:
    """Tier-1 deployers run full Peerlock over the clique; everyone else
    sampled deploys Peerlock-lite."""
    clique = frozenset(tier1)
    policy = SecurityPolicy(tier1=clique)
    for asn in deployers:
        if asn in clique:
            policy.lock(asn, clique)
        else:
            policy.peerlock_lite = policy.peerlock_lite | {asn}
    return policy


def run_campaign(
    config: CampaignConfig = CampaignConfig(),
    graph: Optional[ASGraph] = None,
    use_reference: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Run all three scenarios over the deployment-rate sweep.

    ``use_reference=True`` forces the pure-Python reference propagation;
    the default uses the compiled engine.  Both produce identical
    results for the same config (asserted in tests).  ``metrics``
    receives the ROV verdict counters and the campaign-level
    ``peering_secroute_leaks_contained_total`` count.
    """
    if graph is None:
        graph = build_internet(
            InternetConfig(
                n_ases=config.n_ases, n_tier1=config.n_tier1, seed=config.seed
            )
        ).graph
    engine = None if use_reference else PropagationEngine(graph)
    rng = random.Random(config.seed)
    victim, attacker, leaker = _pick_actors(graph, rng)

    roas = RoaRegistry((Roa(VICTIM_PREFIX, victim),))
    leaks_counter = None
    if metrics is not None:
        roas.bind_metrics(metrics)
        leaks_counter = metrics.counter(
            "peering_secroute_leaks_contained_total",
            "Leaked routes removed from AS selections by Peerlock containment",
        ).labels()

    tier1 = sorted(graph.tier1_clique())
    actors = {victim, attacker, leaker}
    rov_population = sorted(set(graph.asns()) - actors)
    leak_population = tier1 + sorted(
        asn for asn in graph.asns()
        if graph.customers(asn) and asn not in tier1 and asn not in actors
    )

    # Attack-free baseline: who can route to the victim at all.  ASes the
    # legitimate announcement never reaches cannot be "protected", so
    # they are excluded from scoring.
    legit = Announcement.single(victim, prefix=VICTIM_PREFIX)
    baseline = _run_filtered(graph, legit, None, engine)
    eligible = sorted(baseline.reachable_asns() - actors)
    leak_path = baseline.as_path(leaker)
    if leak_path is None:
        raise ValueError(f"leaker AS{leaker} unreachable in the baseline")

    hijack = Announcement(
        origins=(OriginSpec(asn=victim), OriginSpec(asn=attacker)),
        prefix=VICTIM_PREFIX,
    )
    sub_hijack = Announcement.single(attacker, prefix=HIJACK_SUBPREFIX)
    leak = Announcement(
        origins=(OriginSpec(asn=victim), OriginSpec(asn=leaker, path_suffix=leak_path)),
        prefix=VICTIM_PREFIX,
    )

    def origin_hijack_coverage(policy: SecurityPolicy) -> float:
        outcome = secure_propagate(graph, hijack, policy, engine)
        good = sum(1 for asn in eligible if _selects_origin(outcome, asn, victim))
        return good / len(eligible)

    def subprefix_coverage(policy: SecurityPolicy) -> float:
        covering = secure_propagate(graph, legit, policy, engine)
        specific = secure_propagate(graph, sub_hijack, policy, engine)
        outcomes = {VICTIM_PREFIX: covering, HIJACK_SUBPREFIX: specific}
        good = 0
        for asn in eligible:
            hit = resolve_lpm(outcomes, asn, HIJACK_SUBPREFIX)
            if hit is not None and hit[1].path and hit[1].path[-1] == victim:
                good += 1
        return good / len(eligible)

    def leak_state(
        policy: Optional[SecurityPolicy],
    ) -> Tuple[RoutingOutcome, Set[int]]:
        outcome = secure_propagate(graph, leak, policy, engine)
        polluted = set()
        for asn in eligible:
            path = outcome.as_path(asn)
            if path is not None and leaker in path:
                polluted.add(asn)
        return outcome, polluted

    _, unprotected_pollution = leak_state(None)

    def leak_coverage(policy: SecurityPolicy) -> Tuple[float, int]:
        outcome, polluted = leak_state(policy)
        good = sum(
            1 for asn in eligible
            if asn not in polluted and outcome.reaches(asn)
        )
        contained = len(unprotected_pollution - polluted)
        return good / len(eligible), contained

    curves: Dict[str, List[Tuple[float, ...]]] = {name: [] for name in SCENARIOS}
    leaks_contained = 0
    for trial in range(config.trials):
        # random.Random wants an int/str seed; derive one per trial.
        trial_rng = random.Random(config.seed * 1_000_003 + trial)
        rov_perm = list(rov_population)
        trial_rng.shuffle(rov_perm)
        leak_perm = list(leak_population)
        trial_rng.shuffle(leak_perm)

        origin_curve: List[float] = []
        sub_curve: List[float] = []
        leak_curve: List[float] = []
        for rate in config.rates:
            rov_policy = _rov_policy(
                roas, _deployers(rov_perm, rate), config.rov_mode
            )
            origin_curve.append(origin_hijack_coverage(rov_policy))
            sub_curve.append(subprefix_coverage(rov_policy))
            coverage, contained = leak_coverage(
                _leak_policy(tier1, _deployers(leak_perm, rate))
            )
            leak_curve.append(coverage)
            leaks_contained += contained
        curves["origin-hijack"].append(tuple(origin_curve))
        curves["subprefix-hijack"].append(tuple(sub_curve))
        curves["route-leak"].append(tuple(leak_curve))

    if leaks_counter is not None and leaks_contained:
        leaks_counter.inc(leaks_contained)

    scenarios = {
        name: ScenarioResult(
            scenario=name,
            rates=config.rates,
            coverage=tuple(
                sum(curve[i] for curve in trial_curves) / len(trial_curves)
                for i in range(len(config.rates))
            ),
            trial_curves=tuple(trial_curves),
        )
        for name, trial_curves in curves.items()
    }
    return CampaignResult(
        config=config,
        engine="reference" if use_reference else "compiled",
        victim=victim,
        attacker=attacker,
        leaker=leaker,
        scenarios=scenarios,
        leaks_contained=leaks_contained,
    )
