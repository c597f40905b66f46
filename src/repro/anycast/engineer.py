"""The closed-loop anycast traffic engineer.

Given per-site load targets, :class:`TrafficEngineer` greedily walks the
steering space — prepend depth, poisoned uplinks, steering-community
uplink drops — until the measured catchment matches the targets (or no
move improves the score).  The loop is built so one rebalance iteration
is cheap *by construction*:

* **Prepend screening rides the shift regime.**  Candidate prepend
  depths for a site are evaluated through single-site *solo footprint*
  ladders (:meth:`AnycastService.solo_announcement` at depths
  ``cur..max``): single-spec announcements differing only in prepend are
  exactly what the engine's shift delta handles, so a whole ladder costs
  one converge plus near-free shifts.  Per-client arbitration across the
  solo footprints (best route kind, then path length, then site order)
  estimates the full-deployment shares at each depth and picks the most
  promising depth — a screen, not ground truth.
* **Shortlisted moves are evaluated exactly, in one batch.**  The
  surviving candidates (one steering override each) become multi-origin
  announcements evaluated in a single affinity-grouped
  ``propagate_many`` sweep; prepend-only overrides chain off each other
  inside one affinity group, so the exact pass converges a handful of
  deltas, not a sweep of fulls.
* **Scoring = imbalance + churn.**  Imbalance is the total-variation
  distance between measured and target volume shares; churn is the
  volume fraction that would flip sites, weighted by
  ``churn_weight`` — an engineer that thrashes clients between sites to
  shave a point of imbalance is worse than one that converges calmly.

Determinism: candidate generation is fully ordered and the only
randomness is a seeded shuffle used for tie-breaking equal scores, so a
rebalance run is byte-identical across reruns (the property the bench
gates).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import and_, lt
from typing import Dict, List, Mapping, Optional, Tuple

from ..inet.routing import RouteKind, RoutingOutcome
from ..workloads.traffic import ClientPopulation
from .catchment import CatchmentMap, compile_population, require_compiled
from .service import AnycastService, SiteSteering

__all__ = [
    "EngineerConfig",
    "SteeringMove",
    "IterationRecord",
    "RebalanceReport",
    "TrafficEngineer",
]


@dataclass(frozen=True)
class EngineerConfig:
    """Knobs for one rebalance run.

    ``tolerance`` is the per-run stopping imbalance (total variation);
    ``epsilon`` the minimum score improvement a move must buy;
    ``parallel`` is ignored (benchmarks/e2e/anycast.py still sets it)."""

    max_iterations: int = 8
    max_prepend: int = 5
    tolerance: float = 0.02
    epsilon: float = 1e-4
    churn_weight: float = 0.25
    seed: int = 0
    parallel: Optional[int] = None
    screen_sites: int = 2
    poison_moves: bool = True
    community_moves: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_prepend < 0:
            raise ValueError("max_prepend must be >= 0")
        if not (0.0 <= self.tolerance < 1.0):
            raise ValueError("tolerance must be in [0, 1)")


@dataclass(frozen=True)
class SteeringMove:
    """One candidate steering change at one site."""

    site: str
    kind: str  # "prepend" | "poison" | "unpoison" | "drop-uplink" | "restore-uplinks"
    steering: SiteSteering
    detail: str = ""

    def describe(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.site}: {self.kind}{extra} -> [{self.steering.describe()}]"


@dataclass
class IterationRecord:
    """What one rebalance iteration measured, tried, and applied."""

    iteration: int
    imbalance: float
    shares: Dict[str, float]
    candidates: List[str]
    applied: Optional[str]
    score_before: float
    score_after: float
    churn: float
    delta_regimes: Dict[str, int] = field(default_factory=dict)

    @property
    def shift_runs(self) -> int:
        return self.delta_regimes.get("shift", 0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "iteration": self.iteration,
            "imbalance": round(self.imbalance, 9),
            "shares": {k: round(v, 9) for k, v in sorted(self.shares.items())},
            "candidates": list(self.candidates),
            "applied": self.applied,
            "score_before": round(self.score_before, 9),
            "score_after": round(self.score_after, 9),
            "churn": round(self.churn, 9),
            "delta_regimes": dict(sorted(self.delta_regimes.items())),
        }


@dataclass
class RebalanceReport:
    """The full, serializable record of one rebalance run."""

    targets: Dict[str, float]
    iterations: List[IterationRecord]
    converged: bool
    imbalance_before: float
    imbalance_after: float
    final_shares: Dict[str, float]

    @property
    def moves_applied(self) -> List[str]:
        return [r.applied for r in self.iterations if r.applied is not None]

    @property
    def shift_iterations(self) -> int:
        """Iterations whose evaluation rode the engine's shift regime —
        the "cheap by construction" property the bench gates."""
        return sum(1 for r in self.iterations if r.shift_runs > 0)

    def to_json(self) -> str:
        """Canonical serialized report: byte-identical across reruns
        under a fixed seed.  Per-regime engine accounting
        (``delta_regimes``) is execution state — it varies with cache
        warmth while the *decisions* don't — so it stays out of the
        canonical form (read it from :attr:`iterations` /
        :meth:`IterationRecord.to_dict`)."""
        iterations = []
        for r in self.iterations:
            record = r.to_dict()
            record.pop("delta_regimes")
            iterations.append(record)
        payload = {
            "targets": {k: round(v, 9) for k, v in sorted(self.targets.items())},
            "iterations": iterations,
            "converged": self.converged,
            "imbalance_before": round(self.imbalance_before, 9),
            "imbalance_after": round(self.imbalance_after, 9),
            "final_shares": {
                k: round(v, 9) for k, v in sorted(self.final_shares.items())
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def summary(self) -> Dict[str, object]:
        return {
            "iterations": len(self.iterations),
            "converged": self.converged,
            "imbalance_before": round(self.imbalance_before, 4),
            "imbalance_after": round(self.imbalance_after, 4),
            "moves": self.moves_applied,
        }


# Screening arbitration folds (kind rank, path length, site rank) into
# one int, lower winning: RouteKind is "higher preferred", so a kind
# code k contributes (max code - k) above any path length, and the site
# rank sits below the path length (key = (base[k] + plen) * sites +
# rank).  Unreached slots (code 0) get _NEVER, which loses to any route.
_PLEN_SPAN = 1 << 32
_ORIGIN = int(RouteKind.ORIGIN)  # the highest code, so _KIND_BASE's last
_KIND_BASE = [(_ORIGIN - k) * _PLEN_SPAN for k in range(_ORIGIN + 1)]
_NEVER = 1 << 80


class TrafficEngineer:
    """Greedy steering search toward per-site volume targets."""

    def __init__(
        self,
        service: AnycastService,
        population: ClientPopulation,
        targets: Mapping[str, float],
        config: EngineerConfig = EngineerConfig(),
    ) -> None:
        self.service = service
        self.population = population
        self.config = config
        active = service.active_site_names()
        unknown = set(targets) - set(active)
        if unknown:
            raise ValueError(f"targets name unknown/down sites: {sorted(unknown)}")
        missing = set(active) - set(targets)
        if missing:
            raise ValueError(f"targets missing live sites: {sorted(missing)}")
        total = sum(targets.values())
        if total <= 0:
            raise ValueError("targets must sum to a positive value")
        self.targets: Dict[str, float] = {
            name: targets[name] / total for name in active
        }

    # -- scoring ---------------------------------------------------------------

    def imbalance(self, shares: Mapping[str, float]) -> float:
        """Total-variation distance between measured and target shares
        (0 = on target, 1 = everything in the wrong place)."""
        return 0.5 * sum(
            abs(shares.get(name, 0.0) - self.targets[name])
            for name in self.targets
        )

    def _score(self, cand: CatchmentMap, current: CatchmentMap) -> Tuple[float, float]:
        shift = current.diff(cand)
        churn = shift.flipped_fraction
        return (
            self.imbalance(cand.volume_shares())
            + self.config.churn_weight * churn,
            churn,
        )

    # -- the loop --------------------------------------------------------------

    def rebalance(self) -> RebalanceReport:
        cfg = self.config
        service = self.service
        rng = random.Random(cfg.seed)
        current = CatchmentMap.compute(service, self.population)
        imbalance_before = self.imbalance(current.volume_shares())
        records: List[IterationRecord] = []
        converged = False
        for iteration in range(1, cfg.max_iterations + 1):
            stats_before = self._delta_stats()
            shares = current.volume_shares()
            imbalance = self.imbalance(shares)
            if imbalance <= cfg.tolerance:
                converged = True
                break
            moves = self._candidates(current)
            if not moves:
                converged = True
                break
            overrides = [{m.site: m.steering} for m in moves]
            announcements = [service.announcement(o) for o in overrides]
            cand_maps = CatchmentMap.compute_many(
                service, self.population, announcements
            )
            scored = [self._score(cand, current) for cand in cand_maps]
            # Deterministic seeded tie-break: shuffle the candidate order,
            # then take the first minimum — equal scores resolve by the
            # seeded permutation, not list construction order.
            order = list(range(len(moves)))
            rng.shuffle(order)
            best = min(order, key=lambda j: scored[j][0])
            score_best, churn_best = scored[best]
            record = IterationRecord(
                iteration=iteration,
                imbalance=imbalance,
                shares=shares,
                candidates=[m.describe() for m in moves],
                applied=None,
                score_before=imbalance,
                score_after=score_best,
                churn=churn_best,
                delta_regimes=self._delta_diff(stats_before),
            )
            if score_best >= imbalance - cfg.epsilon:
                records.append(record)
                converged = True
                break
            move = moves[best]
            service.steer(move.site, move.steering)
            service.adopt(cand_maps[best]._outcome)
            current = cand_maps[best]
            current.observe(service)
            record.applied = move.describe()
            record.delta_regimes = self._delta_diff(stats_before)
            records.append(record)
        final_shares = current.volume_shares()
        report = RebalanceReport(
            targets=dict(self.targets),
            iterations=records,
            converged=converged,
            imbalance_before=imbalance_before,
            imbalance_after=self.imbalance(final_shares),
            final_shares=final_shares,
        )
        service.record_rebalance(report.summary())
        return report

    # -- engine accounting -----------------------------------------------------

    def _delta_stats(self) -> Dict[str, int]:
        stats = self.service.engine.stats()
        delta = stats.get("delta")
        return dict(delta) if isinstance(delta, dict) else {}

    def _delta_diff(self, before: Mapping[str, int]) -> Dict[str, int]:
        after = self._delta_stats()
        return {
            mode: after.get(mode, 0) - before.get(mode, 0)
            for mode in after
            if after.get(mode, 0) - before.get(mode, 0)
        }

    # -- candidate generation --------------------------------------------------

    def _candidates(self, current: CatchmentMap) -> List[SteeringMove]:
        cfg = self.config
        service = self.service
        shares = current.volume_shares()
        deviation = {
            name: shares.get(name, 0.0) - self.targets[name]
            for name in self.targets
        }
        over = [
            name
            for name in sorted(deviation, key=lambda n: (-deviation[n], n))
            if deviation[name] > cfg.tolerance
        ]
        under = [
            name
            for name in sorted(deviation, key=lambda n: (deviation[n], n))
            if deviation[name] < -cfg.tolerance
        ]
        moves: List[SteeringMove] = []
        for name in over[: cfg.screen_sites]:
            steering = service.steering_of(name)
            depth = self._screen_prepend(name, steering)
            if depth is not None:
                moves.append(
                    SteeringMove(
                        site=name,
                        kind="prepend",
                        steering=replace(steering, prepend=depth),
                        detail=f"{steering.prepend}->{depth}",
                    )
                )
            entries = current.entry_volumes(name)
            if entries:
                # Heaviest entry uplink, ties to the lowest ASN.
                top = min(entries, key=lambda a: (-entries[a], a))
                if cfg.poison_moves and top not in steering.poison:
                    moves.append(
                        SteeringMove(
                            site=name,
                            kind="poison",
                            steering=replace(
                                steering,
                                poison=tuple(sorted(steering.poison + (top,))),
                            ),
                            detail=f"AS{top}",
                        )
                    )
                announced = (
                    steering.uplinks
                    if steering.uplinks is not None
                    else service.site(name).uplinks
                )
                if cfg.community_moves and top in announced and len(announced) > 1:
                    moves.append(
                        SteeringMove(
                            site=name,
                            kind="drop-uplink",
                            steering=replace(
                                steering,
                                uplinks=tuple(
                                    u for u in announced if u != top
                                ),
                            ),
                            detail=f"AS{top}",
                        )
                    )
        for name in under[: cfg.screen_sites]:
            steering = service.steering_of(name)
            if steering.prepend > 0:
                moves.append(
                    SteeringMove(
                        site=name,
                        kind="prepend",
                        steering=replace(steering, prepend=steering.prepend - 1),
                        detail=f"{steering.prepend}->{steering.prepend - 1}",
                    )
                )
            if steering.poison:
                moves.append(
                    SteeringMove(
                        site=name,
                        kind="unpoison",
                        steering=replace(steering, poison=steering.poison[1:]),
                        detail=f"AS{steering.poison[0]}",
                    )
                )
            if steering.uplinks is not None:
                moves.append(
                    SteeringMove(
                        site=name,
                        kind="restore-uplinks",
                        steering=replace(steering, uplinks=None),
                    )
                )
        return moves

    # -- shift-regime prepend screening ----------------------------------------

    def _screen_prepend(
        self, name: str, steering: SiteSteering
    ) -> Optional[int]:
        """Pick the most promising deeper prepend for ``name`` from its
        solo-footprint ladder.

        The ladder (depths ``cur..max_prepend``) is a chain of
        single-spec announcements differing only in prepend — the
        engine's shift regime — so the whole screen costs one converge
        plus shifts.  Runs uncached: ladders are ephemeral what-ifs and
        caching them would flush real outcomes from the LRU.  Every other
        live site contributes its solo footprint at current steering;
        per-client arbitration (kind, path length, site order) across the
        footprints estimates the shares at each depth."""
        cfg = self.config
        service = self.service
        if steering.prepend >= cfg.max_prepend:
            return None
        depths = list(range(steering.prepend, cfg.max_prepend + 1))
        others = [n for n in service.active_site_names() if n != name]
        ladder = [service.solo_announcement(name, prepend=d) for d in depths]
        solos = [service.solo_announcement(n) for n in others]
        outcomes = service.engine.propagate_many(ladder + solos, use_cache=False)
        total = self.population.total_clients
        best_depth: Optional[int] = None
        best_imbalance: Optional[float] = None
        screened = self._screen_volumes(
            name, others, outcomes[: len(depths)], outcomes[len(depths):]
        )
        for depth, volumes in zip(depths, screened):
            est_shares = (
                {n: v / total for n, v in volumes.items()} if total else {}
            )
            est_imbalance = self.imbalance(est_shares)
            if best_imbalance is None or est_imbalance < best_imbalance:
                best_imbalance = est_imbalance
                best_depth = depth
        if best_depth is None or best_depth == steering.prepend:
            return None
        return best_depth

    def _screen_volumes(
        self,
        name: str,
        others: List[str],
        ladder: List[RoutingOutcome],
        solos: List[RoutingOutcome],
    ) -> List[Dict[str, int]]:
        """Estimated client volume per live site at each ladder depth:
        each client goes to the footprint with the best (kind, path
        length, site order) route, or nowhere when no footprint reaches
        it.  The other sites' best key per client does not depend on the
        depth, so it is folded once; each depth is then one compare."""
        site_order = self.service.active_site_names()
        span = len(site_order)
        rank_of = {n: i for i, n in enumerate(site_order)}
        pop = compile_population(
            self.population, require_compiled(ladder[0])._compiled
        )
        gather = pop.gather
        volumes = pop.served_volumes

        def keys(outcome: RoutingOutcome, rank: int) -> List[int]:
            solo = require_compiled(outcome)
            # A shift-regime outcome keeps its prepend shift pending (it
            # applies to every reached, non-origin slot); folding it into
            # the per-kind base reads the clients' plen instead of having
            # spec_table() rebuild the whole plen array.
            shift = solo._plen_shift
            base = _KIND_BASE
            if shift:
                base = [b + shift for b in base[:_ORIGIN]] + base[_ORIGIN:]
            return [
                (base[k] + p) * span + rank if k else _NEVER
                for k, p in zip(gather(solo._kind), gather(solo._plen))
            ]

        best = [_NEVER] * len(pop.slots)
        for other, outcome in zip(others, solos):
            best = list(map(min, best, keys(outcome, rank_of[other])))
        owner = [b % span if b != _NEVER else -1 for b in best]
        held = {
            other: list(map(rank_of[other].__eq__, owner)) for other in others
        }
        holding = {
            other: sum(compress(volumes, mask)) for other, mask in held.items()
        }
        screened: List[Dict[str, int]] = []
        for outcome in ladder:
            wins = list(map(lt, keys(outcome, rank_of[name]), best))
            at = {n: 0 for n in site_order}
            at[name] = sum(compress(volumes, wins))
            for other, mask in held.items():
                at[other] = holding[other] - sum(
                    compress(volumes, map(and_, wins, mask))
                )
            screened.append(at)
        return screened
