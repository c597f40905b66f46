"""Population-scale catchment mapping over the compiled route table.

A **catchment map** answers, for a volume-weighted client population,
"which anycast site serves whom, and how much".  The computation is
array-shaped so it scales to millions of clients:

1. clients are a :class:`~repro.workloads.ClientPopulation` — one
   ``(asn, clients)`` entry per vantage AS, so a million Zipf-weighted
   clients collapse to tens of thousands of entries;
2. the population is compiled once per compiled topology
   (:func:`compile_population`): duplicate ASNs merged, each entry's
   topology slot resolved, one ``itemgetter`` built over the slots;
3. the service's multi-origin announcement converges once (or, for a
   batch of steering states, in one :meth:`propagate_many` sweep — the
   engine chains the batch through its delta regimes);
4. a map is **one gather** of the compiled outcome's root array
   (:meth:`~repro.inet.engine.CompiledOutcome.origin_spec_index`): the
   origin-spec index that won each AS *is* the site index, because the
   service emits one spec per site in site order, and the root array
   holds -1 at unreached and origin slots.  Per-site totals are C-level
   passes over that one per-entry tuple; no per-client dict is built.

:meth:`CatchmentMap.diff` is the stability report: which client ASes
flipped sites between two maps, how much volume moved along each
``site -> site`` flow, and per-site churn — the measurement Tangled-style
anycast studies run after every steering change.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, ne
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..inet.engine import CompiledOutcome, CompiledTopology
from ..inet.routing import Announcement, RoutingOutcome
from ..workloads.traffic import ClientPopulation
from .service import AnycastService

__all__ = ["CatchmentMap", "CatchmentShift", "UNSERVED"]

# Assignment sentinel for clients with no route to any site (ASN absent
# from the topology, poisoned everywhere, or behind a failed site with
# no alternative).
UNSERVED = "(unserved)"


class CompiledPopulation:
    """A :class:`ClientPopulation` resolved against one compiled topology.

    Duplicate ASNs are merged (volumes summed) in first-seen order, with
    the entries the topology knows first: entry ``j < len(slots)`` sits
    at topology slot ``slots[j]``; the remaining entries are absent from
    the topology and always unserved.  ``pos`` maps an ASN to its entry,
    and ``gather`` reads one per-slot array at every served entry's
    slot in a single C-level call."""

    __slots__ = (
        "compiled", "asns", "volumes", "slots", "pos",
        "served_volumes", "total_volume", "gather",
    )

    def __init__(
        self, population: ClientPopulation, compiled: CompiledTopology
    ) -> None:
        self.compiled = compiled
        merged: Dict[int, int] = {}
        for asn, volume in population.items():
            merged[asn] = merged.get(asn, 0) + volume
        idx = compiled.idx
        present = [asn for asn in merged if asn in idx]
        absent = [asn for asn in merged if asn not in idx]
        self.asns: Tuple[int, ...] = tuple(present + absent)
        self.volumes: Tuple[int, ...] = tuple(merged[a] for a in self.asns)
        self.slots: List[int] = [idx[asn] for asn in present]
        self.pos: Dict[int, int] = {asn: j for j, asn in enumerate(self.asns)}
        # Volumes of the entries the topology knows (parallel to slots).
        self.served_volumes = self.volumes[: len(present)]
        self.total_volume = sum(self.volumes)
        self.gather: Callable[[Sequence[int]], Tuple[int, ...]] = _gatherer(
            self.slots
        )


def _gatherer(slots: List[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    # itemgetter returns a bare item for one key and refuses zero keys.
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        only = slots[0]
        return lambda values: (values[only],)
    return lambda values: ()


# One compiled population per live ClientPopulation, keyed on identity
# (hashing a population hashes every entry).  An entry holds its
# topology strongly, since CompiledTopology is slotted without
# __weakref__, but only one: compiling against a new topology replaces
# it.  The population itself is held weakly, and its finalizer drops the
# entry, so a dropped world takes its compiled population with it.
_COMPILED: Dict[int, CompiledPopulation] = {}


def compile_population(
    population: ClientPopulation, compiled: CompiledTopology
) -> CompiledPopulation:
    """The (cached) compilation of ``population`` against ``compiled``."""
    key = id(population)
    hit = _COMPILED.get(key)
    if hit is None or hit.compiled is not compiled:
        if hit is None:
            weakref.finalize(population, _COMPILED.pop, key, None)
        hit = CompiledPopulation(population, compiled)
        _COMPILED[key] = hit
    return hit


def require_compiled(outcome: RoutingOutcome) -> CompiledOutcome:
    """``outcome``, which catchment mapping reads as compiled arrays."""
    if not isinstance(outcome, CompiledOutcome):
        raise TypeError(
            f"catchment mapping needs a CompiledOutcome, got {type(outcome).__name__}"
        )
    return outcome


@dataclass(frozen=True)
class CatchmentShift:
    """The stability report between two catchment maps.

    ``flows[(a, b)]`` is the client volume that moved from site ``a`` to
    site ``b`` (either end may be :data:`UNSERVED`); ``flipped_ases`` /
    ``flipped_volume`` total the movers; ``stability`` is the fraction
    of volume that stayed put (1.0 = no churn)."""

    flows: Tuple[Tuple[Tuple[str, str], int], ...]
    flipped_ases: int
    flipped_volume: int
    total_volume: int

    @property
    def flipped_fraction(self) -> float:
        return self.flipped_volume / self.total_volume if self.total_volume else 0.0

    @property
    def stability(self) -> float:
        return 1.0 - self.flipped_fraction

    def site_churn(self) -> Dict[str, Tuple[int, int]]:
        """``{site: (volume lost, volume gained)}`` over the flip flows."""
        churn: Dict[str, List[int]] = {}
        for (src, dst), volume in self.flows:
            churn.setdefault(src, [0, 0])[0] += volume
            churn.setdefault(dst, [0, 0])[1] += volume
        return {site: (lost, gained) for site, (lost, gained) in churn.items()}

    def render(self) -> List[str]:
        lines = [
            f"catchment shift: {self.flipped_ases} client ASes / "
            f"{self.flipped_volume} clients flipped "
            f"({self.flipped_fraction:.1%} of volume, "
            f"stability {self.stability:.1%})"
        ]
        for (src, dst), volume in self.flows:
            lines.append(f"  {src} -> {dst}: {volume} clients")
        return lines


class CatchmentMap:
    """Per-site client/volume shares plus a queryable per-AS assignment.

    The assignment is one tuple: ``site_index[j]`` is the site index
    serving served-entry ``j`` of the compiled population (-1 when
    unserved); :meth:`site_of` reads it through the population's ``pos``."""

    def __init__(
        self,
        sites: Tuple[str, ...],
        population: CompiledPopulation,
        site_index: Tuple[int, ...],
        outcome: CompiledOutcome,
        origin_asn: int,
    ) -> None:
        self.sites = sites
        # Index -1 (unserved) reads the trailing UNSERVED label.
        self._labels = sites + (UNSERVED,)
        self._pop = population
        self._site_index = site_index
        self._outcome = outcome
        self._origin_asn = origin_asn
        # One pass for the volumes (the unserved -1 lands in the spare
        # last bucket); tuple.count is C-level for the AS counts.
        sums = [0] * (len(sites) + 1)
        for k, volume in zip(site_index, population.served_volumes):
            sums[k] += volume
        self.volume_by_site: Dict[str, int] = dict(zip(sites, sums))
        self.ases_by_site: Dict[str, int] = {
            site: site_index.count(k) for k, site in enumerate(sites)
        }
        self.total_volume = population.total_volume
        self.total_ases = len(population.asns)
        self.unserved_volume = self.total_volume - sum(self.volume_by_site.values())
        self.unserved_ases = self.total_ases - sum(self.ases_by_site.values())
        self._entry_memo: Dict[str, Dict[int, int]] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def compute(
        cls,
        service: AnycastService,
        population: ClientPopulation,
        outcome: Optional[RoutingOutcome] = None,
        observe: bool = True,
    ) -> "CatchmentMap":
        """Map ``population`` under the service's current steering.  The
        outcome is delta-chained off the previous steering state via
        :meth:`AnycastService.outcome` unless one is passed in."""
        if outcome is None:
            outcome = service.outcome()
        cmap = cls.from_outcome(service, population, outcome)
        if observe:
            cmap.observe(service)
        return cmap

    @classmethod
    def compute_many(
        cls,
        service: AnycastService,
        population: ClientPopulation,
        announcements: Sequence[Announcement],
        parallel: Optional[int] = None,
        use_cache: bool = True,
    ) -> List["CatchmentMap"]:
        """Map ``population`` under a batch of steering states in **one**
        batched ``propagate_many`` sweep — the engine orders the batch by
        delta affinity and converges it through its delta regimes.
        ``parallel`` is ignored; benchmarks/e2e/anycast.py still passes it."""
        outcomes = service.engine.propagate_many(
            announcements, use_cache=use_cache
        )
        return [
            cls.from_outcome(service, population, outcome)
            for outcome in outcomes
        ]

    @classmethod
    def from_outcome(
        cls,
        service: AnycastService,
        population: ClientPopulation,
        outcome: RoutingOutcome,
    ) -> "CatchmentMap":
        """Map ``population`` against an already-converged compiled
        ``outcome``: one gather of its root array."""
        outcome = require_compiled(outcome)
        pop = compile_population(population, outcome._compiled)
        return cls(
            service.active_site_names(),
            pop,
            pop.gather(outcome._root),
            outcome,
            service.asn,
        )

    # -- queries ---------------------------------------------------------------

    def site_of(self, asn: int) -> Optional[str]:
        """The site serving one client AS (:data:`UNSERVED` for mapped
        clients with no route; None for ASes outside the population)."""
        j = self._pop.pos.get(asn)
        if j is None:
            return None
        site_index = self._site_index
        return self._labels[site_index[j]] if j < len(site_index) else UNSERVED

    def volume_shares(self) -> Dict[str, float]:
        total = self.total_volume or 1
        return {s: self.volume_by_site[s] / total for s in self.sites}

    def as_shares(self) -> Dict[str, float]:
        total = self.total_ases or 1
        return {s: self.ases_by_site[s] / total for s in self.sites}

    @property
    def unserved_fraction(self) -> float:
        return self.unserved_volume / self.total_volume if self.total_volume else 0.0

    def observe(self, service: AnycastService) -> None:
        """Push this map's shares into the service's telemetry."""
        service.record_shares(self.volume_shares())

    def entry_volumes(self, site: str) -> Dict[int, int]:
        """``{uplink asn: client volume}`` for one site — which uplink
        each client's traffic enters the anycast origin through (the
        candidate set for poison / uplink-drop steering moves).  Read
        from the outcome's via array, memoized per map."""
        memo = self._entry_memo.get(site)
        if memo is not None:
            return memo
        volumes: Dict[int, int] = {}
        if site in self.volume_by_site:
            k = self.sites.index(site)
            pop = self._pop
            outcome = self._outcome
            compiled = outcome._compiled
            origin = compiled.idx[self._origin_asn]
            # Parent pointers with every entry uplink (a neighbour the
            # origin's route was taken from) made a fixed point, so all of
            # the site's clients climb in lock step until none moves.
            parent = list(outcome._via)
            for nbrs in (
                compiled.providers[origin],
                compiled.customers[origin],
                compiled.peers[origin],
            ):
                for u in nbrs:
                    if parent[u] == origin:
                        parent[u] = u
            mine = list(map(k.__eq__, self._site_index))
            at = list(compress(pop.slots, mine))
            while True:
                up = list(map(parent.__getitem__, at))
                if up == at:
                    break
                at = up
            asns = compiled.asns
            for slot, volume in zip(at, compress(pop.served_volumes, mine)):
                uplink = asns[slot]
                volumes[uplink] = volumes.get(uplink, 0) + volume
        self._entry_memo[site] = volumes
        return volumes

    # -- stability -------------------------------------------------------------

    def diff(self, other: "CatchmentMap") -> CatchmentShift:
        """Stability report from ``self`` to ``other`` over the client
        ASes the two maps share.  Maps over one compiled population and
        one site list compare their site-index tuples and visit only the
        entries that flipped."""
        flows: Dict[Tuple[str, str], int] = {}
        flipped_ases = 0
        flipped_volume = 0
        pop = self._pop
        volumes = pop.volumes
        if other._pop is pop and other.sites == self.sites:
            total = pop.total_volume
            before, after = self._site_index, other._site_index
            labels = self._labels
            for j in compress(range(len(before)), map(ne, before, after)):
                volume = volumes[j]
                flipped_ases += 1
                flipped_volume += volume
                key = (labels[before[j]], labels[after[j]])
                flows[key] = flows.get(key, 0) + volume
        else:
            total = 0
            for j, asn in enumerate(pop.asns):
                now = other.site_of(asn)
                if now is None:
                    continue
                volume = volumes[j]
                total += volume
                was = self.site_of(asn)
                if was == now:
                    continue
                flipped_ases += 1
                flipped_volume += volume
                key = (was, now)
                flows[key] = flows.get(key, 0) + volume
        ordered = tuple(
            sorted(flows.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        return CatchmentShift(
            flows=ordered,
            flipped_ases=flipped_ases,
            flipped_volume=flipped_volume,
            total_volume=total,
        )

    def render(self) -> List[str]:
        lines = [
            f"catchment: {self.total_volume} clients across "
            f"{self.total_ases} ASes, {len(self.sites)} sites"
        ]
        shares = self.volume_shares()
        for site in sorted(self.sites, key=lambda s: -self.volume_by_site[s]):
            lines.append(
                f"  {site}: {self.volume_by_site[site]} clients "
                f"({shares[site]:.1%}) across {self.ases_by_site[site]} ASes"
            )
        if self.unserved_volume:
            lines.append(
                f"  {UNSERVED}: {self.unserved_volume} clients "
                f"({self.unserved_fraction:.1%})"
            )
        return lines

