"""The anycast service model: one prefix, many sites, per-site steering.

PEERING's headline use case (§3, "Deploying real services") is
anycasting a prefix from many muxes at once and watching which site the
Internet delivers each client to.  :class:`AnycastService` is that
deployment as an object: a set of named **sites** (each a group of
uplink ASes adjacent to the anycast origin), per-site **steering state**
(prepend depth, poisoned ASNs, and a steering-community-style uplink
selection), and the compilation of all of it into one multi-origin
:class:`~repro.inet.routing.Announcement` — one
:class:`~repro.inet.routing.OriginSpec` per live site, in deterministic
site-name order.

That spec order is the load-bearing trick: the propagation engine's
compiled route table records, for every AS, *which origin spec's export
terminates its forwarding chain* (the root array).  With one spec per
site, spec index == site index, so the catchment of every AS on a
50k-AS Internet is a single array lookup — no forwarding-chain walks.
:mod:`repro.anycast.catchment` builds on exactly this.

Two ways to stand a service up:

* :meth:`AnycastService.deploy` — attach a fresh anycast origin AS to a
  generated/ingested topology (transit uplinks become providers, peer
  uplinks become peerings), for population-scale studies;
* :meth:`AnycastService.from_testbed` — wrap the PEERING testbed's own
  muxes (site == mux, uplinks == the mux's peer/upstream ASNs), so the
  service computes catchments for announcements the testbed already
  made, sharing the engine and its outcome cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..inet.engine import PropagationEngine
from ..inet.routing import Announcement, OriginSpec, RoutingOutcome
from ..inet.topology import ASGraph, ASKind, ASNode
from ..net.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.testbed import Testbed

__all__ = ["AnycastSite", "SiteSteering", "AnycastService", "ANYCAST_ASN"]

# Default origin ASN for standalone deployments (private range, clear of
# the generators' allocation).
ANYCAST_ASN = 64512


@dataclass(frozen=True)
class AnycastSite:
    """One anycast site: a name and the uplink ASes adjacent to the
    anycast origin there.  ``transits`` become providers of the origin
    when the site is wired by :meth:`AnycastService.deploy`; ``peers``
    become settlement-free peerings (IXP-style sites are mostly peers,
    university sites mostly transits)."""

    name: str
    transits: Tuple[int, ...] = ()
    peers: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site needs a name")
        if not (self.transits or self.peers):
            raise ValueError(f"site {self.name!r} has no uplinks")

    @property
    def uplinks(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.transits) | set(self.peers)))


@dataclass(frozen=True)
class SiteSteering:
    """Per-site traffic-engineering state.

    * ``prepend`` — extra copies of the origin ASN on this site's export;
    * ``poison`` — ASNs loop-poisoned on this site's export (LIFEGUARD
      moves: the listed ASes reject this site's route);
    * ``uplinks`` — announce only to this subset of the site's uplinks
      (the PEERING steering-community move, ``None`` = all uplinks).
    """

    prepend: int = 0
    poison: Tuple[int, ...] = ()
    uplinks: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.prepend < 0:
            raise ValueError("prepend must be >= 0")
        if self.uplinks is not None and not self.uplinks:
            raise ValueError("uplinks selection must be non-empty (or None)")

    def describe(self) -> str:
        parts: List[str] = []
        if self.prepend:
            parts.append(f"prepend={self.prepend}")
        if self.poison:
            parts.append(f"poison={sorted(self.poison)}")
        if self.uplinks is not None:
            parts.append(f"uplinks={sorted(self.uplinks)}")
        return " ".join(parts) if parts else "default"


class AnycastService:
    """One anycast prefix announced from many sites over one engine."""

    def __init__(
        self,
        engine: PropagationEngine,
        asn: int,
        sites: Sequence[AnycastSite],
        prefix: Optional[Prefix] = None,
    ) -> None:
        if not sites:
            raise ValueError("anycast service needs at least one site")
        ordered = tuple(sorted(sites, key=lambda s: s.name))
        names = [s.name for s in ordered]
        if len(set(names)) != len(names):
            raise ValueError("duplicate site names")
        self.engine = engine
        self.asn = asn
        self.prefix = prefix
        self.sites: Tuple[AnycastSite, ...] = ordered
        self._by_name: Dict[str, AnycastSite] = {s.name: s for s in ordered}
        self._steering: Dict[str, SiteSteering] = {
            s.name: SiteSteering() for s in ordered
        }
        self._down: Set[str] = set()
        self._last_outcome: Optional[RoutingOutcome] = None
        # Set by CatchmentMap.observe / the traffic engineer; rendered by
        # describe() for the looking glass.
        self.last_shares: Dict[str, float] = {}
        self.last_rebalance: Optional[Dict[str, object]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def deploy(
        cls,
        graph: ASGraph,
        sites: Sequence[AnycastSite],
        asn: int = ANYCAST_ASN,
        prefix: Optional[Prefix] = None,
        engine: Optional[PropagationEngine] = None,
    ) -> "AnycastService":
        """Attach a fresh anycast origin AS to ``graph`` and wire every
        site's uplinks (transits as providers, peers as peerings).

        Uplink sets must be pairwise disjoint across sites — that is what
        makes "which uplink did traffic enter through" a well-defined
        site identity — and every uplink must already exist in the graph.
        """
        if asn in graph:
            raise ValueError(f"AS{asn} already exists in the topology")
        seen: Dict[int, str] = {}
        for site in sites:
            for uplink in site.uplinks:
                if uplink not in graph:
                    raise ValueError(
                        f"site {site.name!r} uplink AS{uplink} not in topology"
                    )
                if uplink in seen:
                    raise ValueError(
                        f"AS{uplink} is an uplink of both {seen[uplink]!r} "
                        f"and {site.name!r}; site uplinks must be disjoint"
                    )
                seen[uplink] = site.name
        with graph.batch():
            graph.add_as(ASNode(asn=asn, name="anycast", kind=ASKind.TESTBED))
            for site in sites:
                for transit in site.transits:
                    graph.add_provider(customer=asn, provider=transit)
                for peer in site.peers:
                    graph.add_peering(asn, peer)
        if engine is None:
            engine = PropagationEngine(graph)
        return cls(engine, asn, sites, prefix=prefix)

    @classmethod
    def from_testbed(
        cls,
        testbed: "Testbed",
        site_names: Optional[Sequence[str]] = None,
        prefix: Optional[Prefix] = None,
    ) -> "AnycastService":
        """Wrap PEERING muxes as anycast sites (site == mux, uplinks ==
        the mux's peer/upstream ASNs), sharing the testbed's propagation
        engine so catchment queries hit the same outcome cache the
        testbed's own announcements populate."""
        names = (
            list(site_names)
            if site_names is not None
            else sorted(testbed.servers)
        )
        sites = [
            AnycastSite(
                name=name,
                peers=tuple(sorted(testbed.servers[name].neighbor_asns)),
            )
            for name in names
        ]
        return cls(testbed.propagation, testbed.asn, sites, prefix=prefix)

    # -- steering state --------------------------------------------------------

    def site(self, name: str) -> AnycastSite:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None

    def steering_of(self, name: str) -> SiteSteering:
        self.site(name)
        return self._steering[name]

    def steer(self, name: str, steering: SiteSteering) -> None:
        """Replace one site's steering state."""
        site = self.site(name)
        self._validate_steering(site, steering)
        self._steering[name] = steering

    def adjust(self, name: str, **changes: object) -> SiteSteering:
        """``steer`` with keyword deltas (``prepend=2``, ``poison=(...)``,
        ``uplinks=(...)``); returns the new steering."""
        steering = replace(self._steering[self.site(name).name], **changes)  # type: ignore[arg-type]
        self.steer(name, steering)
        return steering

    def _validate_steering(self, site: AnycastSite, steering: SiteSteering) -> None:
        if steering.uplinks is not None:
            extra = set(steering.uplinks) - set(site.uplinks)
            if extra:
                raise ValueError(
                    f"steering for {site.name!r} selects non-uplinks "
                    f"{sorted(extra)}"
                )

    def fail_site(self, name: str) -> None:
        """Take a site down: its spec drops out of the announcement (the
        failover study: where does its catchment land?)."""
        self.site(name)
        if name not in self._down:
            if len(self.active_site_names()) == 1:
                raise ValueError("cannot fail the last live site")
            self._down.add(name)

    def restore_site(self, name: str) -> None:
        self.site(name)
        self._down.discard(name)

    def down_sites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._down))

    def active_site_names(self) -> Tuple[str, ...]:
        """Live sites in announcement (== spec-index) order."""
        return tuple(s.name for s in self.sites if s.name not in self._down)

    # -- announcement compilation ----------------------------------------------

    def _spec(self, site: AnycastSite, steering: SiteSteering) -> OriginSpec:
        uplinks = steering.uplinks if steering.uplinks is not None else site.uplinks
        return OriginSpec(
            asn=self.asn,
            prepend=steering.prepend,
            poison=tuple(sorted(steering.poison)),
            announce_to=tuple(sorted(uplinks)),
        )

    def announcement(
        self, overrides: Optional[Mapping[str, SiteSteering]] = None
    ) -> Announcement:
        """The multi-origin announcement for the current steering state —
        one spec per live site, in site-name order (so origin-spec index
        *is* site index).  ``overrides`` swaps per-site steering without
        mutating the service: the what-if interface the traffic engineer
        evaluates candidate moves through."""
        overrides = overrides or {}
        for name in overrides:
            self._validate_steering(self.site(name), overrides[name])
        specs = tuple(
            self._spec(
                self._by_name[name],
                overrides.get(name, self._steering[name]),
            )
            for name in self.active_site_names()
        )
        return Announcement(origins=specs, prefix=self.prefix)

    def solo_announcement(
        self, name: str, prepend: Optional[int] = None
    ) -> Announcement:
        """A single-site what-if announcement: ``name`` announcing alone
        under its current steering (optionally at a different prepend
        depth).  Single-spec prepend ladders are exactly what the
        engine's *shift* delta regime handles, which is why the traffic
        engineer screens prepend candidates through these."""
        site = self.site(name)
        steering = self._steering[name]
        if prepend is not None:
            steering = replace(steering, prepend=prepend)
        return Announcement(
            origins=(self._spec(site, steering),), prefix=self.prefix
        )

    # -- convergence -----------------------------------------------------------

    def outcome(self, use_cache: bool = True) -> RoutingOutcome:
        """Converged routes for the current announcement, delta-chained
        off the previous steering state (steering moves ride the engine's
        incremental regimes)."""
        outcome = self.engine.propagate_delta(
            self._last_outcome, self.announcement(), use_cache=use_cache
        )
        self._last_outcome = outcome
        return outcome

    def adopt(self, outcome: RoutingOutcome) -> None:
        """Make ``outcome`` the delta-chain base for the next
        :meth:`outcome` call (the engineer applies the winning candidate's
        already-computed outcome instead of reconverging)."""
        self._last_outcome = outcome

    # -- reporting -------------------------------------------------------------

    def describe(self) -> List[str]:
        """Looking-glass lines: per-site steering + last known shares +
        last rebalance."""
        lines = [
            f"anycast AS{self.asn}: {len(self.active_site_names())}/"
            f"{len(self.sites)} sites live"
        ]
        for site in self.sites:
            state = "DOWN" if site.name in self._down else "up"
            steering = self._steering[site.name].describe()
            share = self.last_shares.get(site.name)
            shown = f" share={share:.1%}" if share is not None else ""
            lines.append(
                f"  {site.name}: {state} uplinks={len(site.uplinks)} "
                f"[{steering}]{shown}"
            )
        if self.last_rebalance is not None:
            r = self.last_rebalance
            lines.append(
                "  last rebalance: "
                f"{r.get('iterations')} iterations, "
                f"imbalance {r.get('imbalance_before')} -> "
                f"{r.get('imbalance_after')}"
                f"{' (converged)' if r.get('converged') else ''}"
            )
        return lines
