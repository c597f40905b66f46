"""Policy-based interdomain route propagation (Gao–Rexford model).

This engine computes, for one announcement, the route every AS on the
graph selects — the AS-level analogue of letting BGP converge.  It is the
substrate standing in for "the live Internet" that the real PEERING
testbed peers with (see DESIGN.md, substitution table).

Model (the standard one from interdomain routing research):

* **Preference**: customer-learned routes over peer-learned over
  provider-learned (economics), then shortest AS path, then lowest
  next-hop ASN (deterministic tie-break).
* **Export (valley-free)**: routes learned from customers are exported to
  everyone; routes learned from peers or providers only to customers.
  An AS's own prefixes are exported to everyone.

The propagation runs in the classic three phases (up via customer edges,
across one peer hop, down via provider edges), each as a shortest-path
search, which yields the unique stable solution under these policies.

Experiments hook in through :class:`OriginSpec`: multiple origins
(anycast / hijack), AS-path prepending, AS-path poisoning (loop-detection
steering, as used by LIFEGUARD), selective announcement to a subset
of neighbors (the PEERING mux's per-peer announcement control), and
``path_suffix`` stuffing (route-leak emulation: the leaker re-originates
a learned path, so the announcement looks like a customer route while
still ending at the legitimate origin).

Security hooks: ``propagate(..., security=...)`` accepts a
:class:`repro.secroute.policy.CompiledSecurity` (or a
:class:`~repro.secroute.policy.SecurityPolicy`, compiled on the fly) and
applies per-AS route filters — RFC 6811 drop-invalid ROV and Peerlock
leak containment — at every acceptance point.  A rejected candidate is
simply never selected; worse candidates can still fill the slot, exactly
as on a real router that filtered the best path.  The compiled engine
(:mod:`repro.inet.engine`) implements the identical predicate over bit
masks; equivalence is property-tested.

Announcements optionally carry the :class:`~repro.net.addr.Prefix` they
are for.  Propagation itself is prefix-agnostic (each prefix converges
independently), but the prefix feeds RPKI origin validation and lets
:func:`resolve_lpm` combine per-prefix outcomes into the
longest-prefix-match forwarding decision — how a sub-prefix hijack
captures traffic even from ASes that still hold the covering route.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union
from enum import IntEnum

from ..net.addr import IPAddress, Prefix
from .topology import ASGraph

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..secroute.policy import CompiledSecurity

__all__ = [
    "RouteKind",
    "ASRoute",
    "OriginSpec",
    "Announcement",
    "RoutingOutcome",
    "propagate",
    "resolve_lpm",
]


class RouteKind(IntEnum):
    """Preference classes, higher preferred (Gao–Rexford)."""

    ORIGIN = 4
    CUSTOMER = 3
    PEER = 2
    PROVIDER = 1


@dataclass(frozen=True)
class ASRoute:
    """The route one AS selected for the announced prefix.

    ``path`` is the AS path as that AS sees it (first hop first, origin
    last, including any prepending/poisoning the origin injected).
    ``via`` is the neighbor it forwards to (None at the origin).
    """

    kind: RouteKind
    path: Tuple[int, ...]
    via: Optional[int]

    @property
    def length(self) -> int:
        return len(self.path)


@dataclass(frozen=True)
class OriginSpec:
    """How one AS originates the announcement.

    * ``prepend`` — extra copies of the origin ASN on the exported path.
    * ``poison`` — ASNs sandwiched into the path (``O X O``) so that the
      listed ASes reject the route via loop detection.
    * ``announce_to`` — neighbors to announce to (None = all neighbors);
      this is the PEERING "pick and choose peers" control.
    * ``path_suffix`` — ASNs appended after everything else.  A route
      leak is ``OriginSpec(asn=leaker, path_suffix=leaked_path)``: the
      leaker re-originates a learned route, so neighbors see
      ``leaker, …suffix…, true_origin`` — origin-valid under RPKI (that
      is why leaks need Peerlock, not ROV), rejected via loop detection
      by ASes already on the suffix, and propagated by the leaker's
      providers as if it were a customer route.
    """

    asn: int
    prepend: int = 0
    poison: Tuple[int, ...] = ()
    announce_to: Optional[Tuple[int, ...]] = None
    path_suffix: Tuple[int, ...] = ()

    def export_path(self) -> Tuple[int, ...]:
        path = (self.asn,) * (1 + self.prepend)
        if self.poison:
            path = path + tuple(self.poison) + (self.asn,)
        return path + tuple(self.path_suffix)


@dataclass(frozen=True)
class Announcement:
    """One prefix-level announcement, possibly multi-origin (anycast or
    hijack experiments announce the same prefix from several ASes).

    ``prefix`` is optional: propagation is prefix-agnostic, but origin
    validation (:mod:`repro.secroute`) and longest-prefix-match
    resolution across several announcements (:func:`resolve_lpm`) need
    to know which prefix the announcement is for."""

    origins: Tuple[OriginSpec, ...]
    prefix: Optional[Prefix] = None

    @classmethod
    def single(cls, asn: int, prefix: Optional[Prefix] = None, **kwargs) -> "Announcement":
        return cls(origins=(OriginSpec(asn=asn, **kwargs),), prefix=prefix)

    def origin_asns(self) -> Set[int]:
        return {spec.asn for spec in self.origins}


class RoutingOutcome:
    """Converged per-AS selected routes for one announcement."""

    def __init__(self, graph: ASGraph, routes: Dict[int, ASRoute]) -> None:
        self._graph = graph
        self._routes = routes

    def route(self, asn: int) -> Optional[ASRoute]:
        return self._routes.get(asn)

    def reaches(self, asn: int) -> bool:
        return asn in self._routes

    def reachable_asns(self) -> Set[int]:
        return set(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def items(self) -> Iterable[Tuple[int, ASRoute]]:
        return self._routes.items()

    def as_path(self, asn: int) -> Optional[Tuple[int, ...]]:
        route = self.route(asn)
        return route.path if route is not None else None

    def forwarding_chain(self, asn: int, max_hops: int = 64) -> List[int]:
        """The sequence of ASes a packet traverses from ``asn`` to the
        origin, following each AS's selected route (data follows control).
        """
        chain = [asn]
        current = asn
        for _ in range(max_hops):
            route = self.route(current)
            if route is None:
                return chain  # blackhole: chain ends before an origin
            if route.via is None:
                return chain  # reached an origin
            current = route.via
            chain.append(current)
        return chain

    def exports_to(self, exporter: int, importer: int) -> Optional[ASRoute]:
        """What ``exporter`` advertises to neighbor ``importer`` post-
        convergence (None when policy forbids export or there is no route).

        This is how a PEERING mux's Adj-RIB-In from each peer is derived.
        """
        route = self.route(exporter)
        if route is None:
            return None
        graph = self._graph
        if importer not in graph.neighbors(exporter):
            return None
        exporting_to_customer = importer in graph.customers(exporter)
        if route.kind in (RouteKind.PEER, RouteKind.PROVIDER) and not exporting_to_customer:
            return None
        if importer in route.path:
            return None  # receiver would reject on loop detection anyway
        return ASRoute(
            kind=route.kind, path=(exporter,) + route.path, via=exporter
        )


def propagate(
    graph: ASGraph,
    announcement: Announcement,
    security: Optional["CompiledSecurity"] = None,
) -> RoutingOutcome:
    """Compute the converged routes for ``announcement`` on ``graph``.

    ``security`` applies per-AS import filters (ROV drop-invalid,
    Peerlock) at every acceptance point; a ``SecurityPolicy`` is compiled
    against the announcement automatically.
    """
    if security is not None and hasattr(security, "compile_for"):
        security = security.compile_for(announcement)  # type: ignore[attr-defined]
    if security is not None and not security.active:
        security = None
    selected: Dict[int, ASRoute] = {}

    # Origins select their own announcement.
    for spec in announcement.origins:
        graph.get(spec.asn)
        selected[spec.asn] = ASRoute(kind=RouteKind.ORIGIN, path=(), via=None)

    def origin_export_ok(spec: OriginSpec, neighbor: int) -> bool:
        return spec.announce_to is None or neighbor in spec.announce_to

    # ---- Phase 1: customer routes climb provider edges -----------------------
    # Heap entries: (path_len, via_asn, target_asn, path).  Pop order gives
    # shortest path first, then lowest via ASN — the tie-break rule.
    up_heap: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    for spec in announcement.origins:
        path = spec.export_path()
        for provider in graph.sorted_providers(spec.asn):
            if origin_export_ok(spec, provider) and provider not in path:
                heapq.heappush(up_heap, (len(path), spec.asn, provider, path))
    up_routes: Dict[int, ASRoute] = {}
    while up_heap:
        length, via, target, path = heapq.heappop(up_heap)
        if target in up_routes or target in selected:
            continue
        if security is not None and security.rejects(target, path, True):
            continue  # filtered; a worse candidate may still fill the slot
        route = ASRoute(kind=RouteKind.CUSTOMER, path=path, via=via)
        up_routes[target] = route
        new_path = (target,) + path
        for provider in graph.sorted_providers(target):
            if provider not in new_path and provider not in up_routes and provider not in selected:
                heapq.heappush(up_heap, (len(new_path), target, provider, new_path))
    selected.update(up_routes)

    # ---- Phase 2: one hop across peer edges ------------------------------------
    peer_routes: Dict[int, ASRoute] = {}
    exporters = sorted(selected)  # origins + customer-route holders
    for exporter in exporters:
        route = selected[exporter]
        if route.kind is RouteKind.ORIGIN:
            specs = [s for s in announcement.origins if s.asn == exporter]
            base_paths = {
                peer: spec.export_path()
                for spec in specs
                for peer in graph.peers(exporter)
                if origin_export_ok(spec, peer)
            }
        else:
            base_paths = {
                peer: (exporter,) + route.path for peer in graph.peers(exporter)
            }
        for peer in sorted(base_paths):
            path = base_paths[peer]
            if peer in selected or peer in path:
                continue
            if security is not None and security.rejects(peer, path, False):
                continue
            candidate = ASRoute(kind=RouteKind.PEER, path=path, via=exporter)
            incumbent = peer_routes.get(peer)
            if incumbent is None or (candidate.length, candidate.via) < (
                incumbent.length,
                incumbent.via,
            ):
                peer_routes[peer] = candidate
    selected.update(peer_routes)

    # ---- Phase 3: routes descend provider->customer edges -----------------------
    down_heap: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    for exporter in sorted(selected):
        route = selected[exporter]
        if route.kind is RouteKind.ORIGIN:
            specs = [s for s in announcement.origins if s.asn == exporter]
            for spec in specs:
                path = spec.export_path()
                for customer in graph.sorted_customers(exporter):
                    if origin_export_ok(spec, customer) and customer not in path:
                        heapq.heappush(down_heap, (len(path), exporter, customer, path))
        else:
            path = (exporter,) + route.path
            for customer in graph.sorted_customers(exporter):
                if customer not in selected and customer not in path:
                    heapq.heappush(down_heap, (len(path), exporter, customer, path))
    down_routes: Dict[int, ASRoute] = {}
    while down_heap:
        length, via, target, path = heapq.heappop(down_heap)
        if target in selected or target in down_routes:
            continue
        if security is not None and security.rejects(target, path, False):
            continue
        route = ASRoute(kind=RouteKind.PROVIDER, path=path, via=via)
        down_routes[target] = route
        new_path = (target,) + path
        for customer in graph.sorted_customers(target):
            if (
                customer not in selected
                and customer not in down_routes
                and customer not in new_path
            ):
                heapq.heappush(down_heap, (len(new_path), target, customer, new_path))
    selected.update(down_routes)

    return RoutingOutcome(graph, selected)


def resolve_lpm(
    outcomes: Mapping[Prefix, RoutingOutcome],
    asn: int,
    target: Union[IPAddress, Prefix],
) -> Optional[Tuple[Prefix, ASRoute]]:
    """Longest-prefix-match forwarding decision for one AS across several
    converged announcements.

    Among the announced prefixes that contain ``target`` and for which
    ``asn`` holds a route, the most specific wins — the data-plane rule
    that makes a sub-prefix hijack effective even against ASes that still
    hold the covering legitimate route.  Returns ``(prefix, route)`` or
    None when nothing covers the target at this AS.
    """
    best: Optional[Tuple[Prefix, ASRoute]] = None
    for prefix, outcome in outcomes.items():
        if not prefix.contains(target):
            continue
        route = outcome.route(asn)
        if route is None:
            continue
        if best is None or prefix.length > best[0].length:
            best = (prefix, route)
    return best
