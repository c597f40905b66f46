"""Routing policy engine: prefix lists, AS-path filters, route maps.

This is the machinery PEERING's safety layer is built from (§3 "Enforcing
safety"): outbound prefix/origin filters at the mux are expressed as a
:class:`RouteMap` whose terms match on prefix lists and AS-path properties
and either permit (optionally transforming attributes) or deny.

The pieces compose like their router-CLI namesakes:

* :class:`PrefixList` — ordered permit/deny entries with ``ge``/``le``
  length ranges.
* :class:`AsPathFilter` — predicates over the AS path (regex-free: origin
  ASN sets, containment, length bounds — the operations filters actually
  use).
* :class:`RouteMap` — ordered terms; each term matches a conjunction of
  conditions and applies ``set`` actions on permit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from ..net.addr import Prefix
from ..secroute.rpki import RoaRegistry, ValidationState
from .attributes import Community, PathAttributes
from .rib import Route

__all__ = [
    "PrefixListEntry",
    "PrefixList",
    "AsPathFilter",
    "MatchConditions",
    "SetActions",
    "RouteMapTerm",
    "RouteMap",
    "PolicyResult",
]


@dataclass(frozen=True)
class PrefixListEntry:
    """One ``permit/deny prefix [ge X] [le Y]`` line."""

    prefix: Prefix
    permit: bool = True
    ge: Optional[int] = None
    le: Optional[int] = None

    def matches(self, candidate: Prefix) -> bool:
        if not self.prefix.contains(candidate):
            return False
        low = self.ge if self.ge is not None else self.prefix.length
        high = self.le if self.le is not None else (
            self.prefix.length if self.ge is None else candidate.bits
        )
        return low <= candidate.length <= high


class PrefixList:
    """An ordered prefix list; first matching entry wins.

    ``default_permit`` controls the implicit final entry (routers default
    to deny).
    """

    def __init__(
        self,
        entries: Iterable[PrefixListEntry] = (),
        name: str = "",
        default_permit: bool = False,
    ) -> None:
        self.name = name
        self.entries: List[PrefixListEntry] = list(entries)
        self.default_permit = default_permit

    @classmethod
    def permitting(cls, prefixes: Iterable[Prefix], name: str = "", le: Optional[int] = None) -> "PrefixList":
        """Permit exactly these prefixes (optionally their more-specifics up to /le)."""
        return cls(
            [PrefixListEntry(p, permit=True, ge=p.length if le else None, le=le) for p in prefixes],
            name=name,
        )

    def add(self, entry: PrefixListEntry) -> None:
        self.entries.append(entry)

    def permits(self, prefix: Prefix) -> bool:
        for entry in self.entries:
            if entry.matches(prefix):
                return entry.permit
        return self.default_permit

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class AsPathFilter:
    """Predicates over the AS path; all configured conditions must hold."""

    origin_in: Optional[FrozenSet[int]] = None
    contains_any: Optional[FrozenSet[int]] = None
    contains_none: Optional[FrozenSet[int]] = None
    max_length: Optional[int] = None
    min_length: Optional[int] = None
    first_asn_in: Optional[FrozenSet[int]] = None

    def matches(self, attributes: PathAttributes) -> bool:
        path = attributes.as_path
        if self.origin_in is not None and path.origin_asn not in self.origin_in:
            return False
        if self.contains_any is not None and not any(
            path.contains(asn) for asn in self.contains_any
        ):
            return False
        if self.contains_none is not None and any(
            path.contains(asn) for asn in self.contains_none
        ):
            return False
        if self.max_length is not None and path.length() > self.max_length:
            return False
        if self.min_length is not None and path.length() < self.min_length:
            return False
        if self.first_asn_in is not None and path.first_asn not in self.first_asn_in:
            return False
        return True


@dataclass(frozen=True)
class MatchConditions:
    """Conjunction of match clauses for one route-map term."""

    prefix_list: Optional[PrefixList] = None
    as_path: Optional[AsPathFilter] = None
    communities_any: Optional[FrozenSet[Community]] = None
    communities_all: Optional[FrozenSet[Community]] = None
    # RFC 6811 validation-state match (a route-map ``match rpki ...``).
    # A route never validated counts as NotFound, per RFC 8481.
    validation_in: Optional[FrozenSet[ValidationState]] = None
    custom: Optional[Callable[[Route], bool]] = None

    def matches(self, route: Route) -> bool:
        if self.prefix_list is not None and not self.prefix_list.permits(route.prefix):
            return False
        if self.as_path is not None and not self.as_path.matches(route.attributes):
            return False
        if self.validation_in is not None:
            state = (
                ValidationState.NOT_FOUND
                if route.validation is None
                else route.validation
            )
            if state not in self.validation_in:
                return False
        if self.communities_any is not None and not (
            route.attributes.communities & self.communities_any
        ):
            return False
        if self.communities_all is not None and not (
            self.communities_all <= route.attributes.communities
        ):
            return False
        if self.custom is not None and not self.custom(route):
            return False
        return True


@dataclass(frozen=True)
class SetActions:
    """Attribute rewrites applied when a permitting term matches."""

    local_pref: Optional[int] = None
    med: Optional[int] = None
    prepend: Tuple[int, ...] = ()
    add_communities: FrozenSet[Community] = frozenset()
    remove_communities: FrozenSet[Community] = frozenset()
    clear_communities: bool = False
    weight: Optional[int] = None
    # Stamp a fixed validation state, or run RFC 6811 validation against
    # a ROA registry (``validate_against`` wins when both are set and the
    # route's origin ASN is known).
    validation: Optional[ValidationState] = None
    validate_against: Optional[RoaRegistry] = None
    custom: Optional[Callable[[Route], Route]] = None

    def apply(self, route: Route) -> Route:
        attributes = route.attributes
        if self.local_pref is not None:
            attributes = attributes.with_local_pref(self.local_pref)
        if self.med is not None:
            attributes = attributes.with_med(self.med)
        for asn in reversed(self.prepend):
            attributes = attributes.prepended(asn)
        communities = attributes.communities
        if self.clear_communities:
            communities = frozenset()
        communities = (communities - self.remove_communities) | self.add_communities
        if communities != attributes.communities:
            attributes = attributes.with_communities(communities)
        route = route.with_attributes(attributes)
        if self.weight is not None:
            route = replace(route, weight=self.weight)
        if self.validation is not None:
            route = route.with_validation(self.validation)
        if self.validate_against is not None:
            origin = route.attributes.as_path.origin_asn
            if origin is not None:
                route = route.with_validation(
                    self.validate_against.validate(route.prefix, origin)
                )
        if self.custom is not None:
            route = self.custom(route)
        return route


@dataclass(frozen=True)
class RouteMapTerm:
    name: str
    permit: bool = True
    match: MatchConditions = field(default_factory=MatchConditions)
    actions: SetActions = field(default_factory=SetActions)


@dataclass(frozen=True)
class PolicyResult:
    """Outcome of applying a route map: the (possibly rewritten) route or a
    denial with the name of the term (or implicit default) that denied it."""

    route: Optional[Route]
    term: str

    @property
    def permitted(self) -> bool:
        return self.route is not None


class RouteMap:
    """Ordered route-map terms; first match wins; implicit deny at the end.

    An empty route map with ``default_permit=True`` is the identity policy.
    """

    PERMIT_ALL: "RouteMap"

    def __init__(
        self,
        terms: Iterable[RouteMapTerm] = (),
        name: str = "",
        default_permit: bool = False,
    ) -> None:
        self.name = name
        self.terms: List[RouteMapTerm] = list(terms)
        self.default_permit = default_permit

    def add(self, term: RouteMapTerm) -> None:
        self.terms.append(term)

    def apply(self, route: Route) -> PolicyResult:
        for term in self.terms:
            if term.match.matches(route):
                if not term.permit:
                    return PolicyResult(None, term.name)
                return PolicyResult(term.actions.apply(route), term.name)
        if self.default_permit:
            return PolicyResult(route, "<default-permit>")
        return PolicyResult(None, "<default-deny>")

    def __len__(self) -> int:
        return len(self.terms)


RouteMap.PERMIT_ALL = RouteMap(name="permit-all", default_permit=True)
