"""Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

A :class:`Route` binds a prefix to its path attributes and bookkeeping
(which peer sent it, its ADD-PATH identifier, whether it is locally
originated).  The three RIB stages follow RFC 4271 §3.2:

* :class:`AdjRIBIn` — routes learned from one peer, pre-policy.
* :class:`LocRIB` — the routes the decision process selected, one best
  route per prefix plus the losing candidates (kept for ADD-PATH export
  and for fast reconvergence on withdrawal).
* :class:`AdjRIBOut` — what has been advertised to one peer, post-policy,
  used to suppress duplicate updates and to generate withdrawals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..net.addr import Prefix
from .attributes import PathAttributes

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..secroute.rpki import ValidationState

__all__ = ["Route", "AdjRIBIn", "LocRIB", "AdjRIBOut"]


@dataclass(frozen=True)
class Route:
    """One candidate path for one prefix."""

    prefix: Prefix
    attributes: PathAttributes
    peer_asn: Optional[int] = None
    peer_id: str = ""
    path_id: Optional[int] = None
    ebgp: bool = True
    local: bool = False
    weight: int = 0
    igp_metric: int = 0
    learned_at: float = 0.0
    # RFC 4724: the route survived a graceful session restart and is kept
    # in the decision process until the peer re-advertises (or a deadline
    # flushes it).  Comparison field so marking shows up as a change.
    stale: bool = False
    # RFC 6811 origin-validation outcome, stamped by import policy or the
    # looking glass; None means validation never ran (treated as NotFound
    # by the decision process, per RFC 8481).
    validation: Optional["ValidationState"] = None

    def with_attributes(self, attributes: PathAttributes) -> "Route":
        return replace(self, attributes=attributes)

    def with_validation(self, validation: Optional["ValidationState"]) -> "Route":
        return replace(self, validation=validation)

    def key(self) -> Tuple[str, Optional[int]]:
        """Identity of this route within a prefix: (peer, path id)."""
        return (self.peer_id, self.path_id)

    def __str__(self) -> str:
        origin = "local" if self.local else f"peer {self.peer_id or self.peer_asn}"
        return f"{self.prefix} via {origin}: {self.attributes}"


class AdjRIBIn:
    """Routes received from a single peer, keyed by (prefix, path id).

    Without ADD-PATH there is implicitly one path per prefix (path id
    ``None``), so a new announcement replaces the old one.
    """

    def __init__(self, peer_id: str = "") -> None:
        self.peer_id = peer_id
        self._routes: Dict[Prefix, Dict[Optional[int], Route]] = {}

    def add(self, route: Route) -> Optional[Route]:
        """Insert/replace; returns the replaced route if any."""
        slot = self._routes.setdefault(route.prefix, {})
        previous = slot.get(route.path_id)
        slot[route.path_id] = route
        return previous

    def remove(self, prefix: Prefix, path_id: Optional[int] = None) -> Optional[Route]:
        slot = self._routes.get(prefix)
        if not slot:
            return None
        route = slot.pop(path_id, None)
        if not slot:
            del self._routes[prefix]
        return route

    def routes_for(self, prefix: Prefix) -> List[Route]:
        return list(self._routes.get(prefix, {}).values())

    def routes(self) -> Iterator[Route]:
        for slot in self._routes.values():
            yield from slot.values()

    def clear(self) -> List[Route]:
        """Drop everything (session reset); returns what was dropped."""
        dropped = list(self.routes())
        self._routes.clear()
        return dropped

    # -- graceful restart (RFC 4724) -------------------------------------

    def mark_all_stale(self) -> int:
        """Stale-mark every route (peer restarting); returns the count.

        Stale routes stay in the decision process; a re-announcement from
        the recovered peer replaces them (the fresh :class:`Route` carries
        ``stale=False``), and :meth:`flush_stale` sweeps the leftovers.
        """
        count = 0
        for slot in self._routes.values():
            for path_id, route in slot.items():
                if not route.stale:
                    slot[path_id] = replace(route, stale=True)
                    count += 1
        return count

    def flush_stale(self) -> List[Route]:
        """Drop every stale route (End-of-RIB or deadline); returns them."""
        dropped: List[Route] = []
        for prefix in list(self._routes):
            slot = self._routes[prefix]
            for path_id in list(slot):
                if slot[path_id].stale:
                    dropped.append(slot.pop(path_id))
            if not slot:
                del self._routes[prefix]
        return dropped

    def stale_count(self) -> int:
        return sum(1 for route in self.routes() if route.stale)

    def __len__(self) -> int:
        return sum(len(slot) for slot in self._routes.values())

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes


class LocRIB:
    """Selected routes: one best per prefix plus ranked alternates."""

    def __init__(self) -> None:
        self._best: Dict[Prefix, Route] = {}
        self._candidates: Dict[Prefix, List[Route]] = {}

    def set(self, prefix: Prefix, best: Optional[Route], candidates: List[Route]) -> bool:
        """Install the decision outcome; returns True if the best changed."""
        previous = self._best.get(prefix)
        if best is None:
            self._best.pop(prefix, None)
            self._candidates.pop(prefix, None)
            return previous is not None
        self._best[prefix] = best
        self._candidates[prefix] = candidates
        return previous != best

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._best.get(prefix)

    def candidates(self, prefix: Prefix) -> List[Route]:
        return self._candidates.get(prefix, [])

    def prefixes(self) -> Iterator[Prefix]:
        return iter(self._best)

    def routes(self) -> Iterator[Route]:
        return iter(self._best.values())

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best


class AdjRIBOut:
    """What has been advertised to one peer (post export policy)."""

    def __init__(self, peer_id: str = "") -> None:
        self.peer_id = peer_id
        self._routes: Dict[Prefix, Dict[Optional[int], Route]] = {}

    def advertise(self, route: Route) -> bool:
        """Record an advertisement; returns False if identical already sent."""
        slot = self._routes.setdefault(route.prefix, {})
        if slot.get(route.path_id) == route:
            return False
        slot[route.path_id] = route
        return True

    def withdraw(self, prefix: Prefix, path_id: Optional[int] = None) -> Optional[Route]:
        slot = self._routes.get(prefix)
        if not slot:
            return None
        route = slot.pop(path_id, None)
        if not slot:
            self._routes.pop(prefix, None)
        return route

    def path_ids(self, prefix: Prefix) -> List[Optional[int]]:
        return list(self._routes.get(prefix, {}).keys())

    def clear(self) -> List[Route]:
        """Forget all advertisements (session reset); returns them.

        After a session bounce the peer has lost everything we sent, so the
        next full export must re-advertise from scratch rather than being
        suppressed by the duplicate check.
        """
        dropped = list(self.routes())
        self._routes.clear()
        return dropped

    def routes(self) -> Iterator[Route]:
        for slot in self._routes.values():
            yield from slot.values()

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes
