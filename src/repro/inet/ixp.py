"""Internet exchange points, route servers, and the peering ecosystem.

§3 of the paper keys PEERING's connectivity strategy on three facts about
the modern Internet, all modeled here:

* **Route servers** give instant multilateral peering: one BGP session to
  the route server yields peering with every other route-server member
  (554 of AMS-IX's 669 members in the paper's deployment).
* **Open peering policies** are prevalent: many members not on the route
  server still accept bilateral requests from anyone.
* **Remote peering** providers extend one physical deployment to many
  IXPs over virtual layer 2.

An :class:`IXP` tracks its members and their peering behaviour;
:meth:`IXP.join_route_server` and :meth:`IXP.request_bilateral` mutate the
underlying :class:`~repro.inet.topology.ASGraph` by adding peer edges, so
the propagation engine immediately sees the new adjacency.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Set

from .topology import ASGraph, PeeringPolicy, TopologyError

__all__ = ["RequestOutcome", "PeeringRequest", "IXP", "RemotePeeringProvider"]


class RequestOutcome(Enum):
    """How a bilateral peering request ended (§4.1 "Obtaining peers")."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    NO_RESPONSE = "no-response"
    QUESTIONS = "questions"  # replied asking why we want to peer


# Acceptance behaviour by policy, matching the paper's experience: open
# policies almost always accept even a bare request ("the vast majority
# accepted ... a handful have not responded ... one replied with
# questions").
_ACCEPT_PROBABILITY: Dict[PeeringPolicy, float] = {
    PeeringPolicy.OPEN: 0.88,
    PeeringPolicy.SELECTIVE: 0.45,
    PeeringPolicy.CASE_BY_CASE: 0.40,
    PeeringPolicy.CLOSED: 0.0,
    PeeringPolicy.UNLISTED: 0.25,
}
_NO_RESPONSE_PROBABILITY: Dict[PeeringPolicy, float] = {
    PeeringPolicy.OPEN: 0.09,
    PeeringPolicy.SELECTIVE: 0.25,
    PeeringPolicy.CASE_BY_CASE: 0.30,
    PeeringPolicy.CLOSED: 0.50,
    PeeringPolicy.UNLISTED: 0.60,
}
_QUESTIONS_PROBABILITY: Dict[PeeringPolicy, float] = {
    PeeringPolicy.OPEN: 0.03,
    PeeringPolicy.SELECTIVE: 0.10,
    PeeringPolicy.CASE_BY_CASE: 0.15,
    PeeringPolicy.CLOSED: 0.05,
    PeeringPolicy.UNLISTED: 0.05,
}


@dataclass(frozen=True)
class PeeringRequest:
    requester: int
    target: int
    outcome: RequestOutcome

    @property
    def accepted(self) -> bool:
        return self.outcome is RequestOutcome.ACCEPTED


class IXP:
    """One exchange: a membership list, an optional route server, and the
    bilateral-request workflow."""

    def __init__(
        self,
        name: str,
        graph: ASGraph,
        country: str = "NL",
        has_route_server: bool = True,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.graph = graph
        self.country = country
        self.has_route_server = has_route_server
        self._members: Set[int] = set()
        self._route_server_members: Set[int] = set()
        # zlib.crc32, not hash(): str hashing is randomized per process
        # and would make peering outcomes differ between runs.
        self._rng = random.Random((zlib.crc32(name.encode()) & 0xFFFF) ^ seed)
        self.request_log: List[PeeringRequest] = []

    # -- membership -------------------------------------------------------------

    def add_member(self, asn: int, use_route_server: bool = False) -> None:
        node = self.graph.get(asn)
        self._members.add(asn)
        node.ixps.add(self.name)
        if use_route_server:
            if not self.has_route_server:
                raise TopologyError(f"{self.name} has no route server")
            self.join_route_server(asn)

    def members(self) -> Set[int]:
        return set(self._members)

    def member_count(self) -> int:
        return len(self._members)

    def route_server_members(self) -> Set[int]:
        return set(self._route_server_members)

    def non_route_server_members(self) -> Set[int]:
        return self._members - self._route_server_members

    def policy_census(self) -> Dict[PeeringPolicy, int]:
        """Peering-policy counts among members NOT on the route server —
        the population the paper characterizes (48/12/40/15 at AMS-IX)."""
        from .topology import ASKind

        census: Dict[PeeringPolicy, int] = {}
        for asn in self.non_route_server_members():
            node = self.graph.get(asn)
            if node.kind is ASKind.TESTBED:
                continue
            census[node.peering_policy] = census.get(node.peering_policy, 0) + 1
        return census

    # -- route server -------------------------------------------------------------

    def join_route_server(self, asn: int) -> Set[int]:
        """Connect ``asn`` to the route server: multilateral peering with
        every current route-server member.  Returns the set of new peers.

        This is the "instant peering with hundreds of ASes" effect from
        §4.1: a single session to the route server stands in for a full
        mesh of bilateral sessions.
        """
        if not self.has_route_server:
            raise TopologyError(f"{self.name} has no route server")
        if asn not in self._members:
            self.add_member(asn)
        gained: Set[int] = set()
        for other in self._route_server_members:
            if other == asn:
                continue
            if self.graph.relationship(asn, other) is None:
                self.graph.add_peering(asn, other)
                gained.add(other)
        self._route_server_members.add(asn)
        self.graph.get(asn).uses_route_server = True
        return gained

    # -- bilateral peering ------------------------------------------------------------

    def request_bilateral(self, requester: int, target: int) -> PeeringRequest:
        """Send a peering request; on acceptance the peer edge is added.

        The outcome is drawn from the target's published policy using this
        IXP's seeded RNG, so runs are reproducible.
        """
        if requester not in self._members or target not in self._members:
            raise TopologyError("both parties must be IXP members")
        if requester == target:
            raise TopologyError("cannot peer with self")
        policy = self.graph.get(target).peering_policy
        existing = self.graph.relationship(requester, target)
        if existing is not None:
            outcome = RequestOutcome.ACCEPTED  # already adjacent
        else:
            outcome = self._draw_outcome(policy)
            if outcome is RequestOutcome.ACCEPTED:
                self.graph.add_peering(requester, target)
        request = PeeringRequest(requester, target, outcome)
        self.request_log.append(request)
        return request

    def request_all_open(self, requester: int) -> List[PeeringRequest]:
        """Ask every open-policy non-route-server member to peer."""
        results = []
        for target in sorted(self.non_route_server_members()):
            if target == requester:
                continue
            if self.graph.get(target).peering_policy is PeeringPolicy.OPEN:
                results.append(self.request_bilateral(requester, target))
        return results

    def _draw_outcome(self, policy: PeeringPolicy) -> RequestOutcome:
        roll = self._rng.random()
        accept = _ACCEPT_PROBABILITY[policy]
        no_response = _NO_RESPONSE_PROBABILITY[policy]
        questions = _QUESTIONS_PROBABILITY[policy]
        if roll < accept:
            return RequestOutcome.ACCEPTED
        if roll < accept + no_response:
            return RequestOutcome.NO_RESPONSE
        if roll < accept + no_response + questions:
            return RequestOutcome.QUESTIONS
        return RequestOutcome.REJECTED


@dataclass
class RemotePeeringProvider:
    """Virtual layer-2 reach from one physical port to many IXPs (the
    Hibernia Networks arrangement in §3): joining through the provider
    makes the AS a member of each reachable IXP without new hardware."""

    name: str
    reachable_ixps: List[IXP] = field(default_factory=list)

    def extend(self, asn: int, use_route_server: bool = True) -> Dict[str, Set[int]]:
        """Join ``asn`` to every reachable IXP; returns peers gained per IXP."""
        gained: Dict[str, Set[int]] = {}
        for ixp in self.reachable_ixps:
            ixp.add_member(asn)
            if use_route_server and ixp.has_route_server:
                gained[ixp.name] = ixp.join_route_server(asn)
            else:
                gained[ixp.name] = set()
        return gained
