"""AS-level Internet topology with business relationships.

The graph follows the standard model used by interdomain routing research
(and by the studies PEERING enables): nodes are ASes, edges carry a
relationship — customer-to-provider or settlement-free peer — and routing
policy derives from those relationships (Gao–Rexford, see
:mod:`repro.inet.routing`).

ASes carry the metadata §4.1 evaluates against: country, an optional set
of IXP memberships, a peering policy, a kind (transit / content / access /
enterprise), and the number of prefixes they originate.  Customer cones
(used for the "we peer with 13 of the top 50 ASes" result) are computed
here.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set,
    Tuple,
)

__all__ = [
    "Relationship",
    "PeeringPolicy",
    "ASKind",
    "ASNode",
    "ASGraph",
    "TopologyError",
]


class TopologyError(Exception):
    """Raised for malformed topologies (unknown AS, conflicting edges)."""


class Relationship(Enum):
    """Direction is encoded at lookup time: an edge is stored once."""

    CUSTOMER_PROVIDER = "c2p"  # first AS is the customer of the second
    PEER = "p2p"


class PeeringPolicy(Enum):
    """How an AS answers bilateral peering requests (PeeringDB-style)."""

    OPEN = "open"
    SELECTIVE = "selective"
    CASE_BY_CASE = "case-by-case"
    CLOSED = "closed"
    UNLISTED = "unlisted"


class ASKind(Enum):
    TIER1 = "tier1"
    TRANSIT = "transit"
    CONTENT = "content"
    ACCESS = "access"
    ENTERPRISE = "enterprise"
    IXP_ROUTE_SERVER = "route-server"
    TESTBED = "testbed"


@dataclass
class ASNode:
    """One autonomous system and its §4.1-relevant metadata."""

    asn: int
    name: str = ""
    country: str = "US"
    kind: ASKind = ASKind.ACCESS
    peering_policy: PeeringPolicy = PeeringPolicy.UNLISTED
    prefix_count: int = 1
    ixps: Set[str] = field(default_factory=set)
    uses_route_server: bool = False

    def __str__(self) -> str:
        return f"AS{self.asn}({self.name or self.kind.value})"


class ASGraph:
    """Mutable AS-level topology.

    Adjacency is stored per-AS as three sets — ``providers``, ``customers``,
    ``peers`` — which is exactly the shape the Gao–Rexford propagation
    engine consumes.

    Every mutation bumps :attr:`version`, which is what
    :class:`repro.inet.engine.PropagationEngine` keys its compiled
    topology and result cache on.  The frozen/sorted adjacency views
    returned by the accessors are cached between mutations so hot loops
    (route propagation, export checks) don't pay a set copy per call.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, ASNode] = {}
        self._providers: Dict[int, Set[int]] = {}
        self._customers: Dict[int, Set[int]] = {}
        self._peers: Dict[int, Set[int]] = {}
        self._version = 0
        # asn -> cached immutable view, dropped wholesale on mutation.
        self._fz_providers: Dict[int, FrozenSet[int]] = {}
        self._fz_customers: Dict[int, FrozenSet[int]] = {}
        self._fz_peers: Dict[int, FrozenSet[int]] = {}
        self._fz_neighbors: Dict[int, FrozenSet[int]] = {}
        self._sorted_providers: Dict[int, Tuple[int, ...]] = {}
        self._sorted_customers: Dict[int, Tuple[int, ...]] = {}
        self._sorted_peers: Dict[int, Tuple[int, ...]] = {}
        self._in_batch = False
        self._batch_dirty = False

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every node/edge mutation."""
        return self._version

    def _mutated(self) -> None:
        if self._in_batch:
            self._batch_dirty = True
            return
        self._version += 1
        self._fz_providers.clear()
        self._fz_customers.clear()
        self._fz_peers.clear()
        self._fz_neighbors.clear()
        self._sorted_providers.clear()
        self._sorted_customers.clear()
        self._sorted_peers.clear()

    @contextmanager
    def batch(self) -> Iterator["ASGraph"]:
        """Group many mutations into one version bump.

        Bulk construction (the 50k-AS generator adds ~10^5 edges) would
        otherwise bump :attr:`version` and clear the adjacency-view caches
        once per edge.  Inside the block mutations only mark the graph
        dirty; one bump-and-clear happens at exit (only if something
        actually mutated).  Cached adjacency views read *inside* the block
        may be stale — batch() is for build phases, not for interleaved
        read/write use.  Reentrant: nested batches defer to the outermost.
        """
        if self._in_batch:
            yield self
            return
        self._in_batch = True
        try:
            yield self
        finally:
            self._in_batch = False
            if self._batch_dirty:
                self._batch_dirty = False
                self._mutated()

    # -- nodes ---------------------------------------------------------------

    def add_as(self, node: ASNode) -> ASNode:
        if node.asn in self._nodes:
            raise TopologyError(f"AS{node.asn} already exists")
        self._nodes[node.asn] = node
        self._providers[node.asn] = set()
        self._customers[node.asn] = set()
        self._peers[node.asn] = set()
        self._mutated()
        return node

    def get(self, asn: int) -> ASNode:
        try:
            return self._nodes[asn]
        except KeyError:
            raise TopologyError(f"unknown AS{asn}") from None

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[ASNode]:
        return iter(self._nodes.values())

    def asns(self) -> Iterator[int]:
        return iter(self._nodes)

    def remove_as(self, asn: int) -> None:
        self.get(asn)
        for provider in list(self._providers[asn]):
            self._customers[provider].discard(asn)
        for customer in list(self._customers[asn]):
            self._providers[customer].discard(asn)
        for peer in list(self._peers[asn]):
            self._peers[peer].discard(asn)
        del self._nodes[asn], self._providers[asn], self._customers[asn], self._peers[asn]
        self._mutated()

    # -- edges -----------------------------------------------------------------

    def add_provider(self, customer: int, provider: int) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        if customer == provider:
            raise TopologyError("an AS cannot be its own provider")
        self.get(customer), self.get(provider)
        if provider in self._customers[customer] or provider in self._peers[customer]:
            raise TopologyError(
                f"AS{customer}-AS{provider} already related differently"
            )
        self._providers[customer].add(provider)
        self._customers[provider].add(customer)
        self._mutated()

    def add_peering(self, a: int, b: int) -> None:
        """Record a settlement-free peering between ``a`` and ``b``."""
        if a == b:
            raise TopologyError("an AS cannot peer with itself")
        self.get(a), self.get(b)
        if b in self._providers[a] or b in self._customers[a]:
            raise TopologyError(f"AS{a}-AS{b} already related differently")
        self._peers[a].add(b)
        self._peers[b].add(a)
        self._mutated()

    def remove_peering(self, a: int, b: int) -> None:
        self._peers[a].discard(b)
        self._peers[b].discard(a)
        self._mutated()

    def providers(self, asn: int) -> FrozenSet[int]:
        view = self._fz_providers.get(asn)
        if view is None:
            view = self._fz_providers[asn] = frozenset(self._providers[asn])
        return view

    def customers(self, asn: int) -> FrozenSet[int]:
        view = self._fz_customers.get(asn)
        if view is None:
            view = self._fz_customers[asn] = frozenset(self._customers[asn])
        return view

    def peers(self, asn: int) -> FrozenSet[int]:
        view = self._fz_peers.get(asn)
        if view is None:
            view = self._fz_peers[asn] = frozenset(self._peers[asn])
        return view

    def neighbors(self, asn: int) -> FrozenSet[int]:
        view = self._fz_neighbors.get(asn)
        if view is None:
            view = self._fz_neighbors[asn] = frozenset(
                self._providers[asn] | self._customers[asn] | self._peers[asn]
            )
        return view

    def sorted_providers(self, asn: int) -> Tuple[int, ...]:
        """Ascending-ASN provider tuple, cached between mutations (the
        propagation hot loops iterate these thousands of times)."""
        view = self._sorted_providers.get(asn)
        if view is None:
            view = self._sorted_providers[asn] = tuple(sorted(self._providers[asn]))
        return view

    def sorted_customers(self, asn: int) -> Tuple[int, ...]:
        view = self._sorted_customers.get(asn)
        if view is None:
            view = self._sorted_customers[asn] = tuple(sorted(self._customers[asn]))
        return view

    def sorted_peers(self, asn: int) -> Tuple[int, ...]:
        view = self._sorted_peers.get(asn)
        if view is None:
            view = self._sorted_peers[asn] = tuple(sorted(self._peers[asn]))
        return view

    def adjacency(self) -> Tuple[Mapping[int, AbstractSet[int]], ...]:
        """The live ``(providers, customers, peers)`` maps, asn -> set.

        For bulk readers (compiling, cone passes) that visit every AS once
        and would only fill the per-AS view caches with copies they never
        reuse.  Read-only: the sets are the graph's own, in insertion
        order, and change with it.
        """
        return self._providers, self._customers, self._peers

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        """The relationship of the a--b edge, or None.  For
        CUSTOMER_PROVIDER the orientation is "a is the customer"."""
        if b in self._providers[a]:
            return Relationship.CUSTOMER_PROVIDER
        if b in self._customers[a]:
            # b is a's customer: from a's side this is provider-to-customer;
            # callers wanting orientation should query (b, a).
            return Relationship.CUSTOMER_PROVIDER
        if b in self._peers[a]:
            return Relationship.PEER
        return None

    def edge_count(self) -> int:
        c2p = sum(len(s) for s in self._providers.values())
        p2p = sum(len(s) for s in self._peers.values()) // 2
        return c2p + p2p

    def relationship_edges(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Every edge exactly once, in a deterministic order.

        Customer-provider edges stream first as ``(customer, provider,
        CUSTOMER_PROVIDER)`` ordered by (customer, provider) ASN; peer
        edges follow as ``(lo, hi, PEER)`` ordered by (lo, hi).  This is
        the canonical ordering :func:`repro.inet.gen.dump_caida_serial`
        writes, so dump → load round-trips are byte-stable.
        """
        for asn in sorted(self._nodes):
            for provider in sorted(self._providers[asn]):
                yield asn, provider, Relationship.CUSTOMER_PROVIDER
        for asn in sorted(self._nodes):
            for peer in sorted(self._peers[asn]):
                if asn < peer:
                    yield asn, peer, Relationship.PEER

    # -- analysis ----------------------------------------------------------------

    def customer_cone(self, asn: int) -> Set[int]:
        """All ASes reachable by walking provider→customer edges (inclusive).

        The size of this set is CAIDA's AS-rank metric the paper cites.
        """
        self.get(asn)
        cone: Set[int] = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for customer in self._customers[current]:
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return cone

    def rank_by_cone(self) -> List[Tuple[int, int]]:
        """(asn, cone size) for every AS, largest cone first.

        Ties break by ASN so the ranking is deterministic.
        """
        sizes = [(asn, len(self.customer_cone(asn))) for asn in self._nodes]
        sizes.sort(key=lambda item: (-item[1], item[0]))
        return sizes

    def validate(self) -> None:
        """Check structural invariants; raises TopologyError on violation."""
        for asn in self._nodes:
            for provider in self._providers[asn]:
                if asn not in self._customers[provider]:
                    raise TopologyError(f"asymmetric c2p edge AS{asn}->AS{provider}")
            for peer in self._peers[asn]:
                if asn not in self._peers[peer]:
                    raise TopologyError(f"asymmetric p2p edge AS{asn}--AS{peer}")
            overlap = (
                self._providers[asn] & self._customers[asn]
                or self._providers[asn] & self._peers[asn]
                or self._customers[asn] & self._peers[asn]
            )
            if overlap:
                raise TopologyError(f"conflicting relationships at AS{asn}: {overlap}")

    def stub_asns(self) -> List[int]:
        """ASes with no customers (the edge of the Internet)."""
        return [asn for asn in self._nodes if not self._customers[asn]]

    def tier1_clique(self) -> List[int]:
        """ASes with no providers (the default-free zone)."""
        return [asn for asn in self._nodes if not self._providers[asn]]
