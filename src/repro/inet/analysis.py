"""Connectivity analysis over the AS graph — the §4.1 measurements.

The key identity: under Gao–Rexford export rules, the routes an AS *X*
advertises to a settlement-free peer are exactly its own prefixes plus
its customer-learned routes, i.e. the prefixes originated inside X's
customer cone.  That makes peer-route reachability computable directly
from cones without propagating every prefix:

    reachable-via-peers(M) = union of customer_cone(X) for X in peers(M)

which is how ``bench_amsix_reach`` counts "peer routes to 131K prefixes,
a quarter of the Internet" and how per-peer export-table sizes
("only 5 peers give us more than 10K routes") are derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .topology import ASGraph

__all__ = [
    "PeerReachability",
    "peer_reachability",
    "peer_export_sizes",
    "country_coverage",
    "top_cone_overlap",
]


@dataclass
class PeerReachability:
    """Everything §4.1 reports about what peering buys an AS."""

    asn: int
    peer_count: int
    reachable_asns: Set[int]
    reachable_prefixes: int
    total_prefixes: int
    per_peer_prefixes: Dict[int, int]

    @property
    def prefix_fraction(self) -> float:
        return self.reachable_prefixes / self.total_prefixes if self.total_prefixes else 0.0


def peer_reachability(graph: ASGraph, asn: int) -> PeerReachability:
    """Compute what ``asn`` can reach via peer routes alone (no transit).

    "Reachable" means a peer exports a route for it: the destination AS is
    in some peer's customer cone (or is the peer itself).
    """
    peers = sorted(graph.peers(asn))
    reachable: Set[int] = set()
    per_peer: Dict[int, int] = {}
    cone_cache: Dict[int, Set[int]] = {}
    for peer in peers:
        cone = cone_cache.get(peer)
        if cone is None:
            cone = graph.customer_cone(peer)
            cone_cache[peer] = cone
        per_peer[peer] = sum(graph.get(member).prefix_count for member in cone)
        reachable |= cone
    reachable.discard(asn)
    reachable_prefixes = sum(graph.get(member).prefix_count for member in reachable)
    total = sum(node.prefix_count for node in graph.nodes())
    return PeerReachability(
        asn=asn,
        peer_count=len(peers),
        reachable_asns=reachable,
        reachable_prefixes=reachable_prefixes,
        total_prefixes=total,
        per_peer_prefixes=per_peer,
    )


def peer_export_sizes(graph: ASGraph, asn: int) -> List[Tuple[int, int]]:
    """(peer, #prefixes that peer exports to us), largest first.

    Reproduces the §4.2 aside: "only our 5 largest peers give us more than
    10K routes, and 307 give us fewer than 100 routes."
    """
    reach = peer_reachability(graph, asn)
    return sorted(reach.per_peer_prefixes.items(), key=lambda kv: (-kv[1], kv[0]))


def country_coverage(graph: ASGraph, asns: Set[int]) -> Set[str]:
    """Countries spanned by a set of ASes ("peers based in 59 countries")."""
    return {graph.get(asn).country for asn in asns}


def top_cone_overlap(
    graph: ASGraph, asns: Set[int], cutoffs: Tuple[int, ...] = (50, 100)
) -> Dict[int, int]:
    """How many of the top-K ASes (by customer cone) appear in ``asns``.

    Reproduces "we peer with at least 13 of the 50 largest ASes and 27 of
    the largest 100, as ranked by the size of their customer cones."
    """
    ranked = [asn for asn, _ in graph.rank_by_cone()]
    return {
        cutoff: len(set(ranked[:cutoff]) & asns)
        for cutoff in cutoffs
    }
