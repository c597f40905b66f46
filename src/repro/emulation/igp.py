"""A link-state IGP (OSPF-style) for emulated intradomain networks.

Each emulated PoP runs the IGP to learn shortest paths to every other
PoP; BGP next-hop resolution and the ``igp_metric`` input to the BGP
decision process come from here.  The implementation is a straight
Dijkstra over the emulation's link database — the from-scratch analogue
of the OSPF daemon MinineXt runs in each container.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["IGPError", "LinkStateDatabase", "SPFResult"]


class IGPError(Exception):
    """Raised for unknown nodes or malformed link state."""


@dataclass(frozen=True)
class SPFResult:
    """Shortest-path tree from one node."""

    source: str
    distance: Dict[str, float]
    next_hop: Dict[str, str]
    predecessor: Dict[str, str]

    def path_to(self, target: str) -> List[str]:
        """Node sequence from source to target (inclusive); [] if none."""
        if target == self.source:
            return [self.source]
        if target not in self.predecessor:
            return []
        path = [target]
        while path[-1] != self.source:
            path.append(self.predecessor[path[-1]])
        return list(reversed(path))

    def metric_to(self, target: str) -> Optional[float]:
        return self.distance.get(target)


class LinkStateDatabase:
    """The flooded topology every IGP speaker computes SPF over."""

    def __init__(self) -> None:
        self._nodes: Set[str] = set()
        self._links: Dict[str, Dict[str, float]] = {}

    def add_node(self, name: str) -> None:
        self._nodes.add(name)
        self._links.setdefault(name, {})

    def add_link(self, a: str, b: str, metric: float = 1.0) -> None:
        """Add (or update) a bidirectional link."""
        if metric <= 0:
            raise IGPError(f"metric must be positive, got {metric}")
        for name in (a, b):
            if name not in self._nodes:
                raise IGPError(f"unknown node {name!r}")
        self._links[a][b] = metric
        self._links[b][a] = metric

    def remove_link(self, a: str, b: str) -> None:
        self._links.get(a, {}).pop(b, None)
        self._links.get(b, {}).pop(a, None)

    def link_count(self) -> int:
        return sum(len(peers) for peers in self._links.values()) // 2

    def spf(self, source: str) -> SPFResult:
        """Dijkstra from ``source``; ties broken by node name for
        deterministic next hops."""
        if source not in self._nodes:
            raise IGPError(f"unknown node {source!r}")
        distance: Dict[str, float] = {source: 0.0}
        predecessor: Dict[str, str] = {}
        next_hop: Dict[str, str] = {}
        visited: Set[str] = set()
        heap: List[Tuple[float, str, Optional[str]]] = [(0.0, source, None)]
        while heap:
            dist, node, pred = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if pred is not None:
                predecessor[node] = pred
                next_hop[node] = next_hop.get(pred, node)
                if pred == source:
                    next_hop[node] = node
            for neighbor, metric in sorted(self._links[node].items()):
                candidate = dist + metric
                if neighbor not in visited and candidate < distance.get(
                    neighbor, float("inf")
                ):
                    distance[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor, node))
        return SPFResult(
            source=source, distance=distance, next_hop=next_hop, predecessor=predecessor
        )

    def converged_routes(self) -> Dict[str, SPFResult]:
        """SPF from every node (what a converged IGP domain knows)."""
        return {node: self.spf(node) for node in sorted(self._nodes)}
