"""Quagga-style routing engine services and their memory model.

Two things live here:

* :class:`QuaggaService` — the per-container routing daemon wrapper the
  MinineXt manager instantiates for each PoP: a full
  :class:`~repro.bgp.router.BGPRouter` plus bookkeeping (which container
  it runs in, which prefixes it originates).

* :class:`QuaggaMemoryModel` — an analytic model of Quagga's BGP table
  memory, calibrated to the shape of Figure 2: a per-process baseline,
  a per-distinct-prefix cost (struct bgp_node and prefix storage), and a
  per-path cost paid for every (prefix, peer) path retained in the
  Adj-RIB-In.  Figure 2's "memory grows with both prefixes and peers"
  is exactly ``base + P*node + P*N*path``.

The benchmark for Figure 2 reports this model *and* the actually-measured
memory of our own RIB implementation under the same workload (via
tracemalloc), so the figure can be regenerated from either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..net.addr import Prefix
from ..bgp.router import BGPRouter

__all__ = ["QuaggaMemoryModel", "QuaggaService"]


@dataclass(frozen=True)
class QuaggaMemoryModel:
    """Bytes of BGP table memory as a function of table shape.

    Defaults are calibrated to public Quagga measurements of the era (a
    full ~500K-prefix table with one full-feed peer sat near 400–500 MB
    of table memory).
    """

    baseline: int = 35 * 1024 * 1024  # process + daemon overhead
    per_prefix: int = 130  # struct bgp_node + prefix + rib glue
    per_path: int = 800  # struct bgp_info + attr share per (prefix, peer)

    def table_bytes(self, prefixes: int, peers: int) -> int:
        """Memory for ``peers`` each sending ``prefixes`` routes to one
        router (the Figure 2 workload)."""
        return (
            self.baseline
            + prefixes * self.per_prefix
            + prefixes * peers * self.per_path
        )

    def table_megabytes(self, prefixes: int, peers: int) -> float:
        return self.table_bytes(prefixes, peers) / (1024 * 1024)


@dataclass
class QuaggaService:
    """A routing daemon bound to one emulated container."""

    container: str
    router: BGPRouter
    originated: List[Prefix] = field(default_factory=list)

    def originate(self, prefix: Prefix, **kwargs) -> None:
        self.router.originate(prefix, **kwargs)
        self.originated.append(prefix)

    def table_size(self) -> int:
        return self.router.table_size()

    def adj_in_size(self) -> int:
        return self.router.adj_in_size()

    def modeled_memory_bytes(self, model: Optional[QuaggaMemoryModel] = None) -> int:
        """What this router's current table would cost a real Quagga."""
        model = model or QuaggaMemoryModel()
        prefixes = self.table_size()
        paths = self.adj_in_size()
        return model.baseline + prefixes * model.per_prefix + paths * model.per_path
