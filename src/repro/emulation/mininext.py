"""MinineXt: the container-based intradomain emulation manager.

The real MinineXt extends Mininet with better container isolation and
building blocks for Quagga and for connecting to PEERING servers (§3,
§4.2).  This module provides the same workflow on simulated containers:

1. build a topology of containers and links (e.g. from
   :func:`repro.emulation.topology_zoo.hurricane_electric`);
2. run a routing service (our BGP router + link-state IGP) in each;
3. connect them with iBGP between adjacent PoPs only, every router
   reflecting (the §4.2 setup, :meth:`MinineXt.ibgp_adjacent_sessions`);
4. couple the backbone to a PEERING mux through a client's BGP session
   (``examples/hurricane_electric_emulation.py``), so real(istic)
   interdomain routes flow through the emulated backbone and back out.

Addresses: each container gets a loopback out of 10.10.0.0/16 in creation
order; link metrics default to 1 (hop count IGP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..bgp.router import BGPRouter, PeerConfig
from ..net.addr import IPAddress
from ..net.channel import ChannelPair
from ..sim.engine import Engine
from .igp import LinkStateDatabase, SPFResult
from .quagga import QuaggaMemoryModel, QuaggaService
from .topology_zoo import ZooTopology

__all__ = ["Container", "MinineXt", "EmulationError"]


class EmulationError(Exception):
    """Raised for emulation misconfiguration (unknown containers etc.)."""


@dataclass
class Container:
    """A lightweight emulated network namespace."""

    name: str
    loopback: IPAddress
    service: Optional[QuaggaService] = None
    links: List[str] = field(default_factory=list)

    @property
    def has_router(self) -> bool:
        return self.service is not None


class MinineXt:
    """The emulation: containers + links + per-container routing services."""

    LOOPBACK_BASE = IPAddress("10.10.0.0")

    def __init__(self, engine: Optional[Engine] = None, name: str = "mininext") -> None:
        self.engine = engine or Engine()
        self.name = name
        self._containers: Dict[str, Container] = {}
        self.lsdb = LinkStateDatabase()
        self._spf_cache: Optional[Dict[str, SPFResult]] = None
        self._loopback_by_value: Dict[int, str] = {}
        self._next_host = 1

    # -- topology construction ------------------------------------------------

    def add_container(self, name: str) -> Container:
        if name in self._containers:
            raise EmulationError(f"duplicate container {name!r}")
        loopback = self.LOOPBACK_BASE + self._next_host
        self._next_host += 1
        container = Container(name=name, loopback=loopback)
        self._containers[name] = container
        self._loopback_by_value[loopback.value] = name
        self.lsdb.add_node(name)
        self._spf_cache = None
        return container

    def add_link(self, a: str, b: str, metric: float = 1.0) -> None:
        self._require(a), self._require(b)
        self.lsdb.add_link(a, b, metric)
        self._containers[a].links.append(b)
        self._containers[b].links.append(a)
        self._spf_cache = None

    def container(self, name: str) -> Container:
        return self._require(name)

    def _require(self, name: str) -> Container:
        try:
            return self._containers[name]
        except KeyError:
            raise EmulationError(f"unknown container {name!r}") from None

    @classmethod
    def from_zoo(cls, topology: ZooTopology, engine: Optional[Engine] = None) -> "MinineXt":
        """Build containers + links from a Topology Zoo graph."""
        emulation = cls(engine=engine, name=topology.name)
        for pop in topology.pops:
            emulation.add_container(pop.name)
        for a, b in topology.links:
            emulation.add_link(a, b)
        return emulation

    # -- routing services ----------------------------------------------------------

    def add_quagga(self, name: str, asn: int) -> QuaggaService:
        """Run a routing daemon in ``name`` (router id = loopback)."""
        container = self._require(name)
        if container.service is not None:
            raise EmulationError(f"{name!r} already runs a router")
        router = BGPRouter(self.engine, asn=asn, router_id=container.loopback)
        router.resolve_igp_metric = self._metric_resolver(name)
        service = QuaggaService(container=name, router=router)
        container.service = service
        return service

    def _metric_resolver(self, name: str) -> Callable[[IPAddress], int]:
        def resolve(next_hop: IPAddress) -> int:
            owner = self._loopback_by_value.get(next_hop.value)
            if owner is None:
                return 0  # external next hop: not an IGP destination
            spf = self._spf(name)
            metric = spf.metric_to(owner)
            return int(metric) if metric is not None else 2**31

        return resolve

    def _spf(self, source: str) -> SPFResult:
        if self._spf_cache is None:
            self._spf_cache = {}
        if source not in self._spf_cache:
            self._spf_cache[source] = self.lsdb.spf(source)
        return self._spf_cache[source]

    def igp_path(self, a: str, b: str) -> List[str]:
        """Container-level path the IGP would forward along."""
        return self._spf(a).path_to(b)

    # -- iBGP meshing ------------------------------------------------------------

    def ibgp_adjacent_sessions(self, mrai: float = 5.0) -> int:
        """iBGP sessions along physical links only (the §4.2 HE setup:
        "configured sessions between adjacent PoPs"), with every router
        acting as a reflector so routes relay across the backbone.

        ``mrai`` batches re-advertisements: with dozens of alternate
        reflection paths per prefix, immediate per-change exports explode
        into BGP path hunting, exactly the phenomenon MRAI exists to tame
        (run :meth:`converge` afterwards to let the rounds drain)."""
        count = 0
        seen = set()
        for name, container in self._containers.items():
            if not container.has_router:
                continue
            for neighbor in container.links:
                key = (min(name, neighbor), max(name, neighbor))
                if key in seen or not self._containers[neighbor].has_router:
                    continue
                seen.add(key)
                pair = ChannelPair(f"ibgp:{key[0]}<->{key[1]}")
                ra, rb = self._router(name), self._router(neighbor)
                sa = ra.add_peer(
                    PeerConfig(
                        peer_id=str(rb.router_id),
                        remote_asn=rb.asn,
                        local_address=ra.router_id,
                        route_reflector_client=True,
                        mrai=mrai,
                        description=f"{name}->{neighbor}",
                    ),
                    pair.a,
                )
                sb = rb.add_peer(
                    PeerConfig(
                        peer_id=str(ra.router_id),
                        remote_asn=ra.asn,
                        local_address=rb.router_id,
                        route_reflector_client=True,
                        mrai=mrai,
                        description=f"{neighbor}->{name}",
                    ),
                    pair.b,
                )
                sa.start()
                sb.start()
                count += 1
        return count

    def _router(self, name: str) -> BGPRouter:
        container = self._require(name)
        if container.service is None:
            raise EmulationError(f"{name!r} runs no router")
        return container.service.router

    # -- reporting ------------------------------------------------------------------

    def converge(self, duration: float = 60.0) -> int:
        """Run the event engine to let sessions and updates settle."""
        return self.engine.run_for(duration)

    def total_routes(self) -> Dict[str, int]:
        return {
            name: container.service.table_size()
            for name, container in self._containers.items()
            if container.service is not None
        }

    def modeled_memory_bytes(self, model: Optional[QuaggaMemoryModel] = None) -> int:
        """Memory a real MinineXt host would need for this emulation."""
        model = model or QuaggaMemoryModel()
        return sum(
            container.service.modeled_memory_bytes(model)
            for container in self._containers.values()
            if container.service is not None
        )
