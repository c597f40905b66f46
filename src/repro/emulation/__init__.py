"""MinineXt-style intradomain emulation: containers, link-state IGP,
per-PoP routing daemons, Topology Zoo data."""

from .igp import IGPError, LinkStateDatabase, SPFResult
from .mininext import Container, EmulationError, MinineXt
from .quagga import QuaggaMemoryModel, QuaggaService
from .topology_zoo import PoP, ZooTopology, hurricane_electric

__all__ = [
    "IGPError",
    "LinkStateDatabase",
    "SPFResult",
    "Container",
    "EmulationError",
    "MinineXt",
    "QuaggaMemoryModel",
    "QuaggaService",
    "PoP",
    "ZooTopology",
    "hurricane_electric",
]
