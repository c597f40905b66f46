"""Simulated Internet substrate: AS topology, Gao–Rexford propagation,
IXPs with route servers, peering ecosystem, and an AS-level data plane."""

from .analysis import (
    PeerReachability,
    country_coverage,
    peer_export_sizes,
    peer_reachability,
    top_cone_overlap,
)
from .dataplane import DataPlane, Delivery, DeliveryStatus
from .engine import (
    CompiledOutcome,
    CompiledTopology,
    OutcomeCache,
    PropagationEngine,
)
from .gen import AmsIxConfig, Internet, InternetConfig, build_amsix, build_internet
from .ixp import IXP, PeeringRequest, RemotePeeringProvider, RequestOutcome
from .routing import Announcement, ASRoute, OriginSpec, RouteKind, RoutingOutcome, propagate
from .topology import (
    ASGraph,
    ASKind,
    ASNode,
    PeeringPolicy,
    Relationship,
    TopologyError,
)

__all__ = [
    "PeerReachability",
    "country_coverage",
    "peer_export_sizes",
    "peer_reachability",
    "top_cone_overlap",
    "DataPlane",
    "Delivery",
    "DeliveryStatus",
    "CompiledOutcome",
    "CompiledTopology",
    "OutcomeCache",
    "PropagationEngine",
    "AmsIxConfig",
    "Internet",
    "InternetConfig",
    "build_amsix",
    "build_internet",
    "IXP",
    "PeeringRequest",
    "RemotePeeringProvider",
    "RequestOutcome",
    "Announcement",
    "ASRoute",
    "OriginSpec",
    "RouteKind",
    "RoutingOutcome",
    "propagate",
    "ASGraph",
    "ASKind",
    "ASNode",
    "PeeringPolicy",
    "Relationship",
    "TopologyError",
]
