"""The PEERING testbed: servers (muxes), clients, prefix allocation,
safety enforcement, scheduling, and measurement collection."""

from .allocation import Allocation, AllocationError, PrefixPool
from .client import Attachment, PeeringClient
from .experiment import (
    AdvisoryBoard,
    Experiment,
    ExperimentError,
    ExperimentStatus,
)
from .measurements import (
    ControlPlaneCollector,
    DataPlaneCollector,
    ProbeObservation,
    RouteObservation,
)
from .safety import SafetyConfig, SafetyDecision, SafetyEnforcer, SafetyVerdict
from .scheduler import (
    AnnouncementScheduler,
    ScheduledTask,
    SchedulerError,
    ScheduleStatus,
)
from .server import AnnouncementSpec, MuxMode, PeeringServer, SiteConfig, SiteKind
from .services import (
    Action,
    Match,
    PacketPipeline,
    Rule,
    ServiceHost,
    ServiceVM,
    Verdict,
)
from .testbed import PEERING_ASN, PEERING_SUPERNET, Testbed

__all__ = [
    "Allocation",
    "AllocationError",
    "PrefixPool",
    "Attachment",
    "PeeringClient",
    "AdvisoryBoard",
    "Experiment",
    "ExperimentError",
    "ExperimentStatus",
    "ControlPlaneCollector",
    "DataPlaneCollector",
    "ProbeObservation",
    "RouteObservation",
    "SafetyConfig",
    "SafetyDecision",
    "SafetyEnforcer",
    "SafetyVerdict",
    "AnnouncementScheduler",
    "ScheduledTask",
    "SchedulerError",
    "ScheduleStatus",
    "AnnouncementSpec",
    "MuxMode",
    "PeeringServer",
    "SiteConfig",
    "SiteKind",
    "Testbed",
    "PEERING_ASN",
    "PEERING_SUPERNET",
    "Action",
    "Match",
    "PacketPipeline",
    "Rule",
    "ServiceHost",
    "ServiceVM",
    "Verdict",
]
