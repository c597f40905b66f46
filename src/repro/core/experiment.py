"""Experiments and the vetting workflow.

PEERING isolates simultaneous experiments by giving each its own prefixes
(§3 "Supporting multiple simultaneous experiments") and vets proposals
through an advisory board before provisioning (§3 "Easing management").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Set

from ..net.addr import Prefix

__all__ = ["ExperimentStatus", "ExperimentError", "Experiment", "AdvisoryBoard"]


class ExperimentError(Exception):
    """Raised for lifecycle violations (announcing before approval, etc.)."""


class ExperimentStatus(Enum):
    PROPOSED = "proposed"
    APPROVED = "approved"
    ACTIVE = "active"
    RETIRED = "retired"
    REJECTED = "rejected"


@dataclass
class Experiment:
    """One research experiment: its identity, state, and resources."""

    name: str
    researcher: str
    description: str = ""
    needs_spoofing: bool = False
    status: ExperimentStatus = ExperimentStatus.PROPOSED
    prefixes: List[Prefix] = field(default_factory=list)
    clients: Set[str] = field(default_factory=set)

    def require_active(self) -> None:
        if self.status is not ExperimentStatus.ACTIVE:
            raise ExperimentError(
                f"experiment {self.name!r} is {self.status.value}, not active"
            )

    def owns(self, prefix: Prefix) -> bool:
        return any(owned.contains(prefix) for owned in self.prefixes)


class AdvisoryBoard:
    """The review gate: experiments must be approved before resources are
    provisioned.  Policy here is deliberately simple — spoofing requests
    require explicit justification — but the gate is where a deployment
    would hang its real review process."""

    def __init__(self) -> None:
        self.reviewed: List[str] = []

    def review(self, experiment: Experiment) -> ExperimentStatus:
        self.reviewed.append(experiment.name)
        if experiment.needs_spoofing and not experiment.description:
            experiment.status = ExperimentStatus.REJECTED
            return experiment.status
        experiment.status = ExperimentStatus.APPROVED
        return experiment.status
