"""Capability models of the testbeds compared in Table 1.

Table 1 scores eight platforms against the six §2 goals.  Rather than
hard-coding the table, each platform is modeled as a
:class:`TestbedModel` whose capability answers derive from structural
facts about the platform (can it speak BGP? at how many sites? does it
run user code? can resources persist? ...), and a scenario harness
(:func:`evaluate`, :func:`capability_matrix`) derives the ✓/≈/✗ cells.
``benchmarks/bench_table1_capabilities.py`` regenerates the table from
this module and checks it against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

__all__ = [
    "Support",
    "Goal",
    "TestbedModel",
    "ALL_TESTBEDS",
    "evaluate",
    "capability_matrix",
    "PAPER_TABLE_1",
]


class Support(Enum):
    YES = "yes"
    LIMITED = "limited"
    NO = "no"

    @property
    def symbol(self) -> str:
        return {"yes": "✓", "limited": "≈", "no": "✗"}[self.value]


class Goal(Enum):
    INTERDOMAIN = "interdomain"  # control of interdomain routes
    RICH_CONNECTIVITY = "rich-connectivity"
    TRAFFIC = "traffic"  # control of data-plane traffic
    REAL_SERVICES = "real-services"
    INTRADOMAIN = "intradomain"  # control of intradomain topology/routing
    OPEN_SIMULTANEOUS = "open-simultaneous"


@dataclass(frozen=True)
class TestbedModel:
    """Structural facts about a platform, from which goal support derives.

    The fields deliberately describe *mechanisms*, not conclusions:

    * ``bgp_sessions`` — can users originate/withdraw real BGP routes?
      ``"full"`` (arbitrary announcements), ``"beacon"`` (fixed schedule),
      ``"none"``.
    * ``upstream_diversity`` — distinct networks routes/traffic enter
      through: ``"many"`` (hundreds, IXP-scale), ``"several"``, ``"few"``.
    * ``sends_traffic`` / ``receives_traffic`` — data-plane abilities.
    * ``user_code`` — can researchers run their own programs?
    * ``persistent_resources`` — can a deployment hold resources long
      enough to run a service?
    * ``emulates_topology`` — can users define internal topology/routing?
    * ``shared_concurrent`` — open platform with simultaneous experiments?
    """

    name: str
    short: str
    bgp_sessions: str = "none"  # "full" | "beacon" | "none"
    upstream_diversity: str = "few"  # "many" | "several" | "few"
    observes_routes: bool = False
    sends_traffic: bool = False
    receives_traffic: bool = False
    user_code: bool = False
    persistent_resources: bool = False
    emulates_topology: bool = False
    shared_concurrent: bool = False
    vantage_points: int = 1


def _interdomain(model: TestbedModel) -> Support:
    if model.bgp_sessions == "full":
        return Support.YES
    if model.bgp_sessions == "beacon":
        return Support.LIMITED
    return Support.NO


def _rich_connectivity(model: TestbedModel) -> Support:
    # Route/traffic entry points across many networks: either lots of
    # vantage points (PlanetLab, collectors) or IXP-scale peering.
    if model.upstream_diversity == "many" or model.vantage_points >= 100:
        return Support.YES
    return Support.NO


def _traffic(model: TestbedModel) -> Support:
    if model.sends_traffic and model.receives_traffic:
        return Support.YES
    if model.sends_traffic or model.receives_traffic:
        return Support.LIMITED
    return Support.NO


def _real_services(model: TestbedModel) -> Support:
    if model.user_code and model.persistent_resources and model.receives_traffic:
        return Support.YES
    return Support.NO


def _intradomain(model: TestbedModel) -> Support:
    return Support.YES if model.emulates_topology else Support.NO


def _open_simultaneous(model: TestbedModel) -> Support:
    return Support.YES if model.shared_concurrent else Support.NO


_EVALUATORS = {
    Goal.INTERDOMAIN: _interdomain,
    Goal.RICH_CONNECTIVITY: _rich_connectivity,
    Goal.TRAFFIC: _traffic,
    Goal.REAL_SERVICES: _real_services,
    Goal.INTRADOMAIN: _intradomain,
    Goal.OPEN_SIMULTANEOUS: _open_simultaneous,
}


def evaluate(model: TestbedModel, goal: Goal) -> Support:
    """Derive one table cell from the platform's structural facts."""
    return _EVALUATORS[goal](model)


def capability_matrix(
    models: Optional[List[TestbedModel]] = None,
) -> Dict[str, Dict[Goal, Support]]:
    """The full Table 1 as {testbed short name: {goal: support}}."""
    return {
        model.short: {goal: evaluate(model, goal) for goal in Goal}
        for model in (models or ALL_TESTBEDS)
    }


PLANETLAB = TestbedModel(
    name="PlanetLab",
    short="PL",
    bgp_sessions="none",
    vantage_points=700,  # hundreds of sites with distinct upstreams
    sends_traffic=True,
    receives_traffic=True,
    user_code=True,
    persistent_resources=True,
    emulates_topology=False,  # end hosts; no sensible intradomain emulation
    shared_concurrent=True,
)

VINI = TestbedModel(
    name="VINI",
    short="VN",
    bgp_sessions="none",  # emulated networks cannot exchange routes with the Internet
    vantage_points=10,
    sends_traffic=True,
    receives_traffic=True,
    user_code=True,
    persistent_resources=True,
    emulates_topology=True,
    shared_concurrent=True,
)

EMULAB = TestbedModel(
    name="Emulab",
    short="EM",
    bgp_sessions="none",
    vantage_points=1,
    sends_traffic=True,
    receives_traffic=True,
    user_code=True,
    persistent_resources=False,  # allocations are time-bounded; no services
    emulates_topology=True,
    shared_concurrent=True,
)

MININET = TestbedModel(
    name="Mininet",
    short="MN",
    bgp_sessions="none",
    vantage_points=1,
    sends_traffic=True,
    receives_traffic=True,
    user_code=True,
    persistent_resources=False,  # a laptop tool, not a hosting platform
    emulates_topology=True,
    shared_concurrent=True,
)

ROUTE_COLLECTORS = TestbedModel(
    name="Route Collectors (RouteViews/RIPE RIS)",
    short="RC",
    bgp_sessions="none",  # observe only
    observes_routes=True,
    upstream_diversity="many",
    vantage_points=500,
    sends_traffic=False,
    receives_traffic=False,
    user_code=False,
    persistent_resources=False,
    emulates_topology=False,
    shared_concurrent=True,  # data is open to everyone at once
)

BEACONS = TestbedModel(
    name="BGP Beacons",
    short="BC",
    bgp_sessions="beacon",  # scheduled, fixed announcements only
    vantage_points=3,
    sends_traffic=False,
    receives_traffic=False,
    user_code=False,
    persistent_resources=False,
    emulates_topology=False,
    shared_concurrent=False,  # one fixed schedule; not open experimentation
)

TRANSIT_PORTAL = TestbedModel(
    name="Transit Portal",
    short="TP",
    bgp_sessions="full",
    upstream_diversity="few",  # a handful of university upstreams
    vantage_points=5,
    sends_traffic=False,  # limited: forwards transit but no active-measurement support
    receives_traffic=True,
    user_code=True,
    persistent_resources=True,
    emulates_topology=False,  # forwards between upstreams and clients only
    shared_concurrent=False,  # effectively dedicated deployments
)

PEERING = TestbedModel(
    name="PEERING",
    short="PR",
    bgp_sessions="full",
    upstream_diversity="many",  # IXP route servers + bilateral + universities
    vantage_points=9,
    sends_traffic=True,
    receives_traffic=True,
    user_code=True,
    persistent_resources=True,
    emulates_topology=True,  # via MinineXt / VINI coupling
    shared_concurrent=True,  # client per /24, vetted experiments
)

ALL_TESTBEDS: List[TestbedModel] = [
    PLANETLAB,
    VINI,
    EMULAB,
    MININET,
    ROUTE_COLLECTORS,
    BEACONS,
    TRANSIT_PORTAL,
    PEERING,
]


# The paper's Table 1, for verification (row -> short -> symbol).
PAPER_TABLE_1: Dict[Goal, Dict[str, str]] = {
    Goal.INTERDOMAIN: {
        "PL": "✗", "VN": "✗", "EM": "✗", "MN": "✗",
        "RC": "✗", "BC": "≈", "TP": "✓", "PR": "✓",
    },
    Goal.RICH_CONNECTIVITY: {
        "PL": "✓", "VN": "✗", "EM": "✗", "MN": "✗",
        "RC": "✓", "BC": "✗", "TP": "✗", "PR": "✓",
    },
    Goal.TRAFFIC: {
        "PL": "✓", "VN": "✓", "EM": "✓", "MN": "✓",
        "RC": "✗", "BC": "✗", "TP": "≈", "PR": "✓",
    },
    Goal.REAL_SERVICES: {
        "PL": "✓", "VN": "✓", "EM": "✗", "MN": "✗",
        "RC": "✗", "BC": "✗", "TP": "✓", "PR": "✓",
    },
    Goal.INTRADOMAIN: {
        "PL": "✗", "VN": "✓", "EM": "✓", "MN": "✓",
        "RC": "✗", "BC": "✗", "TP": "✗", "PR": "✓",
    },
    Goal.OPEN_SIMULTANEOUS: {
        "PL": "✓", "VN": "✓", "EM": "✓", "MN": "✓",
        "RC": "✓", "BC": "✗", "TP": "✗", "PR": "✓",
    },
}


def no_two_combine() -> bool:
    """The paper's closing claim for Table 1: no two non-PEERING systems
    together cover every goal PEERING covers."""
    matrix = capability_matrix()
    others = [m.short for m in ALL_TESTBEDS if m.short != "PR"]
    peering_goals = {
        goal for goal, support in matrix["PR"].items() if support is Support.YES
    }
    for i, a in enumerate(others):
        for b in others[i + 1 :]:
            combined = {
                goal
                for goal in Goal
                if matrix[a][goal] is Support.YES or matrix[b][goal] is Support.YES
            }
            if peering_goals <= combined:
                return False
    return True
