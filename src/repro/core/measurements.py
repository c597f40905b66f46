"""Automatic control- and data-plane measurement collection.

§3: "We also automatically collect regular control and data plane
measurements towards PEERING prefixes."  Two collectors implement that:

* :class:`ControlPlaneCollector` — records, for every announced PEERING
  prefix, the route each vantage AS selected (a RouteViews-style view of
  the experiment), and can export the log as MRT records
  (:mod:`repro.bgp.mrt`).
* :class:`DataPlaneCollector` — sends periodic probes from vantage ASes
  toward PEERING prefixes through the simulated data plane, recording
  delivery status, AS path, and hop count (Hubble/LIFEGUARD-style
  reachability monitoring).

Both run on the event engine so experiments can interleave announcements
and measurement rounds in simulated time.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..bgp import mrt
from ..bgp.attributes import ASPath, PathAttributes
from ..bgp.messages import UpdateMessage
from ..inet.dataplane import DeliveryStatus
from ..net.addr import IPAddress, Prefix
from ..net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .testbed import Testbed

__all__ = [
    "RouteObservation",
    "ProbeObservation",
    "ControlPlaneCollector",
    "DataPlaneCollector",
]


@dataclass(frozen=True)
class RouteObservation:
    time: float
    vantage_asn: int
    prefix: Prefix
    as_path: Tuple[int, ...]
    reachable: bool


@dataclass(frozen=True)
class ProbeObservation:
    time: float
    vantage_asn: int
    prefix: Prefix
    status: DeliveryStatus
    path: Tuple[int, ...]

    @property
    def delivered(self) -> bool:
        return self.status is DeliveryStatus.DELIVERED


class ControlPlaneCollector:
    """Snapshots the control-plane view of announced PEERING prefixes."""

    def __init__(self, testbed: "Testbed", vantage_asns: Sequence[int]) -> None:
        self.testbed = testbed
        self.vantage_asns = list(vantage_asns)
        self.observations: List[RouteObservation] = []

    def collect(self) -> List[RouteObservation]:
        """One measurement round across all announced prefixes."""
        now = self.testbed.engine.now
        round_observations: List[RouteObservation] = []
        for prefix in self.testbed.announced_prefixes():
            outcome = self.testbed.outcome_for(prefix)
            if outcome is None:
                continue
            for vantage in self.vantage_asns:
                route = outcome.route(vantage)
                observation = RouteObservation(
                    time=now,
                    vantage_asn=vantage,
                    prefix=prefix,
                    as_path=route.path if route is not None else (),
                    reachable=route is not None,
                )
                round_observations.append(observation)
        self.observations.extend(round_observations)
        return round_observations

    def schedule_rounds(self, interval: float, rounds: int) -> None:
        for i in range(1, rounds + 1):
            self.testbed.engine.schedule(interval * i, self.collect, label="cp-collect")

    def export_mrt(self) -> bytes:
        """The observation log as BGP4MP records (one per observation)."""
        out = io.BytesIO()
        collector_addr = IPAddress("100.65.255.1")
        for observation in self.observations:
            if not observation.reachable:
                update = UpdateMessage.withdraw([observation.prefix])
            else:
                update = UpdateMessage.announce(
                    [observation.prefix],
                    PathAttributes(
                        as_path=ASPath.from_asns(observation.as_path),
                        next_hop=collector_addr,
                    ),
                )
            mrt.write_update(
                out,
                timestamp=observation.time,
                local_asn=self.testbed.asn,
                peer_asn=observation.vantage_asn,
                peer_address=collector_addr,
                local_address=collector_addr,
                update=update,
            )
        return out.getvalue()


class DataPlaneCollector:
    """Probes announced prefixes from vantage ASes (ping/traceroute)."""

    def __init__(self, testbed: "Testbed", vantage_asns: Sequence[int]) -> None:
        self.testbed = testbed
        self.vantage_asns = list(vantage_asns)
        self.observations: List[ProbeObservation] = []
        self._probe_src = IPAddress("192.0.2.1")  # TEST-NET: synthetic probes

    def collect(self) -> List[ProbeObservation]:
        now = self.testbed.engine.now
        round_observations: List[ProbeObservation] = []
        for prefix in self.testbed.announced_prefixes():
            target = prefix.first_address() + 1
            for vantage in self.vantage_asns:
                packet = Packet(src=self._probe_src, dst=target, proto="icmp-echo")
                delivery = self.testbed.dataplane.send(vantage, packet)
                round_observations.append(
                    ProbeObservation(
                        time=now,
                        vantage_asn=vantage,
                        prefix=prefix,
                        status=delivery.status,
                        path=delivery.path,
                    )
                )
        self.observations.extend(round_observations)
        return round_observations

    def schedule_rounds(self, interval: float, rounds: int) -> None:
        for i in range(1, rounds + 1):
            self.testbed.engine.schedule(interval * i, self.collect, label="dp-collect")
