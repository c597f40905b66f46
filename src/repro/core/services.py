"""Server-side packet processing — the "real services" machinery (§3).

The paper: "Researchers can also run lightweight code in VMs on PEERING
servers to process packets.  They can rewrite, rate-limit, or DPI
traffic; coordinate with an SDN controller; or deploy services. ...
Going forward, we plan to expose a lightweight packet processing API
(e.g., running an OpenFlow software switch or extending Linux's
iptables) to provide common packet processing capabilities to clients at
lower overhead."

Two tiers mirror that design:

* :class:`ServiceVM` — arbitrary researcher code: a callback receiving
  every packet that transits the server's AS, returning what to do with
  it (flexible, "high overhead").
* :class:`PacketPipeline` — the planned lightweight API: an ordered
  match/action rule table (an OpenFlow-flavored subset) evaluated before
  any VM runs; common operations (drop, rewrite, rate-limit, count,
  divert-to-client) execute without researcher code.

Both attach to a :class:`~repro.core.server.PeeringServer` through
:class:`ServiceHost`, which hooks the testbed data plane's tap at the
PEERING AS.  The ARROW- and decoy-routing-style examples are built on
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..net.addr import IPAddress, Prefix
from ..net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .server import PeeringServer

__all__ = [
    "Action",
    "Verdict",
    "Match",
    "Rule",
    "PacketPipeline",
    "ServiceVM",
    "ServiceHost",
]


class Action(Enum):
    ACCEPT = "accept"  # continue normal forwarding
    DROP = "drop"
    REWRITE = "rewrite"  # substitute the returned packet
    DIVERT = "divert"  # tunnel to a client instead of forwarding


@dataclass(frozen=True)
class Verdict:
    """What a rule or VM decided about one packet."""

    action: Action
    packet: Optional[Packet] = None  # for REWRITE
    client_id: Optional[str] = None  # for DIVERT

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(Action.ACCEPT)

    @classmethod
    def drop(cls) -> "Verdict":
        return cls(Action.DROP)

    @classmethod
    def rewrite(cls, packet: Packet) -> "Verdict":
        return cls(Action.REWRITE, packet=packet)

    @classmethod
    def divert(cls, client_id: str) -> "Verdict":
        return cls(Action.DIVERT, client_id=client_id)


@dataclass(frozen=True)
class Match:
    """Flow match: every specified field must hit (None = wildcard)."""

    src: Optional[Prefix] = None
    dst: Optional[Prefix] = None
    proto: Optional[str] = None

    def hits(self, packet: Packet) -> bool:
        if self.src is not None and packet.src not in self.src:
            return False
        if self.dst is not None and packet.dst not in self.dst:
            return False
        if self.proto is not None and packet.proto != self.proto:
            return False
        return True


@dataclass
class Rule:
    """One pipeline entry: match → action, with counters and an optional
    token-bucket rate limit (packets per window)."""

    name: str
    match: Match
    action: Action = Action.ACCEPT
    rewrite_dst: Optional[IPAddress] = None
    rewrite_src: Optional[IPAddress] = None
    divert_to: Optional[str] = None
    rate_limit: Optional[int] = None
    hits: int = 0
    dropped_by_rate: int = 0
    _window_used: int = field(default=0, repr=False)

    def apply(self, packet: Packet) -> Verdict:
        self.hits += 1
        if self.rate_limit is not None:
            if self._window_used >= self.rate_limit:
                self.dropped_by_rate += 1
                return Verdict.drop()
            self._window_used += 1
        if self.action is Action.DROP:
            return Verdict.drop()
        if self.action is Action.DIVERT:
            return Verdict.divert(self.divert_to or "")
        if self.action is Action.REWRITE:
            rewritten = packet
            if self.rewrite_dst is not None:
                rewritten = replace(rewritten, dst=self.rewrite_dst)
            if self.rewrite_src is not None:
                rewritten = replace(rewritten, src=self.rewrite_src)
            return Verdict.rewrite(rewritten)
        return Verdict.accept()

    def tick(self) -> None:
        self._window_used = 0


class PacketPipeline:
    """An ordered rule table; first matching rule decides."""

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self.rules: List[Rule] = []
        self.default = Verdict.accept()
        self.processed = 0

    def add_rule(self, rule: Rule, index: Optional[int] = None) -> Rule:
        if index is None:
            self.rules.append(rule)
        else:
            self.rules.insert(index, rule)
        return rule

    def remove_rule(self, name: str) -> bool:
        before = len(self.rules)
        self.rules = [r for r in self.rules if r.name != name]
        return len(self.rules) != before

    def rule(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(name)

    def evaluate(self, packet: Packet) -> Verdict:
        self.processed += 1
        for rule in self.rules:
            if rule.match.hits(packet):
                return rule.apply(packet)
        return self.default

    def tick(self) -> None:
        """Advance rate-limit windows (call once per simulated second)."""
        for rule in self.rules:
            rule.tick()


@dataclass
class ServiceVM:
    """Researcher code running on the server: full flexibility, runs
    after the pipeline for packets the pipeline ACCEPTs."""

    name: str
    handler: Callable[[Packet], Verdict]

    def process(self, packet: Packet) -> Verdict:
        return self.handler(packet)


class ServiceHost:
    """Attaches packet processing to a PEERING server.

    Evaluation order per packet transiting the PEERING AS:

    1. the pipeline (lightweight API);
    2. each VM in registration order, until one returns non-ACCEPT.

    DROP verdicts are enforced by poisoning the packet's fate via the
    data-plane tap contract: the host records the drop and the testbed's
    tap-based enforcement point (installed here) raises the drop to the
    data plane.
    """

    def __init__(self, server: "PeeringServer") -> None:
        self.server = server
        self.pipeline = PacketPipeline(f"{server.site.name}:pipeline")
        self.vms: List[ServiceVM] = []
        self.dropped: List[Packet] = []
        self.diverted: List[Tuple[str, Packet]] = []
        self.rewritten: List[Tuple[Packet, Packet]] = []
        server.testbed.dataplane.register_tap(server.asn, self._tap)
        self._reentry = False

    def run_vm(self, name: str, handler: Callable[[Packet], Verdict]) -> ServiceVM:
        vm = ServiceVM(name=name, handler=handler)
        self.vms.append(vm)
        return vm

    def stop_vm(self, name: str) -> bool:
        before = len(self.vms)
        self.vms = [vm for vm in self.vms if vm.name != name]
        return len(self.vms) != before

    def _decide(self, packet: Packet) -> Verdict:
        verdict = self.pipeline.evaluate(packet)
        if verdict.action is not Action.ACCEPT:
            return verdict
        for vm in self.vms:
            verdict = vm.process(packet)
            if verdict.action is not Action.ACCEPT:
                return verdict
        return Verdict.accept()

    def _tap(self, packet: Packet) -> None:
        """Observe + act on a transiting packet.

        The simulated data plane's tap is observe-only, so enforcement is
        recorded here and applied by :meth:`process` (used by the service
        examples and by the server's client-traffic path); transit drops
        are visible in ``dropped``.
        """
        if self._reentry:
            return
        verdict = self._decide(packet)
        if verdict.action is Action.DROP:
            self.dropped.append(packet)
        elif verdict.action is Action.DIVERT:
            self.diverted.append((verdict.client_id or "", packet))
            self._reentry = True
            try:
                self.server.testbed.deliver_inbound(packet)
            finally:
                self._reentry = False
        elif verdict.action is Action.REWRITE and verdict.packet is not None:
            self.rewritten.append((packet, verdict.packet))

    def process(self, packet: Packet) -> Tuple[Verdict, Optional[Packet]]:
        """Synchronously process a packet the server holds (e.g. incoming
        client traffic or a service ingress): returns the verdict and the
        packet to forward onward (None when dropped/diverted)."""
        verdict = self._decide(packet)
        if verdict.action is Action.DROP:
            self.dropped.append(packet)
            return verdict, None
        if verdict.action is Action.DIVERT:
            self.diverted.append((verdict.client_id or "", packet))
            return verdict, None
        if verdict.action is Action.REWRITE and verdict.packet is not None:
            self.rewritten.append((packet, verdict.packet))
            return verdict, verdict.packet
        return verdict, packet
