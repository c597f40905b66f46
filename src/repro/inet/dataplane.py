"""AS-level data plane: packets follow the converged control plane.

Given a :class:`~repro.inet.routing.RoutingOutcome` per destination
prefix, the data plane forwards packets AS by AS, recording the traversed
path, expiring TTLs, and detecting blackholes.  This is what "controlling
traffic" (§2/§3) exercises: PECAN-style alternate-path measurements,
anycast catchment, interception experiments, and spoofing control all ride
on it.

Installed prefixes are indexed in a :class:`~repro.net.trie.PrefixTrie`
per address family, so the per-packet longest-prefix match is one radix
descent instead of a scan over every installed outcome (the win is
measured in ``benchmarks/bench_trie.py`` at forwarding-table scale).

Spoofing: each AS can enforce source-address validation on traffic it
originates (BCP 38).  PEERING's safety rules allow only "carefully
controlled" spoofing — the testbed-level checks live in
:mod:`repro.core.safety`; here the mechanism is modeled.

FlowSpec: attach a :class:`~repro.secroute.flowspec.FlowSpecDistributor`
with :meth:`DataPlane.attach_flowspec` and every packet is checked
against the installed rules at each AS hop *before* forwarding —
discarded (``FLOWSPEC_DROPPED``), rate-limited (``RATE_LIMITED``),
diverted to a scrubbing AS (``SCRUBBED``), or remarked and forwarded.

TTL semantics (pinned by tests): the TTL is a *transit* budget.  It is
checked only when another forwarding hop is required, so a packet whose
TTL reaches zero exactly as it arrives at an origin AS for the matched
prefix is DELIVERED, not TTL_EXPIRED — the origin check deliberately
precedes the expiry check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..net.addr import IPAddress, Prefix
from ..net.packet import Packet
from ..net.trie import PrefixTrie
from ..secroute.flowspec import EnforcementVerdict
from .routing import RoutingOutcome
from .topology import ASGraph

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..secroute.flowspec import FlowSpecDistributor

__all__ = ["DeliveryStatus", "Delivery", "DataPlane"]


from dataclasses import dataclass, replace
from enum import Enum


class DeliveryStatus(Enum):
    DELIVERED = "delivered"
    BLACKHOLE = "blackhole"  # some AS had no route
    TTL_EXPIRED = "ttl-expired"
    SOURCE_FILTERED = "source-filtered"  # BCP 38 dropped a spoofed packet
    INTERCEPTED = "intercepted"  # delivered to an AS that is not the
    # legitimate origin (hijack experiments)
    FLOWSPEC_DROPPED = "flowspec-dropped"  # traffic-rate 0 (discard) rule
    RATE_LIMITED = "rate-limited"  # traffic-rate budget exhausted
    SCRUBBED = "scrubbed"  # redirected to a scrubbing AS


@dataclass
class Delivery:
    """Outcome of injecting one packet at an AS."""

    status: DeliveryStatus
    packet: Packet
    path: Tuple[int, ...]  # ASes traversed, in order, starting at ingress
    final_asn: Optional[int] = None

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


class DataPlane:
    """Forwards packets over per-prefix routing outcomes.

    ``outcomes`` maps a destination prefix to the converged routing state
    for its announcement; longest-prefix match picks which outcome governs
    a packet (more-specific hijacks therefore attract traffic, as they do
    in the wild).
    """

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        self._outcomes: Dict[Prefix, RoutingOutcome] = {}
        self._tries: Dict[int, PrefixTrie[RoutingOutcome]] = {
            4: PrefixTrie(4),
            6: PrefixTrie(6),
        }
        self._prefix_owner: Dict[Prefix, int] = {}
        self._source_validators: Set[int] = set()
        self._taps: Dict[int, Callable[[Packet], None]] = {}
        self._flowspec: Optional["FlowSpecDistributor"] = None
        # Called before every lookup; lets the owner (the testbed) flush
        # lazily recomputed routing outcomes.
        self.prepare: Optional[Callable[[], None]] = None

    def install(self, prefix: Prefix, outcome: RoutingOutcome, owner: Optional[int] = None) -> None:
        """Install the routing outcome governing ``prefix``.

        ``owner`` is the legitimate origin; deliveries ending elsewhere are
        flagged INTERCEPTED.
        """
        self._outcomes[prefix] = outcome
        self._tries[prefix.version].insert(prefix, outcome)
        if owner is not None:
            self._prefix_owner[prefix] = owner

    def uninstall(self, prefix: Prefix) -> None:
        if self._outcomes.pop(prefix, None) is not None:
            self._tries[prefix.version].remove(prefix)
        self._prefix_owner.pop(prefix, None)

    def enable_source_validation(self, asn: int) -> None:
        """Turn on BCP 38 filtering at ``asn``: packets originated there
        must carry a source address the AS legitimately announces."""
        self._source_validators.add(asn)

    def register_tap(self, asn: int, callback: Callable[[Packet], None]) -> None:
        """Observe every packet transiting ``asn`` (DPI / decoy-routing
        style processing at a PEERING server)."""
        self._taps[asn] = callback

    def attach_flowspec(self, distributor: "FlowSpecDistributor") -> None:
        """Enforce ``distributor``'s installed rules at every AS hop."""
        self._flowspec = distributor

    def _match(self, dst: IPAddress) -> Optional[Tuple[Prefix, RoutingOutcome]]:
        """Longest-prefix match over installed outcomes (radix descent)."""
        return self._tries[dst.version].lookup(dst)

    def send(
        self,
        ingress_asn: int,
        packet: Packet,
        legitimate_sources: Optional[Set[Prefix]] = None,
    ) -> Delivery:
        """Inject ``packet`` at ``ingress_asn`` and forward to delivery.

        ``legitimate_sources``: prefixes the ingress AS may legitimately
        source traffic from; consulted only when the ingress enforces
        source validation.  Passing an explicitly *empty* set means the
        ingress may source nothing — every packet is SOURCE_FILTERED —
        exactly like passing None; BCP 38 admits only what is listed.
        """
        if self.prepare is not None:
            self.prepare()
        if ingress_asn in self._source_validators:
            allowed = legitimate_sources or set()
            if not any(prefix.contains(packet.src) for prefix in allowed):
                return Delivery(
                    status=DeliveryStatus.SOURCE_FILTERED,
                    packet=packet,
                    path=(ingress_asn,),
                    final_asn=ingress_asn,
                )

        match = self._match(packet.dst)
        if match is None:
            return Delivery(
                status=DeliveryStatus.BLACKHOLE,
                packet=packet,
                path=(ingress_asn,),
                final_asn=ingress_asn,
            )
        prefix, outcome = match

        flowspec = self._flowspec
        taps = self._taps
        current = ingress_asn
        path: List[int] = [current]
        # ``packet`` stays the injected header (plus DSCP remarks) for the
        # whole walk; the per-hop TTL decrement and trace live in ``path``
        # until someone can look: a tap here, or the returned Delivery.
        ttl = packet.ttl
        while True:
            tap = taps.get(current)
            if tap is not None:
                tap(_hopped(packet, path))
            if flowspec is not None:
                decision = flowspec.decide(current, packet)
                if decision is not None:
                    if decision.verdict is EnforcementVerdict.DROP:
                        status = DeliveryStatus.FLOWSPEC_DROPPED
                        break
                    if decision.verdict is EnforcementVerdict.RATE_EXCEEDED:
                        status = DeliveryStatus.RATE_LIMITED
                        break
                    if decision.verdict is EnforcementVerdict.REDIRECT:
                        scrubber = decision.scrubber
                        assert scrubber is not None
                        return Delivery(
                            DeliveryStatus.SCRUBBED,
                            _hopped(packet, path),
                            tuple(path) + (scrubber,),
                            scrubber,
                        )
                    assert decision.dscp is not None
                    packet = packet.mark(decision.dscp)
            route = outcome.route(current)
            if route is None:
                status = DeliveryStatus.BLACKHOLE
                break
            if route.via is None:
                # Reached an origin for this prefix.  Deliberately checked
                # before TTL expiry: the TTL budgets *transit* hops, so
                # arriving at the origin with TTL 0 still delivers (see
                # module docstring; pinned by tests).
                owner = self._prefix_owner.get(prefix)
                status = (
                    DeliveryStatus.INTERCEPTED
                    if owner is not None and current != owner
                    else DeliveryStatus.DELIVERED
                )
                break
            if len(path) > ttl:  # every transit hop the TTL allowed is spent
                status = DeliveryStatus.TTL_EXPIRED
                break
            current = route.via
            path.append(current)
        return Delivery(status, _hopped(packet, path), tuple(path), current)

    def traceroute(self, ingress_asn: int, dst: IPAddress, src: IPAddress) -> List[int]:
        """AS-level traceroute: the forward path a probe would reveal."""
        delivery = self.send(ingress_asn, Packet(src=src, dst=dst))
        return list(delivery.path)


def _hopped(packet: Packet, path: List[int]) -> Packet:
    """``packet`` as it looks on arrival at ``path[-1]``: one TTL
    decrement and one trace entry per AS already left behind."""
    hops = len(path) - 1
    if not hops:
        return packet
    return replace(packet, ttl=packet.ttl - hops, trace=packet.trace + tuple(path[:-1]))
