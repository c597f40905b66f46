"""Looking glass: the operator's per-mux route query service.

Real networks run looking glasses so outsiders can ask "what route do
you have for prefix P?"; PEERING's operators need the same view over
their own testbed (§4: watching what every experiment announces and
where it propagates).  :class:`LookingGlass` answers three families of
questions:

* **substrate**: which route each AS on the simulated Internet selected
  for a prefix (straight from the converged
  :class:`~repro.inet.routing.RoutingOutcome` — so looking-glass answers
  are route-for-route identical to what propagation computed);
* **origination**: which muxes announce the prefix, for which client,
  with what steering spec (the announcement registry view);
* **monitoring**: the BMP-derived post-policy RIB and community encoding
  per mux, when a :class:`~repro.telemetry.routemon.RouteMonitor` is
  wired.

Runtime imports stay inside :mod:`repro.telemetry` (core types appear
only in annotations) so the package can load while core is importing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..net.addr import Prefix
from .routemon import RouteMonitor, SpecLike

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..anycast.service import AnycastService
    from ..core.testbed import Testbed
    from ..inet.routing import ASRoute
    from ..secroute.flowspec import FlowSpecDistributor, FlowSpecRule

__all__ = ["LookingGlass"]


class LookingGlass:
    """Query service over the testbed's converged and monitored state.

    ``flowspec`` (a :class:`~repro.secroute.flowspec.FlowSpecDistributor`)
    adds the traffic-filtering view: installed/rejected/evicted rule
    counters, quarantined originators, matched traffic volume, and the
    §5.1-ordered rule table at any vantage AS.

    ``anycast`` (an :class:`~repro.anycast.service.AnycastService`) adds
    the anycast view: per-site liveness and steering state, the last
    measured per-site volume shares, and the last rebalance summary."""

    def __init__(
        self,
        testbed: "Testbed",
        monitor: Optional[RouteMonitor] = None,
        flowspec: Optional["FlowSpecDistributor"] = None,
        anycast: Optional["AnycastService"] = None,
    ) -> None:
        self.testbed = testbed
        self.monitor = monitor
        self.flowspec = flowspec
        self.anycast = anycast

    # -- substrate view (converged routes) ------------------------------------

    def routes(self, prefix: Prefix) -> Dict[int, "ASRoute"]:
        """Every AS's selected route for ``prefix`` (empty if unannounced)."""
        outcome = self.testbed.outcome_for(prefix)
        if outcome is None:
            return {}
        return dict(outcome.items())

    def as_path(self, prefix: Prefix, vantage: int) -> Optional[Tuple[int, ...]]:
        """The AS path from one vantage toward ``prefix``."""
        outcome = self.testbed.outcome_for(prefix)
        return outcome.as_path(vantage) if outcome is not None else None

    def visibility(self, prefix: Prefix) -> int:
        """How many ASes currently hold a route for ``prefix``."""
        outcome = self.testbed.outcome_for(prefix)
        return len(outcome) if outcome is not None else 0

    # -- FlowSpec view (traffic filtering) -------------------------------------

    def flowspec_stats(self) -> Dict[str, object]:
        """Rule lifecycle counters and current install state from the
        wired distributor (installed / evicted / rejected-by-reason /
        quarantines, deployer count, per-AS max vs limit).  Empty dict
        when no FlowSpec distributor is wired."""
        if self.flowspec is None:
            return {}
        return self.flowspec.stats()

    def flowspec_rules(self, vantage: int) -> Tuple["FlowSpecRule", ...]:
        """The FlowSpec rules installed at ``vantage``, in §5.1
        enforcement order (empty without a wired distributor)."""
        if self.flowspec is None:
            return ()
        return self.flowspec.rules_at(vantage)

    # -- origination view (announcement registry) -----------------------------

    def origins(self, prefix: Prefix) -> Dict[str, Tuple[str, SpecLike]]:
        """``{mux: (client, spec)}`` — who announces ``prefix`` and how."""
        holders = self.testbed._announced.get(prefix, {})
        return {server: (client, spec) for server, (client, spec) in holders.items()}

    def neighbors(self, server: str) -> List[int]:
        """The peer/upstream ASNs of one mux."""
        return sorted(self.testbed.servers[server].neighbor_asns)

    # -- monitoring view (BMP post-policy RIB) --------------------------------

    def communities(self, prefix: Prefix) -> Dict[str, Tuple[str, ...]]:
        """Per-mux steering communities on the monitored post-policy route
        (``PEERING:peer`` selects the peers the prefix is announced to).
        Empty without a wired RouteMonitor."""
        if self.monitor is None:
            return {}
        out: Dict[str, Tuple[str, ...]] = {}
        for server in self.monitor.servers():
            for route in self.monitor.rib_routes(server):
                if route.prefix == prefix:
                    out[server] = tuple(
                        str(c) for c in sorted(route.attributes.communities)
                    )
        return out

    # -- rendering ------------------------------------------------------------

    def render(self, prefix: Prefix, vantages: Optional[List[int]] = None) -> str:
        """A human-readable looking-glass report for one prefix."""
        lines = [f"looking glass: {prefix}"]
        origins = self.origins(prefix)
        for server in sorted(origins):
            client, spec = origins[server]
            steering = "all peers" if spec.peers is None else f"peers {sorted(spec.peers)}"
            extra = ""
            if spec.prepend:
                extra += f" prepend={spec.prepend}"
            if spec.poison:
                extra += f" poison={sorted(spec.poison)}"
            lines.append(f"  origin {server} client={client} {steering}{extra}")
        routes = self.routes(prefix)
        lines.append(f"  visible at {len(routes)} ASes")
        for vantage in vantages or []:
            path = self.as_path(prefix, vantage)
            shown = " ".join(str(a) for a in path) if path is not None else "(no route)"
            lines.append(f"  AS{vantage}: {shown}")
        if self.anycast is not None:
            lines.extend(self.anycast.describe())
        return "\n".join(lines)
