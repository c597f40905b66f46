"""Scripted fault scenarios on the event engine.

A :class:`FaultPlan` schedules faults at simulated times and records what
it did (and when) in a deterministic log.  The scenarios mirror the ones
testbed operators actually see:

* :meth:`flap_link` — a link goes down and comes back, N times;
* :meth:`sever_link` — a one-off transport cut (sessions reconnect
  immediately over a fresh channel);
* :meth:`partition` — several links down together, healing together;
* :meth:`crash_mux` — a PEERING server process dies and (optionally)
  comes back.

Everything is driven through :class:`~repro.sim.engine.Engine`, so a plan
plus a seed reproduces the identical event sequence run after run — the
property the chaos tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..sim.engine import Engine
from .link import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.server import PeeringServer

__all__ = ["FaultPlan"]


class FaultPlan:
    """A deterministic schedule of faults against links and muxes."""

    def __init__(self, engine: Engine, name: str = "plan") -> None:
        self.engine = engine
        self.name = name
        # (time, action, target) — appended when each fault *fires*.
        self.log: List[Tuple[float, str, str]] = []

    def _fire(self, action: str, target: str, thunk) -> None:
        self.log.append((self.engine.now, action, target))
        thunk()

    def _at(self, time: float, action: str, target: str, thunk) -> None:
        self.engine.schedule_at(
            time,
            lambda: self._fire(action, target, thunk),
            label=f"fault-plan:{self.name}:{action}",
        )

    # -- link scenarios ------------------------------------------------------

    def sever_link(self, link: Link, at: float) -> "FaultPlan":
        """Cut the wire once; sessions reconnect as soon as they retry."""
        self._at(at, "sever", link.name, link.sever)
        return self

    def flap_link(
        self,
        link: Link,
        at: float,
        down_for: float = 5.0,
        times: int = 1,
        spacing: float = 60.0,
    ) -> "FaultPlan":
        """Take the link down for ``down_for`` seconds, ``times`` times,
        successive flaps starting ``spacing`` seconds apart."""
        if down_for >= spacing and times > 1:
            raise ValueError("flaps would overlap: need down_for < spacing")
        for i in range(times):
            start = at + i * spacing
            self._at(start, "cut", link.name, link.cut)
            self._at(start + down_for, "restore", link.name, link.restore)
        return self

    def partition(
        self, links: Iterable[Link], at: float, heal_after: float
    ) -> "FaultPlan":
        """Down a set of links together; heal them all ``heal_after``
        seconds later (a site losing its network, then regaining it)."""
        links = list(links)
        for link in links:
            self._at(at, "cut", link.name, link.cut)
            self._at(at + heal_after, "restore", link.name, link.restore)
        return self

    def bounce_session(
        self,
        session,
        at: float,
        times: int = 1,
        spacing: float = 30.0,
    ) -> "FaultPlan":
        """Drop a session's transport (no CEASE), ``times`` times.

        Works on any :class:`~repro.bgp.session.BGPSession` regardless of
        who owns its transport — testbed mux sessions included — because
        it closes whatever endpoint the session currently holds."""

        def sever() -> None:
            if session.endpoint is not None and not session.endpoint.closed:
                session.endpoint.close()

        for i in range(times):
            self._at(at + i * spacing, "bounce", session.config.description, sever)
        return self

    # -- mux scenarios -------------------------------------------------------

    def crash_mux(
        self,
        server: "PeeringServer",
        at: float,
        down_for: Optional[float] = None,
        hard: bool = False,
    ) -> "FaultPlan":
        """Kill a mux at ``at``; if ``down_for`` is given, restart it that
        many seconds later.  ``hard=True`` models power loss: in-memory
        announcement state is wiped, so recovery needs the control journal
        (omit ``down_for`` under a watchdog — it restarts the mux itself).
        """
        self._at(at, "crash-hard" if hard else "crash", server.site.name,
                 lambda: server.crash(hard=hard))
        if down_for is not None:
            self._at(at + down_for, "restart", server.site.name, server.restart)
        return self

    def wedge_mux(self, server: "PeeringServer", at: float) -> "FaultPlan":
        """Hang a mux process at ``at``: it stays "alive" but stops
        processing.  Only a watchdog's liveness probes will notice."""
        self._at(at, "wedge", server.site.name, server.wedge)
        return self

    # -- misbehaving-client scenarios --------------------------------------------

    def storm_updates(
        self,
        session,
        prefix,
        attributes,
        at: float,
        updates: int = 100,
        interval: float = 0.5,
    ) -> "FaultPlan":
        """A misbehaving speaker floods announce/withdraw churn for one
        prefix over ``session`` — the update storm a circuit breaker
        exists to absorb.  Stops silently once the session is torn down
        (which is exactly what the supervision layer should cause)."""

        def one(i: int) -> None:
            if not session.established:
                return  # already cut off; nothing reaches the mux
            if i % 2 == 0:
                session.announce([prefix], attributes)
            else:
                session.withdraw([prefix])

        for i in range(updates):
            self._at(
                at + i * interval,
                "storm-update",
                session.config.description,
                lambda i=i: one(i),
            )
        return self

    # -- route-security attack scenarios -----------------------------------------
    # These drive a repro.secroute.campaign.AttackSurface (duck-typed: any
    # object with announce/withdraw/leak) so scripted hijack/leak attacks
    # share the fault engine's deterministic timeline with link and mux
    # faults.  This module deliberately does not import repro.secroute.

    def hijack_prefix(
        self, surface, attacker: int, prefix, at: float
    ) -> "FaultPlan":
        """At ``at``, ``attacker`` originates ``prefix`` (exact-prefix
        origin hijack; announce a more-specific for a sub-prefix hijack).
        """
        self._at(
            at, "hijack", f"AS{attacker}>{prefix}",
            lambda: surface.announce(attacker, prefix),
        )
        return self

    def withdraw_prefix(self, surface, asn: int, prefix, at: float) -> "FaultPlan":
        """At ``at``, drop ``asn``'s origination of ``prefix`` (attack
        ends, or the victim withdraws)."""
        self._at(
            at, "withdraw", f"AS{asn}>{prefix}",
            lambda: surface.withdraw(asn, prefix),
        )
        return self

    # -- DDoS scenarios -----------------------------------------------------------
    # flood_traffic drives a repro.inet.dataplane.DataPlane (duck-typed:
    # anything with send(ingress, packet) -> delivery); inject_flowspec /
    # withdraw_flowspec drive a repro.secroute.flowspec.FlowSpecDistributor
    # (announce/withdraw).  As above, no repro.secroute import here.

    def flood_traffic(
        self, plane, flows, at: float, collect: Optional[List] = None
    ) -> "FaultPlan":
        """At ``at``, inject every ``(ingress_asn, packet)`` in ``flows``
        through ``plane.send`` — one attack (or measurement) wave.
        Deliveries are appended to ``collect`` when given, so the campaign
        can score absorbed vs leaked volume afterwards."""
        waves = list(flows)

        def fire() -> None:
            for ingress, packet in waves:
                delivery = plane.send(ingress, packet)
                if collect is not None:
                    collect.append(delivery)

        self._at(at, "flood", f"{len(waves)}pkts", fire)
        return self

    # -- anycast scenarios --------------------------------------------------------
    # These drive a repro.anycast.service.AnycastService (duck-typed: any
    # object with fail_site/restore_site) — a whole site dropping out of
    # the anycast announcement, the failover study §3 runs: where does
    # its catchment land, and does it come home on restore?  As above, no
    # repro.anycast import here.

    def fail_anycast_site(self, service, name: str, at: float) -> "FaultPlan":
        """At ``at``, take anycast site ``name`` down: its origin spec
        drops out of the service's announcement."""
        self._at(
            at, "anycast-fail", name, lambda: service.fail_site(name)
        )
        return self

    def restore_anycast_site(self, service, name: str, at: float) -> "FaultPlan":
        """At ``at``, bring anycast site ``name`` back into the
        announcement."""
        self._at(
            at, "anycast-restore", name, lambda: service.restore_site(name)
        )
        return self

    def inject_flowspec(self, distributor, rule, at: float) -> "FaultPlan":
        """At ``at``, announce one FlowSpec rule into ``distributor``
        (the defense arriving mid-attack — or an attacker probing it)."""
        self._at(
            at, "flowspec", f"AS{rule.originator}>{rule.dst_prefix}",
            lambda: distributor.announce(rule),
        )
        return self

    def withdraw_flowspec(
        self, distributor, originator: int, at: float, prefix=None
    ) -> "FaultPlan":
        """At ``at``, withdraw ``originator``'s FlowSpec rules (for one
        destination prefix, or all of them)."""
        self._at(
            at, "flowspec-withdraw", f"AS{originator}",
            lambda: distributor.withdraw(originator, prefix),
        )
        return self
