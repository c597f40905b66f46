"""The supervision layer: one object that makes the testbed self-healing.

``Supervisor`` wires the four guard mechanisms into a running
:class:`~repro.core.testbed.Testbed`:

* a :class:`~repro.guard.breaker.CircuitBreaker` per (server, client)
  attachment, fed by the mux's update path and enforced by abrupt session
  teardown + refusal of channel re-provisioning while OPEN;
* a :class:`~repro.guard.quarantine.QuarantineManager` escalating repeated
  safety violations and breaker trips into testbed-wide containment;
* a :class:`~repro.guard.watchdog.Watchdog` probing every mux and
  orchestrating crash/wedge recovery;
* a :class:`~repro.guard.journal.ControlJournal` recording every control
  action write-ahead, replayed by restarted muxes and verified/repaired
  by the watchdog after each restart.

Enforcement actions propagate through both planes: containment withdraws
go through ``Testbed.retract`` so the propagation engine recomputes
outcomes (no stale :class:`~repro.inet.routing.RoutingOutcome` survives a
quarantine), and recovery re-announces go through ``Testbed.announce`` so
the data plane reinstalls exactly the journaled state.

Usage::

    testbed = Testbed.build_default()
    supervisor = testbed.supervise()        # wires + starts the watchdog
    ...                                     # run experiments; faults heal

All scheduling rides the shared deterministic engine: a chaos plan plus a
seed reproduces the identical supervision trace, event for event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..net.addr import Prefix
from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .journal import ControlJournal
from .quarantine import QuarantineConfig, QuarantineManager
from .watchdog import Watchdog, WatchdogConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.safety import SafetyDecision
    from ..core.server import PeeringServer
    from ..core.testbed import Testbed

__all__ = ["Supervisor"]


class Supervisor:
    """Breakers + quarantine + watchdog + journal over one testbed."""

    def __init__(
        self,
        testbed: "Testbed",
        breaker: Optional[BreakerConfig] = None,
        quarantine: Optional[QuarantineConfig] = None,
        watchdog: Optional[WatchdogConfig] = None,
        journal: Optional[ControlJournal] = None,
    ) -> None:
        self.testbed = testbed
        self.engine = testbed.engine
        self.events = testbed.events
        self.journal = journal if journal is not None else ControlJournal()
        self.breaker_config = breaker or BreakerConfig()
        self.quarantine = QuarantineManager(self, quarantine)
        self.watchdog = Watchdog(self, watchdog)
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self.started = False
        # Telemetry: supervision activity counters on the testbed registry.
        metrics = testbed.metrics
        self._trip_counter = metrics.counter(
            "peering_guard_breaker_trips_total",
            "Circuit breaker OPEN transitions",
            ("server", "client"),
        )
        self._containment_counter = metrics.counter(
            "peering_guard_containments_total",
            "Quarantine containments enforced",
            ("client",),
        )
        self._release_counter = metrics.counter(
            "peering_guard_releases_total",
            "Quarantine releases (client re-admitted)",
            ("client",),
        )
        self._repair_counter = metrics.counter(
            "peering_guard_repairs_total",
            "Journal divergences healed after mux restart",
            ("server",),
        )

    # -- wiring -------------------------------------------------------------------

    def start(self) -> "Supervisor":
        """Attach to the testbed and begin supervising."""
        if self.started:
            return self
        self.started = True
        self.testbed.guard = self
        self.testbed.journal = self.journal
        for server in self.testbed.servers.values():
            self.adopt_server(server)
        self.watchdog.start()
        self.events.emit(
            "supervisor-started",
            source="guard",
            servers=len(self.testbed.servers),
            severity="info",
        )
        return self

    def adopt_server(self, server: "PeeringServer") -> None:
        """Wire one mux into the supervision layer (also called by
        ``Testbed.add_server`` for servers deployed after :meth:`start`)."""
        server.guard = self
        server.journal = self.journal
        # Shared sequence: audit entries and journal records interleave on
        # one monotonic timeline (the correlation the satellite asks for).
        server.safety.seq_source = self.journal.next_seq
        server.safety.on_violation = self._violation_handler(server)

    def _violation_handler(
        self, server: "PeeringServer"
    ) -> Callable[[str, "SafetyDecision", float], None]:
        site = server.site.name

        def on_violation(client_id: str, decision: "SafetyDecision", now: float) -> None:
            self.quarantine.strike(
                client_id, f"{site}:{decision.verdict.value}", now
            )

        return on_violation

    # -- breaker registry -----------------------------------------------------------

    def breaker_for(self, server: "PeeringServer", client_id: str) -> CircuitBreaker:
        key = (server.site.name, client_id)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_config, label=f"{server.site.name}/{client_id}"
            )
            self._breakers[key] = breaker
        return breaker

    # -- admission gates (called from the mux hot paths) ------------------------------

    def is_quarantined(self, client_id: str) -> bool:
        return self.quarantine.is_quarantined(client_id)

    def admit_update(self, server: "PeeringServer", client_id: str, now: float) -> bool:
        """Gate one client UPDATE message (storm detection)."""
        if self.quarantine.is_quarantined(client_id):
            return False
        breaker = self.breaker_for(server, client_id)
        before = breaker.state
        admitted = breaker.admit_update(now)
        self._after_breaker(server, client_id, breaker, before, now)
        return admitted

    def record_flap(self, server: "PeeringServer", client_id: str, now: float) -> bool:
        """Record churn (withdrawal / re-announcement) into the breaker."""
        breaker = self.breaker_for(server, client_id)
        before = breaker.state
        admitted = breaker.record_flap(now)
        self._after_breaker(server, client_id, breaker, before, now)
        return admitted

    def admit_prefix_count(
        self, server: "PeeringServer", client_id: str, count: int, now: float
    ) -> bool:
        """Gate the concurrent-prefix footprint (max-prefix limit)."""
        if self.quarantine.is_quarantined(client_id):
            return False
        breaker = self.breaker_for(server, client_id)
        before = breaker.state
        admitted = breaker.admit_prefix_count(count, now)
        self._after_breaker(server, client_id, breaker, before, now)
        return admitted

    def is_blocked(self, server: "PeeringServer", client_id: str) -> bool:
        """Currently refused at this mux: quarantined or breaker OPEN."""
        if self.quarantine.is_quarantined(client_id):
            return True
        breaker = self._breakers.get((server.site.name, client_id))
        return breaker is not None and breaker.state is BreakerState.OPEN

    def allows_reprovision(self, server: "PeeringServer", client_id: str) -> bool:
        """May this client pull a fresh session channel?  Refused while
        quarantined or while its breaker is OPEN (HALF_OPEN admits the
        re-admit probe)."""
        if self.quarantine.is_quarantined(client_id):
            return False
        breaker = self._breakers.get((server.site.name, client_id))
        return breaker is None or breaker.state is not BreakerState.OPEN

    def allows_connect(self, client_id: str) -> bool:
        return not self.quarantine.is_quarantined(client_id)

    # -- breaker transitions -----------------------------------------------------------

    def _after_breaker(
        self,
        server: "PeeringServer",
        client_id: str,
        breaker: CircuitBreaker,
        before: BreakerState,
        now: float,
    ) -> None:
        if breaker.state is BreakerState.OPEN and before is not BreakerState.OPEN:
            self._on_trip(server, client_id, breaker, now)

    def _on_trip(
        self,
        server: "PeeringServer",
        client_id: str,
        breaker: CircuitBreaker,
        now: float,
    ) -> None:
        cooldown = breaker.half_open_at - now
        self._trip_counter.labels(server.site.name, client_id).inc()
        self.events.emit(
            "breaker-open",
            source=f"{server.site.name}/{client_id}",
            reason=breaker.trip_reason,
            trips=breaker.trips,
            cooldown=round(cooldown, 3),
            severity="critical",
        )
        # Tear the session(s) down abruptly; reprovision is refused while
        # OPEN, so the client's backoff ladder keeps climbing.
        server.drop_client_sessions(client_id)
        self.engine.schedule(
            cooldown,
            lambda: self._half_open(server, client_id),
            label=f"breaker-half-open:{server.site.name}:{client_id}",
        )
        self.quarantine.strike(client_id, f"breaker: {breaker.trip_reason}", now)

    def _half_open(self, server: "PeeringServer", client_id: str) -> None:
        breaker = self._breakers.get((server.site.name, client_id))
        if breaker is None or breaker.state is not BreakerState.OPEN:
            return
        now = self.engine.now
        if now + 1e-9 < breaker.half_open_at:
            return  # superseded by a later trip's longer cooldown
        breaker.half_open(now)
        self.events.emit(
            "breaker-half-open",
            source=f"{server.site.name}/{client_id}",
            severity="warning",
        )
        marker = len(breaker.transitions)
        self.engine.schedule(
            breaker.config.probe_window,
            lambda: self._probe_close(server, client_id, marker),
            label=f"breaker-close:{server.site.name}:{client_id}",
        )

    def _probe_close(self, server: "PeeringServer", client_id: str, marker: int) -> None:
        breaker = self._breakers.get((server.site.name, client_id))
        if breaker is None or breaker.state is not BreakerState.HALF_OPEN:
            return
        if len(breaker.transitions) != marker:
            return  # re-tripped and half-opened again since; stale probe
        breaker.close(self.engine.now)
        self.events.emit(
            "breaker-closed",
            source=f"{server.site.name}/{client_id}",
            severity="info",
        )

    # -- quarantine enforcement ----------------------------------------------------------

    def contain_client(self, client_id: str, reason: str) -> int:
        """Withdraw the client's announcements everywhere and tear its
        sessions down.  Returns the number of withdrawn announcements.
        Journaled as one ``quarantine`` record (write-ahead: appended
        before the registry mutations it describes)."""
        now = self.engine.now
        self.journal.append(now, "quarantine", client=client_id)
        self._containment_counter.labels(client_id).inc()
        withdrawn = 0
        for name in sorted(self.testbed.servers):
            server = self.testbed.servers[name]
            attachment = server._clients.get(client_id)
            if attachment is None:
                continue
            server.drop_client_sessions(client_id)
            for prefix in list(attachment.announcements):
                attachment.announcements.pop(prefix, None)
                # record=False: the quarantine record subsumes these in replay.
                self.testbed.retract(server, client_id, prefix, record=False)
                withdrawn += 1
        return withdrawn

    def readmit_client(self, client_id: str) -> None:
        """Quarantine release: unblock and clear per-client safety state
        (rate-limit windows, flap-damping penalties, breaker ladders)."""
        now = self.engine.now
        self.journal.append(now, "release", client=client_id)
        self._release_counter.labels(client_id).inc()
        for server in self.testbed.servers.values():
            server.safety.reset_client(client_id)
        for (_site, cid), breaker in self._breakers.items():
            if cid == client_id:
                breaker.reset(now)

    # -- watchdog support -----------------------------------------------------------------

    def repair_server(self, server: "PeeringServer") -> int:
        """Post-restart verification: re-issue any journaled announcement
        the mux did not rebuild.  Normally zero (restart replays the
        journal itself); nonzero means divergence was found and healed."""
        from ..core.server import spec_from_tuple

        want = self.journal.server_state(server.site.name)
        repaired = 0
        announced = self.testbed._announced
        for client_id in sorted(want):
            if self.quarantine.is_quarantined(client_id):
                continue
            attachment = server._clients.get(client_id)
            if attachment is None:
                continue
            for prefix_str in sorted(want[client_id]):
                prefix = Prefix(prefix_str)
                spec = spec_from_tuple(want[client_id][prefix_str])
                registered = server.site.name in announced.get(prefix, {})
                if attachment.announcements.get(prefix) == spec and registered:
                    continue
                attachment.announcements[prefix] = spec
                self.testbed.announce(server, client_id, prefix, spec, record=False)
                repaired += 1
        if repaired:
            self._repair_counter.labels(server.site.name).inc(repaired)
        return repaired
