"""Server watchdog: liveness probes + automated mux recovery.

``examples/mux_failover.py`` recovers a crashed mux by hand: the operator
(or the script) calls ``restart()`` at the right moment and resilient
clients slowly pull fresh channels.  The watchdog automates the whole
choreography:

1. **probe** every :class:`~repro.core.server.PeeringServer` on a fixed
   interval (``PeeringServer.probe()`` — false for a dead *or wedged*
   process);
2. a mux that fails ``wedged_after`` consecutive probes while claiming to
   be alive is declared **wedged** and force-crashed (the moral
   equivalent of ``kill -9`` on a hung process);
3. a dead mux is **restarted** after ``restart_delay`` (modelling
   reboot/reschedule time).  ``PeeringServer.restart()`` consults the
   control journal, so announcements return even for clients whose BGP
   sessions are still backing off;
4. after restart the watchdog **repairs divergence**: any journaled
   announcement the mux failed to rebuild (e.g. state written while the
   mux was already sick) is re-issued via ``reconnect_endpoint``-style
   re-provisioning of the control path — the testbed converges back to
   exactly the journal's state with zero manual calls.

Every decision lands on the event bus (``watchdog-*`` events), so chaos
tests assert the recovery sequence deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.server import PeeringServer
    from .supervisor import Supervisor

__all__ = ["WatchdogConfig", "Watchdog"]


@dataclass(frozen=True)
class WatchdogConfig:
    probe_interval: float = 5.0
    wedged_after: int = 2  # consecutive failed probes of an "alive" mux
    restart_delay: float = 10.0  # crash detection -> restart (reboot time)
    auto_restart: bool = True

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.wedged_after < 1:
            raise ValueError("wedged_after must be >= 1")


class Watchdog:
    """Periodic liveness sweep over all servers of one testbed."""

    def __init__(
        self, supervisor: "Supervisor", config: Optional[WatchdogConfig] = None
    ) -> None:
        self.supervisor = supervisor
        self.config = config or WatchdogConfig()
        self.running = False
        self.probes = 0
        self.restarts = 0
        self.kills = 0  # wedged muxes force-crashed
        self._failed_probes: Dict[str, int] = {}
        self._restart_pending: Dict[str, float] = {}  # server -> due time
        self.log: List[Tuple[float, str, str]] = []  # (time, action, server)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._schedule_next()

    def stop(self) -> None:
        self.running = False

    def _schedule_next(self) -> None:
        self.supervisor.engine.schedule(
            self.config.probe_interval, self._round, label="watchdog-probe"
        )

    # -- the probe round -----------------------------------------------------------

    def _round(self) -> None:
        if not self.running:
            return
        self.probe_all()
        self._schedule_next()

    def probe_all(self) -> None:
        """One sweep: probe every server, escalate failures."""
        now = self.supervisor.engine.now
        for name in sorted(self.supervisor.testbed.servers):
            server = self.supervisor.testbed.servers[name]
            self.probes += 1
            if server.probe():
                self._failed_probes.pop(name, None)
                continue
            if server.alive:
                # Claims alive but does not answer: wedged process.
                failures = self._failed_probes.get(name, 0) + 1
                self._failed_probes[name] = failures
                if failures >= self.config.wedged_after:
                    self._kill_wedged(server, now)
            else:
                self._handle_dead(server, now)

    def _kill_wedged(self, server: "PeeringServer", now: float) -> None:
        name = server.site.name
        self.kills += 1
        self._failed_probes.pop(name, None)
        self.log.append((now, "kill-wedged", name))
        self.supervisor.events.emit(
            "watchdog-wedged", source=name, severity="critical"
        )
        # kill -9: the process dies hard; announcement state is rebuilt
        # from the journal on restart, not from process memory.
        server.crash(hard=True)
        self._handle_dead(server, now)

    def _handle_dead(self, server: "PeeringServer", now: float) -> None:
        name = server.site.name
        if not self.config.auto_restart or name in self._restart_pending:
            return
        due = now + self.config.restart_delay
        self._restart_pending[name] = due
        self.log.append((now, "restart-scheduled", name))
        self.supervisor.events.emit(
            "watchdog-crash-detected",
            source=name,
            restart_in=self.config.restart_delay,
            severity="warning",
        )
        self.supervisor.engine.schedule(
            self.config.restart_delay,
            lambda: self._restart(server),
            label=f"watchdog-restart:{name}",
        )

    def _restart(self, server: "PeeringServer") -> None:
        name = server.site.name
        self._restart_pending.pop(name, None)
        if server.alive:
            return  # someone beat us to it
        now = self.supervisor.engine.now
        self.restarts += 1
        self.log.append((now, "restart", name))
        server.restart()
        repaired = self.supervisor.repair_server(server)
        self.supervisor.events.emit(
            "watchdog-restarted",
            source=name,
            repaired_announcements=repaired,
            severity="info",
        )
