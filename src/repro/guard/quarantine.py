"""Client quarantine: testbed-wide containment of misbehaving clients.

A circuit breaker is local — one client at one mux.  Quarantine is the
escalation: a client that keeps violating safety rules or tripping
breakers is cut off from the **whole** testbed:

* its announcements are withdrawn at every server (so no real peer keeps
  hearing routes from a client the testbed no longer trusts);
* new announcements, new attachments, and channel re-provisioning are all
  refused while quarantined;
* the event bus carries the escalation trail — ``client-strike``
  (warning) → ``client-quarantined`` (critical) → ``client-released``
  (info) — so operators watch the lifecycle in one ordered log;
* release is automatic on a timed backoff schedule: each repeat offense
  doubles the quarantine (``base · 2^(offenses-1)``, capped), and release
  clears the per-client safety state (rate-limit window, flap-damping
  penalties, breaker trip ladders) via
  :meth:`~repro.core.safety.SafetyEnforcer.reset_client` — a released
  client starts from a clean slate rather than tripping instantly on
  decayed history.

Strikes decay: only strikes inside ``strike_window`` count toward the
``strike_threshold``.  Quarantine actions are journaled (action
``quarantine`` / ``release``), so a crashed-and-restarted control plane
rebuilds the quarantine set too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .supervisor import Supervisor

__all__ = ["QuarantineConfig", "QuarantineManager"]


@dataclass(frozen=True)
class QuarantineConfig:
    strike_threshold: int = 3  # strikes in window before quarantine
    strike_window: float = 300.0
    base_duration: float = 120.0  # first quarantine length
    max_duration: float = 3600.0

    def __post_init__(self) -> None:
        if self.strike_threshold < 1:
            raise ValueError("strike_threshold must be >= 1")
        if self.strike_window <= 0 or self.base_duration <= 0:
            raise ValueError("quarantine windows must be positive")


class QuarantineManager:
    """Tracks strikes, owns the blocked set, schedules timed release."""

    def __init__(
        self, supervisor: "Supervisor", config: Optional[QuarantineConfig] = None
    ) -> None:
        self.supervisor = supervisor
        self.config = config or QuarantineConfig()
        self._strikes: Dict[str, Deque[Tuple[float, str]]] = {}
        self._blocked: Dict[str, float] = {}  # client -> release due time
        self._offenses: Dict[str, int] = {}  # lifetime quarantine count
        self.history: List[Tuple[float, str, str, str]] = []  # (t, event, client, why)

    # -- queries ---------------------------------------------------------------

    def is_quarantined(self, client_id: str) -> bool:
        return client_id in self._blocked

    def quarantined(self) -> List[str]:
        return sorted(self._blocked)

    def strike_count(self, client_id: str, now: float) -> int:
        window = self._strikes.get(client_id)
        if window is None:
            return 0
        horizon = now - self.config.strike_window
        while window and window[0][0] <= horizon:
            window.popleft()
        return len(window)

    def offenses(self, client_id: str) -> int:
        return self._offenses.get(client_id, 0)

    # -- strikes ---------------------------------------------------------------

    def strike(self, client_id: str, reason: str, now: float) -> bool:
        """One offense (safety violation / breaker trip).  Returns True if
        this strike pushed the client into quarantine."""
        if client_id in self._blocked:
            return False  # already contained
        self._strikes.setdefault(client_id, deque()).append((now, reason))
        count = self.strike_count(client_id, now)
        self.history.append((now, "strike", client_id, reason))
        self.supervisor.events.emit(
            "client-strike",
            source=client_id,
            reason=reason,
            strikes=count,
            threshold=self.config.strike_threshold,
            severity="warning",
        )
        if count >= self.config.strike_threshold:
            self.quarantine(client_id, f"{count} strikes: {reason}", now)
            return True
        return False

    # -- quarantine lifecycle ----------------------------------------------------

    def duration_for(self, client_id: str) -> float:
        """Exponential backoff over lifetime offenses."""
        offenses = self._offenses.get(client_id, 0)
        return min(
            self.config.max_duration,
            self.config.base_duration * (2 ** max(0, offenses - 1)),
        )

    def quarantine(self, client_id: str, reason: str, now: float) -> float:
        """Contain the client everywhere; returns the release delay."""
        if client_id in self._blocked:
            return self._blocked[client_id] - now
        self._offenses[client_id] = self._offenses.get(client_id, 0) + 1
        duration = self.duration_for(client_id)
        due = now + duration
        self._blocked[client_id] = due
        self._strikes.pop(client_id, None)
        self.history.append((now, "quarantine", client_id, reason))
        self.supervisor.contain_client(client_id, reason)
        self.supervisor.events.emit(
            "client-quarantined",
            source=client_id,
            reason=reason,
            duration=duration,
            offense=self._offenses[client_id],
            severity="critical",
        )
        self.supervisor.engine.schedule(
            duration,
            lambda: self._timed_release(client_id),
            label=f"quarantine-release:{client_id}",
        )
        return duration

    def _timed_release(self, client_id: str) -> None:
        due = self._blocked.get(client_id)
        if due is None:
            return  # released manually in the meantime
        now = self.supervisor.engine.now
        if now + 1e-9 < due:
            return  # superseded by a later quarantine
        self.release(client_id, now)

    def release(self, client_id: str, now: float) -> None:
        """Re-admit: unblock and wipe the client's safety history."""
        if self._blocked.pop(client_id, None) is None:
            return
        self.history.append((now, "release", client_id, "backoff elapsed"))
        self.supervisor.readmit_client(client_id)
        self.supervisor.events.emit(
            "client-released",
            source=client_id,
            offense=self._offenses.get(client_id, 0),
            severity="info",
        )
