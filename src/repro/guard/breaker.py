"""Per-client circuit breakers at a mux.

The admission-time :class:`~repro.core.safety.SafetyEnforcer` answers "is
this one announcement legal?".  A breaker answers the *runtime* question
the paper's §3 safety story needs: "is this client's aggregate behaviour
— message rate, flap churn, table footprint — something we should keep
exposing real peers to?".

State machine (classic breaker, re-admit probes instead of test requests):

::

    CLOSED --violation--> OPEN --cooldown--> HALF_OPEN --clean probe--> CLOSED
                           ^                     |
                           +-----violation-------+   (cooldown doubles)

* **CLOSED** — updates admitted; sliding windows track update rate and
  flap (withdrawal) rate; the concurrent-prefix count is checked against
  ``max_prefixes``.  Any threshold crossing trips the breaker.
* **OPEN** — every update is refused; the supervisor tears the client's
  sessions down and refuses channel re-provisioning.  After an
  exponentially growing cooldown (``cooldown · 2^(trips-1)``, capped at
  ``cooldown_max``) the breaker half-opens.
* **HALF_OPEN** — the client may reconnect and send again (the re-admit
  probe).  A further violation re-trips immediately (cooldown doubles);
  surviving ``probe_window`` seconds without one closes the breaker and
  resets the trip ladder.

The breaker is a pure state machine over the engine clock — no timers of
its own.  The :class:`~repro.guard.supervisor.Supervisor` owns scheduling
(half-open and close probes) and enforcement (session teardown).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, List, Optional, Tuple

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds are per client per server (one breaker guards one
    client's attachment at one mux)."""

    window_seconds: float = 30.0
    max_updates_per_window: int = 200  # raw UPDATE messages (storm)
    max_flaps_per_window: int = 12  # withdrawals / re-announcements (churn)
    max_prefixes: int = 64  # concurrent announced prefixes
    cooldown: float = 30.0  # OPEN -> HALF_OPEN base delay
    cooldown_max: float = 900.0
    probe_window: float = 30.0  # clean HALF_OPEN time to re-close

    def __post_init__(self) -> None:
        if self.window_seconds <= 0 or self.cooldown <= 0 or self.probe_window <= 0:
            raise ValueError("breaker windows must be positive")
        if min(self.max_updates_per_window, self.max_flaps_per_window, self.max_prefixes) < 1:
            raise ValueError("breaker thresholds must be >= 1")


class CircuitBreaker:
    """Sliding-window behaviour tracking + the trip/half-open/close FSM."""

    def __init__(self, config: Optional[BreakerConfig] = None, label: str = "") -> None:
        self.config = config or BreakerConfig()
        self.label = label
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.trip_reason = ""
        self.half_open_at = 0.0
        self.transitions: List[Tuple[float, str, str]] = []  # (time, state, reason)
        self._updates: Deque[float] = deque()
        self._flaps: Deque[float] = deque()

    # -- window bookkeeping ----------------------------------------------------

    def _expire(self, window: Deque[float], now: float) -> None:
        horizon = now - self.config.window_seconds
        while window and window[0] <= horizon:
            window.popleft()

    def update_rate(self, now: float) -> int:
        self._expire(self._updates, now)
        return len(self._updates)

    def flap_rate(self, now: float) -> int:
        self._expire(self._flaps, now)
        return len(self._flaps)

    # -- admission -------------------------------------------------------------

    def admit_update(self, now: float) -> bool:
        """Record one client UPDATE; False means refuse (breaker OPEN).

        A violation while HALF_OPEN (the probe failing) re-trips.
        """
        if self.state is BreakerState.OPEN:
            return False
        self._updates.append(now)
        if self.update_rate(now) > self.config.max_updates_per_window:
            self.trip(
                now,
                f"update storm: >{self.config.max_updates_per_window} msgs "
                f"in {self.config.window_seconds:g}s",
            )
            return False
        return True

    def record_flap(self, now: float) -> bool:
        """Record churn (a withdrawal or re-announcement); False = tripped."""
        if self.state is BreakerState.OPEN:
            return False
        self._flaps.append(now)
        if self.flap_rate(now) > self.config.max_flaps_per_window:
            self.trip(
                now,
                f"flap rate: >{self.config.max_flaps_per_window} "
                f"in {self.config.window_seconds:g}s",
            )
            return False
        return True

    def admit_prefix_count(self, count: int, now: float) -> bool:
        """Check the concurrent-prefix footprint (max-prefix limit)."""
        if self.state is BreakerState.OPEN:
            return False
        if count > self.config.max_prefixes:
            self.trip(now, f"max-prefix: {count} > {self.config.max_prefixes}")
            return False
        return True

    # -- state transitions -------------------------------------------------------

    def trip(self, now: float, reason: str) -> float:
        """To OPEN.  Returns the cooldown before half-open is due."""
        self.trips += 1
        self.state = BreakerState.OPEN
        self.trip_reason = reason
        self._updates.clear()
        self._flaps.clear()
        cooldown = min(
            self.config.cooldown_max,
            self.config.cooldown * (2 ** (self.trips - 1)),
        )
        self.half_open_at = now + cooldown
        self.transitions.append((now, self.state.value, reason))
        return cooldown

    def half_open(self, now: float) -> None:
        """Cooldown elapsed: admit re-admit probes."""
        if self.state is not BreakerState.OPEN:
            return
        self.state = BreakerState.HALF_OPEN
        self._updates.clear()
        self._flaps.clear()
        self.transitions.append((now, self.state.value, "cooldown elapsed"))

    def close(self, now: float) -> None:
        """A clean probe window: back to CLOSED, trip ladder reset."""
        if self.state is not BreakerState.HALF_OPEN:
            return
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.transitions.append((now, self.state.value, "probe clean"))

    def reset(self, now: float) -> None:
        """Administrative reset (quarantine release)."""
        self.state = BreakerState.CLOSED
        self.trips = 0
        self._updates.clear()
        self._flaps.clear()
        self.transitions.append((now, self.state.value, "reset"))
