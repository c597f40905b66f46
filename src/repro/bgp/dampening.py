"""Route-flap damping (RFC 2439).

PEERING servers apply flap damping to client announcements so a misbehaving
experiment cannot subject real peers to an update storm (§3 "Enforcing
safety").  The implementation follows the RFC's figure-of-merit model:

* each (peer, prefix) accumulates a penalty on withdrawal (1000) and
  re-announcement (500);
* the penalty decays exponentially with a configurable half-life;
* when the penalty crosses ``suppress_threshold`` the route is suppressed;
  it is reused once the decayed penalty falls below ``reuse_threshold``;
* the penalty is capped so a route is never suppressed longer than
  ``max_suppress_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..net.addr import Prefix

__all__ = ["DampeningConfig", "FlapState", "RouteFlapDamper"]

PENALTY_WITHDRAWAL = 1000.0
PENALTY_REANNOUNCE = 500.0


@dataclass(frozen=True)
class DampeningConfig:
    """Standard defaults match common vendor settings."""

    half_life: float = 900.0  # seconds (15 min)
    suppress_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    max_suppress_time: float = 3600.0  # seconds (60 min)

    def __post_init__(self) -> None:
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        if self.reuse_threshold >= self.suppress_threshold:
            raise ValueError("reuse threshold must be below suppress threshold")

    @property
    def decay_rate(self) -> float:
        return math.log(2) / self.half_life

    @property
    def penalty_ceiling(self) -> float:
        """Max penalty such that decay to reuse takes max_suppress_time.

        The exponent is clamped so a short half-life with a long
        max-suppress window cannot overflow ``exp``; the ceiling is then
        effectively "unbounded" which is the right degenerate behaviour.
        """
        exponent = min(self.decay_rate * self.max_suppress_time, 64.0)
        return self.reuse_threshold * math.exp(exponent)


@dataclass
class FlapState:
    penalty: float = 0.0
    last_update: float = 0.0
    suppressed: bool = False
    flaps: int = 0

    def decayed_penalty(self, now: float, config: DampeningConfig) -> float:
        elapsed = max(0.0, now - self.last_update)
        return self.penalty * math.exp(-config.decay_rate * elapsed)


class RouteFlapDamper:
    """Tracks flap penalties per (peer, prefix) key.

    Usage: call :meth:`record_withdrawal` / :meth:`record_announcement`
    as events arrive; consult :meth:`is_suppressed` before propagating.
    """

    def __init__(self, config: Optional[DampeningConfig] = None) -> None:
        self.config = config or DampeningConfig()
        self._state: Dict[Tuple[str, Prefix], FlapState] = {}

    def _bump(self, key: Tuple[str, Prefix], penalty: float, now: float) -> FlapState:
        state = self._state.setdefault(key, FlapState(last_update=now))
        state.penalty = min(
            state.decayed_penalty(now, self.config) + penalty,
            self.config.penalty_ceiling,
        )
        state.last_update = now
        state.flaps += 1
        if state.penalty >= self.config.suppress_threshold:
            state.suppressed = True
        return state

    def record_withdrawal(self, peer: str, prefix: Prefix, now: float) -> bool:
        """Returns True if the route is now suppressed."""
        self._bump((peer, prefix), PENALTY_WITHDRAWAL, now)
        return self.is_suppressed(peer, prefix, now)

    def record_announcement(self, peer: str, prefix: Prefix, now: float) -> bool:
        """A re-announcement after withdrawal; returns suppression status."""
        key = (peer, prefix)
        if key not in self._state:
            # First announcement ever: no penalty, never suppressed.
            self._state[key] = FlapState(last_update=now)
            return False
        self._bump(key, PENALTY_REANNOUNCE, now)
        return self.is_suppressed(peer, prefix, now)

    def reset_peer(self, peer: str) -> int:
        """Drop every damping entry for one peer (quarantine release: a
        re-admitted client starts with a clean penalty slate).  Returns
        the number of entries cleared."""
        keys = [key for key in self._state if key[0] == peer]
        for key in keys:
            del self._state[key]
        return len(keys)

    def _refresh(self, key: Tuple[str, Prefix], now: float) -> bool:
        """Apply decay; un-suppress when below reuse threshold.  Returns
        True when the entry transitioned to reusable."""
        state = self._state.get(key)
        if state is None:
            return True
        current = state.decayed_penalty(now, self.config)
        state.penalty = current
        state.last_update = now
        if state.suppressed and current < self.config.reuse_threshold:
            state.suppressed = False
            return True
        if current < 1.0 and not state.suppressed:
            # Fully decayed: forget the entry to bound memory.
            del self._state[key]
        return False

    def is_suppressed(self, peer: str, prefix: Prefix, now: float) -> bool:
        key = (peer, prefix)
        state = self._state.get(key)
        if state is None:
            return False
        self._refresh(key, now)
        state = self._state.get(key)
        return state.suppressed if state is not None else False

    def penalty(self, peer: str, prefix: Prefix, now: float) -> float:
        state = self._state.get((peer, prefix))
        return 0.0 if state is None else state.decayed_penalty(now, self.config)

    def flap_count(self, peer: str, prefix: Prefix) -> int:
        state = self._state.get((peer, prefix))
        return 0 if state is None else state.flaps

    def reuse_time(self, peer: str, prefix: Prefix, now: float) -> float:
        """Seconds until the route becomes reusable (0 if not suppressed)."""
        state = self._state.get((peer, prefix))
        if state is None or not state.suppressed:
            return 0.0
        current = state.decayed_penalty(now, self.config)
        if current <= self.config.reuse_threshold:
            return 0.0
        return math.log(current / self.config.reuse_threshold) / self.config.decay_rate

    def tracked(self) -> int:
        return len(self._state)
