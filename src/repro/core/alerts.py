"""Operational alerting: the testbed event bus.

:class:`EventBus` is the operator-facing event log.  Every fault and
recovery — link cuts, mux crashes and restarts, session transitions,
graceful-restart retention and flushes, client failovers — is emitted as
a :class:`TestbedEvent` with the simulated timestamp.  The log is
append-ordered and carries only deterministic data, so two same-seed
chaos runs produce byte-identical logs (the reproducibility property the
fault tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Engine

__all__ = [
    "Severity",
    "TestbedEvent",
    "EventBus",
]


class Severity(Enum):
    """Escalation levels for supervision events (repro.guard).

    Emitters pass ``severity="warning"`` etc. as event detail; the enum
    fixes the vocabulary and the ordering used by
    :meth:`EventBus.of_severity`.
    """

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "critical": 2}[self.value]


@dataclass(frozen=True)
class TestbedEvent:
    """One operational event: what happened, where, when."""

    kind: str
    time: float
    source: str = ""
    detail: Tuple[Tuple[str, object], ...] = ()

    def detail_dict(self) -> Dict[str, object]:
        return dict(self.detail)

    @property
    def severity(self) -> Optional[Severity]:
        """The event's severity tag, if the emitter set one."""
        raw = self.detail_dict().get("severity")
        try:
            return Severity(raw) if isinstance(raw, str) else None
        except ValueError:
            return None

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail)
        return f"[{self.time:10.3f}] {self.kind:<22} {self.source} {extra}".rstrip()


class EventBus:
    """Ordered, deterministic log of operational events + subscriptions.

    Subscribers run synchronously at emit time (in subscription order),
    which lets recovery logic — e.g. a client failing over when its mux
    crashes — ride the same deterministic schedule as the faults.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.events: List[TestbedEvent] = []
        self._subscribers: List[Callable[[TestbedEvent], None]] = []

    def emit(self, kind: str, source: str = "", **detail) -> TestbedEvent:
        # Emitters may pass severity as the enum or its string value; the
        # stored detail is normalized to the string so logs stay
        # comparison-friendly and ``TestbedEvent.severity`` parses either.
        event = TestbedEvent(
            kind=kind,
            time=self.engine.now,
            source=source,
            detail=tuple(
                sorted(
                    (key, value.value if isinstance(value, Severity) else value)
                    for key, value in detail.items()
                )
            ),
        )
        self.events.append(event)
        for subscriber in list(self._subscribers):
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[TestbedEvent], None]) -> None:
        self._subscribers.append(callback)

    def of_kind(self, *kinds: str) -> List[TestbedEvent]:
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def of_severity(self, minimum: Severity) -> List[TestbedEvent]:
        """Severity-tagged events at or above ``minimum`` — the operator's
        escalation view (quarantines and watchdog kills float to the top)."""
        return [
            event
            for event in self.events
            if event.severity is not None and event.severity.rank >= minimum.rank
        ]

    def log(self) -> List[Tuple[float, str, str, Tuple[Tuple[str, object], ...]]]:
        """The canonical, comparison-friendly form of the whole log."""
        return [(e.time, e.kind, e.source, e.detail) for e in self.events]

    def __len__(self) -> int:
        return len(self.events)
