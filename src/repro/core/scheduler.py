"""The announcement-scheduling web service (§3 "Easing management").

"We implemented a prototype web service that lets users schedule
announcements without setting up a client software router ... The system
will then notify researchers when their announcements will be executed."

:class:`AnnouncementScheduler` models exactly that: researchers submit
timed announce/withdraw requests, the scheduler checks conflicts (two
experiments cannot schedule the same prefix; one experiment cannot
double-book a prefix in overlapping windows), executes them on the event
engine, and fires notifications so researchers can time their
measurements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..net.addr import Prefix
from ..sim.engine import Engine
from .server import AnnouncementSpec, PeeringServer

__all__ = ["ScheduleStatus", "ScheduledTask", "SchedulerError", "AnnouncementScheduler"]


class SchedulerError(Exception):
    """Raised for conflicting or malformed schedules."""


class ScheduleStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class ScheduledTask:
    """One scheduled announcement window: announce at ``start``, withdraw
    at ``start + duration`` (duration None = leave announced)."""

    task_id: int
    client_id: str
    prefix: Prefix
    server_name: str
    start: float
    duration: Optional[float]
    spec: AnnouncementSpec
    status: ScheduleStatus = ScheduleStatus.PENDING
    failure: str = ""

    @property
    def end(self) -> Optional[float]:
        return None if self.duration is None else self.start + self.duration

    def overlaps(self, other: "ScheduledTask") -> bool:
        if self.prefix != other.prefix:
            return False
        a_end = self.end if self.end is not None else float("inf")
        b_end = other.end if other.end is not None else float("inf")
        return self.start < b_end and other.start < a_end


class AnnouncementScheduler:
    """Timed announcement execution with conflict checking and
    notifications."""

    def __init__(self, engine: Engine, servers: Dict[str, PeeringServer]) -> None:
        self.engine = engine
        self.servers = servers
        self._tasks: Dict[int, ScheduledTask] = {}
        self._ids = itertools.count(1)
        self.notifications: List[Tuple[float, int, str]] = []
        self.on_notify: Optional[Callable[[ScheduledTask, str], None]] = None

    def schedule(
        self,
        client_id: str,
        prefix: Prefix,
        server_name: str,
        start: float,
        duration: Optional[float] = None,
        spec: Optional[AnnouncementSpec] = None,
    ) -> ScheduledTask:
        """Book an announcement window; raises on conflicts."""
        if server_name not in self.servers:
            raise SchedulerError(f"unknown server {server_name!r}")
        if start < self.engine.now:
            raise SchedulerError(f"start {start} is in the past (now {self.engine.now})")
        task = ScheduledTask(
            task_id=next(self._ids),
            client_id=client_id,
            prefix=prefix,
            server_name=server_name,
            start=start,
            duration=duration,
            spec=spec or AnnouncementSpec(),
        )
        for other in self._tasks.values():
            if other.status in (ScheduleStatus.PENDING, ScheduleStatus.RUNNING):
                if task.overlaps(other) and other.client_id != client_id:
                    raise SchedulerError(
                        f"{prefix} already booked by {other.client_id!r} "
                        f"(task {other.task_id})"
                    )
                if task.overlaps(other) and other.client_id == client_id:
                    raise SchedulerError(
                        f"{prefix} double-booked by task {other.task_id}"
                    )
        self._tasks[task.task_id] = task
        self.engine.schedule_at(start, lambda: self._start_task(task), label=f"announce:{task.task_id}")
        self._notify(task, f"scheduled: announce {prefix} at t={start}")
        return task

    def cancel(self, task_id: int) -> None:
        task = self._tasks.get(task_id)
        if task is None:
            raise SchedulerError(f"unknown task {task_id}")
        if task.status is ScheduleStatus.RUNNING:
            self._finish_task(task)
        task.status = ScheduleStatus.CANCELLED
        self._notify(task, "cancelled")

    def tasks_for(self, client_id: str) -> List[ScheduledTask]:
        return [t for t in self._tasks.values() if t.client_id == client_id]

    def _start_task(self, task: ScheduledTask) -> None:
        if task.status is not ScheduleStatus.PENDING:
            return
        server = self.servers[task.server_name]
        decision = server.announce(task.client_id, task.prefix, task.spec)
        if not decision.allowed:
            task.status = ScheduleStatus.FAILED
            task.failure = decision.detail
            self._notify(task, f"failed: {decision.detail}")
            return
        task.status = ScheduleStatus.RUNNING
        self._notify(task, f"announced {task.prefix} via {task.server_name}")
        if task.duration is not None:
            self.engine.schedule(
                task.duration, lambda: self._end_task(task), label=f"withdraw:{task.task_id}"
            )

    def _end_task(self, task: ScheduledTask) -> None:
        if task.status is not ScheduleStatus.RUNNING:
            return
        self._finish_task(task)
        task.status = ScheduleStatus.DONE
        self._notify(task, f"withdrew {task.prefix}")

    def _finish_task(self, task: ScheduledTask) -> None:
        server = self.servers[task.server_name]
        server.withdraw(task.client_id, task.prefix)

    def _notify(self, task: ScheduledTask, message: str) -> None:
        self.notifications.append((self.engine.now, task.task_id, message))
        if self.on_notify is not None:
            self.on_notify(task, message)
