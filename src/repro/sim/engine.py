"""Discrete-event simulation kernel.

Everything time-driven in the library — BGP keepalive/hold timers, MRAI,
route-flap-damping decay, scheduled announcements — runs on this engine.

The queue is a binary heap (``heapq``) of ``(time, seq, target)`` tuples:
``target`` is the :class:`Event` or :class:`Timer` to run and ``seq`` is
drawn from one per-engine counter, so entries order on ``(time, seq)`` —
time first, scheduling order among simultaneous ones — and the
comparison never reaches ``target``.

A :class:`Timer` keeps at most one entry it will act on.  Re-arming it to
a deadline at or after that entry's time only records the new key; the
entry left in the heap is then *stale*: when it reaches the head it is
re-queued under the recorded key (or dropped, if the timer was stopped
meanwhile) without running anything.  The sequence number is reserved
when the timer is re-armed, not when the stale entry surfaces, so
callbacks run in exactly the order a cancel-and-reschedule would give.

The engine is intentionally synchronous and deterministic: given the same
seedable inputs the same run is reproduced exactly, which the test suite
relies on.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush, heapreplace
from math import inf
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["SimulationError", "Event", "Timer", "Engine"]


class SimulationError(Exception):
    """Raised for scheduling in the past or running a broken engine."""


def _unschedulable(time: float, now: float) -> SimulationError:
    # Callers test `not time >= now`, which also catches NaN: it compares
    # false both ways, so it would pass a `<` test and corrupt heap order.
    return SimulationError(f"cannot schedule at {time}: not at or after now {now}")


class Event:
    """A scheduled callback.  Ordering: time, then insertion sequence."""

    __slots__ = ("time", "seq", "action", "cancelled", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        cancelled: bool = False,
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = cancelled
        self.label = label

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event {self.label!r} t={self.time} seq={self.seq}{state}>"

    def cancel(self) -> None:
        self.cancelled = True


_Entry = Tuple[float, int, Union[Event, "Timer"]]  # (time, seq, target)


class Timer:
    """A restartable one-shot timer bound to an engine.

    Mirrors the timers in a BGP implementation: ``start`` (re)arms it,
    ``stop`` disarms, and the callback fires once when it expires.
    """

    __slots__ = ("_engine", "interval", "_action", "label", "_armed", "_queued")

    def __init__(self, engine: "Engine", interval: float, action: Callable[[], None], label: str = "timer"):
        self._engine = engine
        self.interval = interval
        self._action = action
        self.label = label
        # `_armed` is the (deadline, seq, self) key the timer fires under,
        # `_queued` the heap entry that will carry it there.  They are the
        # same object unless the timer was re-armed later (`_queued` is
        # then stale) or stopped (`_armed` is None until it surfaces).
        self._armed: Optional[_Entry] = None
        self._queued: Optional[_Entry] = None

    @property
    def running(self) -> bool:
        return self._armed is not None

    def start(self, interval: Optional[float] = None) -> None:
        """(Re)arm the timer ``interval`` (default: configured) from now."""
        if interval is not None:
            self.interval = interval
        self._armed = None  # a start that raises leaves the timer stopped
        engine = self._engine
        now = engine.now
        deadline = now + self.interval
        if not deadline >= now:
            raise _unschedulable(deadline, now)
        self._armed = armed = (deadline, next(engine._seq), self)
        queued = self._queued
        if queued is None or queued[0] > deadline:
            # Nothing of ours will surface by the deadline.  An entry
            # displaced here is dropped when it reaches the head.
            self._queued = armed
            heappush(engine._queue, armed)

    def stop(self) -> None:
        self._armed = None

    def _fire(self) -> None:
        self._armed = self._queued = None
        self._action()


class Engine:
    """The event loop.  ``schedule`` relative, ``schedule_at`` absolute.

    ``processed`` counts callbacks run — not heap entries popped, which
    also include cancelled events and stale timer entries.  ``pending()``
    counts callbacks still due: each uncancelled event and each running
    timer once, however many entries the heap holds for them.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0
        self._running = False
        self.seed = seed
        self._rngs: Dict[str, random.Random] = {}

    def rng(self, label: str = "") -> random.Random:
        """A named random stream, seeded from ``(engine seed, label)``.

        Every consumer of randomness (fault injection, reconnect jitter)
        draws from its own labelled stream, so adding one consumer does
        not perturb another's sequence and a seeded run replays exactly.
        String seeding is hash-stable across processes.
        """
        stream = self._rngs.get(label)
        if stream is None:
            stream = random.Random(f"{self.seed}\x00{label}")
            self._rngs[label] = stream
        return stream

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` simulated seconds from now."""
        return self.schedule_at(self.now + delay, action, label=label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        if not time >= self.now:
            raise _unschedulable(time, self.now)
        seq = next(self._seq)
        event = Event(time, seq, action, False, label)
        heappush(self._queue, (time, seq, event))
        return event

    def timer(self, interval: float, action: Callable[[], None], label: str = "timer") -> Timer:
        return Timer(self, interval, action, label=label)

    def pending(self) -> int:
        count = 0
        for entry in self._queue:
            target = entry[2]
            if target.__class__ is Event:
                due = not target.cancelled
            else:
                due = entry is target._queued and target._armed is not None
            if due:
                count += 1
        return count

    def _requeue(self, entry: _Entry, timer: Timer) -> None:
        """Resolve a timer entry at the head that is not the armed one."""
        if entry is not timer._queued:
            heappop(self._queue)  # displaced by a re-arm to an earlier deadline
        elif timer._armed is None:
            heappop(self._queue)  # stopped since it was queued
            timer._queued = None
        else:
            heapreplace(self._queue, timer._armed)  # re-armed later: stale
            timer._queued = timer._armed

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        # The head dispatch of run(), repeated here so that run() pays no
        # call per event.
        queue = self._queue
        while queue:
            entry = queue[0]
            target = entry[2]
            if target.__class__ is Event:
                if target.cancelled:
                    heappop(queue)
                    continue
                action = target.action
            elif entry is target._armed:
                action = target._fire
            else:
                self._requeue(entry, target)
                continue
            heappop(queue)
            self.now = entry[0]
            self.processed += 1
            action()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Run events until the queue empties or ``until`` is reached.

        Returns the number of events processed.  ``max_events`` guards
        against livelock (e.g. a protocol bug producing an update storm) —
        exceeding it raises :class:`SimulationError` rather than hanging.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        queue = self._queue
        horizon = inf if until is None else until
        count = 0
        try:
            while queue:
                entry = queue[0]
                target = entry[2]
                if target.__class__ is Event:
                    if target.cancelled:
                        heappop(queue)
                        continue
                    action = target.action
                elif entry is target._armed:
                    action = target._fire
                else:
                    self._requeue(entry, target)
                    continue
                if entry[0] > horizon:
                    break
                if count >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events at t={self.now}; livelock?"
                    )
                heappop(queue)
                self.now = entry[0]
                self.processed += 1
                count += 1
                action()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return count

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Run for ``duration`` simulated seconds from now."""
        return self.run(until=self.now + duration, max_events=max_events)
