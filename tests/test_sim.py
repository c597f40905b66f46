"""Tests for the discrete-event engine."""

import heapq
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.sim import Engine, SimulationError


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5, lambda: order.append("b"))
        engine.schedule(1, lambda: order.append("a"))
        engine.schedule(9, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9

    def test_fifo_for_simultaneous(self):
        engine = Engine()
        order = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.schedule(5, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1, lambda: None)

    def test_run_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1, lambda: fired.append(1))
        engine.schedule(10, lambda: fired.append(10))
        engine.run(until=5)
        assert fired == [1]
        assert engine.now == 5
        engine.run()
        assert fired == [1, 10]

    def test_run_for(self):
        engine = Engine()
        fired = []
        engine.schedule(3, lambda: fired.append(3))
        engine.run_for(2)
        assert engine.now == 2 and fired == []
        engine.run_for(2)
        assert fired == [3]

    def test_cancel(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_events_can_schedule_events(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1, lambda: chain(n + 1))

        engine.schedule(0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3

    def test_livelock_guard(self):
        engine = Engine()

        def forever():
            engine.schedule(0, forever)

        engine.schedule(0, forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)


class TestTimer:
    def test_fires_once(self):
        engine = Engine()
        fired = []
        timer = engine.timer(5, lambda: fired.append(engine.now))
        timer.start()
        engine.run()
        assert fired == [5]
        assert not timer.running

    def test_restart_pushes_back(self):
        engine = Engine()
        fired = []
        timer = engine.timer(5, lambda: fired.append(engine.now))
        timer.start()
        engine.run(until=3)
        timer.start()  # re-arm at t=3
        engine.run()
        assert fired == [8]

    def test_stop(self):
        engine = Engine()
        fired = []
        timer = engine.timer(5, lambda: fired.append(1))
        timer.start()
        timer.stop()
        engine.run()
        assert fired == []

    def test_interval_override(self):
        engine = Engine()
        fired = []
        timer = engine.timer(5, lambda: fired.append(engine.now))
        timer.start(interval=2)
        engine.run()
        assert fired == [2]

    def test_running_is_false_inside_its_own_callback_and_after_stop(self):
        engine = Engine()
        seen = []
        timer = engine.timer(5, lambda: seen.append(timer.running))
        assert not timer.running
        timer.start()
        assert timer.running
        engine.run()
        assert seen == [False] and not timer.running
        timer.start()
        timer.stop()
        assert not timer.running


class TestRejectedTimes:
    def test_nan_time_is_rejected(self):
        # NaN compares false both ways: a `time < now` test lets it in, and
        # once queued it runs at an arbitrary position and sets `now` to NaN.
        engine = Engine()
        nan = float("nan")
        timer = engine.timer(5, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            timer.start(interval=nan)
        assert engine.pending() == 0 and not timer.running
        assert engine.run() == 0 and engine.now == 0.0

    def test_negative_timer_interval_is_rejected(self):
        engine = Engine()
        engine.run(until=10)
        timer = engine.timer(5, lambda: None)
        timer.start()
        with pytest.raises(SimulationError):
            timer.start(interval=-1)
        assert not timer.running  # start = stop + arm, and the arm failed


class TestBookkeeping:
    """What ``processed``, ``pending()`` and ``now`` mean when the heap
    holds entries that run nothing: cancelled events, stopped timers and
    the stale entries of re-armed ones."""

    def test_processed_counts_callbacks_run_not_entries_popped(self):
        engine = Engine()
        ran = []
        engine.schedule(1, lambda: ran.append("a"))
        engine.schedule(2, lambda: ran.append("b")).cancel()
        stopped = engine.timer(3, lambda: ran.append("stopped"))
        stopped.start()
        stopped.stop()
        rearmed = engine.timer(4, lambda: ran.append("rearmed"))
        rearmed.start()
        rearmed.start(interval=6)  # supersedes the expiry at t=4 ...
        rearmed.start(interval=2)  # ... and this one the expiry at t=6
        assert engine.run() == 2
        assert ran == ["a", "rearmed"]
        assert engine.processed == 2 and engine.now == 2

    def test_pending_counts_a_rearmed_timer_once_and_a_stopped_one_not_at_all(self):
        engine = Engine()
        timer = engine.timer(5, lambda: None)
        assert engine.pending() == 0
        timer.start()
        assert engine.pending() == 1
        timer.start(interval=9)  # later
        assert engine.pending() == 1
        timer.start(interval=2)  # earlier
        assert engine.pending() == 1
        timer.stop()
        assert engine.pending() == 0
        timer.start(interval=7)
        engine.schedule(1, lambda: None)
        assert engine.pending() == 2
        engine.run()
        assert engine.pending() == 0

    def test_run_over_only_stopped_timers_leaves_now_unchanged(self):
        engine = Engine()
        engine.run(until=3)
        timers = [engine.timer(5 + i, lambda: None) for i in range(3)]
        for timer in timers:
            timer.start()
        timers[0].start(interval=20)
        for timer in timers:
            timer.stop()
        assert engine.run() == 0
        assert engine.now == 3 and engine.processed == 0
        assert not engine.step()
        assert engine.now == 3

    def test_event_not_run_when_max_events_trips_is_still_queued(self):
        engine = Engine()
        ran = []
        for label in "abc":
            engine.schedule(1, lambda label=label: ran.append(label))
        with pytest.raises(SimulationError):
            engine.run(max_events=2)
        assert ran == ["a", "b"] and engine.pending() == 1
        assert engine.run() == 1  # the guard left the engine usable
        assert ran == ["a", "b", "c"]

    def test_exactly_max_events_is_not_a_livelock(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(1, lambda: None)
        assert engine.run(max_events=3) == 3

    def test_reentrant_run_is_rejected(self):
        engine = Engine()
        caught = []

        def reenter():
            with pytest.raises(SimulationError):
                engine.run()
            caught.append(engine.now)

        engine.schedule(1, reenter)
        engine.run()
        assert caught == [1]


# -- differential: the kernel against cancel-and-reschedule --------------------


@dataclass(order=True)
class _ReferenceEvent:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)

    def cancel(self):
        self.cancelled = True


class _ReferenceTimer:
    """Restart = cancel the queued event and schedule a new one."""

    def __init__(self, engine, interval, action, label="timer"):
        self._engine = engine
        self.interval = interval
        self._action = action
        self._event = None
        self.label = label

    @property
    def running(self):
        return self._event is not None and not self._event.cancelled

    def start(self, interval=None):
        if interval is not None:
            self.interval = interval
        self.stop()
        self._event = self._engine.schedule(self.interval, self._fire, label=self.label)

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._action()


class _ReferenceEngine:
    """The eager kernel ``Engine`` must stay observably equal to: a heap of
    ordered event objects, one per ``schedule`` *and* per timer (re)start,
    each popped and either run or found cancelled."""

    def __init__(self):
        self._queue = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0
        self._running = False

    def schedule(self, delay, action, label=""):
        return self.schedule_at(self.now + delay, action, label=label)

    def schedule_at(self, time, action, label=""):
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        event = _ReferenceEvent(time=time, seq=next(self._seq), action=action, label=label)
        heapq.heappush(self._queue, event)
        return event

    def timer(self, interval, action, label="timer"):
        return _ReferenceTimer(self, interval, action, label=label)

    def pending(self):
        return sum(1 for event in self._queue if not event.cancelled)

    def step(self):
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            self.processed += 1
            event.action()
            return True
        return False

    def run(self, until=None, max_events=1_000_000):
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        count = 0
        try:
            while self._queue:
                head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head.time > until:
                    break
                if count >= max_events:
                    raise SimulationError(f"exceeded {max_events} events at t={self.now}; livelock?")
                if self.step():
                    count += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return count

    def run_for(self, duration, max_events=1_000_000):
        return self.run(until=self.now + duration, max_events=max_events)


# Few distinct values, so deadlines collide and a re-arm lands before, on
# and after the deadline it replaces.
_GAPS = (0, 0.5, 1, 1, 2, 2, 3, 5)


def _random_batch(rng, n_timers, depth=0):
    """What one callback does when it fires, as plain data."""
    batch = []
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.choice(("start", "start", "start", "stop", "cancel", "schedule"))
        if kind == "start":
            batch.append(("start", rng.randrange(n_timers), rng.choice((None,) + _GAPS)))
        elif kind == "stop":
            batch.append(("stop", rng.randrange(n_timers)))
        elif kind == "cancel":
            batch.append(("cancel", rng.randrange(64)))
        elif depth < 2:
            batch.append(("schedule", rng.choice(_GAPS), _random_batch(rng, n_timers, depth + 1)))
    return tuple(batch)


def _random_script(rng):
    n_timers = rng.randrange(2, 6)
    timers = [
        # Batch k runs at the timer's k-th expiry; most re-arm the timer itself.
        (rng.choice(_GAPS[1:]), [
            _random_batch(rng, n_timers) + ((("start", k, None),) if rng.random() < 0.6 else ())
            for _ in range(rng.randrange(8))
        ])
        for k in range(n_timers)
    ]
    ops = []
    for _ in range(rng.randrange(20, 60)):
        kind = rng.choice(
            ("mutate",) * 6 + ("run_until", "run_until", "run_for", "run_for", "step", "step", "run_max", "run")
        )
        if kind == "mutate":
            ops.append(("mutate", _random_batch(rng, n_timers) or (("start", 0, None),)))
        elif kind in ("run_until", "run_for"):
            ops.append((kind, rng.choice(_GAPS)))
        elif kind == "run_max":
            ops.append((kind, rng.choice(_GAPS), rng.randrange(4)))
        else:
            ops.append((kind,))
    return timers, ops


def _play(engine, script, rearms):
    """Drive ``engine`` through ``script``; returns everything observable:
    each callback as ``(label, now, running flags)`` and, after each
    top-level op, its return value, ``now``, ``processed`` and ``pending()``."""
    timer_specs, ops = script
    trace, events, timers, deadlines = [], [], [], {}

    def do(op):
        if op[0] == "schedule":
            label = f"e{len(events)}"
            events.append(engine.schedule(op[1], lambda: fired(label, op[2]), label=label))
        elif op[0] == "start":
            timer = timers[op[1]]
            deadline = engine.now + (timer.interval if op[2] is None else op[2])
            old = deadlines.get(op[1], deadline)
            rearms[
                "idle" if op[1] not in deadlines
                else "later" if deadline > old
                else "earlier" if deadline < old
                else "equal"
            ] += 1
            deadlines[op[1]] = deadline
            timer.start(op[2])
        elif op[0] == "stop":
            deadlines.pop(op[1], None)
            timers[op[1]].stop()
        elif events:  # cancel
            events[op[1] % len(events)].cancel()

    def fired(label, batch):
        trace.append((label, engine.now, tuple(timer.running for timer in timers)))
        for op in batch:
            do(op)

    def expired(k, batches):
        del deadlines[k]
        batch = batches.pop(0) if batches else ()
        rearms["self" if ("start", k, None) in batch else "expired"] += 1
        fired(f"t{k}", batch)

    for k, (interval, batches) in enumerate(timer_specs):
        timers.append(engine.timer(interval, lambda k=k, batches=list(batches): expired(k, batches), label=f"t{k}"))

    for op in ops:
        result = None
        if op[0] == "mutate":
            for inner in op[1]:
                do(inner)
        elif op[0] == "run":
            result = engine.run()
        elif op[0] == "run_until":
            result = engine.run(until=engine.now + op[1])
        elif op[0] == "run_for":
            result = engine.run_for(op[1])
        elif op[0] == "step":
            result = engine.step()
        else:  # run_max
            try:
                result = engine.run(until=engine.now + op[1], max_events=op[2])
            except SimulationError:
                result = "livelock"
        trace.append((op[0], result, engine.now, engine.processed, engine.pending()))
    return trace


def test_firing_order_equals_cancel_and_reschedule():
    """300 seeded scripts — events and timers on colliding timestamps;
    ``start`` on a pending timer to a later, equal and earlier deadline;
    ``start``/``stop``/``cancel`` from inside callbacks, timers re-arming
    themselves; ``run``, ``run(until)``, ``run_for``, ``step`` and a
    tripping ``max_events`` interleaved — fire the same callbacks at the
    same times in the same order on ``Engine`` and on the eager reference,
    with the same ``now``, ``processed``, ``pending()``, ``Timer.running``
    and return values after every op."""
    rearms = Counter()
    fired = livelocks = 0
    for seed in range(300):
        script = _random_script(random.Random(seed))
        want = _play(_ReferenceEngine(), script, Counter())
        got = _play(Engine(), script, rearms)
        assert got == want, seed
        fired += sum(1 for row in got if len(row) == 3)
        livelocks += sum(1 for row in got if row[1] == "livelock")
    # The scripts reached what they are here for.
    assert fired > 5000 and livelocks > 100
    assert all(rearms[case] > 500 for case in ("idle", "later", "equal", "earlier", "self", "expired")), rearms
