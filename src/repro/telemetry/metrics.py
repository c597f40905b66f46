"""Metrics: counters, gauges, and histograms with label sets.

:class:`MetricsRegistry` is the testbed's single source of truth for
operational statistics.  Every subsystem (propagation engine, muxes,
safety enforcers, the supervision layer) registers
metric *families* here; a family plus one concrete label-value set yields
a *child*, the object call sites actually increment.  Children are plain
slotted objects whose hot operation is one float addition, so
instrumentation stays cheap enough for the propagation benchmarks.

Export follows the Prometheus text exposition format closely enough for
standard tooling to scrape a dump::

    # HELP peering_announcements_total Announcements accepted per mux
    # TYPE peering_announcements_total counter
    peering_announcements_total{server="amsterdam01"} 12

Naming scheme (DESIGN.md §10): ``peering_<subsystem>_<noun>[_<unit>]``
with ``_total`` on counters; label names are lowercase identifiers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricError",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

LabelValues = Tuple[str, ...]

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class MetricError(Exception):
    """Bad metric registration or use (type/label mismatch, negative inc)."""


class CounterChild:
    """One monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up (inc by {amount})")
        self.value += amount


class GaugeChild:
    """One sample that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramChild:
    """One cumulative histogram (bucket counts + sum + count)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts: List[int] = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper-bound, cumulative count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _sample_name(name: str, labelnames: Tuple[str, ...], values: LabelValues) -> str:
    if not labelnames:
        return name
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in zip(labelnames, values)
    )
    return f"{name}{{{inner}}}"


class _Family:
    """One named metric family: fixed label names, many children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames

    def _values(self, args: Tuple[object, ...], kwargs: Dict[str, object]) -> LabelValues:
        if kwargs:
            if args:
                raise MetricError("pass label values positionally or by name, not both")
            try:
                args = tuple(kwargs[key] for key in self.labelnames)
            except KeyError as missing:
                raise MetricError(
                    f"{self.name} labels are {self.labelnames}, missing {missing}"
                ) from None
            if len(kwargs) != len(self.labelnames):
                raise MetricError(
                    f"{self.name} labels are {self.labelnames}, got {sorted(kwargs)}"
                )
        if len(args) != len(self.labelnames):
            raise MetricError(
                f"{self.name} takes {len(self.labelnames)} label values, got {len(args)}"
            )
        return tuple(str(value) for value in args)


class Counter(_Family):
    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        super().__init__(name, help, labelnames)
        self._children: Dict[LabelValues, CounterChild] = {}
        if not labelnames:
            self._children[()] = CounterChild()

    def labels(self, *args: object, **kwargs: object) -> CounterChild:
        key = self._values(args, kwargs)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = CounterChild()
        return child

    def inc(self, amount: float = 1.0) -> None:
        """Label-less convenience: increment the default child."""
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        """Sum over all children (the family total)."""
        return sum(child.value for child in self._children.values())

    def samples(self) -> Iterator[Tuple[str, float]]:
        for key in sorted(self._children):
            yield _sample_name(self.name, self.labelnames, key), self._children[key].value


class Gauge(_Family):
    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        super().__init__(name, help, labelnames)
        self._children: Dict[LabelValues, GaugeChild] = {}
        if not labelnames:
            self._children[()] = GaugeChild()

    def labels(self, *args: object, **kwargs: object) -> GaugeChild:
        key = self._values(args, kwargs)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = GaugeChild()
        return child

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    @property
    def value(self) -> float:
        return sum(child.value for child in self._children.values())

    def samples(self) -> Iterator[Tuple[str, float]]:
        for key in sorted(self._children):
            yield _sample_name(self.name, self.labelnames, key), self._children[key].value


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        if list(buckets) != sorted(buckets) or not buckets:
            raise MetricError(f"{name}: buckets must be non-empty and ascending")
        self.buckets = tuple(float(bound) for bound in buckets)
        self._children: Dict[LabelValues, HistogramChild] = {}
        if not labelnames:
            self._children[()] = HistogramChild(self.buckets)

    def labels(self, *args: object, **kwargs: object) -> HistogramChild:
        key = self._values(args, kwargs)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = HistogramChild(self.buckets)
        return child

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def samples(self) -> Iterator[Tuple[str, float]]:
        for key in sorted(self._children):
            child = self._children[key]
            for bound, cumulative in child.cumulative():
                le = "+Inf" if bound == float("inf") else format(bound, "g")
                yield (
                    _sample_name(
                        f"{self.name}_bucket", self.labelnames + ("le",), key + (le,)
                    ),
                    float(cumulative),
                )
            yield _sample_name(f"{self.name}_sum", self.labelnames, key), child.sum
            yield _sample_name(f"{self.name}_count", self.labelnames, key), float(child.count)


class MetricsRegistry:
    """Get-or-create registry of metric families.

    Registration is idempotent: asking for an existing name returns the
    existing family (so every mux can register the shared
    ``peering_safety_decisions_total`` family and pick its own label
    child), but re-registering with a different type or label set is an
    error — that would silently fork the single source of truth.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is None:
            self._families[family.name] = family
            return family
        if existing.kind != family.kind or existing.labelnames != family.labelnames:
            raise MetricError(
                f"{family.name} already registered as {existing.kind}"
                f"{existing.labelnames}, not {family.kind}{family.labelnames}"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        family = self._register(Counter(name, help, tuple(labelnames)))
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        family = self._register(Gauge(name, help, tuple(labelnames)))
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._register(Histogram(name, help, tuple(labelnames), buckets))
        assert isinstance(family, Histogram)
        return family

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def __len__(self) -> int:
        return len(self._families)

    # -- export ---------------------------------------------------------------

    def export_text(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample, value in family.samples():  # type: ignore[attr-defined]
                lines.append(f"{sample} {format(value, 'g')}")
        return "\n".join(lines) + "\n"
