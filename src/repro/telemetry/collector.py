"""The telemetry collector: one install point for the whole subsystem.

``testbed.observe()`` mirrors ``testbed.supervise()``: it builds a
:class:`Collector`, wires it into the testbed (tracer on the control
path, route monitor on the muxes, an EventBus subscription for the
severity counters), and is idempotent.  After installation:

* every EventBus emission increments ``peering_events_total{kind,severity}``;
* every client operation produces a causally-linked span tree in
  ``collector.tracer`` (ids and timestamps deterministic — the tracer
  rides the simulation clock);
* every mux streams BMP-style messages into ``collector.monitor``;
* :meth:`Collector.timeline` merges events, finished spans, and route
  monitoring messages into one time-ordered operator view, and
  :meth:`Collector.export_metrics` dumps the registry.

Like its siblings, this module must not import :mod:`repro.core` at
runtime (core imports telemetry first); testbed/server objects are typed
under ``TYPE_CHECKING`` only and severity filters are duck-typed on
``.rank``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List, Optional, Protocol, Tuple

from ..bgp.session import BGPSession
from .lookingglass import LookingGlass
from .metrics import MetricsRegistry
from .routemon import RouteMonitor
from .tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.alerts import TestbedEvent
    from ..core.server import PeeringServer
    from ..core.testbed import Testbed

__all__ = ["Collector"]


class SeverityLike(Protocol):
    """Anything with a severity rank (``repro.core.alerts.Severity``)."""

    @property
    def rank(self) -> int: ...


class Collector:
    """Unified observability for one testbed."""

    def __init__(self, testbed: "Testbed") -> None:
        self.testbed = testbed
        self.metrics: MetricsRegistry = testbed.metrics
        # C-level zero-arg closure over the sim clock: spans read it twice
        # per operation, so no Python frame per tick.
        clock = partial(getattr, testbed.engine, "now")
        self.tracer = Tracer(clock=clock)
        self.monitor = RouteMonitor(testbed.asn, clock=clock, metrics=self.metrics)
        self.glass = LookingGlass(testbed, self.monitor)
        self._event_counter = self.metrics.counter(
            "peering_events_total",
            "EventBus emissions by kind and severity",
            ("kind", "severity"),
        )
        self._started = False

    # -- installation ---------------------------------------------------------

    def start(self) -> "Collector":
        """Wire into the testbed (called by ``testbed.observe()``)."""
        if self._started:
            return self
        self._started = True
        self.testbed.telemetry = self
        self.testbed.tracer = self.tracer
        self.testbed.events.subscribe(self._on_event)
        for server in self.testbed.servers.values():
            self.adopt_server(server)
        return self

    def adopt_server(self, server: "PeeringServer") -> None:
        """Start monitoring one mux, including already-connected clients."""
        self.monitor.adopt_mux(server.site.name, server.address)
        for attachment in server._clients.values():
            for peer_asn, session in attachment.sessions.items():
                self.attach_session(
                    server.site.name, attachment.client_id, peer_asn, session
                )
            if attachment.bird_session is not None:
                self.attach_session(
                    server.site.name, attachment.client_id, None,
                    attachment.bird_session,
                )

    def attach_session(
        self,
        server: str,
        client_id: str,
        peer: Optional[int],
        session: BGPSession,
    ) -> None:
        self.monitor.attach_session(server, client_id, peer, session)

    # -- event stream ---------------------------------------------------------

    def _on_event(self, event: "TestbedEvent") -> None:
        severity = event.severity
        self._event_counter.labels(
            event.kind, severity.value if severity is not None else "none"
        ).inc()

    # -- unified views --------------------------------------------------------

    def timeline(
        self, minimum: Optional[SeverityLike] = None
    ) -> List[Tuple[float, str, str]]:
        """Events, finished spans, and route-monitoring messages merged
        into one ``(time, stream, description)`` sequence.

        ``minimum`` filters the *event* stream by severity (spans and
        monitoring messages carry no severity and always appear).
        """
        entries: List[Tuple[float, str, str]] = []
        for event in self.testbed.events.events:
            if minimum is not None:
                severity = event.severity
                if severity is None or severity.rank < minimum.rank:
                    continue
            entries.append((event.time, "event", str(event).strip()))
        for span in self.tracer.finished:
            end = span.end if span.end is not None else span.start
            entries.append((end, "span", str(span)))
        for message in self.monitor.messages:
            entries.append((message.time, "bmp", str(message).strip()))
        entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        return entries

    def export_metrics(self) -> str:
        """The registry in Prometheus text format."""
        return self.metrics.export_text()

    def stats(self) -> dict:
        return {
            "events": len(self.testbed.events),
            "spans": len(self.tracer.finished),
            "spans_dropped": self.tracer.dropped,
            "bmp_messages": self.monitor.emitted,
            "monitored_muxes": len(self.monitor.servers()),
            "metric_families": len(self.metrics),
        }
