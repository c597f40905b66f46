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
* :meth:`Collector.export_metrics` dumps the registry.

Like its siblings, this module must not import :mod:`repro.core` at
runtime (core imports telemetry first); testbed/server objects are typed
under ``TYPE_CHECKING`` only.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from .lookingglass import LookingGlass
from .metrics import MetricsRegistry
from .routemon import RouteMonitor
from .tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.alerts import TestbedEvent
    from ..core.server import PeeringServer
    from ..core.testbed import Testbed

__all__ = ["Collector"]


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
            for key, session in attachment.sessions.items():
                self.monitor.attach_session(
                    server.site.name, attachment.client_id, key or None, session
                )

    # -- event stream ---------------------------------------------------------

    def _on_event(self, event: "TestbedEvent") -> None:
        severity = event.severity
        self._event_counter.labels(
            event.kind, severity.value if severity is not None else "none"
        ).inc()

    # -- export ---------------------------------------------------------------

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
