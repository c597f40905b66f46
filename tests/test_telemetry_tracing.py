"""Tests for repro.telemetry.tracing and span trees under the
deterministic scheduler (ISSUE acceptance: one traced announcement yields
a causally-linked tree client -> mux -> safety -> propagation)."""

import pytest

from repro.core.testbed import Testbed
from repro.inet.gen import InternetConfig
from repro.sim.engine import Engine
from repro.telemetry import tracing
from repro.telemetry.tracing import Tracer, maybe_span


class TestTracer:
    def test_parent_child_linkage(self):
        tracer = Tracer(clock=lambda: 1.0)
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                assert child.parent_id == parent.context.span_id
                assert child.trace_id == parent.trace_id
        assert len(tracer.finished) == 2

    def test_sibling_spans_share_trace(self):
        tracer = Tracer(clock=lambda: 1.0)
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.find("a")[0], tracer.find("b")[0]
        assert a.trace_id == b.trace_id
        assert a.parent_id == b.parent_id

    def test_new_root_starts_new_trace(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert len(tracer.trace_ids()) == 2

    def test_explicit_parent_context(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("origin") as origin:
            context = tracer.current_context()
        # Deferred work resumes the same trace via a captured context.
        with tracer.span("deferred", parent=context) as deferred:
            assert deferred.trace_id == origin.trace_id
            assert deferred.parent_id == origin.context.span_id

    def test_events_and_attributes(self):
        tracer = Tracer(clock=lambda: 2.5)
        with tracer.span("op", color="red") as span:
            tracer.event("milestone")
            span.set(extra=True)
        assert span.attributes["color"] == "red"
        assert span.attributes["extra"] is True
        assert span.events[0][1] == "milestone"

    def test_maybe_span_none_tracer_is_noop(self):
        with maybe_span(None, "anything") as span:
            assert span is None

    def test_deterministic_under_engine_clock(self):
        """Two identical runs on the sim clock produce identical spans."""

        def run():
            engine = Engine(seed=9)
            tracer = Tracer(clock=lambda: engine.now)

            def traced(d):
                with tracer.span(f"work-{d}"):
                    with tracer.span("inner"):
                        pass

            for delay in (1.0, 2.0, 3.0):
                engine.schedule(delay, lambda d=delay: traced(d))
            engine.run()
            return [
                (s.name, s.trace_id, s.span_id, s.parent_id, s.start)
                for s in tracer.finished
            ]

        assert run() == run()

    def test_span_ordering_is_stable(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        # Same start time: ordering falls back to span id (creation order).
        trace_id = tracer.trace_ids()[0]
        names = [s.name for s in tracer.spans_of(trace_id)]
        assert names == ["a", "b"]

    def test_finished_keeps_the_newest_and_counts_drops(self):
        keep = tracing._FINISHED_KEEP
        tracer = Tracer(clock=lambda: 0.0)
        for i in range(keep + 5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == keep
        assert tracer.dropped == 5
        assert tracer.finished[0].name == "s5"
        span = tracer.start_span("manual")
        tracer.end_span(span)
        assert tracer.dropped == 6
        assert tracer.finished[-1] is span


@pytest.fixture()
def observed_testbed():
    testbed = Testbed.build_default(
        InternetConfig(n_ases=300, total_prefixes=20_000, seed=91)
    )
    collector = testbed.observe()
    return testbed, collector


class TestTestbedTracing:
    def test_collector_reports_dropped_spans(self, observed_testbed):
        _, collector = observed_testbed
        assert collector.stats()["spans_dropped"] == 0
        tracer = collector.tracer
        for _ in range(tracing._FINISHED_KEEP + 3):
            with tracer.span("filler"):
                pass
        stats = collector.stats()
        assert stats["spans"] == tracing._FINISHED_KEEP
        assert stats["spans_dropped"] >= 3

    def test_announcement_span_tree(self, observed_testbed):
        """The acceptance criterion: client op -> mux -> safety check ->
        propagation, causally linked in one trace."""
        testbed, collector = observed_testbed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        testbed._flush_dirty()

        tracer = collector.tracer
        roots = tracer.find("client.announce")
        assert len(roots) == 1
        root = roots[0]
        trace = tracer.spans_of(root.trace_id)
        by_name = {span.name: span for span in trace}
        for name in (
            "client.announce",
            "mux.announce",
            "safety.check",
            "testbed.announce",
            "propagation.converge",
        ):
            assert name in by_name, f"missing span {name}"
        # Install is a point event on the convergence span (cheaper than
        # a nested span, same causality).
        converge_events = [e for _, e in by_name["propagation.converge"].events]
        assert "outcome.install" in converge_events
        # Causal chain: each layer is a descendant of the previous.
        assert root.parent_id is None
        assert by_name["mux.announce"].parent_id == root.context.span_id
        mux = by_name["mux.announce"]
        assert by_name["safety.check"].parent_id == mux.context.span_id
        assert by_name["testbed.announce"].parent_id == mux.context.span_id
        assert by_name["mux.announce"].attributes["verdict"] == "allowed"

    def test_deferred_convergence_joins_trace(self, observed_testbed):
        """Propagation deferred past the announce call still links back to
        the announcing trace via the captured dirty-prefix context."""
        testbed, collector = observed_testbed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        # Convergence has not run yet; trigger it through the lazy path.
        converge_before = collector.tracer.find("propagation.converge")
        testbed._flush_dirty()
        converge = collector.tracer.find("propagation.converge")
        assert len(converge) > len(converge_before)
        announce_trace = collector.tracer.find("client.announce")[0].trace_id
        assert converge[-1].trace_id == announce_trace

    def test_withdraw_trace(self, observed_testbed):
        testbed, collector = observed_testbed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        client.withdraw(prefix)
        testbed._flush_dirty()
        root = collector.tracer.find("client.withdraw")[0]
        trace_names = {
            span.name for span in collector.tracer.spans_of(root.trace_id)
        }
        assert {"client.withdraw", "mux.withdraw", "testbed.retract"} <= trace_names

    def test_tree_rendering(self, observed_testbed):
        testbed, collector = observed_testbed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        client.announce(client.prefixes[0])
        testbed._flush_dirty()
        trace_id = collector.tracer.find("client.announce")[0].trace_id
        rendered = collector.tracer.render(trace_id)
        assert "client.announce" in rendered
        assert "  mux.announce" in rendered  # indented child
