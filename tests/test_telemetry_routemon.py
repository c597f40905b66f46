"""Tests for BMP-style route monitoring, the looking glass, and EventBus
severity filtering."""

import pytest

from repro.bgp.attributes import Community
from repro.core.alerts import Severity
from repro.core.server import MuxMode
from repro.core.testbed import Testbed
from repro.inet.gen import InternetConfig
from repro.telemetry import routemon
from repro.telemetry.routemon import BMPKind, RouteMonitorMessage


@pytest.fixture()
def observed():
    testbed = Testbed.build_default(
        InternetConfig(n_ases=300, total_prefixes=20_000, seed=92)
    )
    collector = testbed.observe()
    return testbed, collector


class TestRouteMonitoring:
    def test_post_policy_messages_on_announce(self, observed):
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        monitored = collector.monitor.for_prefix(prefix)
        assert monitored
        message = monitored[-1]
        assert message.kind is BMPKind.ROUTE_MONITORING
        assert not message.pre_policy
        assert message.server == "gatech01"
        rib = collector.monitor.rib("gatech01")
        assert prefix in rib

    def test_withdraw_removes_from_monitored_rib(self, observed):
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        client.withdraw(prefix)
        assert prefix not in collector.monitor.rib("gatech01")
        withdraws = [
            m for m in collector.monitor.for_prefix(prefix) if m.withdraw
        ]
        assert withdraws

    def test_pre_policy_wire_view(self, observed):
        """A BGP-attached client's UPDATEs appear as pre-policy route
        monitoring messages, even for announcements safety rejects."""
        testbed, collector = observed
        victim = testbed.register_client("victim", "alice")
        attacker = testbed.register_client("attacker", "mallory")
        router = attacker.attach_bgp("gatech01", local_asn=65001)
        stolen = testbed.experiments["victim"].prefixes[0]
        router.originate(stolen)
        pre = [
            m
            for m in collector.monitor.for_prefix(stolen)
            if m.pre_policy and m.kind is BMPKind.ROUTE_MONITORING
        ]
        assert pre  # the wire saw it...
        assert stolen not in collector.monitor.rib("gatech01")  # ...policy didn't

    def test_peer_up_messages(self, observed):
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach_bgp("gatech01", local_asn=65000)
        ups = collector.monitor.of_kind(BMPKind.PEER_UP)
        assert ups
        assert all(m.server == "gatech01" for m in ups)

    def test_peer_down_on_detach(self, observed):
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach_bgp("gatech01", local_asn=65000)
        client.detach("gatech01")
        downs = collector.monitor.of_kind(BMPKind.PEER_DOWN)
        assert downs

    def test_rib_routes_carry_steering(self, observed):
        """The monitored RIB renders as BGP routes: the mux's export path
        with its prepends, and one ``PEERING:peer`` community per peer the
        announcement selected."""
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice", prefix_count=2)
        client.attach("gatech01")
        server = testbed.server("gatech01")
        chosen = sorted(server.neighbor_asns)[:1]
        steered, plain = client.prefixes
        client.announce(steered, peers=chosen, prepend=2)
        client.announce(plain)
        routes = {r.prefix: r for r in collector.monitor.rib_routes("gatech01")}
        assert set(routes) == {steered, plain}
        asn = testbed.asn
        route = routes[steered]
        assert route.peer_asn == asn
        assert route.attributes.as_path.asns() == (asn, asn, asn)
        assert route.attributes.communities == frozenset({Community(asn, chosen[0])})
        assert route.learned_at == int(route.learned_at)
        assert routes[plain].attributes.as_path.asns() == (asn,)
        assert not routes[plain].attributes.communities


class TestLookingGlass:
    def test_routes_match_outcome(self, observed):
        """Acceptance: glass answers match the RoutingOutcome route for
        route."""
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        outcome = testbed.outcome_for(prefix)
        assert outcome is not None
        glass_routes = collector.glass.routes(prefix)
        assert len(glass_routes) == len(outcome)
        for asn, route in outcome.items():
            assert glass_routes[asn] == route
            assert collector.glass.as_path(prefix, asn) == outcome.as_path(asn)

    def test_origins_and_visibility(self, observed):
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        client.attach("amsterdam01", mode=MuxMode.BIRD)
        prefix = client.prefixes[0]
        client.announce(prefix)
        origins = collector.glass.origins(prefix)
        assert set(origins) == {"gatech01", "amsterdam01"}
        assert collector.glass.visibility(prefix) > 0

    def test_unknown_prefix_is_empty(self, observed):
        testbed, collector = observed
        from repro.net.addr import Prefix

        assert collector.glass.routes(Prefix("203.0.113.0/24")) == {}


class TestSeverityFiltering:
    def test_of_severity_orders_and_filters(self):
        from repro.sim.engine import Engine
        from repro.core.alerts import EventBus

        bus = EventBus(Engine(seed=1))
        bus.emit("a", severity="info")
        bus.emit("b", severity="warning")
        bus.emit("c", severity="critical")
        bus.emit("d")  # untagged: never escalated
        assert [e.kind for e in bus.of_severity(Severity.INFO)] == ["a", "b", "c"]
        assert [e.kind for e in bus.of_severity(Severity.WARNING)] == ["b", "c"]
        assert [e.kind for e in bus.of_severity(Severity.CRITICAL)] == ["c"]

    def test_emit_accepts_enum_and_normalizes(self):
        from repro.sim.engine import Engine
        from repro.core.alerts import EventBus

        bus = EventBus(Engine(seed=1))
        event = bus.emit("x", severity=Severity.WARNING)
        assert event.detail_dict()["severity"] == "warning"
        assert event.severity is Severity.WARNING

    def test_invalid_severity_string_is_untagged(self):
        from repro.sim.engine import Engine
        from repro.core.alerts import EventBus

        bus = EventBus(Engine(seed=1))
        event = bus.emit("x", severity="shouting")
        assert event.severity is None
        assert bus.of_severity(Severity.INFO) == []

    def test_collector_counts_events_by_severity(self, observed):
        testbed, collector = observed
        testbed.events.emit("custom-event", severity="critical")
        events = testbed.metrics.get("peering_events_total")
        assert events.labels("custom-event", "critical").value == 1.0

    def test_messages_keep_the_newest_and_count_drops(self, observed):
        testbed, collector = observed
        client = testbed.register_client("exp1", "alice")
        client.attach_bgp("gatech01")
        testbed.engine.run_for(1)
        monitor = collector.monitor
        before = monitor.emitted
        assert before > 0 and monitor.dropped == 0
        keep, extra = routemon._MESSAGES_KEEP, 7
        for i in range(keep + extra):
            monitor._emit(
                RouteMonitorMessage(
                    BMPKind.PEER_UP, 10.0 + i, "gatech01", "filler", reason=f"m{i}"
                )
            )
        assert len(monitor.messages) == keep
        assert monitor.dropped == before + extra
        assert collector.stats()["bmp_messages"] == before + keep + extra
        assert monitor.messages[0].reason == f"m{extra}"
        assert len(monitor.of_kind(BMPKind.PEER_UP)) == keep
