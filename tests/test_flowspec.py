"""FlowSpec subsystem: rule model, §6 validation, graceful degradation,
data-plane enforcement, fault-plan steps, and the DDoS campaign."""

import json
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.inet.dataplane import DataPlane, DeliveryStatus
from repro.inet.routing import Announcement, ASRoute, RouteKind, propagate
from repro.inet.topology import ASGraph, ASNode
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet
from repro.secroute import SecurityPolicy
from repro.secroute.campaign import AttackSurface
from repro.secroute.flowspec import (
    EnforcementVerdict,
    FlowSpecAction,
    FlowSpecActionKind,
    FlowSpecDistributor,
    FlowSpecRule,
    resolver_from_outcomes,
)
from repro.sim.engine import Engine
from repro.telemetry.lookingglass import LookingGlass
from repro.telemetry.metrics import MetricsRegistry

PREFIX = Prefix("184.164.224.0/24")
SUB = Prefix("184.164.224.0/25")
TARGET = IPAddress("184.164.224.1")


def chain_world():
    """9 -> 4 -> 1 -> 3 -> 5(victim); 66 hijacker under 4."""
    g = ASGraph()
    for asn in (1, 3, 4, 5, 66, 9):
        g.add_as(ASNode(asn=asn))
    g.add_provider(3, 1)
    g.add_provider(4, 1)
    g.add_provider(5, 3)
    g.add_provider(66, 4)
    g.add_provider(9, 4)
    return g


def victim_outcome(g):
    return propagate(g, Announcement.single(5, prefix=PREFIX))


def make_distributor(g, deployers=(1, 3, 4, 9), **kwargs):
    outcome = victim_outcome(g)
    resolver = resolver_from_outcomes({PREFIX: outcome})
    return FlowSpecDistributor(deployers=deployers, resolver=resolver, **kwargs), outcome


def rule(action=None, originator=5, dst=PREFIX, **kw):
    return FlowSpecRule(
        dst_prefix=dst,
        originator=originator,
        action=action or FlowSpecAction.discard(),
        **kw,
    )


def pkt(proto="udp", dst_port=123, src="7.7.7.7", dst=TARGET, **kw):
    return Packet(src=IPAddress(src), dst=dst, proto=proto, dst_port=dst_port, **kw)


class TestActionAndRuleModel:
    def test_action_validation(self):
        with pytest.raises(ValueError):
            FlowSpecAction(kind=FlowSpecActionKind.RATE_LIMIT, rate=-1)
        with pytest.raises(ValueError):
            FlowSpecAction(kind=FlowSpecActionKind.REDIRECT)
        with pytest.raises(ValueError):
            FlowSpecAction(kind=FlowSpecActionKind.MARK)
        assert FlowSpecAction.discard().rate == 0
        assert "discard" in str(FlowSpecAction.discard())
        assert "AS7" in str(FlowSpecAction.redirect(7))

    def test_port_range_validation(self):
        with pytest.raises(ValueError):
            rule(dst_ports=((5, 2),))
        with pytest.raises(ValueError):
            rule(src_ports=((0, 70000),))

    def test_matching(self):
        r = rule(protos=("udp",), dst_ports=((100, 200),))
        assert r.matches(pkt(dst_port=123))
        assert not r.matches(pkt(proto="tcp"))
        assert not r.matches(pkt(dst_port=443))
        assert not r.matches(pkt(dst_port=None))  # port component needs a port
        assert not r.matches(pkt(dst=IPAddress("10.0.0.1")))

    def test_src_prefix_and_src_port_matching(self):
        r = rule(src_prefix=Prefix("7.0.0.0/8"), src_ports=((1000, 2000),))
        assert r.matches(pkt(src_port=1500))
        assert not r.matches(pkt(src_port=999))
        assert not r.matches(pkt(src="8.8.8.8", src_port=1500))

    def test_ordering_destination_specificity_dominates(self):
        less = rule()
        more = rule(dst=SUB)
        constrained = rule(protos=("udp",), dst_ports=((123, 123),))
        order = sorted([less, constrained, more], key=FlowSpecRule.sort_key)
        assert order == [more, constrained, less]

    def test_ordering_is_total_and_deterministic(self):
        rules = [
            rule(),
            rule(dst=SUB),
            rule(protos=("udp",)),
            rule(protos=("tcp",)),
            rule(dst_ports=((123, 123),)),
            rule(src_prefix=Prefix("7.0.0.0/8")),
            rule(action=FlowSpecAction.redirect(1)),
        ]
        keys = [r.sort_key() for r in rules]
        assert len(set(keys)) == len(keys)  # total order: no ties
        shuffled = list(rules)
        random.Random(3).shuffle(shuffled)
        assert sorted(shuffled, key=FlowSpecRule.sort_key) == sorted(
            rules, key=FlowSpecRule.sort_key
        )

    def test_str_render(self):
        r = rule(protos=("udp",), dst_ports=((100, 200), (300, 300)))
        text = str(r)
        assert "dst 184.164.224.0/24" in text
        assert "proto udp" in text and "dport 100-200,300" in text
        assert "AS5" in text


class TestDistributorLifecycle:
    def test_announce_installs_at_deployers(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        assert dist.announce(rule()) == 4
        assert dist.installed_counts() == {1: 1, 3: 1, 4: 1, 9: 1}
        assert dist.counts["installed"] == 4

    def test_rogue_originator_rejected_by_validation(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        assert dist.announce(rule(originator=66)) == 0
        assert dist.counts["rejected_validation"] == 4
        assert dist.installed_counts() == {}

    def test_unrouted_prefix_rejected(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        assert dist.announce(rule(dst=Prefix("203.0.113.0/24"))) == 0
        assert dist.counts["rejected_validation"] == 4

    def test_install_limit_evicts_least_specific(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(9,), install_limit=2)
        broad = rule()
        port_a = rule(dst_ports=((1, 1),))
        assert dist.announce(broad) == 1
        assert dist.announce(port_a) == 1
        specific = rule(dst=SUB)
        assert dist.announce(specific) == 1  # evicts `broad`
        assert dist.counts["evicted"] == 1
        assert dist.rules_at(9) == (specific, port_a)

    def test_at_capacity_worse_candidate_rejected(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(9,), install_limit=2)
        dist.announce(rule(dst=SUB))
        dist.announce(rule(dst_ports=((1, 1),)))
        assert dist.announce(rule()) == 0  # least specific of the three
        assert dist.counts["rejected_limit"] == 1
        assert len(dist.rules_at(9)) == 2

    def test_limit_never_exceeded_under_flood(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(9,), install_limit=4, churn_budget=500)
        for port in range(40):
            dist.announce(rule(dst_ports=((port, port),)))
        assert len(dist.rules_at(9)) == 4
        assert max(dist.installed_counts().values()) <= 4

    def test_withdraw(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        dist.announce(rule())
        dist.announce(rule(dst_ports=((80, 80),)))
        assert dist.withdraw(5, PREFIX) == 8
        assert dist.installed_counts() == {}

    def test_duplicate_announce_is_idempotent(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        dist.announce(rule())
        assert dist.announce(rule()) == 0
        assert dist.installed_counts() == {1: 1, 3: 1, 4: 1, 9: 1}

    def test_revalidate_evicts_stale_rules(self):
        g = chain_world()
        outcome = victim_outcome(g)
        outcomes = {PREFIX: outcome}
        dist = FlowSpecDistributor(
            deployers=(1, 3, 4, 9), resolver=resolver_from_outcomes(outcomes)
        )
        dist.announce(rule())
        assert dist.installed_counts()
        # The victim's unicast route is replaced by a hijacker's.
        outcomes[PREFIX] = propagate(g, Announcement.single(66, prefix=PREFIX))
        assert dist.revalidate() == 4
        assert dist.installed_counts() == {}
        assert dist.counts["rejected_stale"] == 4

    def test_quarantine_on_churn_storm(self):
        g = chain_world()
        dist, _ = make_distributor(g, churn_budget=10)
        for i in range(12):
            if i % 2 == 0:
                dist.announce(rule(dst_ports=((i, i),)))
            else:
                dist.withdraw(5, PREFIX)
        assert 5 in dist.quarantined_originators()
        assert dist.counts["quarantines"] == 1
        assert dist.installed_counts() == {}  # purged on trip
        assert dist.announce(rule()) == 0  # refused while quarantined
        assert dist.counts["rejected_quarantine"] >= 1

    def test_release_readmits(self):
        g = chain_world()
        dist, _ = make_distributor(g, churn_budget=5)
        for i in range(8):
            dist.announce(rule(dst_ports=((i, i),)))
        assert 5 in dist.quarantined_originators()
        dist.release(5)
        assert 5 not in dist.quarantined_originators()
        assert dist.announce(rule()) == 4

    def test_metrics_bound(self):
        g = chain_world()
        metrics = MetricsRegistry()
        dist, _ = make_distributor(g, deployers=(9,), install_limit=1)
        dist.bind_metrics(metrics)
        dist.announce(rule(dst_ports=((1, 1),)))
        dist.announce(rule(dst=SUB))  # evicts
        dist.announce(rule(originator=66))  # validation reject
        assert metrics.get("peering_flowspec_rules_installed_total").value == 2
        assert metrics.get("peering_flowspec_rules_evicted_total").value == 1
        rejected = metrics.get("peering_flowspec_rules_rejected_total")
        assert rejected.labels("validation").value == 1

    def test_stats(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        dist.announce(rule())
        stats = dist.stats()
        assert stats["installed_now"] == 4
        assert stats["max_installed_at_one_as"] == 1
        assert len(dist.rules_at(9)) == 1


class TestEnforcement:
    def setup_plane(self, g, action, **rule_kw):
        outcome = victim_outcome(g)
        plane = DataPlane(g)
        plane.install(PREFIX, outcome, owner=5)
        dist = FlowSpecDistributor(
            deployers=(4,), resolver=resolver_from_outcomes({PREFIX: outcome})
        )
        dist.announce(rule(action=action, **rule_kw))
        plane.attach_flowspec(dist)
        return plane, dist

    def test_discard_drops_at_first_deployer(self):
        g = chain_world()
        plane, _ = self.setup_plane(g, FlowSpecAction.discard(), protos=("udp",))
        delivery = plane.send(9, pkt())
        assert delivery.status is DeliveryStatus.FLOWSPEC_DROPPED
        assert delivery.path == (9, 4)
        assert delivery.final_asn == 4

    def test_non_matching_traffic_unaffected(self):
        g = chain_world()
        plane, _ = self.setup_plane(g, FlowSpecAction.discard(), protos=("udp",))
        delivery = plane.send(9, pkt(proto="tcp"))
        assert delivery.status is DeliveryStatus.DELIVERED
        assert delivery.final_asn == 5

    def test_redirect_scrubs(self):
        g = chain_world()
        plane, _ = self.setup_plane(g, FlowSpecAction.redirect(1))
        delivery = plane.send(9, pkt())
        assert delivery.status is DeliveryStatus.SCRUBBED
        assert delivery.path == (9, 4, 1)
        assert delivery.final_asn == 1

    def test_mark_remarked_and_forwarded(self):
        g = chain_world()
        plane, _ = self.setup_plane(g, FlowSpecAction.mark(46))
        delivery = plane.send(9, pkt())
        assert delivery.status is DeliveryStatus.DELIVERED
        assert delivery.packet.dscp == 46

    def test_rate_limit_budget_then_epoch_refill(self):
        g = chain_world()
        plane, dist = self.setup_plane(g, FlowSpecAction.rate_limit(2))
        statuses = [plane.send(9, pkt()).status for _ in range(4)]
        assert statuses == [
            DeliveryStatus.DELIVERED,
            DeliveryStatus.DELIVERED,
            DeliveryStatus.RATE_LIMITED,
            DeliveryStatus.RATE_LIMITED,
        ]
        dist.new_epoch()
        assert plane.send(9, pkt()).status is DeliveryStatus.DELIVERED

    def test_first_match_in_551_order_wins(self):
        g = chain_world()
        outcome = victim_outcome(g)
        plane = DataPlane(g)
        plane.install(PREFIX, outcome, owner=5)
        dist = FlowSpecDistributor(
            deployers=(4,), resolver=resolver_from_outcomes({PREFIX: outcome})
        )
        dist.announce(rule(action=FlowSpecAction.mark(10)))  # broad: mark
        dist.announce(rule(action=FlowSpecAction.discard(), dst=SUB))
        plane.attach_flowspec(dist)
        # dst inside the /25: the more specific discard precedes the mark.
        assert plane.send(9, pkt()).status is DeliveryStatus.FLOWSPEC_DROPPED
        # dst outside the /25: only the broad mark matches.
        outside = pkt(dst=IPAddress("184.164.224.200"))
        assert plane.send(9, outside).status is DeliveryStatus.DELIVERED

    def test_mixed_family_rules_stay_adjacent_per_family(self):
        """0.0.0.0/0 and ::/0 tie on (length, address value): without the
        family in the key the v6 rule sorted *between* the two v4 ones."""
        v4, v6 = Prefix("0.0.0.0/0"), Prefix("::/0")
        route = ASRoute(kind=RouteKind.CUSTOMER, path=(5,), via=5)
        dist = FlowSpecDistributor(
            deployers=(4,), resolver=lambda asn, prefix: (prefix, route)
        )
        v4_tcp = rule(dst=v4, protos=("tcp",), action=FlowSpecAction.mark(10))
        v6_udp = rule(dst=v6, protos=("udp",), action=FlowSpecAction.redirect(1))
        v4_any = rule(dst=v4)
        for r in (v6_udp, v4_any, v4_tcp):
            assert dist.announce(r) == 1
        assert dist.rules_at(4) == (v4_tcp, v4_any, v6_udp)

        def verdict(packet):
            decision = dist.decide(4, packet)
            return decision and (decision.verdict, decision.rule)

        v6_host = IPAddress("2001:db8::1")
        assert verdict(pkt(proto="tcp")) == (EnforcementVerdict.MARK, v4_tcp)
        assert verdict(pkt(proto="udp")) == (EnforcementVerdict.DROP, v4_any)
        assert verdict(pkt(dst=v6_host)) == (EnforcementVerdict.REDIRECT, v6_udp)
        assert verdict(pkt(dst=v6_host, proto="tcp")) is None
        # A v6 address whose low bits look like the v4 rule's network
        # (and vice versa) must not cross families.
        assert verdict(pkt(dst=IPAddress(0, 6), proto="tcp")) is None
        assert dist.rule_counters() == {
            v4_tcp: (1, 64), v4_any: (1, 64), v6_udp: (1, 64)
        }

    def test_decide_direct(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(4,))
        dist.announce(rule())
        decision = dist.decide(4, pkt())
        assert decision is not None and decision.verdict is EnforcementVerdict.DROP
        assert dist.decide(9, pkt()) is None  # not a deployer


class TestFaultPlanSteps:
    def test_flood_and_inject_on_timeline(self):
        g = chain_world()
        outcome = victim_outcome(g)
        plane = DataPlane(g)
        plane.install(PREFIX, outcome, owner=5)
        dist = FlowSpecDistributor(
            deployers=(4,), resolver=resolver_from_outcomes({PREFIX: outcome})
        )
        plane.attach_flowspec(dist)
        engine = Engine(seed=0)
        plan = FaultPlan(engine, name="ddos-test")
        before, after = [], []
        flows = [(9, pkt()) for _ in range(3)]
        plan.flood_traffic(plane, flows, at=0.5, collect=before)
        plan.inject_flowspec(dist, rule(), at=1.0)
        plan.flood_traffic(plane, flows, at=2.0, collect=after)
        plan.withdraw_flowspec(dist, 5, at=3.0)
        engine.run()
        assert [d.status for d in before] == [DeliveryStatus.DELIVERED] * 3
        assert [d.status for d in after] == [DeliveryStatus.FLOWSPEC_DROPPED] * 3
        assert dist.installed_counts() == {}
        actions = [(t, a) for t, a, _ in plan.log]
        assert actions == [
            (0.5, "flood"), (1.0, "flowspec"), (2.0, "flood"),
            (3.0, "flowspec-withdraw"),
        ]


class TestLookingGlassFlowspec:
    def make_glass(self, dist):
        testbed = types.SimpleNamespace(
            outcome_for=lambda prefix: None, _announced={}, servers={}, asn=47065
        )
        return LookingGlass(testbed, flowspec=dist)

    def test_stats_and_rules(self):
        g = chain_world()
        dist, _ = make_distributor(g)
        dist.announce(rule())
        glass = self.make_glass(dist)
        assert glass.flowspec_stats()["installed_now"] == 4
        assert len(glass.flowspec_rules(9)) == 1
        assert glass.flowspec_rules(66) == ()

    def test_unwired_glass_is_empty(self):
        glass = self.make_glass(None)
        assert glass.flowspec_stats() == {}
        assert glass.flowspec_rules(9) == ()


# -- property: no stale rule survives unicast churn + revalidate ---------------

_OPS = st.lists(
    st.sampled_from(
        ["hijack", "subhijack", "withdraw-victim", "reannounce", "withdraw-attacker"]
    ),
    min_size=1,
    max_size=8,
)


class TestRevalidationProperty:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, data=st.data())
    def test_no_stale_rule_survives_revalidation(self, ops, data):
        """Under any sequence of unicast route changes (withdrawals,
        origin/sub-prefix hijacks via AttackSurface), revalidate() leaves
        no installed rule whose originator is not the origin of the
        best-match unicast route at that AS."""
        g = chain_world()
        surface = AttackSurface(g, policy=SecurityPolicy())
        surface.announce(5, PREFIX)
        dist = FlowSpecDistributor(
            deployers=(1, 3, 4, 9), resolver=surface.resolve, churn_budget=10_000
        )
        dist.announce(rule())
        dist.announce(rule(protos=("udp",), dst_ports=((123, 123),)))

        for op in ops:
            if op == "hijack":
                surface.announce(66, PREFIX)
            elif op == "subhijack":
                surface.announce(66, SUB)
            elif op == "withdraw-victim":
                surface.withdraw(5, PREFIX)
            elif op == "reannounce":
                surface.announce(5, PREFIX)
            elif op == "withdraw-attacker":
                surface.withdraw(66, PREFIX)
                surface.withdraw(66, SUB)
            # Originators may also push new rules mid-churn...
            if data.draw(st.booleans()):
                dist.announce(
                    rule(originator=data.draw(st.sampled_from([5, 66])))
                )
            dist.revalidate()
            # ...but after revalidation every installed rule is valid.
            for asn in (1, 3, 4, 9):
                for installed in dist.rules_at(asn):
                    hit = surface.resolve(asn, installed.dst_prefix)
                    assert hit is not None, "rule with no unicast route survived"
                    _prefix, route = hit
                    origin = route.path[-1] if route.path else asn
                    assert origin == installed.originator, (
                        f"stale rule at AS{asn}: originator "
                        f"{installed.originator}, unicast origin {origin}"
                    )


# -- campaign ------------------------------------------------------------------

QUICK = dict(n_ases=60, n_tier1=3, trials=2, rates=(0.0, 0.5, 1.0),
             n_sources=8, attack_packets=80, legit_clients=6)


class TestDdosCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.secroute.ddos import DdosCampaignConfig, run_ddos_campaign

        return run_ddos_campaign(DdosCampaignConfig(**QUICK))

    def test_deterministic(self, result):
        from repro.secroute.ddos import DdosCampaignConfig, run_ddos_campaign

        again = run_ddos_campaign(DdosCampaignConfig(**QUICK))
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )

    def test_absorbed_monotone_in_deployment(self, result):
        for scenario in result.scenarios.values():
            assert scenario.is_monotone_absorbed()

    def test_full_deployment_absorbs_everything(self, result):
        for scenario in result.scenarios.values():
            assert scenario.absorbed[-1] == pytest.approx(1.0)
            assert scenario.leaked[-1] == pytest.approx(0.0)

    def test_zero_deployment_leaks_everything(self, result):
        for scenario in result.scenarios.values():
            assert scenario.absorbed[0] == 0.0
            assert scenario.leaked[0] == pytest.approx(1.0)

    def test_surgical_rules_spare_legitimate_traffic(self, result):
        assert all(c == 0.0 for c in result.scenarios["surgical-discard"].collateral)

    def test_blunt_discard_costs_collateral(self, result):
        blunt = result.scenarios["blunt-discard"].collateral
        surgical = result.scenarios["surgical-discard"].collateral
        assert blunt[-1] > 0.0
        assert all(b >= s for b, s in zip(blunt, surgical))

    def test_rule_flood_limits_held(self, result):
        flood = result.rule_flood
        assert flood is not None
        assert flood.limits_respected
        assert flood.max_installed_at_one_as <= flood.install_limit
        assert flood.rejected_validation > 0
        assert flood.quarantined  # the rogue churner ends quarantined

    def test_metrics_surface(self):
        from repro.secroute.ddos import DdosCampaignConfig, run_ddos_campaign

        metrics = MetricsRegistry()
        run_ddos_campaign(DdosCampaignConfig(**QUICK), metrics=metrics)
        assert metrics.get("peering_flowspec_rules_installed_total").value > 0
        assert (
            metrics.get("peering_flowspec_originator_quarantines_total").value >= 1
        )

    def test_table_renders(self, result):
        text = result.table()
        assert "surgical-discard" in text and "collateral" in text


class TestRuleTrafficCounters:
    """Per-rule byte/packet counters over enforcement decisions."""

    def test_counts_every_match_including_in_budget_forwards(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(1,))
        limited = rule(action=FlowSpecAction.rate_limit(2), dst_ports=((123, 123),))
        dist.announce(limited)
        # Two in-budget forwards, one rate-exceeded: all three count.
        for _ in range(3):
            dist.decide(1, pkt(size=100))
        counters = dist.rule_counters()
        assert counters[limited] == (3, 300)
        stats = dist.stats()
        assert stats["matched_packets"] == 3
        assert stats["matched_bytes"] == 300

    def test_non_matching_traffic_not_counted(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(1,))
        discard = rule(dst_ports=((123, 123),))
        dist.announce(discard)
        assert dist.decide(1, pkt(dst_port=80)) is None
        assert dist.rule_counters() == {}

    def test_counters_survive_withdrawal(self):
        g = chain_world()
        dist, _ = make_distributor(g, deployers=(1,))
        discard = rule()
        dist.announce(discard)
        dist.decide(1, pkt(size=1500))
        dist.withdraw(discard.originator)
        assert dist.rules_at(1) == ()
        assert dist.rule_counters()[discard] == (1, 1500)

    def test_exported_per_mux(self):
        g = chain_world()
        metrics = MetricsRegistry()
        dist, _ = make_distributor(g, deployers=(1,))
        dist.bind_metrics(metrics, mux="amsterdam01")
        other, _ = make_distributor(g, deployers=(3,))
        other.bind_metrics(metrics, mux="gatech01")
        dist.announce(rule())
        other.announce(rule())
        dist.decide(1, pkt(size=64))
        dist.decide(1, pkt(size=36))
        other.decide(3, pkt(size=1000))
        packets = metrics.get("peering_flowspec_matched_packets_total")
        volume = metrics.get("peering_flowspec_matched_bytes_total")
        assert packets.labels("amsterdam01").value == 2
        assert packets.labels("gatech01").value == 1
        assert volume.labels("amsterdam01").value == 100
        assert volume.labels("gatech01").value == 1000
        assert dist.stats()["matched_bytes"] == 100
