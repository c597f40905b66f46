"""Anycast subsystem: service wiring, catchment mapping (compiled
population vs forwarding-chain reference), stability reports, fault-plan
failover, and the closed-loop traffic engineer."""

import gc
import tracemalloc

import pytest

from repro.anycast import (
    UNSERVED,
    AnycastService,
    AnycastSite,
    CatchmentMap,
    EngineerConfig,
    SiteSteering,
    TrafficEngineer,
)
from repro.faults.plan import FaultPlan
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec, RouteKind, propagate
from repro.inet.topology import ASGraph, ASKind, ASNode
from repro.sim.engine import Engine
from repro.workloads import ClientPopulation, zipf_clients


def make_world(n_ases=800, seed=42, n_sites=3, uplinks_per_site=3):
    net = build_internet(
        InternetConfig(n_ases=n_ases, total_prefixes=60_000, seed=seed)
    )
    graph = net.graph
    transits = [n.asn for n in graph.nodes() if n.kind == ASKind.TRANSIT]
    need = n_sites * uplinks_per_site
    assert len(transits) >= need
    sites = [
        AnycastSite(
            name=f"site{i:02d}",
            transits=tuple(
                transits[i * uplinks_per_site : (i + 1) * uplinks_per_site]
            ),
        )
        for i in range(n_sites)
    ]
    service = AnycastService.deploy(graph, sites)
    population = zipf_clients(graph, ases=200, clients=50_000, seed=5)
    return graph, service, population


@pytest.fixture()
def world():
    return make_world()


def _reference_catchment(outcome, asn, origin_asn, uplink_site):
    """The forwarding-chain catchment identity: the site owning the
    uplink through which ``asn``'s traffic enters ``origin_asn``."""
    chain = outcome.forwarding_chain(asn)
    if len(chain) < 2 or chain[-1] != origin_asn:
        return UNSERVED
    return uplink_site.get(chain[-2], UNSERVED)


class _ReferenceMap:
    """A catchment map the slow way: one dict entry and one chain walk
    per client AS."""

    def __init__(self, service, population, outcome):
        # Announced uplink -> site for the live sites (site uplinks are
        # disjoint, so each uplink names one site).
        uplink_site = {}
        for name in service.active_site_names():
            steering = service.steering_of(name)
            uplinks = steering.uplinks or service.site(name).uplinks
            uplink_site.update((uplink, name) for uplink in uplinks)
        self.sites = service.active_site_names()
        self.weights = {}
        self.assignment = {}
        for asn, volume in population.items():
            self.weights[asn] = self.weights.get(asn, 0) + volume
            self.assignment[asn] = _reference_catchment(
                outcome, asn, service.asn, uplink_site
            )
        self.volume_by_site = {s: 0 for s in self.sites}
        self.ases_by_site = {s: 0 for s in self.sites}
        self.entries = {s: {} for s in self.sites}
        self.unserved_volume = self.unserved_ases = 0
        for asn, site in self.assignment.items():
            volume = self.weights[asn]
            if site == UNSERVED:
                self.unserved_volume += volume
                self.unserved_ases += 1
                continue
            self.volume_by_site[site] += volume
            self.ases_by_site[site] += 1
            uplink = outcome.forwarding_chain(asn)[-2]
            entries = self.entries[site]
            entries[uplink] = entries.get(uplink, 0) + volume

    def diff(self, other):
        flows = {}
        total = 0
        for asn, before in self.assignment.items():
            after = other.assignment.get(asn)
            if after is None:
                continue
            volume = self.weights[asn]
            total += volume
            if before != after:
                flows[(before, after)] = flows.get((before, after), 0) + volume
        return tuple(sorted(flows.items(), key=lambda kv: (-kv[1], kv[0]))), total


def _assert_matches_reference(cmap, ref, population):
    for asn in population.asns():
        assert cmap.site_of(asn) == ref.assignment[asn], asn
    assert cmap.volume_by_site == ref.volume_by_site
    assert cmap.ases_by_site == ref.ases_by_site
    assert cmap.unserved_volume == ref.unserved_volume
    assert cmap.unserved_ases == ref.unserved_ases
    assert cmap.total_volume == sum(ref.weights.values())
    assert cmap.total_ases == len(ref.weights)
    for site in cmap.sites:
        assert cmap.entry_volumes(site) == ref.entries[site], site


class TestServiceWiring:
    def test_deploy_wires_uplinks(self, world):
        graph, service, _ = world
        assert service.asn in graph
        for site in service.sites:
            for transit in site.transits:
                assert transit in graph.providers(service.asn)

    def test_deploy_rejects_existing_asn(self, world):
        graph, service, _ = world
        with pytest.raises(ValueError, match="already exists"):
            AnycastService.deploy(graph, list(service.sites), asn=service.asn)

    def test_deploy_rejects_unknown_uplink(self):
        graph, _, _ = make_world()
        with pytest.raises(ValueError, match="not in topology"):
            AnycastService.deploy(
                graph, [AnycastSite(name="x", transits=(999_999_999,))],
                asn=64999,
            )

    def test_deploy_rejects_overlapping_uplinks(self):
        graph, service, _ = make_world()
        shared = service.sites[0].transits[0]
        with pytest.raises(ValueError, match="disjoint"):
            AnycastService.deploy(
                graph,
                [
                    AnycastSite(name="a", transits=(shared,)),
                    AnycastSite(name="b", transits=(shared,)),
                ],
                asn=64999,
            )

    def test_site_needs_uplinks(self):
        with pytest.raises(ValueError, match="no uplinks"):
            AnycastSite(name="empty")

    def test_steering_validation(self, world):
        _, service, _ = world
        name = service.sites[0].name
        with pytest.raises(ValueError, match="non-uplinks"):
            service.steer(name, SiteSteering(uplinks=(123456,)))
        with pytest.raises(KeyError):
            service.steer("nope", SiteSteering())

    def test_spec_order_is_site_order(self, world):
        _, service, _ = world
        ann = service.announcement()
        assert len(ann.origins) == len(service.sites)
        names = service.active_site_names()
        assert names == tuple(sorted(names))
        for spec in ann.origins:
            assert spec.asn == service.asn

    def test_fail_site_drops_spec_and_last_site_protected(self, world):
        _, service, _ = world
        names = service.active_site_names()
        for name in names[:-1]:
            service.fail_site(name)
        assert service.active_site_names() == (names[-1],)
        with pytest.raises(ValueError, match="last live site"):
            service.fail_site(names[-1])
        service.restore_site(names[0])
        assert names[0] in service.active_site_names()


class TestCatchmentMap:
    def test_fast_path_matches_chain_reference(self, world):
        _, service, population = world
        cmap = CatchmentMap.compute(service, population)
        ref = _ReferenceMap(service, population, cmap._outcome)
        _assert_matches_reference(cmap, ref, population)

    def test_shares_partition_the_population(self, world):
        _, service, population = world
        cmap = CatchmentMap.compute(service, population)
        assert (
            sum(cmap.volume_by_site.values()) + cmap.unserved_volume
            == population.total_clients
        )
        shares = cmap.volume_shares()
        assert sum(shares.values()) + cmap.unserved_fraction == pytest.approx(1.0)

    def test_absent_asn_is_unserved(self, world):
        _, service, _ = world
        population = ClientPopulation(((999_999_999, 10), (1_234_567_890, 5)))
        cmap = CatchmentMap.compute(service, population)
        assert cmap.site_of(999_999_999) == UNSERVED
        assert cmap.unserved_volume == 15
        assert cmap.unserved_fraction == 1.0

    def test_prepend_sheds_volume_and_diff_accounts_it(self, world):
        _, service, population = world
        before = CatchmentMap.compute(service, population)
        heavy = max(
            before.volume_by_site, key=lambda s: before.volume_by_site[s]
        )
        service.adjust(heavy, prepend=4)
        after = CatchmentMap.compute(service, population)
        assert after.volume_by_site[heavy] <= before.volume_by_site[heavy]
        shift = before.diff(after)
        assert shift.total_volume == population.total_clients
        assert shift.flipped_volume == sum(v for _, v in shift.flows)
        lost, gained = shift.site_churn().get(heavy, (0, 0))
        assert lost >= gained
        assert 0.0 <= shift.stability <= 1.0

    def test_diff_of_identical_maps_is_stable(self, world):
        _, service, population = world
        a = CatchmentMap.compute(service, population)
        b = CatchmentMap.compute(service, population)
        shift = a.diff(b)
        assert shift.flipped_volume == 0
        assert shift.stability == 1.0

    def test_entry_volumes_sum_to_site_volume(self, world):
        _, service, population = world
        cmap = CatchmentMap.compute(service, population)
        for name in service.active_site_names():
            entries = cmap.entry_volumes(name)
            assert sum(entries.values()) == cmap.volume_by_site[name]
            site = service.site(name)
            assert set(entries) <= set(site.uplinks)

    def test_compute_many_matches_serial(self, world):
        _, service, population = world
        anns = [
            service.announcement(
                {service.sites[0].name: SiteSteering(prepend=d)}
            )
            for d in range(3)
        ]
        batched = CatchmentMap.compute_many(service, population, anns)
        for ann, cmap in zip(anns, batched):
            solo = CatchmentMap.from_outcome(
                service, population, service.engine.propagate(ann)
            )
            assert cmap.volume_by_site == solo.volume_by_site

    def test_observe_records_shares(self, world):
        _, service, population = world
        cmap = CatchmentMap.compute(service, population)
        assert service.last_shares == cmap.volume_shares()

    def test_render_mentions_every_site(self, world):
        _, service, population = world
        text = "\n".join(CatchmentMap.compute(service, population).render())
        for name in service.active_site_names():
            assert name in text


ABSENT_ASN = 3_999_999_998  # never in any topology
ISOLATED_ASN = 3_999_999_999  # in the topology, with no links


def diff_world(seed):
    """A small seeded world whose population has every awkward entry:
    duplicate ASNs, ASNs absent from the topology, an AS no route
    reaches, the anycast origin itself, and the site uplinks (which see
    a customer route from their own site and a worse kind from others)."""
    net = build_internet(
        InternetConfig(n_ases=400, total_prefixes=30_000, seed=seed)
    )
    graph = net.graph
    graph.add_as(ASNode(asn=ISOLATED_ASN))
    transits = [n.asn for n in graph.nodes() if n.kind == ASKind.TRANSIT]
    sites = [
        AnycastSite(
            name=f"site{i:02d}",
            transits=tuple(transits[3 * i:3 * i + 3]),
            peers=(transits[9],) if i == 2 else (),
        )
        for i in range(3)
    ]
    service = AnycastService.deploy(graph, sites)
    base = zipf_clients(graph, ases=150, clients=40_000, seed=seed)
    weights = (
        base.weights
        + tuple((asn, 7) for asn, _ in base.weights[:12])
        + ((ABSENT_ASN, 70), (ISOLATED_ASN, 30), (service.asn, 25), (ABSENT_ASN, 5))
        + tuple((asn, 400) for asn in transits[:10])
    )
    return graph, service, ClientPopulation(weights)


def _steer(service, scenario):
    a, b, c = service.active_site_names()
    if scenario in ("prepend", "combined"):
        service.adjust(a, prepend=3)
    if scenario in ("poison", "combined"):
        service.adjust(b, poison=(service.site(a).uplinks[0],))
    if scenario in ("drop-uplink", "combined"):
        service.adjust(c, uplinks=service.site(c).uplinks[:1])
    if scenario in ("failed-site", "combined"):
        service.fail_site(b)


SCENARIOS = ("base", "prepend", "poison", "drop-uplink", "failed-site", "combined")


class TestCatchmentDifferential:
    """Compiled-population maps against the chain-walk reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_map_and_diff_match_reference(self, seed, scenario):
        _, service, population = diff_world(seed)
        base = CatchmentMap.compute(service, population)
        base_ref = _ReferenceMap(service, population, base._outcome)
        _assert_matches_reference(base, base_ref, population)
        _steer(service, scenario)
        cmap = CatchmentMap.compute(service, population)
        ref = _ReferenceMap(service, population, cmap._outcome)
        _assert_matches_reference(cmap, ref, population)
        for a, b, ra, rb in ((base, cmap, base_ref, ref), (cmap, base, ref, base_ref)):
            shift = a.diff(b)
            flows, total = ra.diff(rb)
            assert shift.flows == flows
            assert shift.total_volume == total
            assert shift.flipped_volume == sum(v for _, v in flows)
        # A second population (a reversed, partly disjoint subset) still
        # compares over the ASes the two share.
        other = ClientPopulation(
            tuple(reversed(population.weights[::2])) + ((ABSENT_ASN - 1, 9),)
        )
        omap = CatchmentMap.compute(service, other)
        oref = _ReferenceMap(service, other, omap._outcome)
        _assert_matches_reference(omap, oref, other)
        for a, b, ra, rb in ((base, omap, base_ref, oref), (omap, base, oref, base_ref)):
            flows, total = ra.diff(rb)
            assert a.diff(b).flows == flows
            assert a.diff(b).total_volume == total

    def test_single_served_entry(self, world):
        _, service, population = world
        single = ClientPopulation(((population.asns()[0], 10), (ABSENT_ASN, 3)))
        cmap = CatchmentMap.compute(service, single)
        _assert_matches_reference(
            cmap, _ReferenceMap(service, single, cmap._outcome), single
        )

    def test_recompiles_after_topology_change(self):
        graph, service, population = diff_world(1)
        CatchmentMap.compute(service, population)
        # A new lowest ASN moves every compiled slot up by one.
        graph.add_as(ASNode(asn=min(graph.asns()) - 1))
        cmap = CatchmentMap.compute(service, population)
        ref = _ReferenceMap(service, population, cmap._outcome)
        _assert_matches_reference(cmap, ref, population)

    def test_reference_outcome_is_refused(self, world):
        _, service, population = world
        outcome = propagate(service.engine.graph, service.announcement())
        with pytest.raises(TypeError, match="RoutingOutcome"):
            CatchmentMap.from_outcome(service, population, outcome)

    def test_map_retains_no_per_client_dict(self):
        n = 20_000
        graph = ASGraph()
        with graph.batch():
            for asn in (1, 2):
                graph.add_as(ASNode(asn=asn, kind=ASKind.TRANSIT))
            for asn in range(10, 10 + n):
                graph.add_as(ASNode(asn=asn))
                graph.add_provider(customer=asn, provider=1 + asn % 2)
        service = AnycastService.deploy(
            graph, [AnycastSite("a", transits=(1,)), AnycastSite("b", transits=(2,))]
        )
        population = ClientPopulation(tuple((asn, 3) for asn in range(10, 10 + n)))
        outcome = CatchmentMap.compute(service, population)._outcome  # compiles
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cmap = CatchmentMap.from_outcome(service, population, outcome)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert cmap.volume_by_site == {"a": 3 * n // 2, "b": 3 * n // 2}
        # One pointer-sized slot per entry, plus a little per map.
        assert retained < 12 * n, retained
        assert not any(
            isinstance(v, dict) and len(v) >= n for v in vars(cmap).values()
        )


def _kind_and_plen(outcome):
    """``(index_of, kind, plen)`` read straight off a compiled outcome's
    arrays, its pending prepend shift added to every reached, non-origin
    slot."""
    shift, origin = outcome._plen_shift, int(RouteKind.ORIGIN)
    plen = [p + shift if k not in (0, origin) else p for k, p in zip(outcome._kind, outcome._plen)]
    return outcome._compiled.idx, outcome._kind, plen


def _reference_screen_volumes(engineer, name, others, ladder, solos):
    """Per-depth screening volumes the slow way: every client, every
    depth, every footprint, one (kind rank, plen, site rank) tuple."""
    site_order = engineer.service.active_site_names()
    rank_of = {n: site_order.index(n) for n in site_order}
    other_tables = [_kind_and_plen(o) for o in solos]
    screened = []
    for outcome in ladder:
        tables = [(name, _kind_and_plen(outcome))] + list(zip(others, other_tables))
        volumes = {n: 0 for n in site_order}
        for asn, volume in engineer.population.items():
            chosen = chosen_site = None
            for site_name, (index_of, kind, plen) in tables:
                i = index_of.get(asn)
                if i is None or not kind[i]:
                    continue
                key = (-kind[i], plen[i], rank_of[site_name])
                if chosen is None or key < chosen:
                    chosen, chosen_site = key, site_name
            if chosen_site is not None:
                volumes[chosen_site] += volume
        screened.append(volumes)
    return screened


def _screen_inputs(engineer, name):
    service = engineer.service
    steering = service.steering_of(name)
    depths = list(range(steering.prepend, engineer.config.max_prepend + 1))
    others = [n for n in service.active_site_names() if n != name]
    outcomes = service.engine.propagate_many(
        [service.solo_announcement(name, prepend=d) for d in depths]
        + [service.solo_announcement(n) for n in others],
        use_cache=False,
    )
    return depths, others, outcomes[:len(depths)], outcomes[len(depths):]


def _reference_screen_prepend(self, name, steering):
    """``TrafficEngineer._screen_prepend`` over the reference volumes."""
    if steering.prepend >= self.config.max_prepend:
        return None
    depths, others, ladder, solos = _screen_inputs(self, name)
    total = sum(v for _, v in self.population.items())
    best_depth = best_imbalance = None
    for depth, volumes in zip(
        depths, _reference_screen_volumes(self, name, others, ladder, solos)
    ):
        shares = {n: v / total for n, v in volumes.items()} if total else {}
        imbalance = self.imbalance(shares)
        if best_imbalance is None or imbalance < best_imbalance:
            best_imbalance, best_depth = imbalance, depth
    if best_depth is None or best_depth == steering.prepend:
        return None
    return best_depth


SKEWED = (0.6, 0.3, 0.1)


class TestScreenDifferential:
    """Hoisted prepend screening against the per-depth tuple loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scenario", ("base", "poison", "drop-uplink"))
    def test_screen_matches_reference(self, seed, scenario):
        _, service, population = diff_world(seed)
        _steer(service, scenario)
        names = service.active_site_names()
        engineer = TrafficEngineer(
            service, population, dict(zip(names, SKEWED)),
            EngineerConfig(max_prepend=4),
        )
        for name in names:
            _, others, ladder, solos = _screen_inputs(engineer, name)
            assert engineer._screen_volumes(
                name, others, ladder, solos
            ) == _reference_screen_volumes(engineer, name, others, ladder, solos)
            steering = service.steering_of(name)
            assert engineer._screen_prepend(name, steering) == (
                _reference_screen_prepend(engineer, name, steering)
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rebalance_report_matches_reference(self, seed, monkeypatch):
        reports = []
        for reference in (False, True):
            if reference:
                monkeypatch.setattr(
                    TrafficEngineer, "_screen_prepend", _reference_screen_prepend
                )
            _, service, population = diff_world(seed)
            names = service.active_site_names()
            engineer = TrafficEngineer(
                service, population, dict(zip(names, SKEWED)),
                EngineerConfig(max_iterations=4, seed=seed),
            )
            reports.append(engineer.rebalance().to_json())
        assert reports[0] == reports[1]
        assert '"applied":"' in reports[0]


def two_origin_world():
    g = ASGraph()
    for asn in (1, 3, 4, 5, 66, 9):
        g.add_as(ASNode(asn=asn))
    g.add_provider(3, 1)
    g.add_provider(4, 1)
    g.add_provider(5, 3)  # victim
    g.add_provider(66, 4)  # hijacker
    g.add_provider(9, 4)  # bystander near hijacker
    return g


class TestReferenceCatchment:
    def test_contested_prefix_splits_by_entry(self):
        contested = propagate(
            two_origin_world(),
            Announcement(origins=(OriginSpec(asn=5), OriginSpec(asn=66))),
        )
        victim, hijacker = {3: "victim"}, {4: "hijacker"}
        assert _reference_catchment(contested, 3, 5, victim) == "victim"
        assert _reference_catchment(contested, 9, 66, hijacker) == "hijacker"
        assert _reference_catchment(contested, 4, 66, hijacker) == "hijacker"
        assert _reference_catchment(contested, 9, 5, victim) == UNSERVED

    def test_unknown_asn_is_unserved(self):
        outcome = propagate(two_origin_world(), Announcement.single(5))
        assert _reference_catchment(outcome, 424242, 5, {3: "victim"}) == UNSERVED
        assert _reference_catchment(outcome, 5, 5, {3: "victim"}) == UNSERVED


class TestFailover:
    def test_fault_plan_site_failure_reassigns_catchment(self, world):
        _, service, population = world
        engine = Engine()
        before = CatchmentMap.compute(service, population)
        victim = max(
            before.volume_by_site, key=lambda s: before.volume_by_site[s]
        )
        plan = FaultPlan(engine, name="anycast")
        plan.fail_anycast_site(service, victim, at=10.0)
        plan.restore_anycast_site(service, victim, at=50.0)
        engine.run(until=20.0)
        assert victim in service.down_sites()
        during = CatchmentMap.compute(service, population)
        assert victim not in during.volume_by_site
        shift = before.diff(during)
        # The dead site's whole catchment moved somewhere else.
        assert shift.flipped_volume >= before.volume_by_site[victim]
        assert (
            sum(during.volume_by_site.values()) + during.unserved_volume
            == population.total_clients
        )
        engine.run(until=60.0)
        assert victim not in service.down_sites()
        after = CatchmentMap.compute(service, population)
        assert after.volume_by_site[victim] > 0
        assert (during.diff(after).site_churn().get(victim, (0, 0)))[1] > 0
        assert [(a, t) for _, a, t in plan.log] == [
            ("anycast-fail", victim),
            ("anycast-restore", victim),
        ]


class TestTrafficEngineer:
    def targets_for(self, service):
        names = service.active_site_names()
        return {name: 1.0 / len(names) for name in names}

    def test_rejects_bad_targets(self, world):
        _, service, population = world
        with pytest.raises(ValueError, match="unknown"):
            TrafficEngineer(service, population, {"nope": 1.0})
        with pytest.raises(ValueError, match="missing"):
            TrafficEngineer(
                service, population, {service.sites[0].name: 1.0}
            )

    def test_rebalance_does_not_worsen_imbalance(self, world):
        _, service, population = world
        engineer = TrafficEngineer(
            service, population, self.targets_for(service),
            EngineerConfig(max_iterations=4, seed=3),
        )
        report = engineer.rebalance()
        assert report.imbalance_after <= report.imbalance_before + 1e-9
        assert service.last_rebalance is not None
        assert service.last_rebalance["iterations"] == len(report.iterations)

    def test_applied_moves_ride_shift_regime(self, world):
        _, service, population = world
        engineer = TrafficEngineer(
            service, population, self.targets_for(service),
            EngineerConfig(max_iterations=4, seed=3),
        )
        report = engineer.rebalance()
        if report.iterations:
            # Every evaluating iteration screens prepends through
            # single-spec solo ladders — shift-regime runs.
            assert report.shift_iterations == len(report.iterations)

    def test_deterministic_across_reruns(self):
        reports = []
        for _ in range(2):
            _, service, population = make_world()
            engineer = TrafficEngineer(
                service, population, self.targets_for(service),
                EngineerConfig(max_iterations=3, seed=11),
            )
            reports.append(engineer.rebalance().to_json())
        assert reports[0] == reports[1]

    def test_report_serializes(self, world):
        _, service, population = world
        engineer = TrafficEngineer(
            service, population, self.targets_for(service),
            EngineerConfig(max_iterations=2, seed=1),
        )
        report = engineer.rebalance()
        import json

        payload = json.loads(report.to_json())
        assert set(payload) == {
            "targets",
            "iterations",
            "converged",
            "imbalance_before",
            "imbalance_after",
            "final_shares",
        }


class TestFromTestbed:
    def test_catchment_over_testbed_muxes(self):
        from repro.core import Testbed

        testbed = Testbed.build_default(
            InternetConfig(n_ases=400, total_prefixes=30_000, seed=78)
        )
        service = AnycastService.from_testbed(
            testbed, site_names=["amsterdam01", "gatech01"]
        )
        population = zipf_clients(testbed.graph, ases=80, clients=5_000, seed=9)
        cmap = CatchmentMap.compute(service, population)
        assert set(cmap.volume_by_site) == {"amsterdam01", "gatech01"}
        assert sum(cmap.volume_by_site.values()) > 0


class TestLookingGlassSection:
    def test_anycast_section_rendered(self):
        from repro.core import Testbed
        from repro.telemetry.lookingglass import LookingGlass

        testbed = Testbed.build_default(
            InternetConfig(n_ases=400, total_prefixes=30_000, seed=78)
        )
        service = AnycastService.from_testbed(
            testbed, site_names=["amsterdam01", "gatech01"]
        )
        population = zipf_clients(testbed.graph, ases=80, clients=5_000, seed=9)
        CatchmentMap.compute(service, population)
        glass = LookingGlass(testbed, anycast=service)
        from repro.net.addr import Prefix

        text = glass.render(Prefix("184.164.224.0/24"))
        assert f"anycast AS{testbed.asn}: 2/2 sites live" in text
        for name in ("amsterdam01", "gatech01"):
            share = service.last_shares[name]
            assert f"  {name}: up " in text and f"share={share:.1%}" in text

    def test_unwired_glass_empty(self):
        from repro.core import Testbed
        from repro.telemetry.lookingglass import LookingGlass

        testbed = Testbed.build_default(
            InternetConfig(n_ases=400, total_prefixes=30_000, seed=78)
        )
        from repro.net.addr import Prefix

        assert "anycast" not in LookingGlass(testbed).render(Prefix("184.164.224.0/24"))
