"""Route-security subsystem: RFC 6811 validation, Peerlock containment,
decision/policy integration, and the attack-campaign harness.

The load-bearing guarantees:

* :class:`~repro.secroute.rpki.RoaRegistry` implements RFC 6811 exactly
  (maxLength, AS0 ROAs, multiple covering ROAs);
* Peerlock has tail semantics — a route learned *directly* from a
  protected AS passes; a path transiting it behind the first hop drops;
* the compiled engine and the reference propagator produce identical
  outcomes under any security policy (drop, deprefer, Peerlock, lite);
* a campaign is deterministic under a fixed seed and its coverage curves
  are monotone in deployment rate, on both engines.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import ASPath, Origin, PathAttributes
from repro.bgp.decision import best_path
from repro.bgp.policy import (
    MatchConditions,
    RouteMap,
    RouteMapTerm,
    SetActions,
)
from repro.bgp.rib import Route
from repro.core.safety import SafetyEnforcer, SafetyVerdict
from repro.faults import FaultPlan
from repro.inet.engine import PropagationEngine
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec, propagate, resolve_lpm
from repro.inet.topology import ASGraph, ASNode
from repro.net.addr import IPAddress, Prefix
from repro.secroute import (
    AttackSurface,
    CampaignConfig,
    Roa,
    RoaRegistry,
    RovMode,
    SecurityPolicy,
    ValidationState,
    run_campaign,
    secure_propagate,
)
from repro.sim import Engine
from repro.telemetry.metrics import MetricsRegistry

V20 = Prefix("198.18.0.0/20")
V24 = Prefix("198.18.0.0/24")


# -- RFC 6811 origin validation ------------------------------------------------


class TestRoa:
    def test_default_max_length_is_prefix_length(self):
        assert Roa(V20, 65001).effective_max_length == 20

    def test_max_length_bounds_enforced(self):
        with pytest.raises(ValueError):
            Roa(V20, 65001, max_length=19)  # shorter than the ROA prefix
        with pytest.raises(ValueError):
            Roa(V20, 65001, max_length=33)  # beyond the family

    def test_negative_asn_rejected(self):
        with pytest.raises(ValueError):
            Roa(V20, -1)


class TestRfc6811:
    def test_not_found_without_covering_roa(self):
        registry = RoaRegistry((Roa(Prefix("203.0.113.0/24"), 65001),))
        assert registry.validate(V20, 65001) is ValidationState.NOT_FOUND

    def test_valid_exact_match(self):
        registry = RoaRegistry((Roa(V20, 65001),))
        assert registry.validate(V20, 65001) is ValidationState.VALID

    def test_invalid_wrong_origin(self):
        registry = RoaRegistry((Roa(V20, 65001),))
        assert registry.validate(V20, 65099) is ValidationState.INVALID

    def test_max_length_admits_more_specifics(self):
        registry = RoaRegistry((Roa(V20, 65001, max_length=24),))
        assert registry.validate(V24, 65001) is ValidationState.VALID
        too_long = Prefix("198.18.0.0/25")
        assert registry.validate(too_long, 65001) is ValidationState.INVALID

    def test_default_max_length_invalidates_subprefix(self):
        """The conservative ROA form: any more-specific is Invalid, even
        from the authorized origin — the sub-prefix hijack defense."""
        registry = RoaRegistry((Roa(V20, 65001),))
        assert registry.validate(V24, 65001) is ValidationState.INVALID

    def test_as0_roa_only_invalidates(self):
        """RFC 7607: an AS0 ROA says nothing originates this space."""
        registry = RoaRegistry((Roa(V20, 0, max_length=32),))
        assert registry.validate(V20, 0) is ValidationState.INVALID
        assert registry.validate(V24, 65001) is ValidationState.INVALID

    def test_any_permitting_roa_wins(self):
        """Multiple covering ROAs: one match makes the route Valid, no
        matter how many others would have said Invalid."""
        registry = RoaRegistry(
            (Roa(V20, 0, max_length=32), Roa(V20, 65001), Roa(V20, 65002))
        )
        assert registry.validate(V20, 65001) is ValidationState.VALID
        assert registry.validate(V20, 65002) is ValidationState.VALID
        assert registry.validate(V20, 65003) is ValidationState.INVALID

    def test_covering_roas_walk_ancestry(self):
        r8 = Roa(Prefix("198.0.0.0/8"), 65000)
        r20 = Roa(V20, 65001)
        registry = RoaRegistry((r8, r20, Roa(Prefix("203.0.113.0/24"), 65009)))
        assert registry.covering_roas(V24) == [r8, r20]

    def test_rank_ordering(self):
        assert ValidationState.VALID.rank < ValidationState.NOT_FOUND.rank
        assert ValidationState.NOT_FOUND.rank < ValidationState.INVALID.rank


class TestRegistryVersioning:
    def test_mutations_bump_version(self):
        registry = RoaRegistry()
        v0 = registry.fingerprint()
        roa = Roa(V20, 65001)
        registry.add(roa)
        v1 = registry.fingerprint()
        assert v1 != v0 and len(registry) == 1
        registry.add(roa)  # duplicate: no bump
        assert registry.fingerprint() == v1
        registry.remove(roa)
        assert registry.fingerprint() != v1 and len(registry) == 0

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            RoaRegistry().remove(Roa(V20, 65001))

    def test_distinct_registries_never_share_fingerprints(self):
        a, b = RoaRegistry(), RoaRegistry()
        a.add(Roa(V20, 65001))
        b.add(Roa(V20, 65001))
        assert a.fingerprint() != b.fingerprint()

    def test_iteration_yields_all_roas(self):
        roas = (Roa(V20, 65001), Roa(V20, 65002), Roa(Prefix("2001:db8::/32"), 65003))
        assert set(RoaRegistry(roas)) == set(roas)


# -- Peerlock semantics on small graphs ----------------------------------------


def graph_from_edges(c2p=(), p2p=()):
    g = ASGraph()
    asns = {a for e in list(c2p) + list(p2p) for a in e}
    for asn in sorted(asns):
        g.add_as(ASNode(asn=asn))
    for customer, provider in c2p:
        g.add_provider(customer, provider)
    for a, b in p2p:
        g.add_peering(a, b)
    return g


class TestPeerlock:
    @pytest.fixture
    def clique_world(self):
        # Tier-1 clique {1, 2}; 3 is 1's customer and 2's peer, so a
        # route 3 learned from 1 would transit a tier-1 toward 2.
        return graph_from_edges(c2p=[(3, 1), (4, 3), (5, 4)], p2p=[(1, 2), (3, 2)])

    def test_direct_route_from_protected_passes(self, clique_world):
        policy = SecurityPolicy().lock_clique([1, 2])
        outcome = secure_propagate(clique_world, Announcement.single(5), policy)
        # 2 hears (3, 4, 5) from its peer 3 and (1, 3, 4, 5) from clique
        # partner 1; the peer route wins on length and contains no
        # protected ASN behind hop one.
        assert outcome.as_path(2) == (3, 4, 5)

    def test_transited_protected_asn_drops(self):
        # 2's only path to the origin transits clique partner 1 via the
        # non-clique AS 3: (3, 1, 6).  Peerlock at 2 refuses it.
        g = graph_from_edges(c2p=[(6, 1), (2, 3)], p2p=[(1, 3)])
        unlocked = secure_propagate(g, Announcement.single(6), SecurityPolicy())
        assert unlocked.as_path(2) == (3, 1, 6)
        locked = SecurityPolicy().lock_clique([1, 2])
        outcome = secure_propagate(g, Announcement.single(6), locked)
        assert outcome.route(2) is None

    def test_lock_strips_self_protection(self):
        policy = SecurityPolicy().lock(1, [1, 2])
        assert policy.peerlock[1] == frozenset({2})

    def test_peerlock_lite_filters_customer_learned_tier1_paths(self):
        # 4 learns (3, 1, 6) from its *customer* 3 — a stub providing
        # transit to tier-1 1.  Peerlock-lite at 4 refuses exactly that.
        g = graph_from_edges(c2p=[(6, 1), (3, 4)], p2p=[(1, 3)])
        policy = SecurityPolicy(tier1=frozenset({1}))
        policy.peerlock_lite = frozenset({4})
        outcome = secure_propagate(g, Announcement.single(6), policy)
        assert outcome.route(4) is None

    def test_peerlock_lite_spares_provider_learned_paths(self):
        # Same path shape, but 4 learns it from its provider — legitimate.
        g = graph_from_edges(c2p=[(6, 1), (4, 3)], p2p=[(1, 3)])
        policy = SecurityPolicy(tier1=frozenset({1}))
        policy.peerlock_lite = frozenset({4})
        outcome = secure_propagate(g, Announcement.single(6), policy)
        assert outcome.as_path(4) == (3, 1, 6)

    def test_compiled_rejects_mirrors_tail_semantics(self):
        compiled = SecurityPolicy().lock(10, [20]).compile_for(
            Announcement.single(99)
        )
        assert not compiled.rejects(10, (20, 99), from_customer=False)  # direct
        assert compiled.rejects(10, (30, 20, 99), from_customer=False)  # transited
        assert not compiled.rejects(11, (30, 20, 99), from_customer=False)  # not a locker


class TestRovFiltering:
    @pytest.fixture
    def world(self):
        return graph_from_edges(c2p=[(5, 3), (6, 4), (3, 1), (4, 1)], p2p=[(3, 4)])

    def test_drop_invalid_removes_hijacker_routes(self, world):
        roas = RoaRegistry((Roa(V20, 5),))
        hijack = Announcement(
            origins=(OriginSpec(asn=5), OriginSpec(asn=6)), prefix=V20
        )
        policy = SecurityPolicy(roas=roas).deploy_rov([4], RovMode.DROP_INVALID)
        outcome = secure_propagate(world, hijack, policy)
        # 4 drops the Invalid route from its customer 6 and falls back to
        # the Valid one via its peer 3.
        assert outcome.as_path(4) == (3, 5)

    def test_deprefer_accepts_invalid_as_last_resort(self):
        # 2's only route to the hijacker's prefix is Invalid.  A
        # drop-invalid deployer blackholes; a deprefer deployer keeps it.
        g = graph_from_edges(c2p=[(6, 2)])
        roas = RoaRegistry((Roa(V20, 5),))
        hijack = Announcement.single(6, prefix=V20)
        drop = SecurityPolicy(roas=roas).deploy_rov([2], RovMode.DROP_INVALID)
        assert secure_propagate(g, hijack, drop).route(2) is None
        deprefer = SecurityPolicy(roas=roas).deploy_rov([2], RovMode.DEPREFER_INVALID)
        assert secure_propagate(g, hijack, deprefer).as_path(2) == (6,)

    def test_deprefer_prefers_valid_alternative(self, world):
        roas = RoaRegistry((Roa(V20, 5),))
        hijack = Announcement(
            origins=(OriginSpec(asn=5), OriginSpec(asn=6)), prefix=V20
        )
        policy = SecurityPolicy(roas=roas).deploy_rov([4], RovMode.DEPREFER_INVALID)
        outcome = secure_propagate(world, hijack, policy)
        # The Invalid customer route would win on Gao-Rexford preference;
        # deprefer demotes it below the Valid peer route.
        assert outcome.as_path(4) == (3, 5)

    def test_inactive_policy_matches_unfiltered(self, world):
        announcement = Announcement.single(5, prefix=V20)
        plain = propagate(world, announcement)
        secured = secure_propagate(world, announcement, SecurityPolicy())
        assert dict(plain.items()) == dict(secured.items())


# -- compiled engine vs reference under security -------------------------------


def random_policy(graph, rng):
    asns = sorted(graph.asns())
    origin_pool = sorted(graph.stub_asns()) or asns
    victim = rng.choice(origin_pool)
    roas = RoaRegistry((Roa(V20, victim),))
    policy = SecurityPolicy(roas=roas)
    mode = rng.choice([RovMode.DROP_INVALID, RovMode.DEPREFER_INVALID])
    policy.deploy_rov(rng.sample(asns, rng.randint(0, len(asns) // 2)), mode)
    clique = sorted(graph.tier1_clique())
    if clique and rng.random() < 0.7:
        policy.lock_clique(rng.sample(clique, rng.randint(1, len(clique))))
    # Valley-free paths never put a tier-1 behind the first hop, so only
    # leaks trip the clique's locks; lockers protecting ordinary transit
    # ASes are what exercises mask accumulation hop by hop.
    transit = sorted(set(asns) - set(graph.stub_asns()))
    for locker in rng.sample(asns, rng.randint(0, 6)):
        policy.lock(locker, rng.sample(transit, rng.randint(1, min(4, len(transit)))))
    if rng.random() < 0.5:
        policy.peerlock_lite = frozenset(
            rng.sample(asns, rng.randint(0, len(asns) // 3))
        )
        policy.tier1 = policy.tier1 | frozenset(clique)  # lite has teeth unlocked too
    return policy, victim


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_engines_agree_under_security(seed):
    """Seeded random internet x random security policy x hijack / leak
    / multi-mux mix: route-for-route identical outcomes on both
    propagation paths.  The leak's export path carries its upstreams
    behind the first hop, so origin offers start with a non-empty
    Peerlock tail mask; the split victim is two specs of one origin."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=70, seed=seed)).graph
    engine = PropagationEngine(graph)
    policy, victim = random_policy(graph, rng)
    attacker = rng.choice(sorted(set(graph.asns()) - {victim}))
    # The leaked route is the victim's or the hijacker's: ROV keys on the
    # path's last ASN, not on who re-originated it.
    learned = propagate(graph, Announcement.single(rng.choice([victim, attacker])))
    leaker, leaked = rng.choice(sorted(
        (asn, route.path) for asn, route in learned.items() if len(route.path) > 1
    ))
    leak = OriginSpec(asn=leaker, path_suffix=leaked)
    neighbors = sorted(graph.neighbors(victim))
    split = (
        OriginSpec(asn=victim, announce_to=tuple(neighbors[::2])),
        OriginSpec(asn=victim, prepend=1, announce_to=tuple(neighbors[1::2])),
    )
    announcements = [
        Announcement.single(victim, prefix=V20),
        Announcement(
            origins=(OriginSpec(asn=victim), OriginSpec(asn=attacker)), prefix=V20
        ),
        Announcement.single(attacker, prefix=V24),
        Announcement(origins=(OriginSpec(asn=victim), leak), prefix=V20),
        Announcement(origins=split + (OriginSpec(asn=attacker), leak), prefix=V20),
    ]
    for announcement in announcements:
        reference = secure_propagate(graph, announcement, policy)
        compiled = secure_propagate(graph, announcement, policy, engine)
        assert dict(reference.items()) == dict(compiled.items())


class TestEngineSecurityCache:
    def test_fingerprint_distinguishes_policies(self):
        g = graph_from_edges(c2p=[(6, 3), (3, 1)])
        engine = PropagationEngine(g)
        announcement = Announcement.single(6, prefix=V20)
        roas = RoaRegistry((Roa(V20, 5),))  # 6 is Invalid
        secured = engine.propagate(
            announcement,
            security=SecurityPolicy(roas=roas).deploy_rov([3]).compile_for(announcement),
        )
        plain = engine.propagate(announcement, security=None)
        assert engine.cache.stats()["misses"] == 2
        assert secured.route(1) is None and plain.as_path(1) == (3, 6)

    def test_inactive_security_shares_unsecured_entry(self):
        """A policy that can never reject anything (the origin is Valid,
        nothing is locked) is keyed like no policy at all."""
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        announcement = Announcement.single(5, prefix=V20)
        roas = RoaRegistry((Roa(V20, 5),))
        compiled = SecurityPolicy(roas=roas).deploy_rov([3]).compile_for(announcement)
        assert not compiled.active
        first = engine.propagate(announcement, security=compiled)
        second = engine.propagate(announcement, security=None)
        assert first is second
        assert engine.cache.stats()["misses"] == 1

    def test_roa_change_invalidates_cached_outcome(self):
        g = graph_from_edges(c2p=[(6, 3), (3, 1)])
        engine = PropagationEngine(g)
        announcement = Announcement.single(6, prefix=V20)
        roas = RoaRegistry((Roa(V20, 5),))  # 6 is Invalid
        policy = SecurityPolicy(roas=roas).deploy_rov([3])
        blocked = engine.propagate(
            announcement, security=policy.compile_for(announcement)
        )
        assert blocked.route(1) is None
        roas.add(Roa(V20, 6))  # now authorized; fingerprint changed
        allowed = engine.propagate(
            announcement, security=policy.compile_for(announcement)
        )
        assert allowed.as_path(1) == (3, 6)

    def test_same_policy_hits_cache(self):
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        announcement = Announcement.single(5, prefix=V20)
        compiled = SecurityPolicy().lock(1, [9]).compile_for(announcement)
        first = engine.propagate(announcement, security=compiled)
        second = engine.propagate(announcement, security=compiled)
        assert first is second
        assert engine.cache.stats()["hits"] == 1


# -- decision process and route-map integration --------------------------------


def mkroute(path, validation=None, peer="peer-a"):
    route = Route(
        prefix=V20,
        attributes=PathAttributes(
            origin=Origin.IGP,
            as_path=ASPath.from_asns(path),
            next_hop=IPAddress("10.0.0.1"),
        ),
        peer_asn=path[0],
        peer_id=peer,
        ebgp=True,
    )
    return route.with_validation(validation)


class TestDecisionLadder:
    def test_valid_beats_not_found_beats_invalid(self):
        invalid = mkroute([10, 30], ValidationState.INVALID)
        unknown = mkroute([11, 30], None)  # unvalidated == NotFound
        valid = mkroute([12, 12, 12, 30], ValidationState.VALID, peer="peer-b")
        ranked = best_path([invalid, unknown, valid])
        assert ranked[0] is valid  # despite the longer path
        assert ranked == [valid, unknown, invalid]

    def test_validation_tie_falls_through(self):
        a = mkroute([10, 30], ValidationState.VALID)
        b = mkroute([11, 40, 30], ValidationState.VALID, peer="peer-b")
        assert best_path([a, b])[0] is a  # shorter AS path decides


class TestRouteMapValidation:
    def test_match_validation_in(self):
        rm = RouteMap(
            [
                RouteMapTerm(
                    "drop-invalid",
                    permit=False,
                    match=MatchConditions(
                        validation_in=frozenset({ValidationState.INVALID})
                    ),
                ),
                RouteMapTerm("allow", permit=True),
            ]
        )
        assert rm.apply(mkroute([10, 30], ValidationState.INVALID)).route is None
        assert rm.apply(mkroute([10, 30], ValidationState.VALID)).route is not None
        # Unvalidated routes count as NotFound, not Invalid.
        assert rm.apply(mkroute([10, 30], None)).route is not None

    def test_set_validate_against_registry(self):
        registry = RoaRegistry((Roa(V20, 30),))
        rm = RouteMap(
            [RouteMapTerm("rov", actions=SetActions(validate_against=registry))]
        )
        stamped = rm.apply(mkroute([10, 30])).route
        assert stamped.validation is ValidationState.VALID
        stamped = rm.apply(mkroute([10, 99])).route
        assert stamped.validation is ValidationState.INVALID

    def test_set_fixed_validation_state(self):
        rm = RouteMap(
            [RouteMapTerm("stamp", actions=SetActions(validation=ValidationState.VALID))]
        )
        assert rm.apply(mkroute([10, 30])).route.validation is ValidationState.VALID


# -- testbed-side safety: squat and RPKI vetting -------------------------------


ALLOCATED = Prefix("184.164.224.0/24")
FOREIGN = Prefix("184.164.225.0/24")


def vet(enforcer, prefix, foreign=frozenset({FOREIGN})):
    return enforcer.check_announcement(
        "exp1",
        prefix,
        ASPath(),
        allocated={ALLOCATED},
        testbed_space=True,
        now=0.0,
        foreign_allocated=set(foreign),
    )


class TestSafetySquat:
    def test_exact_foreign_prefix_is_squat(self):
        decision = vet(SafetyEnforcer(), FOREIGN)
        assert decision.verdict is SafetyVerdict.PREFIX_SQUAT
        assert not decision.allowed

    def test_subprefix_of_foreign_allocation_is_squat(self):
        decision = vet(SafetyEnforcer(), Prefix("184.164.225.0/25"))
        assert decision.verdict is SafetyVerdict.PREFIX_SQUAT

    def test_unrelated_prefix_stays_not_allocated(self):
        decision = vet(SafetyEnforcer(), Prefix("184.164.230.0/24"))
        assert decision.verdict is SafetyVerdict.PREFIX_NOT_ALLOCATED

    def test_squat_draws_audit_entry_and_violation(self):
        enforcer = SafetyEnforcer()
        vet(enforcer, FOREIGN)
        assert enforcer.violation_count("exp1") == 1
        entry = enforcer.audit_log[-1]
        assert entry.client_id == "exp1"
        assert entry.decision.verdict is SafetyVerdict.PREFIX_SQUAT

    def test_own_prefix_unaffected_by_foreign_set(self):
        assert vet(SafetyEnforcer(), ALLOCATED).allowed


class TestSafetyRpki:
    def test_rpki_invalid_announcement_denied(self):
        enforcer = SafetyEnforcer()
        enforcer.bind_roas(RoaRegistry((Roa(ALLOCATED, 65001),)), origin_asn=47065)
        decision = vet(SafetyEnforcer(), ALLOCATED)
        assert decision.allowed  # unbound enforcer: no RPKI gate
        decision = vet(enforcer, ALLOCATED)
        assert decision.verdict is SafetyVerdict.RPKI_INVALID

    def test_valid_and_not_found_pass(self):
        enforcer = SafetyEnforcer()
        enforcer.bind_roas(RoaRegistry((Roa(ALLOCATED, 47065),)), origin_asn=47065)
        assert vet(enforcer, ALLOCATED).allowed


# -- attack surface + fault plan -----------------------------------------------


class TestAttackSurface:
    @pytest.fixture
    def world(self):
        return graph_from_edges(c2p=[(5, 3), (6, 4), (3, 1), (4, 1)], p2p=[(3, 4)])

    def test_scripted_hijack_timeline(self, world):
        surface = AttackSurface(world)
        surface.announce(5, V20)
        engine = Engine(seed=7)
        plan = FaultPlan(engine, name="hijack")
        plan.hijack_prefix(surface, attacker=6, prefix=V24, at=10.0)
        plan.withdraw_prefix(surface, asn=6, prefix=V24, at=20.0)
        engine.run(until=5.0)
        assert surface.announced_prefixes() == (V20,)
        engine.run(until=15.0)
        hit = surface.resolve(3, V24)
        assert hit is not None and hit[0] == V24 and hit[1].path[-1] == 6
        engine.run(until=25.0)
        assert surface.announced_prefixes() == (V20,)
        assert ("hijack", f"AS6>{V24}") in {(a, t) for _, a, t in plan.log}

    def test_leak_reoriginates_selected_path(self, world):
        surface = AttackSurface(world)
        surface.announce(5, V20)
        victim_path = surface.outcome(V20).as_path(6)
        surface.leak(6, V20)
        leaked = surface.announcement(V20)
        suffixes = {spec.path_suffix for spec in leaked.origins}
        assert victim_path in suffixes

    def test_leak_without_route_raises(self, world):
        surface = AttackSurface(world)
        surface.announce(5, V20, announce_to=())
        with pytest.raises(ValueError):
            surface.leak(6, V20)

    def test_resolve_prefers_more_specific(self, world):
        surface = AttackSurface(world)
        surface.announce(5, V20)
        surface.announce(6, V24)
        hit = surface.resolve(1, IPAddress("198.18.0.7"))
        assert hit is not None and hit[0] == V24
        outside = surface.resolve(1, IPAddress("198.18.15.1"))
        assert outside is not None and outside[0] == V20


# -- campaign harness ----------------------------------------------------------


# seed 11 at this size yields a leak that actually attracts traffic, so
# the containment scenario is non-degenerate (coverage < 1 at rate 0).
CAMPAIGN = CampaignConfig(
    seed=11, rates=(0.0, 0.5, 1.0), trials=2, n_ases=100, n_tier1=5
)


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(CAMPAIGN)

    def test_all_scenarios_present_and_monotone(self, result):
        assert set(result.scenarios) == {
            "origin-hijack",
            "subprefix-hijack",
            "route-leak",
        }
        for scenario in result.scenarios.values():
            assert scenario.is_monotone(), scenario
            assert len(scenario.trial_curves) == CAMPAIGN.trials
            for curve in scenario.trial_curves:
                assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:])), curve

    def test_full_deployment_restores_origin_hijack_coverage(self, result):
        assert result.scenarios["origin-hijack"].coverage[-1] == pytest.approx(1.0)

    def test_deterministic_under_fixed_seed(self, result):
        again = run_campaign(CAMPAIGN)
        assert again.to_dict() == result.to_dict()

    def test_reference_engine_matches_compiled(self, result):
        reference = run_campaign(CAMPAIGN, use_reference=True)
        assert reference.engine == "reference"
        for name, scenario in result.scenarios.items():
            assert reference.scenarios[name].trial_curves == scenario.trial_curves
        assert reference.leaks_contained == result.leaks_contained

    def test_seed_changes_results(self, result):
        other = run_campaign(
            CampaignConfig(seed=12, rates=(0.0, 0.5, 1.0), trials=2, n_ases=80,
                           n_tier1=4)
        )
        assert other.to_dict() != result.to_dict()

    def test_table_renders_every_scenario(self, result):
        table = result.table()
        for name in result.scenarios:
            assert name in table

    def test_metrics_observe_verdicts_and_containment(self):
        metrics = MetricsRegistry()
        result = run_campaign(CAMPAIGN, metrics=metrics)
        verdicts = metrics.get("peering_secroute_rov_verdicts_total")
        assert verdicts.labels("invalid").value > 0
        assert verdicts.labels("valid").value > 0
        contained = metrics.get("peering_secroute_leaks_contained_total")
        assert contained.value == result.leaks_contained > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(rates=(0.5, 0.2))
        with pytest.raises(ValueError):
            CampaignConfig(rates=(0.0, 1.5))
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(rates=())
