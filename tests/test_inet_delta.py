"""Delta propagation: incremental convergence must be indistinguishable
from full re-convergence.

The load-bearing guarantee is *route-for-route identity* between
``PropagationEngine.propagate_delta`` chains and the reference
:func:`repro.inet.routing.propagate` across random announcement-change
sequences — withdrawals, prepend/poison/announce-to changes, origin
additions — with and without active :mod:`repro.secroute` policies.
Regimes (noop / shift / fallback / full) are exercised explicitly, and
the version-bucketed :class:`OutcomeCache` bookkeeping is checked at the
structure level.
"""

import random
import types
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.inet.engine import OutcomeCache, PropagationEngine, _affinity_order
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec, propagate
from repro.inet.topology import ASGraph, ASNode
from repro.net.addr import Prefix
from repro.secroute import Roa, RoaRegistry, RovMode, SecurityPolicy
from repro.telemetry.lookingglass import LookingGlass

V20 = Prefix("198.18.0.0/20")


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


def mutate_announcement(announcement, graph, rng):
    """One steering-sweep step: a related announcement differing from the
    previous one the way real experiments differ — tweak one spec's
    prepend/poison/announce-to, add an origin, withdraw one, or repeat
    the announcement verbatim (a no-op re-announce)."""
    asns = sorted(graph.asns())
    origins = list(announcement.origins)
    op = rng.choice(
        ["noop", "prepend", "poison", "announce_to", "add", "drop", "prepend"]
    )
    if op == "prepend" and origins:
        i = rng.randrange(len(origins))
        s = origins[i]
        origins[i] = replace(s, prepend=rng.randint(0, 4))
    elif op == "poison" and origins:
        i = rng.randrange(len(origins))
        s = origins[i]
        origins[i] = replace(
            s, poison=tuple(rng.sample(asns, rng.randint(0, 2)))
        )
    elif op == "announce_to" and origins:
        i = rng.randrange(len(origins))
        s = origins[i]
        neighbors = sorted(graph.neighbors(s.asn))
        announce_to = None
        if neighbors and rng.random() < 0.7:
            announce_to = tuple(
                rng.sample(neighbors, rng.randint(0, min(4, len(neighbors))))
            )
        origins[i] = replace(s, announce_to=announce_to)
    elif op == "add" and len(origins) < 4:
        origins.append(OriginSpec(asn=rng.choice(asns)))
    elif op == "drop" and len(origins) > 1:
        origins.pop(rng.randrange(len(origins)))
    return Announcement(origins=tuple(origins), prefix=announcement.prefix)


def assert_same_routes(reference, outcome):
    assert dict(reference.items()) == dict(outcome.items())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_delta_chain_matches_reference(seed):
    """Seeded random internet x random change sequence: every chained
    delta outcome is route-for-route identical to a fresh full run."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=80, seed=seed)).graph
    engine = PropagationEngine(graph)
    announcement = Announcement.single(rng.choice(sorted(graph.asns())))
    prev = engine.propagate(announcement, use_cache=False)
    assert_same_routes(propagate(graph, announcement), prev)
    for _ in range(6):
        announcement = mutate_announcement(announcement, graph, rng)
        prev = engine.propagate_delta(prev, announcement, use_cache=False)
        assert_same_routes(propagate(graph, announcement), prev)
    modes = engine.stats()["delta"]
    assert sum(modes.values()) == 6
    assert modes["cone"] == modes["full"] == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_delta_chain_matches_reference_secured(seed):
    """Same identity under active RPKI ROV, Peerlock and Peerlock-lite:
    the security fingerprint keys table reuse, and every input of the
    kernel's accept hook is drawn — a drop set, a locker mask, a lite
    mask on customer routes only, a leaked path whose tail already
    carries locked ASNs, and two specs of one origin."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=70, seed=seed)).graph
    asns = sorted(graph.asns())
    victim = rng.choice(sorted(graph.stub_asns()) or asns)
    policy = SecurityPolicy(roas=RoaRegistry((Roa(V20, victim),)))
    policy.deploy_rov(
        rng.sample(asns, rng.randint(1, len(asns) // 2)),
        rng.choice([RovMode.DROP_INVALID, RovMode.DEPREFER_INVALID]),
    )
    clique = sorted(graph.tier1_clique())
    if clique and rng.random() < 0.7:
        policy.lock_clique(rng.sample(clique, rng.randint(1, len(clique))))
    transit = sorted(set(asns) - set(graph.stub_asns()))
    for locker in rng.sample(asns, rng.randint(0, 6)):
        policy.lock(locker, rng.sample(transit, rng.randint(1, min(4, len(transit)))))
    policy.peerlock_lite = frozenset(rng.sample(asns, rng.randint(0, len(asns) // 3)))
    policy.tier1 = policy.tier1 | frozenset(clique)
    attacker = rng.choice([a for a in asns if a != victim])
    # A route leak: someone re-originates the route it learned toward the
    # victim or the hijacker, so the export path's tail names upstreams.
    learned = propagate(graph, Announcement.single(rng.choice([victim, attacker])))
    leaker, leaked = rng.choice(sorted(
        (asn, route.path) for asn, route in learned.items() if len(route.path) > 1
    ))
    neighbors = sorted(graph.neighbors(victim))
    announcement = Announcement(
        origins=(
            OriginSpec(asn=victim, announce_to=tuple(neighbors[::2])),
            OriginSpec(asn=victim, prepend=1, announce_to=tuple(neighbors[1::2])),
            OriginSpec(asn=attacker),
            OriginSpec(asn=leaker, path_suffix=leaked),
        ),
        prefix=V20,
    )
    engine = PropagationEngine(graph)
    prev = None
    for _ in range(6):
        prev = engine.propagate_delta(
            prev, announcement, use_cache=False, security=policy
        )
        reference = propagate(
            graph, announcement, security=policy.compile_for(announcement)
        )
        assert_same_routes(reference, prev)
        announcement = mutate_announcement(announcement, graph, rng)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_secured_sweep_matches_reference(seed):
    """A secured ``propagate_many`` sweep under active ROV + Peerlock:
    every point of the affinity-ordered delta chain is route-for-route
    identical to the reference propagation under the compiled policy."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=60, seed=seed)).graph
    asns = sorted(graph.asns())
    victim = rng.choice(asns)
    attacker = rng.choice([a for a in asns if a != victim])
    policy = SecurityPolicy(roas=RoaRegistry((Roa(V20, victim),)))
    policy.deploy_rov(
        rng.sample(asns, rng.randint(2, len(asns) // 2)),
        rng.choice([RovMode.DROP_INVALID, RovMode.DEPREFER_INVALID]),
    )
    clique = sorted(graph.tier1_clique())
    if clique:
        policy.lock_clique(clique)
    sweep = []
    for p in range(4):
        sweep.append(
            Announcement(
                origins=(
                    OriginSpec(asn=victim, prepend=p),
                    OriginSpec(asn=attacker),
                ),
                prefix=V20,
            )
        )
        sweep.append(Announcement.single(attacker, prepend=p, prefix=V20))
    engine = PropagationEngine(graph)
    outcomes = engine.propagate_many(sweep, use_cache=False, security=policy)
    for announcement, outcome in zip(sweep, outcomes):
        reference = propagate(
            graph, announcement, security=policy.compile_for(announcement)
        )
        assert_same_routes(reference, outcome)
    assert sum(engine.stats()["delta"].values()) == len(sweep)


class TestAffinityOrder:
    def test_groups_by_key(self):
        keys = ["a", "b", "a", "b", "a"]
        assert _affinity_order(keys) == [0, 2, 4, 1, 3]

    def test_larger_groups_first(self):
        keys = ["a", "b", "b", "c", "c", "c"]
        assert _affinity_order(keys) == [3, 4, 5, 1, 2, 0]

    def test_equal_groups_keep_first_seen_order(self):
        keys = ["y", "x", "y", "x", "z"]
        assert _affinity_order(keys) == [0, 2, 1, 3, 4]

    def test_deterministic(self):
        keys = [("k", i % 3) for i in range(20)]
        assert _affinity_order(keys) == _affinity_order(keys)


class TestDeltaRegimes:
    @pytest.fixture
    def hierarchy(self):
        return graph_from_edges(
            c2p=[(3, 1), (4, 2), (5, 3), (6, 4), (7, 5), (8, 5)],
            p2p=[(1, 2), (3, 4)],
        )

    def test_noop_returns_previous_outcome(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        again = engine.propagate_delta(
            base, Announcement.single(7), use_cache=False
        )
        assert again is base
        assert engine.stats()["delta"]["noop"] == 1

    def test_shift_shares_table_arrays(self, hierarchy):
        """A pure prepend change must not copy any table array: kind,
        via, root, and plen are shared; the plen shift stays pending."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        shifted = engine.propagate_delta(
            base, Announcement.single(7, prepend=2), use_cache=False
        )
        assert shifted._kind is base._kind
        assert shifted._via is base._via
        assert shifted._plen is base._plen
        assert shifted._plen_shift == 2
        assert engine.stats()["delta"]["shift"] == 1
        assert_same_routes(
            propagate(hierarchy, Announcement.single(7, prepend=2)), shifted
        )

    def test_shift_materializes_plen_for_later_delta(self, hierarchy):
        """Shifts compose while pending, and reading plen values
        materializes the sum exactly once without mutating the array the
        chain shares — so every table equals a fresh full run's."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        shifted = engine.propagate_delta(
            base, Announcement.single(7, prepend=3), use_cache=False
        )
        again = engine.propagate_delta(
            shifted, Announcement.single(7, prepend=1), use_cache=False
        )
        assert (shifted._plen_shift, again._plen_shift) == (3, 1)
        for outcome, prepend in ((again, 1), (shifted, 3), (base, 0)):
            eager = engine.propagate(
                Announcement.single(7, prepend=prepend), use_cache=False
            )
            assert outcome._table() == eager._table()
            assert outcome._plen_shift == 0  # materialized exactly once
        assert shifted._plen is not base._plen
        assert again._plen is not base._plen  # the original was never touched

    def test_root_convention_holds_across_a_shift_and_cone_chain(self, hierarchy):
        """root is -1 at origins and unreached slots in every table a
        chain produces — full, shift-shared, reconverged after a content
        change, one spec or several — so each equals a fresh full run
        slot for slot."""
        engine = PropagationEngine(hierarchy)
        chain = [
            Announcement.single(7),
            Announcement.single(7, prepend=2),
            Announcement(origins=(OriginSpec(7, prepend=2), OriginSpec(8))),
            Announcement(
                origins=(OriginSpec(7, prepend=2), OriginSpec(8, poison=(4,)))
            ),
            Announcement(origins=(OriginSpec(7, prepend=2),)),
        ]
        prev = None
        for announcement in chain:
            prev = engine.propagate_delta(prev, announcement, use_cache=False)
            full = engine.propagate(announcement, use_cache=False)
            assert prev._table() == full._table()
            for asn in hierarchy.asns():
                if asn in announcement.origin_asns() or not prev.reaches(asn):
                    assert prev.origin_spec_index(asn) is None
                else:
                    assert prev.origin_spec_index(asn) is not None
        modes = engine.stats()["delta"]
        assert (modes["full"], modes["shift"], modes["fallback"]) == (1, 1, 3)

    def test_multi_spec_content_change_falls_back(self, hierarchy):
        """Changing one spec of a multi-origin announcement while the
        other survives — however small or large the changed catchment —
        is a reusable base with a content change: one full convergence,
        counted as ``fallback``, routes identical to the reference."""
        engine = PropagationEngine(hierarchy)
        base_ann = Announcement(
            origins=(OriginSpec(asn=7), OriginSpec(asn=8, prepend=1))
        )
        prev = engine.propagate(base_ann, use_cache=False)
        for origins in (
            (OriginSpec(asn=7), OriginSpec(asn=8, prepend=1, poison=(4,))),
            (OriginSpec(asn=1), OriginSpec(asn=8, prepend=1, poison=(4,))),
        ):
            new_ann = Announcement(origins=origins)
            prev = engine.propagate_delta(prev, new_ann, use_cache=False)
            assert_same_routes(propagate(hierarchy, new_ann), prev)
        modes = engine.stats()["delta"]
        assert (modes["fallback"], modes["cone"]) == (2, 0)

    def test_withdrawal_via_delta(self, hierarchy):
        """Dropping an origin (withdrawal) through the delta path leaves
        exactly the surviving origin's routes."""
        engine = PropagationEngine(hierarchy)
        both = Announcement(origins=(OriginSpec(asn=7), OriginSpec(asn=8)))
        base = engine.propagate(both, use_cache=False)
        only7 = Announcement(origins=(OriginSpec(asn=7),))
        out = engine.propagate_delta(base, only7, use_cache=False)
        assert_same_routes(propagate(hierarchy, only7), out)

    def test_single_spec_content_change_falls_back(self, hierarchy):
        """A poison change on a single-origin announcement is not a
        shift — the engine must fall back to a full run and still be
        correct."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        new_ann = Announcement.single(7, poison=(4,))
        out = engine.propagate_delta(base, new_ann, use_cache=False)
        assert engine.stats()["delta"]["fallback"] == 1
        assert_same_routes(propagate(hierarchy, new_ann), out)

    def test_stale_prev_outcome_degrades_to_full(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        hierarchy.add_peering(2, 3)  # bump the graph version
        out = engine.propagate_delta(
            base, Announcement.single(7, prepend=1), use_cache=False
        )
        assert engine.stats()["delta"]["full"] == 1
        assert_same_routes(
            propagate(hierarchy, Announcement.single(7, prepend=1)), out
        )

    def test_none_prev_outcome_is_full_run(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        out = engine.propagate_delta(
            None, Announcement.single(7), use_cache=False
        )
        assert engine.stats()["delta"]["full"] == 1
        assert_same_routes(propagate(hierarchy, Announcement.single(7)), out)

    def test_security_fingerprint_gates_reuse(self, hierarchy):
        """An unsecured previous outcome must not seed a secured delta
        (and vice versa): the fingerprints differ, so it runs full."""
        engine = PropagationEngine(hierarchy)
        ann = Announcement.single(7, prefix=V20)
        policy = SecurityPolicy(roas=RoaRegistry((Roa(V20, 5),))).deploy_rov(
            [3], RovMode.DROP_INVALID
        )
        plain = engine.propagate(ann, use_cache=False)
        secured = engine.propagate_delta(
            plain,
            Announcement.single(7, prefix=V20, prepend=1),
            use_cache=False,
            security=policy,
        )
        assert engine.stats()["delta"]["full"] == 1
        reference = propagate(
            hierarchy,
            Announcement.single(7, prefix=V20, prepend=1),
            security=policy.compile_for(ann),
        )
        assert_same_routes(reference, secured)

    def test_secured_prepend_that_moves_the_tail_mask_is_not_a_shift(self, hierarchy):
        """Prepending a Peerlock-protected origin puts its ASN behind the
        first hop, where its clique partner refuses it: the route table
        changes shape, so the change must reconverge, not shift."""
        engine = PropagationEngine(hierarchy)
        policy = SecurityPolicy().lock_clique([1, 2])
        base = engine.propagate(Announcement.single(1), use_cache=False, security=policy)
        prepended = Announcement.single(1, prepend=1)
        out = engine.propagate_delta(base, prepended, use_cache=False, security=policy)
        assert engine.stats()["delta"] == {
            "noop": 0, "shift": 0, "cone": 0, "fallback": 1, "full": 0
        }
        reference = propagate(
            hierarchy, prepended, security=policy.compile_for(prepended)
        )
        assert_same_routes(reference, out)
        assert base.reaches(2) and not out.reaches(2)

    def test_delta_results_enter_the_shared_cache(self, hierarchy):
        """propagate_delta uses propagate's exact cache key, so a delta
        result satisfies a later full-propagate lookup."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7))
        shifted_ann = Announcement.single(7, prepend=2)
        shifted = engine.propagate_delta(base, shifted_ann)
        assert engine.propagate(shifted_ann) is shifted
        assert engine.cache.hits >= 1

    def test_sweep_chains_deltas_serially(self, hierarchy):
        """propagate_many routes consecutive specs through the delta path
        automatically: a prepend sweep is all shifts after the first."""
        engine = PropagationEngine(hierarchy)
        sweep = [Announcement.single(7, prepend=p) for p in range(6)]
        outcomes = engine.propagate_many(sweep)
        modes = engine.stats()["delta"]
        assert modes["shift"] == 5
        for announcement, outcome in zip(sweep, outcomes):
            assert_same_routes(propagate(hierarchy, announcement), outcome)

    def test_sweep_groups_interleaved_steering(self):
        """Two origins' prepend sweeps, interleaved: the sweep regroups
        them, so each group converges once and shifts the rest."""
        graph = build_internet(InternetConfig(n_ases=80, seed=11)).graph
        a, b = sorted(graph.asns())[-2:]
        sweep = [
            Announcement.single(origin, prepend=p)
            for p in range(6) for origin in (a, b)
        ]
        engine = PropagationEngine(graph)
        outcomes = engine.propagate_many(sweep, use_cache=False)
        for announcement, outcome in zip(sweep, outcomes):
            assert_same_routes(propagate(graph, announcement), outcome)
        modes = engine.stats()["delta"]
        assert (modes["full"], modes["fallback"], modes["shift"]) == (1, 1, 10)

    def test_looking_glass_surfaces_sweep_savings(self):
        """The looking glass reports a prepend sweep's delta regimes, the
        share answered without converging and the AS slots reused."""
        graph = build_internet(InternetConfig(n_ases=60, seed=5)).graph
        origin = sorted(graph.asns())[-1]
        engine = PropagationEngine(graph)
        engine.propagate_many(
            [Announcement.single(origin, prepend=p) for p in range(8)],
            use_cache=False,
        )
        modes = engine.stats()["delta"]
        assert (modes["full"], modes["shift"]) == (1, 7)
        glass = LookingGlass(types.SimpleNamespace(propagation=engine))
        savings = glass.propagation_savings()
        assert savings["delta_runs"] == modes
        assert savings["incremental_fraction"] == 7 / 8
        assert savings["slots_reused"] == 7 * len(graph)

    def test_stats_keep_all_five_regime_keys(self, hierarchy):
        # benchmarks/e2e/harness.py::engine_counters indexes
        # stats()["delta"]["cone"] for BENCHMARK.json's
        # inet.engine.converge.delta_cone, and stats()["parallel"] for
        # pool_chains / pool_fallbacks, so the keys outlive the regime and
        # the pool (reading 0) until a [benchmark] PR drops those metrics.
        stats = PropagationEngine(hierarchy).stats()
        keys = {"noop", "shift", "cone", "fallback", "full"}
        assert set(stats["delta"]) == keys
        assert stats["parallel"]["chains"] == 0
        assert sum(stats["parallel"]["pool_fallbacks"].values()) == 0

    def test_delta_saved_slots_reported(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        engine.propagate_delta(
            base, Announcement.single(7, prepend=1), use_cache=False
        )
        stats = engine.stats()
        assert stats["delta_saved_slots"] >= len(hierarchy) - 1


class TestOutcomeCacheVersionBuckets:
    def test_prune_version_drops_only_stale_versions(self):
        cache = OutcomeCache(maxsize=10)
        marker = object()
        cache.put((1, "a"), marker)
        cache.put((1, "b"), marker)
        cache.put((2, "c"), marker)
        cache.prune_version(2)
        assert set(cache._data) == {(2, "c")}
        assert set(cache._by_version) == {2}

    def test_buckets_key_on_first_component_generically(self):
        cache = OutcomeCache(maxsize=10)
        marker = object()
        cache.put((("v", 1), "a"), marker)
        cache.put((("v", 2), "b"), marker)
        cache.prune_version(("v", 2))
        assert set(cache._data) == {(("v", 2), "b")}

    def test_eviction_keeps_buckets_consistent(self):
        cache = OutcomeCache(maxsize=2)
        marker = object()
        cache.put((1, "a"), marker)
        cache.put((2, "b"), marker)
        cache.put((2, "c"), marker)  # evicts (1, "a"), emptying bucket 1
        assert set(cache._data) == {(2, "b"), (2, "c")}
        assert set(cache._by_version) == {2}
        assert cache._by_version[2] == {(2, "b"), (2, "c")}
        assert cache.evictions == 1

    def test_reput_same_key_does_not_duplicate(self):
        cache = OutcomeCache(maxsize=10)
        marker = object()
        cache.put((1, "a"), marker)
        cache.put((1, "a"), marker)
        assert len(cache) == 1
        assert cache._by_version[1] == {(1, "a")}

    def test_clear_resets_buckets(self):
        cache = OutcomeCache(maxsize=10)
        cache.put((1, "a"), object())
        cache.clear()
        assert len(cache) == 0
        assert cache._by_version == {}

    def test_prune_after_eviction_of_last_version_entry(self):
        cache = OutcomeCache(maxsize=1)
        cache.put((1, "a"), object())
        cache.put((2, "b"), object())  # evicts version 1 entirely
        cache.prune_version(2)  # must not KeyError on the gone bucket
        assert set(cache._data) == {(2, "b")}
