"""Compiled propagation engine: equivalence with the reference, caching,
compilation invalidation, and batched sweeps.

The load-bearing guarantee is *route-for-route identity* with
:func:`repro.inet.routing.propagate` across every steering primitive the
testbed exposes (multi-origin, prepending, poisoning, selective
announcement) — checked here on seeded random internets with seeded
random announcements.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.inet.engine import (
    CompiledTopology,
    OutcomeCache,
    PropagationEngine,
    canonical_key,
)
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec, RouteKind, propagate
from repro.inet.topology import ASGraph, ASNode, TopologyError


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


def random_announcement(graph, rng, max_origins=3):
    """A random mix of the steering primitives, biased toward the common
    single-origin case."""
    asns = sorted(graph.asns())
    origins = []
    for _ in range(rng.choice([1, 1, 1, 2, max_origins])):
        origin = rng.choice(asns)
        neighbors = sorted(graph.neighbors(origin))
        announce_to = None
        if neighbors and rng.random() < 0.4:
            announce_to = tuple(
                rng.sample(neighbors, rng.randint(0, min(4, len(neighbors))))
            )
        poison = ()
        if rng.random() < 0.4:
            poison = tuple(rng.sample(asns, rng.randint(1, 2)))
        prepend = rng.randint(0, 3) if rng.random() < 0.4 else 0
        origins.append(
            OriginSpec(
                asn=origin, prepend=prepend, poison=poison, announce_to=announce_to
            )
        )
    return Announcement(origins=tuple(origins))


def assert_identical(graph, announcement, engine=None):
    engine = engine or PropagationEngine(graph)
    reference = propagate(graph, announcement)
    compiled = engine.propagate(announcement, use_cache=False)
    ref_routes = dict(reference.items())
    eng_routes = dict(compiled.items())
    assert set(ref_routes) == set(eng_routes)
    for asn, route in ref_routes.items():
        assert eng_routes[asn] == route, f"AS{asn}: {eng_routes[asn]} != {route}"
    return reference, compiled


class TestEquivalenceSmall:
    @pytest.fixture
    def hierarchy(self):
        return graph_from_edges(
            c2p=[(3, 1), (4, 2), (5, 3), (6, 4)],
            p2p=[(1, 2), (3, 4)],
        )

    def test_single_origin(self, hierarchy):
        assert_identical(hierarchy, Announcement.single(5))

    def test_selective_announcement(self, hierarchy):
        assert_identical(hierarchy, Announcement.single(5, announce_to=(3,)))

    def test_announce_to_nobody(self, hierarchy):
        _, outcome = assert_identical(
            hierarchy, Announcement.single(5, announce_to=())
        )
        assert outcome.reachable_asns() == {5}

    def test_poisoning(self, hierarchy):
        _, outcome = assert_identical(hierarchy, Announcement.single(5, poison=(4,)))
        assert not outcome.reaches(4)

    def test_prepending(self, hierarchy):
        _, outcome = assert_identical(hierarchy, Announcement.single(5, prepend=3))
        assert outcome.route(3).path == (5, 5, 5, 5)

    def test_multi_origin_anycast(self, hierarchy):
        assert_identical(
            hierarchy,
            Announcement(origins=(OriginSpec(asn=5), OriginSpec(asn=6))),
        )

    def test_same_origin_two_specs(self, hierarchy):
        # The steering shape the testbed emits: one ASN, per-neighbor specs.
        assert_identical(
            hierarchy,
            Announcement(
                origins=(
                    OriginSpec(asn=5, prepend=2, announce_to=(3,)),
                    OriginSpec(asn=5, announce_to=(3,)),
                )
            ),
        )

    def test_unknown_origin_raises(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        with pytest.raises(TopologyError):
            engine.propagate(Announcement.single(999))

    def test_disconnected_as(self, hierarchy):
        hierarchy.add_as(ASNode(asn=99))
        _, outcome = assert_identical(hierarchy, Announcement.single(5))
        assert not outcome.reaches(99)
        assert outcome.route(99) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_engine_matches_reference(seed):
    """Seeded random internet x random announcements: identical routes,
    paths, forwarding chains, and export decisions."""
    rng = random.Random(seed)
    inet = build_internet(InternetConfig(n_ases=90, seed=seed, total_prefixes=1500))
    graph = inet.graph
    engine = PropagationEngine(graph)
    for _ in range(3):
        announcement = random_announcement(graph, rng)
        reference, compiled = assert_identical(graph, announcement, engine)
        sample = rng.sample(sorted(graph.asns()), 12)
        for asn in sample:
            assert reference.as_path(asn) == compiled.as_path(asn)
            assert reference.forwarding_chain(asn) == compiled.forwarding_chain(asn)
            assert reference.reaches(asn) == compiled.reaches(asn)
            for neighbor in sorted(graph.neighbors(asn)):
                assert reference.exports_to(asn, neighbor) == compiled.exports_to(
                    asn, neighbor
                ), (asn, neighbor)
        assert len(reference) == len(compiled)
        assert reference.reachable_asns() == compiled.reachable_asns()


def tie_rule_announcements(graph, rng):
    """``{rule: announcement}`` — one multi-spec announcement per tie rule
    of the level-synchronous kernel, so a failure names the rule."""
    asns = sorted(graph.asns())
    o, o2 = rng.sample([a for a in asns if len(graph.neighbors(a)) >= 2], 2)
    nbrs = sorted(graph.neighbors(o))
    half = tuple(nbrs[: len(nbrs) // 2])
    rest = tuple(nbrs[len(nbrs) // 2:])
    x, y = rng.sample([a for a in asns if a not in (o, o2)], 2)
    cases = {
        # one origin, seeds entering at three different levels
        "staggered prepends": (
            OriginSpec(o, prepend=2),
            OriginSpec(o, prepend=1, announce_to=half),
            OriginSpec(o, announce_to=rest),
        ),
        # equal export length, so (plen, via, target) collide: (o,x,o) vs
        # (o,o,o) vs (o,y,o) break on content, the duplicate on spec index
        "equal length": (
            OriginSpec(o, poison=(x,)),
            OriginSpec(o, prepend=2),
            OriginSpec(o, poison=(y,)),
            OriginSpec(o, prepend=2),
        ),
        # each spec poisons an AS the other is free to use
        "per-spec poison, one origin": (
            OriginSpec(o, poison=(nbrs[0],)),
            OriginSpec(o, prepend=1, poison=(nbrs[-1],)),
        ),
        "per-spec poison, two origins": (
            OriginSpec(o, poison=(rng.choice(sorted(graph.neighbors(o2))), x)),
            OriginSpec(o2, prepend=1, poison=(rng.choice(nbrs),)),
        ),
        "overlapping announce_to": (
            OriginSpec(o, prepend=1, announce_to=half + rest[:1]),
            OriginSpec(o, announce_to=rest),
            OriginSpec(o, poison=(x,), announce_to=tuple(nbrs)),
        ),
        "disjoint announce_to": (
            OriginSpec(o, prepend=1, announce_to=half),
            OriginSpec(o, poison=(y,), announce_to=rest),
        ),
    }
    for k in (2, 3, 4):
        cases[f"{k} origins"] = tuple(
            OriginSpec(a, prepend=rng.randint(0, 2))
            for a in rng.sample(asns, k)
        )
    return {
        rule: Announcement(origins=specs) for rule, specs in cases.items()
    }


@pytest.mark.parametrize("seed", range(10))
def test_multi_spec_tie_rules_match_reference(seed):
    """The multi-spec kernel against the reference oracle on announcements
    built to hit each tie rule, one at a time and as one sweep."""
    rng = random.Random(seed)
    graph = build_internet(
        InternetConfig(n_ases=rng.choice([40, 70, 100]), seed=seed)
    ).graph
    engine = PropagationEngine(graph)
    cases = tie_rule_announcements(graph, rng)
    references = {
        rule: dict(propagate(graph, ann).items()) for rule, ann in cases.items()
    }
    for rule, announcement in cases.items():
        compiled = engine.propagate(announcement, use_cache=False)
        assert dict(compiled.items()) == references[rule], rule
    batched = engine.propagate_many(list(cases.values()), use_cache=False)
    for rule, outcome in zip(cases, batched):
        assert dict(outcome.items()) == references[rule], f"{rule} (batch)"


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_subprefix_lpm_matches_reference(seed):
    """Sub-prefix hijack shape: a covering /20 and a more-specific /24
    from different origins.  Both engines must converge each prefix
    identically, and longest-prefix match over the pair must pick the
    same (prefix, route) at every AS — the data-plane outcome a
    sub-prefix hijack is judged by."""
    from repro.inet.routing import resolve_lpm
    from repro.net.addr import IPAddress, Prefix

    covering_pfx = Prefix("198.18.0.0/20")
    specific_pfx = Prefix("198.18.0.0/24")
    rng = random.Random(seed)
    inet = build_internet(InternetConfig(n_ases=80, seed=seed))
    graph = inet.graph
    engine = PropagationEngine(graph)
    asns = sorted(graph.asns())
    victim = rng.choice(asns)
    attacker = rng.choice([a for a in asns if a != victim])
    covering = Announcement.single(victim, prefix=covering_pfx)
    specific = Announcement.single(attacker, prefix=specific_pfx)

    ref = {
        covering_pfx: propagate(graph, covering),
        specific_pfx: propagate(graph, specific),
    }
    eng = {
        covering_pfx: engine.propagate(covering, use_cache=False),
        specific_pfx: engine.propagate(specific, use_cache=False),
    }
    for prefix in (covering_pfx, specific_pfx):
        assert dict(ref[prefix].items()) == dict(eng[prefix].items())

    inside = IPAddress("198.18.0.77")  # in the /24
    outside = IPAddress("198.18.8.1")  # in the /20 only
    for asn in rng.sample(asns, 20):
        for target in (inside, outside, specific_pfx, covering_pfx):
            assert resolve_lpm(ref, asn, target) == resolve_lpm(eng, asn, target)
        hit = resolve_lpm(eng, asn, inside)
        if eng[specific_pfx].reaches(asn):
            # The more-specific always wins where it is routable.
            assert hit is not None and hit[0] == specific_pfx
        out = resolve_lpm(eng, asn, outside)
        if out is not None:
            assert out[0] == covering_pfx


class TestCompilation:
    def test_compiles_once_per_version(self):
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        engine.propagate(Announcement.single(5))
        engine.propagate(Announcement.single(3))
        assert engine.compile_count == 1

    def test_recompiles_on_mutation(self):
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        before = engine.propagate(Announcement.single(5))
        assert not before.reaches(7)
        g.add_as(ASNode(asn=7))
        g.add_provider(7, 3)
        after = engine.propagate(Announcement.single(5))
        assert engine.compile_count == 2
        assert after.reaches(7)
        assert_identical(g, Announcement.single(5), engine)

    def test_version_counter_tracks_all_mutations(self):
        g = ASGraph()
        v = g.version
        g.add_as(ASNode(asn=1)), g.add_as(ASNode(asn=2)), g.add_as(ASNode(asn=3))
        assert g.version == v + 3
        g.add_provider(1, 2)
        g.add_peering(2, 3)
        g.remove_peering(2, 3)
        g.remove_as(3)
        assert g.version == v + 7

    def test_cached_adjacency_views_invalidate(self):
        g = graph_from_edges(c2p=[(5, 3)])
        assert g.providers(5) == frozenset({3})
        assert g.sorted_providers(5) == (3,)
        g.add_as(ASNode(asn=9))
        g.add_provider(5, 9)
        assert g.providers(5) == frozenset({3, 9})
        assert g.sorted_providers(5) == (3, 9)
        assert g.neighbors(9) == frozenset({5})

    def test_compile_leaves_sorted_view_caches_empty(self):
        g = graph_from_edges(c2p=[(5, 3), (5, 1), (3, 1)], p2p=[(3, 4)])
        ct = CompiledTopology(g)
        assert not (g._sorted_providers or g._sorted_customers or g._sorted_peers)
        # The caches still fill on demand, and agree with the compiled views.
        assert g.sorted_providers(5) == (1, 3)
        assert g._sorted_providers == {5: (1, 3)}
        assert ct.providers[ct.idx[5]] == (ct.idx[1], ct.idx[3])

    def test_compiled_views_hold_sorted_neighbor_indices(self):
        g = graph_from_edges(c2p=[(5, 3), (5, 1), (3, 1)], p2p=[(3, 4)])
        ct = CompiledTopology(g)
        assert ct.asns == [1, 3, 4, 5] and ct.n == 4
        i1, i3, i4, i5 = (ct.idx[a] for a in (1, 3, 4, 5))
        assert ct.providers[i5] == (i1, i3)
        assert ct.customers[i1] == (i3, i5)
        assert ct.peers[i3] == (i4,) and ct.peers[i4] == (i3,)
        assert ct.peer_nodes == (i3, i4)
        assert ct.cust_nodes == (i1, i3)


class TestResultCache:
    def test_hit_and_miss_stats(self):
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        a = Announcement.single(5)
        first = engine.propagate(a)
        second = engine.propagate(a)
        assert first is second
        stats = engine.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_announce_to_order_is_canonicalized(self):
        g = graph_from_edges(c2p=[(5, 3), (5, 4), (3, 1), (4, 1)])
        engine = PropagationEngine(g)
        a = Announcement.single(5, announce_to=(4, 3))
        b = Announcement.single(5, announce_to=(3, 4))
        assert canonical_key(a) == canonical_key(b)
        assert engine.propagate(a) is engine.propagate(b)

    def test_mutation_invalidates_cache(self):
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        before = engine.propagate(Announcement.single(5))
        g.add_as(ASNode(asn=7))
        g.add_provider(7, 3)
        after = engine.propagate(Announcement.single(5))
        assert after is not before
        assert after.reaches(7) and not before.reaches(7)

    def test_stale_entries_pruned_on_recompile(self):
        g = graph_from_edges(c2p=[(5, 3), (3, 1)])
        engine = PropagationEngine(g)
        engine.propagate(Announcement.single(5))
        assert len(engine.cache) == 1
        g.add_peering(5, 1)
        engine.propagate(Announcement.single(3))
        assert all(key[0] == g.version for key in engine.cache._data)

    def test_lru_eviction(self):
        cache = OutcomeCache(maxsize=2)
        cache.put(("v", 1), "a")
        cache.put(("v", 2), "b")
        assert cache.get(("v", 1)) == "a"  # refresh 1
        cache.put(("v", 3), "c")  # evicts 2
        assert cache.get(("v", 2)) is None
        assert cache.get(("v", 1)) == "a"
        assert cache.evictions == 1


class TestSweeps:
    @pytest.fixture(scope="class")
    def world(self):
        inet = build_internet(InternetConfig(n_ases=120, seed=42, total_prefixes=2000))
        rng = random.Random(42)
        anns = [random_announcement(inet.graph, rng) for _ in range(12)]
        return inet.graph, anns

    def test_propagate_many_matches_singles(self, world):
        graph, anns = world
        engine = PropagationEngine(graph)
        outcomes = engine.propagate_many(anns)
        for announcement, outcome in zip(anns, outcomes):
            reference = propagate(graph, announcement)
            assert dict(reference.items()) == dict(outcome.items())

    def test_propagate_many_serves_repeats_from_cache(self, world):
        graph, anns = world
        engine = PropagationEngine(graph)
        engine.propagate_many(anns)
        again = engine.propagate_many(anns)
        assert engine.cache.hits >= len(anns)
        for announcement, outcome in zip(anns, again):
            assert outcome is engine.propagate(announcement)


class TestCompiledOutcomeSurface:
    """The compact table must be indistinguishable behind the public API."""

    @pytest.fixture(scope="class")
    def pair(self):
        graph = graph_from_edges(
            c2p=[(3, 1), (4, 2), (5, 3), (6, 4), (7, 3)],
            p2p=[(1, 2), (3, 4)],
        )
        announcement = Announcement.single(5)
        return propagate(graph, announcement), PropagationEngine(graph).propagate(
            announcement
        )

    def test_route_kinds(self, pair):
        reference, compiled = pair
        for asn in (1, 2, 3, 4, 5, 6, 7):
            ref = reference.route(asn)
            assert compiled.route(asn) == ref
            if ref is not None:
                assert isinstance(compiled.route(asn).kind, RouteKind)

    def test_route_memoized(self, pair):
        _, compiled = pair
        assert compiled.route(6) is compiled.route(6)

    def test_forwarding_chain_blackhole_and_origin(self, pair):
        reference, compiled = pair
        assert compiled.forwarding_chain(6) == reference.forwarding_chain(6) == [6, 4, 3, 5]
        assert compiled.forwarding_chain(5) == [5]
        assert compiled.forwarding_chain(999) == [999]  # unknown AS: chain stops

    def test_len_and_items(self, pair):
        reference, compiled = pair
        assert len(compiled) == len(reference)
        assert dict(compiled.items()) == dict(reference.items())

    @pytest.mark.parametrize(
        "origins",
        [
            (OriginSpec(5),),
            (OriginSpec(5, announce_to=(3,)), OriginSpec(5, prepend=1)),
            (OriginSpec(5), OriginSpec(6, prepend=1)),
        ],
        ids=["one spec", "two specs one origin", "two origins"],
    )
    def test_root_is_minus_one_at_origins_and_unreached(self, origins):
        """One convention whatever the announcement's shape: the root
        array names a spec only where a route was learned from it."""
        graph = graph_from_edges(
            c2p=[(3, 1), (4, 2), (5, 3), (6, 4), (7, 3)],
            p2p=[(1, 2), (3, 4)],
        )
        graph.add_as(ASNode(asn=99))  # unreachable
        outcome = PropagationEngine(graph).propagate(
            Announcement(origins=origins)
        )
        index_of, kind, root, _plen = outcome.spec_table()
        origin_asns = {spec.asn for spec in origins}
        for asn, i in index_of.items():
            if asn in origin_asns or asn == 99:
                assert root[i] == -1
                assert outcome.origin_spec_index(asn) is None
            else:
                assert kind[i] and 0 <= root[i] < len(origins)
                assert outcome.origin_spec_index(asn) == root[i]
                assert outcome.route(asn).path[-1] == origins[root[i]].asn

    def test_duplicate_specs_break_on_spec_index(self):
        """Two specs with one export path tie on everything but their
        index: the first roots what climbs and descends (heap order), the
        last what crosses the origin's peer edges (reference overwrite)."""
        graph = graph_from_edges(
            c2p=[(3, 1), (4, 2), (5, 3), (6, 4), (7, 3)],
            p2p=[(1, 2), (3, 4)],
        )
        outcome = PropagationEngine(graph).propagate(
            Announcement(origins=(OriginSpec(3), OriginSpec(3)))
        )
        assert {
            asn: outcome.origin_spec_index(asn) for asn in (1, 2, 4, 5, 6, 7)
        } == {1: 0, 2: 0, 5: 0, 7: 0, 4: 1, 6: 1}
