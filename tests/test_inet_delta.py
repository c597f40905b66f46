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
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.inet.engine import OutcomeCache, PropagationEngine, _affinity_order
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec, RouteKind, propagate
from repro.inet.topology import ASGraph, ASNode
from repro.net.addr import Prefix
from repro.secroute import Roa, RoaRegistry, RovMode, SecurityPolicy

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


def effective_table(outcome):
    """A compiled outcome's ``(kind, via, root, plen)`` arrays, its pending
    prepend shift added to every reached, non-origin slot."""
    shift, origin = outcome._plen_shift, int(RouteKind.ORIGIN)
    plen = [p + shift if k not in (0, origin) else p for k, p in zip(outcome._kind, outcome._plen)]
    return outcome._kind, outcome._via, outcome._root, plen


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


def steering_chain(graph, rng, steps=8):
    """A testbed-like steering chain: one origin, one to three specs with
    their own targets, mostly moving every prepend together while the
    poison swaps to customer-less ASes, sometimes to transit ASes,
    neighbours of the origin or ASNs the graph does not hold, and
    sometimes moving one spec alone."""
    asns = sorted(graph.asns())
    origin = rng.choice(asns)
    neighbours = sorted(graph.neighbors(origin))
    pools = {
        "customerless": [
            a for a in sorted(graph.stub_asns()) if a != origin and a not in neighbours
        ],
        "transit": [a for a in asns if graph.customers(a) and a != origin],
        "neighbour": neighbours,
        "absent": [asns[-1] + 1, asns[-1] + 2],
    }
    targets = [None] + [
        tuple(rng.sample(neighbours, rng.randint(1, len(neighbours))))
        for _ in range(2) if neighbours
    ]
    specs = [
        OriginSpec(origin, announce_to=rng.choice(targets))
        for _ in range(rng.randint(1, 3))
    ]
    for _ in range(steps):
        pool = pools[rng.choices(list(pools), weights=(6, 1, 1, 1))[0]]
        poison = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 2))))
        if rng.random() < 0.8:
            d = rng.randint(-min(s.prepend for s in specs), 3)
            specs = [replace(s, prepend=s.prepend + d, poison=poison) for s in specs]
        else:
            i = rng.randrange(len(specs))
            specs[i] = replace(specs[i], prepend=rng.randint(0, 3), poison=poison)
        yield Announcement(origins=tuple(specs), prefix=V20)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_poison_swap_chain_matches_full_runs(seed):
    """Every table of a steering chain, its pending shift applied, equals
    a full convergence's array for array, and its routes the reference's."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=80, seed=seed)).graph
    engine = PropagationEngine(graph)
    prev = None
    for announcement in steering_chain(graph, rng):
        prev = engine.propagate_delta(prev, announcement, use_cache=False)
        full = engine.propagate(announcement, use_cache=False)
        assert effective_table(prev) == effective_table(full)
        assert_same_routes(propagate(graph, announcement), prev)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_secured_chain_never_swaps_poison(seed):
    """Under an active policy a chain still equals the reference route for
    route, and a step that changes any export set never counts as shift:
    acceptance reads the export path's tail mask, so the swap is off."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=80, seed=seed)).graph
    policy = SecurityPolicy().lock_clique(sorted(graph.tier1_clique()))
    for locker in rng.sample(sorted(graph.asns()), 4):
        policy.lock(locker, rng.sample(sorted(graph.asns()), 3))
    engine = PropagationEngine(graph)
    prev = None
    for announcement in steering_chain(graph, rng):
        shifts = engine.stats()["delta"]["shift"]
        old_sets = None if prev is None else [s[2] for s in prev._specs]
        prev = engine.propagate_delta(prev, announcement, use_cache=False, security=policy)
        reference = propagate(graph, announcement, security=policy.compile_for(announcement))
        assert_same_routes(reference, prev)
        if old_sets is not None and old_sets != [s[2] for s in prev._specs]:
            assert engine.stats()["delta"]["shift"] == shifts


def per_spec_chain(graph, rng, steps=10):
    """An anycast-like chain: one or two origins, two or three specs with
    their own ``announce_to`` subsets, each spec poisoning as many ASes as
    the others.  Most steps redraw each spec's poison on its own, some
    share one poison among every spec, some move every prepend together,
    and some move one spec's prepend or poison count alone.  Poisons are
    mostly customer-less ASes, sometimes transit ASes, neighbours of an
    origin or ASNs the graph does not hold."""
    asns = sorted(graph.asns())
    origins = rng.sample(asns, rng.randint(1, 2))
    neighbours = sorted({n for o in origins for n in graph.neighbors(o)})
    pools = {
        "customerless": [
            a for a in sorted(graph.stub_asns())
            if a not in origins and a not in neighbours
        ],
        "transit": [a for a in asns if graph.customers(a) and a not in origins],
        "neighbour": neighbours,
        "absent": [asns[-1] + 1, asns[-1] + 2],
    }

    def draw(count):
        pool = pools[rng.choices(list(pools), weights=(8, 1, 1, 1))[0]]
        return tuple(rng.sample(pool, min(len(pool), count)))

    def targets(origin):
        near = sorted(graph.neighbors(origin))
        if not near or rng.random() < 0.3:
            return None
        return tuple(rng.sample(near, rng.randint(1, len(near))))

    count = rng.randint(1, 2)
    specs = [
        OriginSpec(origin, prepend=rng.randint(0, 2), announce_to=targets(origin),
                   poison=draw(count))
        for origin in (rng.choice(origins) for _ in range(rng.randint(2, 3)))
    ]
    for _ in range(steps):
        step = rng.choices(("per-spec", "shared", "prepend", "one"), (6, 2, 1, 1))[0]
        if step == "shared":
            poison = draw(count)
            specs = [replace(s, poison=poison) for s in specs]
        elif step == "one":
            i = rng.randrange(len(specs))
            specs[i] = replace(specs[i], prepend=rng.randint(0, 3),
                               poison=draw(rng.randint(0, 2)))
        else:
            d = 0 if step == "per-spec" else rng.randint(-min(s.prepend for s in specs), 2)
            specs = [
                replace(s, prepend=s.prepend + d,
                        poison=s.poison if rng.random() < 0.3 else draw(len(s.poison)))
                for s in specs
            ]
        yield Announcement(origins=tuple(specs), prefix=V20)


def export_sets(announcement):
    return [set(spec.export_path()) for spec in announcement.origins]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_per_spec_poison_chain_matches_full_runs(seed):
    """Every table of a per-spec poison chain, its pending shift applied,
    equals a full convergence's array for array, and its routes the
    reference's.  A step that changes whether some spec poisons a transit
    AS, or a neighbour a spec announces to, never counts as shift."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=80, seed=seed)).graph
    engine = PropagationEngine(graph)
    prev, before = None, None
    for announcement in per_spec_chain(graph, rng):
        shifts = engine.stats()["delta"]["shift"]
        prev = engine.propagate_delta(prev, announcement, use_cache=False)
        full = engine.propagate(announcement, use_cache=False)
        assert effective_table(prev) == effective_table(full)
        assert_same_routes(propagate(graph, announcement), prev)
        if before is not None:
            changed = set().union(*(
                old ^ new for old, new in zip(before, export_sets(announcement))
            ))
            announced_to = {
                n for spec in announcement.origins for n in graph.neighbors(spec.asn)
                if spec.announce_to is None or n in spec.announce_to
            }
            if any(
                a in graph and (graph.customers(a) or a in announced_to)
                for a in changed
            ):
                assert engine.stats()["delta"]["shift"] == shifts
        before = export_sets(announcement)


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

    def test_pending_shifts_compose_to_a_full_runs_table(self, hierarchy):
        """Shifts compose while pending, without mutating the plen array
        the chain shares, so every table with its pending shift applied
        equals a fresh full run's."""
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
            assert effective_table(outcome) == effective_table(eager)
        assert again._plen is shifted._plen is base._plen  # never copied

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
            assert effective_table(prev) == effective_table(full)
            for asn in hierarchy.asns():
                root = prev._root[prev._compiled.idx[asn]]
                if asn in announcement.origin_asns() or not prev.reaches(asn):
                    assert root == -1
                else:
                    assert root >= 0
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

    def test_customerless_poison_swap_is_a_patched_shift(self, hierarchy):
        """Poisoning, swapping and unpoisoning customer-less ASes (6, 8)
        and an ASN the graph lacks (99) shift: only the named slots are
        patched, in copies (none when the swap names no slot of the
        graph), and each table equals a full run's."""
        engine = PropagationEngine(hierarchy)
        prev = engine.propagate(Announcement.single(7), use_cache=False)
        for poison in ((6,), (8,), (8, 99), ()):
            announcement = Announcement.single(7, prepend=len(poison), poison=poison)
            base, prev = prev, engine.propagate_delta(prev, announcement, use_cache=False)
            assert (prev._kind is base._kind) == (poison == (8, 99))
            full = engine.propagate(announcement, use_cache=False)
            assert effective_table(prev) == effective_table(full)
            assert_same_routes(propagate(hierarchy, announcement), prev)
        assert engine.stats()["delta"] == {
            "noop": 0, "shift": 4, "cone": 0, "fallback": 0, "full": 0
        }

    def test_partial_poison_falls_back(self, hierarchy):
        """A customer-less AS poisoned by one spec of two falls back:
        poisoning lengthens that spec's export path by two while the
        other's keeps its length, so the kernel's levels do not all move
        by one ``d``."""
        engine = PropagationEngine(hierarchy)
        base_ann = Announcement(
            origins=(OriginSpec(5, announce_to=(3,)), OriginSpec(5, announce_to=(7, 8)))
        )
        new_ann = Announcement(
            origins=(OriginSpec(5, announce_to=(3,), poison=(6,)),
                     OriginSpec(5, announce_to=(7, 8)))
        )
        base = engine.propagate(base_ann, use_cache=False)
        out = engine.propagate_delta(base, new_ann, use_cache=False)
        assert engine.stats()["delta"]["fallback"] == 1
        assert_same_routes(propagate(hierarchy, new_ann), out)

    def test_multi_spec_uniform_prepend_shares_table_arrays(self, hierarchy):
        """Every spec of one origin prepending one more: a shift that
        copies nothing; a uniform poison swap on top patches copies."""
        engine = PropagationEngine(hierarchy)

        def both(prepend, poison=()):
            return Announcement(origins=(
                OriginSpec(5, prepend=prepend, poison=poison, announce_to=(3,)),
                OriginSpec(5, prepend=prepend, poison=poison, announce_to=(7, 8)),
            ))

        base = engine.propagate(both(0), use_cache=False)
        shifted = engine.propagate_delta(base, both(1), use_cache=False)
        assert all(
            a is b for a, b in zip(
                (shifted._kind, shifted._via, shifted._root, shifted._plen),
                (base._kind, base._via, base._root, base._plen),
            )
        )
        assert shifted._plen_shift == 1
        swapped = engine.propagate_delta(shifted, both(1, (6,)), use_cache=False)
        assert swapped._kind is not base._kind and swapped._plen_shift == 3
        for announcement, outcome in ((both(1), shifted), (both(1, (6,)), swapped)):
            full = engine.propagate(announcement, use_cache=False)
            assert effective_table(outcome) == effective_table(full)
            assert_same_routes(propagate(hierarchy, announcement), outcome)
        assert engine.stats()["delta"]["shift"] == 2

    @pytest.fixture
    def two_uplinks(self):
        """Origin 10 announces one spec to each provider, 20 and 30 (peers
        of each other).  Customer-less: 40 and 50 below 20 only, 90 below
        30 only, and 70, a peer of 20 and a customer of 30.  90 is the
        largest ASN, so a spec poisoning it sorts last and the specs keep
        their order across every swap below."""
        return graph_from_edges(
            c2p=[(10, 20), (10, 30), (40, 20), (50, 20), (90, 30), (70, 30)],
            p2p=[(20, 30), (20, 70)],
        )

    @staticmethod
    def uplink_specs(poison_20, poison_30):
        return Announcement(origins=(
            OriginSpec(10, announce_to=(20,), poison=poison_20),
            OriginSpec(10, announce_to=(30,), poison=poison_30),
        ))

    def patched_chain(self, graph, steps):
        """Chain ``steps`` of (poison via 20, poison via 30) from a full
        run of the first; every later step must be a patched shift whose
        table equals a full run's.  Returns the outcomes."""
        engine = PropagationEngine(graph)
        prev = engine.propagate(self.uplink_specs(*steps[0]), use_cache=False)
        outcomes = [prev]
        for shifts, poisons in enumerate(steps[1:], start=1):
            announcement = self.uplink_specs(*poisons)
            base, prev = prev, engine.propagate_delta(prev, announcement, use_cache=False)
            assert engine.stats()["delta"]["shift"] == shifts
            assert prev._kind is not base._kind and prev._via is not base._via
            full = engine.propagate(announcement, use_cache=False)
            assert effective_table(prev) == effective_table(full)
            assert_same_routes(propagate(graph, announcement), prev)
            outcomes.append(prev)
        return outcomes

    def test_equal_length_swap_in_one_spec_of_two_is_a_patched_shift(self, two_uplinks):
        """The spec via 20 swaps its poison from 40 to 50 while the spec
        via 30 keeps 90: 40 regains its route through 20, and 50 loses
        its one, as its only offer is rooted at the spec naming it."""
        _, swapped = self.patched_chain(two_uplinks, [((40,), (90,)), ((50,), (90,))])
        assert swapped.route(40).path == (20, 10, 50, 10)
        assert not swapped.reaches(50) and not swapped.reaches(90)

    def test_slot_barred_from_its_peer_takes_its_provider_route(self, two_uplinks):
        """70 prefers its peer 20's customer route; poisoned by the spec
        via 20 alone, it takes its provider 30's route, rooted at the
        other spec."""
        unpoisoned, barred = self.patched_chain(
            two_uplinks, [((40,), (90,)), ((70,), (90,))]
        )
        assert unpoisoned.route(70).kind is RouteKind.PEER
        assert barred.route(70).kind is RouteKind.PROVIDER
        assert barred.route(70).path == (30, 10, 90, 10)

    def test_slot_named_by_every_spec_is_cleared(self, two_uplinks):
        """70, named by the spec via 20 and then by both, ends unreached;
        90, named by neither any more, is reached through 30."""
        *_, cleared = self.patched_chain(
            two_uplinks, [((70,), (90,)), ((70,), (70,))]
        )
        assert not cleared.reaches(70)
        assert cleared.route(90).path == (30, 10, 70, 10)

    def test_unpoisoned_slot_prefers_a_peer_over_a_shorter_provider_route(self):
        """AS 40 has a one-hop-shorter offer from its provider 20 than from
        its peer 30, and takes the peer route, as phase 2 settles it first.
        Poisoning it again leaves it unreached."""
        graph = graph_from_edges(c2p=[(10, 20), (20, 30), (40, 20)], p2p=[(40, 30)])
        engine = PropagationEngine(graph)
        prev = engine.propagate(Announcement.single(10, poison=(40,)), use_cache=False)
        for poison in ((), (40,)):
            announcement = Announcement.single(10, poison=poison)
            prev = engine.propagate_delta(prev, announcement, use_cache=False)
            assert_same_routes(propagate(graph, announcement), prev)
        assert engine.stats()["delta"]["shift"] == 2
        unpoisoned = engine.propagate_delta(prev, Announcement.single(10), use_cache=False)
        assert unpoisoned.route(40).kind is RouteKind.PEER
        assert unpoisoned.route(40).path == (30, 20, 10)

    def test_poisoned_neighbour_announced_to_falls_back(self):
        """AS 3 is customer-less but a peer the origin announces to: its
        route comes straight from the origin, so it is no swap."""
        graph = graph_from_edges(c2p=[(2, 1), (3, 1)], p2p=[(2, 3)])
        engine = PropagationEngine(graph)
        prev = engine.propagate(Announcement.single(2, poison=(3,)), use_cache=False)
        out = engine.propagate_delta(prev, Announcement.single(2), use_cache=False)
        assert engine.stats()["delta"]["fallback"] == 1
        assert out.route(3).path == (2,)
        assert_same_routes(propagate(graph, Announcement.single(2)), out)

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
