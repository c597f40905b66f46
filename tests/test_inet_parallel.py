"""Parallel delta-chained sweeps: worker-pool fan-out must be
route-for-route identical to the serial delta chain and the reference,
including under active RPKI/Peerlock policies; chains must partition by
delta affinity; pool degradations (fork→spawn, pool→serial) must be
counted, not silent.
"""

import multiprocessing
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.inet.engine import PropagationEngine, _partition_chains
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec, propagate
from repro.net.addr import Prefix
from repro.secroute import Roa, RoaRegistry, RovMode, SecurityPolicy
from repro.telemetry.lookingglass import LookingGlass

V20 = Prefix("198.18.0.0/20")


def prepend_sweep(origin, points, prefix=None):
    return [
        Announcement.single(origin, prepend=p, prefix=prefix)
        for p in range(points)
    ]


class TestPartitionChains:
    def test_single_worker_groups_by_key(self):
        keys = ["a", "b", "a", "b", "a"]
        [chain] = _partition_chains(keys, 1)
        assert chain == [0, 2, 4, 1, 3]  # groups contiguous, order kept

    def test_balances_group_sizes_greedily(self):
        keys = ["a"] * 3 + ["b"] * 2 + ["c"]
        chains = _partition_chains(keys, 2)
        loads = sorted(len(c) for c in chains)
        assert loads == [3, 3]
        # No group is ever split across workers.
        for chain in chains:
            for key in set(keys):
                members = [i for i in chain if keys[i] == key]
                assert members == [i for i in range(len(keys)) if keys[i] == key] or not members

    def test_never_returns_empty_chains(self):
        chains = _partition_chains(["a", "a", "a"], 4)
        assert chains == [[0, 1, 2]]

    def test_deterministic(self):
        keys = [("k", i % 3) for i in range(20)]
        assert _partition_chains(keys, 3) == _partition_chains(keys, 3)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_parallel_secured_matches_serial_and_reference(seed):
    """Seeded equivalence under active ROV + Peerlock: the parallel
    worker chains, the serial delta chain, and the reference propagation
    must agree route-for-route on every sweep point."""
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
    parallel = engine.propagate_many(
        sweep, parallel=2, use_cache=False, security=policy
    )
    serial = engine.propagate_many(
        sweep, parallel=False, use_cache=False, security=policy
    )
    for announcement, par, ser in zip(sweep, parallel, serial):
        reference = propagate(
            graph, announcement, security=policy.compile_for(announcement)
        )
        assert dict(par.items()) == dict(ser.items()) == dict(reference.items())


class TestParallelStats:
    def test_workers_chain_deltas_and_report(self):
        graph = build_internet(InternetConfig(n_ases=80, seed=11)).graph
        asns = sorted(graph.asns())
        sweep = prepend_sweep(asns[-1], 6) + prepend_sweep(asns[-2], 6)
        engine = PropagationEngine(graph)
        outcomes = engine.propagate_many(sweep, parallel=2, use_cache=False)
        for announcement, outcome in zip(sweep, outcomes):
            assert dict(propagate(graph, announcement).items()) == dict(
                outcome.items()
            )
        par = engine.stats()["parallel"]
        assert par["chains"] == 2
        # Two affinity groups of 6: one full converge each, rest shifts.
        assert par["delta"]["full"] == 2
        assert par["delta"]["shift"] == 10
        assert par["pool_fallbacks"] == {"spawn": 0, "serial": 0}
        # Parallel regime counts fold into the engine-wide delta stats.
        assert engine.stats()["delta"]["shift"] >= 10

    def test_looking_glass_surfaces_parallel_savings(self):
        graph = build_internet(InternetConfig(n_ases=60, seed=5)).graph
        engine = PropagationEngine(graph)
        origin = sorted(graph.asns())[-1]
        engine.propagate_many(prepend_sweep(origin, 8), parallel=2, use_cache=False)
        glass = LookingGlass(types.SimpleNamespace(propagation=engine))
        savings = glass.propagation_savings()
        par = savings["parallel"]
        assert par["chains"] >= 1
        assert par["incremental_fraction"] > 0.5
        assert set(par["pool_fallbacks"]) == {"spawn", "serial"}
        assert savings["incremental_fraction"] > 0.5


class TestPoolDegradation:
    @pytest.fixture
    def world(self):
        graph = build_internet(InternetConfig(n_ases=50, seed=9)).graph
        return graph, prepend_sweep(sorted(graph.asns())[-1], 5)

    def test_broken_pool_degrades_to_serial_with_metric(self, world, monkeypatch):
        graph, sweep = world

        class _BrokenCtx:
            def Pool(self, *args, **kwargs):
                raise OSError("semaphores unavailable")

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: _BrokenCtx()
        )
        engine = PropagationEngine(graph)
        outcomes = engine.propagate_many(sweep, parallel=2, use_cache=False)
        for announcement, outcome in zip(sweep, outcomes):
            assert dict(propagate(graph, announcement).items()) == dict(
                outcome.items()
            )
        stats = engine.stats()["parallel"]
        assert stats["pool_fallbacks"]["serial"] == 1
        assert stats["chains"] == 0  # no worker chains actually ran
        # The serial fallback still chained deltas (shifts, not fulls).
        assert engine.stats()["delta"]["shift"] == len(sweep) - 1

    def test_missing_fork_falls_back_to_spawn_with_metric(self, world, monkeypatch):
        graph, sweep = world
        real = multiprocessing.get_context

        def no_fork(method):
            if method == "fork":
                raise ValueError("fork unavailable")
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        engine = PropagationEngine(graph)
        outcomes = engine.propagate_many(sweep, parallel=2, use_cache=False)
        for announcement, outcome in zip(sweep, outcomes):
            assert dict(propagate(graph, announcement).items()) == dict(
                outcome.items()
            )
        stats = engine.stats()["parallel"]
        assert stats["pool_fallbacks"]["spawn"] == 1
        assert stats["chains"] >= 1  # the spawn pool did run chains
