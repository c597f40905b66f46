"""The Internet-scale CAIDA-calibrated generator.

Checks structure (clique core, power-law tails, Zipf IXP sizes, valid
relationships), determinism under a fixed seed, and that the output
composes with the propagation engine.  Two worlds with an AMS-IX are
pinned bit for bit by fingerprint, so a faster builder cannot change
what it builds.  Scaled down to a few thousand ASes so the suite stays
fast; the 50k shape is exercised (and timed) by
``benchmarks/bench_propagation.py --scale``.
"""

import hashlib

import pytest

from repro.inet.engine import CompiledTopology, PropagationEngine
from repro.inet.gen import (
    AmsIxConfig,
    CaidaConfig,
    InternetConfig,
    _cone_sizes,
    build_amsix,
    build_caida_like,
    build_internet,
    degree_stats,
)
from repro.inet.routing import Announcement
from repro.inet.topology import ASGraph, ASKind, ASNode


@pytest.fixture(scope="module")
def world():
    return build_caida_like(3000)


class TestCaidaStructure:
    def test_size_and_validity(self, world):
        # build_caida_like runs graph.validate() itself; re-check here so
        # a regression in validate() can't mask one in the generator.
        assert len(world.graph) == 3000
        world.graph.validate()

    def test_tier1_full_mesh_without_providers(self, world):
        cfg = world.caida_config
        tier1 = [
            n.asn for n in world.graph.nodes() if n.kind is ASKind.TIER1
        ]
        assert len(tier1) == cfg.n_tier1
        for a in tier1:
            assert not world.graph.providers(a)
            assert set(tier1) - {a} <= world.graph.peers(a)

    def test_everyone_else_has_a_provider(self, world):
        for node in world.graph.nodes():
            if node.kind is not ASKind.TIER1:
                assert world.graph.providers(node.asn), node.asn

    def test_heavy_tailed_cones_and_degrees(self, world):
        stats = degree_stats(world.graph)
        assert 3.0 <= stats["mean_degree"] <= 9.0
        # Power-law tail: the top 1% of ASes hold a large share of all
        # adjacencies, and some tier-1 cone covers most of the Internet.
        assert stats["top1pct_degree_share"] >= 0.10
        assert stats["max_cone_fraction"] >= 0.30
        assert stats["max_degree"] >= 30

    def test_ixp_sizes_follow_zipf(self, world):
        sizes = sorted(
            (ixp.member_count() for ixp in world.ixps.values()), reverse=True
        )
        assert len(sizes) == world.caida_config.n_ixps
        # A few huge fabrics, a long tail of small ones.
        assert sizes[0] >= 8 * sizes[len(sizes) // 2]
        assert sizes[-1] >= 2

    def test_ixp_membership_recorded_on_nodes(self, world):
        name, ixp = next(iter(world.ixps.items()))
        member = next(iter(ixp.members()))
        assert name in world.graph.get(member).ixps

    def test_tier1s_do_not_join_ixps(self, world):
        tier1 = {
            n.asn for n in world.graph.nodes() if n.kind is ASKind.TIER1
        }
        for ixp in world.ixps.values():
            assert not (ixp.members() & tier1)

    def test_prefix_counts_normalized(self, world):
        total = world.total_prefixes()
        target = world.caida_config.total_prefixes
        assert 0.5 * target <= total <= 2.0 * target

    def test_build_is_one_graph_version(self, world):
        # The whole bulk build happens under ASGraph.batch().
        assert world.graph.version == 1


class TestCaidaDeterminismAndConfig:
    def test_same_seed_same_world(self):
        a = build_caida_like(800)
        b = build_caida_like(800)
        assert a.graph.edge_count() == b.graph.edge_count()
        assert a.graph.rank_by_cone()[:10] == b.graph.rank_by_cone()[:10]
        assert sorted(a.graph.asns()) == sorted(b.graph.asns())

    def test_different_seed_different_world(self):
        a = build_caida_like(800)
        b = build_caida_like(800, CaidaConfig(n_ases=800, seed=7))
        assert a.graph.edge_count() != b.graph.edge_count()

    def test_explicit_config_takes_precedence(self):
        world = build_caida_like(10, CaidaConfig(n_ases=600))
        assert len(world.graph) == 600
        assert world.caida_config.n_ases == 600

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CaidaConfig(n_ases=20)
        with pytest.raises(ValueError):
            CaidaConfig(mean_providers=3.0)

    def test_composes_with_the_engine(self):
        world = build_caida_like(400)
        graph = world.graph
        engine = PropagationEngine(graph)
        origin = max(graph.asns())
        outcome = engine.propagate(Announcement.single(origin))
        # A stub's announcement must reach essentially the whole graph.
        assert len(outcome) >= 0.95 * len(graph)


def _world_fingerprint(internet):
    """sha256 over everything a world build decides: the edges, every
    node's attributes, IXP and route-server membership, the raw insertion
    order of each AS's adjacency sets, and the compiled views."""
    graph = internet.graph
    digest = hashlib.sha256()

    def feed(*items):
        digest.update(repr(items).encode())

    for a, b, rel in graph.relationship_edges():
        feed(a, b, rel.value)
    providers, customers, peers = graph.adjacency()
    for node in graph.nodes():
        feed(
            node.asn, node.name, node.country, node.kind.value,
            node.peering_policy.value, node.prefix_count, sorted(node.ixps),
            node.uses_route_server,
        )
        feed(
            list(providers[node.asn]), list(customers[node.asn]),
            list(peers[node.asn]),
        )
    for name, ixp in internet.ixps.items():
        feed(name, sorted(ixp.members()), sorted(ixp.route_server_members()))
    ct = CompiledTopology(graph)
    feed(ct.asns, ct.providers, ct.customers, ct.peers, ct.peer_nodes, ct.cust_nodes)
    return digest.hexdigest()


def _transit_depth(graph):
    """Longest chain of transit ASes linked by provider->customer edges."""
    depth = {}
    transit = [n.asn for n in graph.nodes() if n.kind is ASKind.TRANSIT]
    # ASNs grow with build order and providers are always built first, so
    # descending ASN visits every customer before its providers.
    for asn in sorted(transit, reverse=True):
        depth[asn] = 1 + max((depth.get(c, 0) for c in graph.customers(asn)), default=0)
    return max(depth.values())


@pytest.fixture(scope="module")
def amsix_world():
    """A CAIDA-like world with a scaled AMS-IX, plus the graph version and
    edge count just before build_amsix."""
    internet = build_caida_like(5_000)
    before = (internet.graph.version, internet.graph.edge_count())
    build_amsix(internet, AmsIxConfig.scaled(300))
    return internet, before


class TestSameWorld:
    """The builders' output is pinned bit for bit: faster construction
    must still produce these exact worlds.  The constants are the
    fingerprints of the straightforward per-element builders."""

    def test_smoke_world(self):
        internet = build_internet(
            InternetConfig(n_ases=400, total_prefixes=20_000, seed=11)
        )
        build_amsix(internet, AmsIxConfig.scaled(80))
        assert _world_fingerprint(internet) == (
            "194f9d5dbafdb8996256859384068ed90a09c55964073429266effc5bc658caf"
        )

    def test_caida_world_with_amsix(self, amsix_world):
        internet, _ = amsix_world
        # Deep enough that the cone pass nests transit cones three levels.
        assert _transit_depth(internet.graph) >= 3
        assert _world_fingerprint(internet) == (
            "b53bfae0c14196f66794d55b4f028dc20cd61fc254520d786c002ea0f00c58bc"
        )

    def test_route_server_mesh_is_one_mutation(self, amsix_world):
        internet, (version, edges) = amsix_world
        assert internet.graph.edge_count() - edges == 30_599
        assert internet.graph.version == version + 1


class TestConeSizes:
    def test_equal_to_a_walk_per_as(self, world):
        graph = world.graph
        sizes = _cone_sizes(graph, graph.asns())
        with_customers = [a for a in graph.asns() if graph.customers(a)]
        assert sorted(sizes) == sorted(with_customers)
        for asn in with_customers:
            assert sizes[asn] == len(graph.customer_cone(asn))

    def test_only_below_the_roots(self):
        g = ASGraph()
        for asn in (1, 2, 3, 4, 5):
            g.add_as(ASNode(asn=asn))
        g.add_provider(2, 1)
        g.add_provider(3, 2)
        g.add_provider(4, 3)
        g.add_provider(5, 2)
        assert _cone_sizes(g, [3]) == {3: 2}
        assert _cone_sizes(g, [2, 4]) == {3: 2, 2: 4}

    def test_provider_cycle_stays_exact(self):
        g = ASGraph()
        for asn in (1, 2, 3, 4, 5):
            g.add_as(ASNode(asn=asn))
        # 1 -> 2 -> 3 -> 1 is a provider cycle; 4 hangs below 3, 5 above 1.
        g.add_provider(2, 1)
        g.add_provider(3, 2)
        g.add_provider(1, 3)
        g.add_provider(4, 3)
        g.add_provider(1, 5)
        sizes = _cone_sizes(g, g.asns())
        assert sizes == {a: len(g.customer_cone(a)) for a in (1, 2, 3, 5)}
        assert sizes[1] == 4 and sizes[5] == 5
