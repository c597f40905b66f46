"""IXP / route-server / peering-ecosystem tests."""

import pytest

from repro.inet.gen import AmsIxConfig, InternetConfig, build_amsix, build_internet
from repro.inet.ixp import IXP, RemotePeeringProvider
from repro.inet.topology import ASGraph, ASKind, ASNode, PeeringPolicy, TopologyError


def small_graph(n=10):
    g = ASGraph()
    for asn in range(1, n + 1):
        g.add_as(ASNode(asn=asn, peering_policy=PeeringPolicy.OPEN))
    return g


class TestRouteServer:
    def test_join_creates_full_mesh(self):
        g = small_graph(4)
        ixp = IXP("TEST-IX", g)
        for asn in (1, 2, 3):
            ixp.join_route_server(asn)
        assert g.peers(1) == {2, 3}
        assert g.peers(2) == {1, 3}
        assert len(ixp.route_server_members()) == 3

    def test_join_returns_gained_peers(self):
        g = small_graph(4)
        ixp = IXP("TEST-IX", g)
        ixp.join_route_server(1)
        ixp.join_route_server(2)
        gained = ixp.join_route_server(3)
        assert gained == {1, 2}

    def test_join_skips_existing_relationships(self):
        g = small_graph(3)
        g.add_provider(1, 2)  # already customer/provider
        ixp = IXP("TEST-IX", g)
        ixp.join_route_server(1)
        gained = ixp.join_route_server(2)
        assert gained == set()  # no new edge; relationship kept

    def test_no_route_server(self):
        g = small_graph(3)
        ixp = IXP("BARE-IX", g, has_route_server=False)
        with pytest.raises(TopologyError):
            ixp.join_route_server(1)

    def test_membership_tracked_on_node(self):
        g = small_graph(3)
        ixp = IXP("TEST-IX", g)
        ixp.add_member(1)
        assert "TEST-IX" in g.get(1).ixps


class TestBilateral:
    def test_open_policy_usually_accepts(self):
        g = small_graph(30)
        ixp = IXP("TEST-IX", g, seed=3)
        for asn in range(1, 31):
            ixp.add_member(asn)
        results = [ixp.request_bilateral(1, target) for target in range(2, 31)]
        accepted = sum(r.accepted for r in results)
        assert accepted >= 20  # "the vast majority accepted"
        for r in results:
            if r.accepted:
                assert g.relationship(1, r.target) is not None

    def test_closed_policy_never_accepts(self):
        g = small_graph(10)
        for node in g.nodes():
            node.peering_policy = PeeringPolicy.CLOSED
        ixp = IXP("TEST-IX", g, seed=1)
        for asn in range(1, 11):
            ixp.add_member(asn)
        results = [ixp.request_bilateral(1, t) for t in range(2, 11)]
        assert not any(r.accepted for r in results)

    def test_request_requires_membership(self):
        g = small_graph(3)
        ixp = IXP("TEST-IX", g)
        ixp.add_member(1)
        with pytest.raises(TopologyError):
            ixp.request_bilateral(1, 2)

    def test_request_self_rejected(self):
        g = small_graph(3)
        ixp = IXP("TEST-IX", g)
        ixp.add_member(1)
        with pytest.raises(TopologyError):
            ixp.request_bilateral(1, 1)

    def test_existing_relationship_counts_as_accepted(self):
        g = small_graph(3)
        g.add_peering(1, 2)
        ixp = IXP("TEST-IX", g)
        ixp.add_member(1), ixp.add_member(2)
        assert ixp.request_bilateral(1, 2).accepted

    def test_deterministic_with_seed(self):
        outcomes = []
        for _ in range(2):
            g = small_graph(20)
            ixp = IXP("TEST-IX", g, seed=42)
            for asn in range(1, 21):
                ixp.add_member(asn)
            outcomes.append([ixp.request_bilateral(1, t).outcome for t in range(2, 21)])
        assert outcomes[0] == outcomes[1]

    def test_request_log(self):
        g = small_graph(3)
        ixp = IXP("TEST-IX", g)
        for asn in (1, 2):
            ixp.add_member(asn)
        ixp.request_bilateral(1, 2)
        assert len(ixp.request_log) == 1


class TestRemotePeering:
    def test_extend_joins_all_ixps(self):
        g = small_graph(8)
        ix1, ix2 = IXP("IX-1", g), IXP("IX-2", g)
        for asn in (1, 2):
            ix1.join_route_server(asn)
        for asn in (3, 4):
            ix2.join_route_server(asn)
        provider = RemotePeeringProvider("hibernia", [ix1, ix2])
        gained = provider.extend(5)
        assert gained["IX-1"] == {1, 2}
        assert gained["IX-2"] == {3, 4}
        assert g.peers(5) == {1, 2, 3, 4}


class TestAmsIxModel:
    @pytest.fixture(scope="class")
    def world(self):
        inet = build_internet(InternetConfig(n_ases=1200, total_prefixes=100_000, seed=5))
        ixp = build_amsix(
            inet,
            AmsIxConfig(
                total_members=200,
                route_server_members=160,
                open_policy=18,
                closed_policy=4,
                case_by_case=13,
                unlisted=5,
            ),
        )
        return inet, ixp

    def test_membership_counts(self, world):
        _inet, ixp = world
        assert ixp.member_count() == 200
        assert len(ixp.route_server_members()) == 160

    def test_policy_split_exact(self, world):
        _inet, ixp = world
        census = ixp.policy_census()
        assert census[PeeringPolicy.OPEN] == 18
        assert census[PeeringPolicy.CLOSED] == 4
        assert census[PeeringPolicy.CASE_BY_CASE] == 13
        assert census[PeeringPolicy.UNLISTED] == 5

    def test_default_config_matches_paper(self):
        config = AmsIxConfig()
        assert config.total_members == 669
        assert config.route_server_members == 554
        assert config.open_policy == 48
        assert config.closed_policy == 12
        assert config.case_by_case == 40
        assert config.unlisted == 15

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            AmsIxConfig(total_members=100, route_server_members=90, open_policy=20,
                        closed_policy=0, case_by_case=0, unlisted=0)

    def test_no_tier1_members(self, world):
        inet, ixp = world
        kinds = {inet.graph.get(asn).kind for asn in ixp.members()}
        assert ASKind.TIER1 not in kinds


class TestGenerator:
    def test_deterministic(self):
        a = build_internet(InternetConfig(n_ases=300, seed=9))
        b = build_internet(InternetConfig(n_ases=300, seed=9))
        assert sorted(a.graph.asns()) == sorted(b.graph.asns())
        assert a.graph.edge_count() == b.graph.edge_count()
        for asn in a.graph.asns():
            assert a.graph.providers(asn) == b.graph.providers(asn)
            assert a.graph.get(asn).prefix_count == b.graph.get(asn).prefix_count

    def test_structure_valid(self):
        inet = build_internet(InternetConfig(n_ases=500, seed=2))
        inet.graph.validate()

    def test_tier1_clique(self):
        inet = build_internet(InternetConfig(n_ases=300, n_tier1=6, seed=3))
        tier1 = inet.graph.tier1_clique()
        assert len(tier1) == 6
        for a in tier1:
            assert inet.graph.peers(a) >= set(tier1) - {a}

    def test_everyone_has_providers_except_tier1(self):
        inet = build_internet(InternetConfig(n_ases=300, seed=4))
        for node in inet.graph.nodes():
            if node.kind is not ASKind.TIER1:
                assert inet.graph.providers(node.asn)

    def test_prefix_total_near_target(self):
        inet = build_internet(InternetConfig(n_ases=400, total_prefixes=50_000, seed=6))
        assert abs(inet.total_prefixes() - 50_000) / 50_000 < 0.05

    def test_too_small_config_rejected(self):
        with pytest.raises(ValueError):
            build_internet(InternetConfig(n_ases=10))
