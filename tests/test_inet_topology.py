"""Tests for the AS graph."""

import pytest

from repro.inet.topology import (
    ASGraph,
    ASNode,
    Relationship,
    TopologyError,
)


@pytest.fixture
def diamond():
    """Tier1 (1) above two transits (2, 3) above a stub (4); 2--3 peer."""
    g = ASGraph()
    for asn in (1, 2, 3, 4):
        g.add_as(ASNode(asn=asn))
    g.add_provider(2, 1)
    g.add_provider(3, 1)
    g.add_provider(4, 2)
    g.add_provider(4, 3)
    g.add_peering(2, 3)
    return g


class TestConstruction:
    def test_add_and_get(self):
        g = ASGraph()
        node = g.add_as(ASNode(asn=47065, name="PEERING"))
        assert g.get(47065) is node
        assert 47065 in g and len(g) == 1

    def test_duplicate_as_rejected(self):
        g = ASGraph()
        g.add_as(ASNode(asn=1))
        with pytest.raises(TopologyError):
            g.add_as(ASNode(asn=1))

    def test_unknown_as(self):
        g = ASGraph()
        with pytest.raises(TopologyError):
            g.get(99)

    def test_self_loop_rejected(self):
        g = ASGraph()
        g.add_as(ASNode(asn=1))
        with pytest.raises(TopologyError):
            g.add_provider(1, 1)
        with pytest.raises(TopologyError):
            g.add_peering(1, 1)

    def test_conflicting_relationship_rejected(self, diamond):
        with pytest.raises(TopologyError):
            diamond.add_peering(4, 2)  # already customer
        with pytest.raises(TopologyError):
            diamond.add_provider(2, 3)  # already peer

    def test_edges(self, diamond):
        assert diamond.providers(4) == {2, 3}
        assert diamond.customers(1) == {2, 3}
        assert diamond.peers(2) == {3}
        assert diamond.neighbors(2) == {1, 3, 4}
        assert diamond.edge_count() == 5

    def test_relationship_lookup(self, diamond):
        assert diamond.relationship(4, 2) is Relationship.CUSTOMER_PROVIDER
        assert diamond.relationship(2, 3) is Relationship.PEER
        assert diamond.relationship(1, 4) is None

    def test_remove_peering(self, diamond):
        diamond.remove_peering(2, 3)
        assert diamond.peers(2) == frozenset()

    def test_remove_as(self, diamond):
        diamond.remove_as(2)
        assert 2 not in diamond
        assert diamond.providers(4) == {3}
        assert diamond.customers(1) == {3}
        assert diamond.peers(3) == frozenset()

    def test_validate_ok(self, diamond):
        diamond.validate()


class TestAnalysis:
    def test_customer_cone(self, diamond):
        assert diamond.customer_cone(1) == {1, 2, 3, 4}
        assert diamond.customer_cone(2) == {2, 4}
        assert diamond.customer_cone(4) == {4}

    def test_cone_ignores_peer_edges(self, diamond):
        # 2 peers with 3 but 3 is not in 2's cone.
        assert 3 not in diamond.customer_cone(2)

    def test_rank_by_cone(self, diamond):
        ranked = diamond.rank_by_cone()
        assert ranked[0] == (1, 4)
        assert {asn for asn, _ in ranked[1:3]} == {2, 3}

    def test_stub_and_tier1(self, diamond):
        assert diamond.stub_asns() == [4]
        assert diamond.tier1_clique() == [1]

    def test_cone_with_cycle_terminates(self):
        # Pathological p2c cycle (invalid economically, must not hang).
        g = ASGraph()
        for asn in (1, 2):
            g.add_as(ASNode(asn=asn))
        g.add_provider(1, 2)
        g._providers[2].add(1)  # force the cycle past validation
        g._customers[1].add(2)
        assert g.customer_cone(1) == {1, 2}


class TestBatchMutation:
    def test_batch_bumps_version_once(self, diamond):
        v0 = diamond.version
        with diamond.batch():
            diamond.add_as(ASNode(asn=10))
            diamond.add_as(ASNode(asn=11))
            diamond.add_provider(10, 1)
            diamond.add_peering(10, 11)
        assert diamond.version == v0 + 1

    def test_batch_without_mutation_does_not_bump(self, diamond):
        v0 = diamond.version
        with diamond.batch():
            pass
        assert diamond.version == v0

    def test_views_refresh_after_batch(self, diamond):
        assert 4 in diamond.customers(2)  # populate the cached views
        with diamond.batch():
            diamond.add_as(ASNode(asn=10))
            diamond.add_provider(10, 2)
        assert 10 in diamond.customers(2)
        assert diamond.sorted_customers(2) == (4, 10)

    def test_exception_inside_batch_still_invalidates(self, diamond):
        v0 = diamond.version
        with pytest.raises(TopologyError):
            with diamond.batch():
                diamond.add_as(ASNode(asn=10))
                diamond.add_as(ASNode(asn=10))  # duplicate: raises
        assert diamond.version == v0 + 1  # the first add must not be lost

    def test_nested_batches_defer_to_outermost(self, diamond):
        v0 = diamond.version
        with diamond.batch():
            diamond.add_as(ASNode(asn=10))
            with diamond.batch():
                diamond.add_as(ASNode(asn=11))
            assert diamond.version == v0  # inner exit must not bump
        assert diamond.version == v0 + 1
