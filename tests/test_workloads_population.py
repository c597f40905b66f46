"""ClientPopulation / zipf_clients edge cases: empty and single-AS
populations and determinism under seeds."""

import pytest

from repro.inet.gen import InternetConfig, build_internet
from repro.inet.topology import ASGraph, ASKind, ASNode
from repro.workloads import ClientPopulation, zipf_clients


@pytest.fixture(scope="module")
def graph():
    return build_internet(
        InternetConfig(n_ases=500, total_prefixes=40_000, seed=13)
    ).graph


class TestClientPopulation:
    def test_empty_population(self):
        population = ClientPopulation(())
        assert population.total_clients == 0
        assert population.n_ases == 0
        assert population.asns() == ()
        assert population.items() == ()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ClientPopulation(((7, -1),))

    def test_single_as_population(self):
        population = ClientPopulation(((42, 1000),))
        assert population.total_clients == 1000
        assert population.n_ases == 1
        assert population.asns() == (42,)


class TestZipfClients:
    def test_zero_ases_yields_empty(self, graph):
        population = zipf_clients(graph, ases=0, clients=1000)
        assert population.n_ases == 0
        assert population.total_clients == 0

    def test_negative_ases_rejected(self, graph):
        with pytest.raises(ValueError, match=">= 0"):
            zipf_clients(graph, ases=-1, clients=10)

    def test_single_as_gets_everything(self, graph):
        population = zipf_clients(graph, ases=1, clients=777, seed=3)
        assert population.n_ases == 1
        assert population.total_clients == 777

    def test_total_is_exact_and_every_as_covered(self, graph):
        population = zipf_clients(graph, ases=50, clients=12_345, seed=4)
        assert population.total_clients == 12_345
        assert population.n_ases == 50
        assert all(c >= 1 for _, c in population.items())
        # Zipf: heaviest first, monotone non-increasing tail.
        volumes = [c for _, c in population.items()]
        assert volumes[0] == max(volumes)

    def test_too_few_clients_rejected(self, graph):
        with pytest.raises(ValueError, match="clients >="):
            zipf_clients(graph, ases=50, clients=10, seed=4)

    def test_deterministic_under_seed(self, graph):
        a = zipf_clients(graph, ases=40, clients=9_999, seed=21)
        b = zipf_clients(graph, ases=40, clients=9_999, seed=21)
        assert a == b

    def test_different_seeds_differ(self, graph):
        a = zipf_clients(graph, ases=40, clients=9_999, seed=21)
        b = zipf_clients(graph, ases=40, clients=9_999, seed=22)
        assert a.asns() != b.asns()

    def test_ases_capped_at_candidates(self):
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(ASNode(asn=asn, kind=ASKind.ACCESS, prefix_count=5))
        g.add_as(ASNode(asn=10, kind=ASKind.TIER1, prefix_count=50))
        g.add_provider(1, 10)
        g.add_provider(2, 10)
        g.add_provider(3, 10)
        population = zipf_clients(g, ases=100, clients=300, seed=0)
        assert population.n_ases == 3
        assert set(population.asns()) == {1, 2, 3}
        assert population.total_clients == 300

    def test_no_candidates_raises(self):
        g = ASGraph()
        g.add_as(ASNode(asn=10, kind=ASKind.TIER1, prefix_count=50))
        with pytest.raises(ValueError, match="no candidate"):
            zipf_clients(g, ases=5, clients=100)
