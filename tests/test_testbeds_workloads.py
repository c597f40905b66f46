"""Tests for the Table 1 capability models and the workload generators."""

import pytest

from repro.inet.gen import InternetConfig, build_internet
from repro.inet.topology import ASKind
from repro.testbeds import (
    ALL_TESTBEDS,
    PAPER_TABLE_1,
    Support,
    capability_matrix,
    no_two_combine,
)
from repro.workloads import (
    WebConfig,
    build_web_ecosystem,
    client_population,
)
from repro.workloads.alexa import Resolver


class TestTable1:
    def test_matrix_matches_paper_exactly(self):
        matrix = capability_matrix()
        for goal, row in PAPER_TABLE_1.items():
            for short, symbol in row.items():
                assert matrix[short][goal].symbol == symbol, (goal, short)

    def test_eight_testbeds(self):
        assert len(ALL_TESTBEDS) == 8
        assert {m.short for m in ALL_TESTBEDS} == {
            "PL", "VN", "EM", "MN", "RC", "BC", "TP", "PR",
        }

    def test_peering_meets_all_goals(self):
        matrix = capability_matrix()
        assert all(s is Support.YES for s in matrix["PR"].values())

    def test_no_other_testbed_meets_all(self):
        matrix = capability_matrix()
        for model in ALL_TESTBEDS:
            if model.short == "PR":
                continue
            assert any(s is not Support.YES for s in matrix[model.short].values())

    def test_no_two_combine(self):
        """The caption's claim: no two other systems combined provide the
        goal set PEERING achieves."""
        assert no_two_combine()

    def test_symbols(self):
        assert Support.YES.symbol == "✓"
        assert Support.LIMITED.symbol == "≈"
        assert Support.NO.symbol == "✗"


@pytest.fixture(scope="module")
def internet():
    return build_internet(InternetConfig(n_ases=600, total_prefixes=40_000, seed=55))


class TestWebEcosystem:
    def test_shape_matches_paper_scale(self, internet):
        web = build_web_ecosystem(internet.graph, WebConfig(site_count=500))
        assert len(web.sites) == 500
        resources = sum(len(s.resources) for s in web.sites)
        assert 30_000 < resources < 80_000  # paper: 49,776
        assert 500 < len(web.distinct_fqdns()) <= 4200  # paper: 4,182
        assert len(web.distinct_ips()) < resources  # heavy sharing

    def test_content_concentration(self, internet):
        """Most resource fetches land on CDN/content ASes."""
        web = build_web_ecosystem(internet.graph, WebConfig(site_count=200))
        content = {
            n.asn for n in internet.graph.nodes() if n.kind is ASKind.CONTENT
        }
        on_cdn = sum(
            1 for s in web.sites for r in s.resources if r.asn in content
        )
        total = sum(len(s.resources) for s in web.sites)
        assert on_cdn / total > 0.45

    def test_coverage_prefers_content_peers(self, internet):
        """Peering with content ASes covers far more resource *fetches*
        than peering with the same number of ordinary edge ASes (the
        YouTube/Netflix concentration argument from §3)."""
        web = build_web_ecosystem(internet.graph, WebConfig(site_count=200))
        content = {n.asn for n in internet.graph.nodes() if n.kind is ASKind.CONTENT}
        edge = [
            n.asn
            for n in internet.graph.nodes()
            if n.kind is ASKind.ACCESS and not n.name.startswith("EYEBALL-")
        ]

        def fetches_covered(asns):
            return sum(
                1
                for site in web.sites
                for resource in site.resources
                if resource.asn in asns
            )

        assert fetches_covered(content) > 2 * fetches_covered(set(edge[: len(content)]))

    def test_coverage_counts_consistent(self, internet):
        web = build_web_ecosystem(internet.graph, WebConfig(site_count=100))
        all_asns = set(internet.graph.asns())
        coverage = web.coverage(all_asns)
        assert coverage["ips_covered"] == coverage["ips"]
        assert coverage["sites_covered"] == coverage["sites"]
        empty = web.coverage(set())
        assert empty["ips_covered"] == 0 and empty["sites_covered"] == 0

    def test_deterministic(self, internet):
        a = build_web_ecosystem(internet.graph, WebConfig(site_count=50, seed=1))
        b = build_web_ecosystem(internet.graph, WebConfig(site_count=50, seed=1))
        assert [s.ip for s in a.sites] == [s.ip for s in b.sites]

    def test_resolver_stable_and_invertible(self):
        resolver = Resolver()
        ip1 = resolver.resolve("a.example", 1234)
        assert resolver.resolve("a.example", 1234) == ip1
        assert resolver.asn_of(ip1) == 1234

    def test_resolver_packs_fqdns_per_ip(self):
        resolver = Resolver()
        ips = {
            resolver.resolve(f"x{i}.example", 99, names_per_ip=4) for i in range(8)
        }
        assert len(ips) == 2  # 4 FQDNs per frontend IP

    def test_resolver_default_one_name_per_ip(self):
        resolver = Resolver()
        ips = {resolver.resolve(f"y{i}.example", 98) for i in range(5)}
        assert len(ips) == 5


class TestTrafficWorkloads:
    def test_client_population_weighted_and_unique(self, internet):
        clients = client_population(internet.graph, 50, seed=3)
        assert len(clients) == len(set(clients)) == 50
        kinds = {internet.graph.get(a).kind for a in clients}
        assert kinds <= {ASKind.ACCESS, ASKind.ENTERPRISE}

    def test_probe_train(self, internet):
        from repro.net.addr import IPAddress
        from repro.workloads import ProbeTrain

        train = ProbeTrain(
            src=IPAddress("10.0.0.1"),
            targets=[IPAddress("10.0.0.2"), IPAddress("10.0.0.3")],
        )
        packets = list(train.packets())
        assert len(packets) == 2
        assert packets[0].dst == IPAddress("10.0.0.2")
