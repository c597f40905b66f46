"""Integration tests for the Testbed, servers, and clients."""

from collections import Counter

import pytest

from repro.core import (
    AnnouncementSpec,
    ExperimentError,
    ExperimentStatus,
    MuxMode,
    SafetyVerdict,
    Testbed,
)
from repro.inet.dataplane import DataPlane, DeliveryStatus
from repro.inet.gen import InternetConfig
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet
from repro.secroute.flowspec import (
    FlowSpecAction,
    FlowSpecDistributor,
    FlowSpecRule,
    resolver_from_outcomes,
)


@pytest.fixture(scope="module")
def testbed():
    return Testbed.build_default(
        InternetConfig(n_ases=600, total_prefixes=50_000, seed=77)
    )


@pytest.fixture()
def fresh_testbed():
    return Testbed.build_default(
        InternetConfig(n_ases=400, total_prefixes=30_000, seed=78)
    )


class TestDeployment:
    def test_nine_servers_three_continents(self, testbed):
        assert len(testbed.servers) == 9
        countries = {server.site.country for server in testbed.servers.values()}
        assert {"US", "NL", "BR", "CN"} <= countries

    def test_amsterdam_is_ixp_site(self, testbed):
        server = testbed.server("amsterdam01")
        assert server.site.ixp == "AMS-IX"
        assert len(server.neighbor_asns) > 100  # route server bootstraps peers

    def test_university_sites_have_upstreams(self, testbed):
        server = testbed.server("gatech01")
        assert len(server.site.upstream_asns) == 2
        assert server.neighbor_asns == set(server.site.upstream_asns)
        for upstream in server.site.upstream_asns:
            assert upstream in testbed.graph.providers(testbed.asn)

    def test_phoenix_deployed(self, testbed):
        assert "Phoenix-IX" in testbed.internet.ixps
        assert testbed.server("phoenix01").neighbor_asns

    def test_duplicate_server_rejected(self, testbed):
        from repro.core import SiteConfig, SiteKind

        with pytest.raises(ValueError):
            testbed.add_server(
                SiteConfig(name="gatech01", kind=SiteKind.UNIVERSITY)
            )


class TestExperimentLifecycle:
    def test_register_allocates_prefix(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        assert len(client.prefixes) == 1
        assert client.prefixes[0].length == 24
        assert fresh_testbed.experiments["exp1"].status is ExperimentStatus.ACTIVE

    def test_duplicate_experiment_rejected(self, fresh_testbed):
        fresh_testbed.register_client("exp1", "alice")
        with pytest.raises(ExperimentError):
            fresh_testbed.register_client("exp1", "alice")

    def test_retire_releases_prefixes(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        prefix = client.prefixes[0]
        client.attach("amsterdam01")
        client.announce(prefix)
        fresh_testbed.retire_experiment("exp1")
        assert prefix not in fresh_testbed.announced_prefixes()
        assert fresh_testbed.pool.owner_of(prefix) is None

    def test_spoofing_waiver_propagates_to_servers(self, fresh_testbed):
        fresh_testbed.register_client(
            "spoofer", "carol", description="reverse traceroute", needs_spoofing=True
        )
        server = fresh_testbed.server("amsterdam01")
        assert "spoofer" in server.safety.config.allow_spoofing_for


class TestAnnouncements:
    def test_announce_reaches_most_of_internet(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("amsterdam01")
        client.attach("gatech01")
        results = client.announce(client.prefixes[0])
        assert all(d.allowed for d in results.values())
        outcome = fresh_testbed.outcome_for(client.prefixes[0])
        assert len(outcome.reachable_asns()) > 0.9 * len(fresh_testbed.graph)

    def test_isolation_blocks_cross_experiment_announcement(self, fresh_testbed):
        client1 = fresh_testbed.register_client("exp1", "alice")
        client2 = fresh_testbed.register_client("exp2", "bob")
        client1.attach("amsterdam01")
        client2.attach("amsterdam01")
        client1.announce(client1.prefixes[0])
        # Announcing another experiment's space is audited as a squat
        # (an intra-testbed hijack), not a mere unallocated prefix.
        decision = client2.announce(client1.prefixes[0])["amsterdam01"]
        assert decision.verdict is SafetyVerdict.PREFIX_SQUAT

    def test_selective_peers(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        server = fresh_testbed.server("gatech01")
        client.attach("gatech01")
        upstreams = sorted(server.neighbor_asns)
        client.announce(client.prefixes[0], peers=[upstreams[0]])
        outcome = fresh_testbed.outcome_for(client.prefixes[0])
        # The chosen upstream has a direct (1-hop) route; the other one
        # must not have received the announcement directly.
        assert outcome.route(upstreams[0]).path == (fresh_testbed.asn,)
        other = outcome.route(upstreams[1])
        assert other is None or other.path != (fresh_testbed.asn,)

    def test_unknown_peer_rejected(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        with pytest.raises(ValueError):
            client.announce(client.prefixes[0], peers=[999999])

    def test_withdraw_uninstalls(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        client.announce(client.prefixes[0])
        client.withdraw(client.prefixes[0])
        assert client.prefixes[0] not in fresh_testbed.announced_prefixes()

    def test_poisoning_via_api(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        server = fresh_testbed.server("gatech01")
        client.attach("gatech01")
        victim = sorted(server.neighbor_asns)[0]
        client.announce(client.prefixes[0], poison=[victim])
        outcome = fresh_testbed.outcome_for(client.prefixes[0])
        assert outcome.route(victim) is None

    def test_multi_server_anycast_like(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("amsterdam01")
        client.attach("tsinghua01")
        client.announce(client.prefixes[0])
        outcome = fresh_testbed.outcome_for(client.prefixes[0])
        assert len(outcome.reachable_asns()) > 0.9 * len(fresh_testbed.graph)


class TestRoutesToward:
    def test_per_peer_routes_at_ixp(self, testbed):
        client = testbed.register_client("routes-exp", "alice")
        client.attach("amsterdam01")
        # Peers export their customer cones, so pick a destination inside
        # some peer's cone (a destination nobody transits legitimately has
        # zero peer routes).
        server = testbed.server("amsterdam01")
        dest = next(
            member
            for peer in sorted(server.neighbor_asns)
            for member in sorted(testbed.graph.customer_cone(peer))
            if member != peer and member not in server.neighbor_asns
        )
        routes = client.routes_toward(dest)["amsterdam01"]
        # multiple peers export their own (different) paths
        assert len(routes) >= 1
        for peer_asn, route in routes.items():
            assert route.path[0] == peer_asn
            assert route.path[-1] == dest

    def test_mux_does_not_select_best(self, testbed):
        """The mux relays per-peer routes; clients see all of them, not a
        single selected route."""
        server = testbed.server("amsterdam01")
        dest = next(
            node.asn
            for node in testbed.graph.nodes()
            if node.kind.value == "access" and node.asn not in server.neighbor_asns
        )
        routes = server.routes_toward(dest)
        lengths = {len(r.path) for r in routes.values()}
        if len(routes) > 1:
            assert len(lengths) >= 1  # all paths present, not only shortest


class TestDataPlane:
    def test_external_traffic_tunneled_to_client(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("amsterdam01")
        client.announce(client.prefixes[0])
        target = client.prefixes[0].first_address() + 7
        source_asn = next(
            node.asn for node in fresh_testbed.graph.nodes() if node.kind.value == "access"
        )
        delivery = fresh_testbed.send_from(
            source_asn, Packet(src=IPAddress("198.18.0.1"), dst=target)
        )
        assert delivery.final_asn == fresh_testbed.asn
        assert len(client.received_packets) == 1

    def test_per_packet_path_allocates_o1_objects(self, fresh_testbed, monkeypatch):
        """The hot path builds no ``Prefix`` or ``IPAddress`` and at most
        one ``Packet`` inside ``DataPlane.send`` (plus one per DSCP
        remark) however many hops and rules a packet crosses — pinned as
        a count, which repeats exactly where a timing would not."""
        testbed = fresh_testbed
        client = testbed.register_client("exp1", "alice")
        client.attach("amsterdam01")
        prefix = client.prefixes[0]
        client.announce(prefix)
        outcome = testbed.outcome_for(prefix)
        chain = max(
            (outcome.forwarding_chain(asn) for asn, _ in outcome.items()), key=len
        )
        assert len(chain) >= 4 and chain[-1] == testbed.asn  # >= 3 hops

        dist = FlowSpecDistributor(chain, resolver_from_outcomes({prefix: outcome}))
        mark = FlowSpecAction.mark(46)
        for j in range(12):  # scanned and missed at every hop
            port = ((8000 + j, 8000 + j),)
            dist.announce(FlowSpecRule(prefix, testbed.asn, mark, protos=("tcp",), dst_ports=port))
        dist.announce(FlowSpecRule(prefix, testbed.asn, mark, protos=("udp",)))
        assert all(len(dist.rules_at(asn)) == 13 for asn in chain)
        testbed.dataplane.attach_flowspec(dist)

        def packet(proto):
            return Packet(src=IPAddress("198.18.0.1"), dst=prefix.first_address() + 7,
                          proto=proto, dst_port=443)

        plain, marked = packet("tcp"), packet("udp")
        testbed.send_from(chain[0], packet("tcp"))  # compiles classifiers, memoises routes

        built = Counter()
        in_send = []

        def count(cls, method, label):
            original = getattr(cls, method)

            def counted(self, *args, **kwargs):
                built[label] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)

        count(Prefix, "__init__", "prefix")
        count(IPAddress, "__init__", "address")
        count(Packet, "__post_init__", "packet")
        send = DataPlane.send

        def measured_send(self, *args, **kwargs):
            before = built["packet"]
            try:
                return send(self, *args, **kwargs)
            finally:
                in_send.append(built["packet"] - before)

        monkeypatch.setattr(DataPlane, "send", measured_send)

        received = len(client.received_packets)
        first = testbed.send_from(chain[0], plain)
        second = testbed.send_from(chain[0], marked)
        monkeypatch.undo()
        for delivery in (first, second):
            assert delivery.status is DeliveryStatus.DELIVERED
            assert delivery.path == tuple(chain)
            assert delivery.packet.ttl == 64 - (len(chain) - 1)
        assert (first.packet.dscp, second.packet.dscp) == (None, 46)
        assert len(client.received_packets) == received + 2
        assert built["prefix"] == 0 and built["address"] == 0
        # One hopped packet for the Delivery; remarking costs one per hop.
        assert in_send == [1, 1 + len(chain)]
        # ...and the only other packet is the tunnel's outer header.
        assert built["packet"] == sum(in_send) + 2

    def test_client_ping(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("amsterdam01")
        client.announce(client.prefixes[0])
        dest = next(
            node.asn for node in fresh_testbed.graph.nodes() if node.kind.value == "access"
        )
        # a destination AS needs an installed outcome: announce its space
        from repro.inet.routing import Announcement, propagate

        dst_prefix = Prefix("203.0.113.0/24")
        fresh_testbed.dataplane.install(
            dst_prefix, propagate(fresh_testbed.graph, Announcement.single(dest)), owner=dest
        )
        delivery = client.ping(dst_prefix.first_address() + 1)
        assert delivery.status.value == "delivered"
        assert delivery.path[0] == fresh_testbed.asn

    def test_spoofed_client_traffic_dropped(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("amsterdam01")
        client.announce(client.prefixes[0])
        spoofed = Packet(src=IPAddress("8.8.4.4"), dst=IPAddress("203.0.113.1"))
        client.send(spoofed)
        server = fresh_testbed.server("amsterdam01")
        assert server.safety.blocked_count() >= 1


class TestMuxModes:
    def test_quagga_mode_session_per_peer(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        attachment = client.attach("gatech01", mode=MuxMode.QUAGGA)
        server = fresh_testbed.server("gatech01")
        assert server.client_session_count("exp1") == len(server.neighbor_asns)

    def test_bird_mode_single_session(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("amsterdam01", mode=MuxMode.BIRD)
        server = fresh_testbed.server("amsterdam01")
        assert server.client_session_count("exp1") == 1

    def test_bgp_client_quagga_mode(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        router = client.attach_bgp("gatech01", local_asn=65000)
        router.originate(client.prefixes[0])
        assert client.prefixes[0] in fresh_testbed.announced_prefixes()
        spec = fresh_testbed.server("gatech01").announcements_for("exp1")[
            client.prefixes[0]
        ]
        assert spec.peers is not None  # per-peer sessions announce per peer

    def test_bgp_client_bird_mode(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        router = client.attach_bgp("amsterdam01", mode=MuxMode.BIRD, local_asn=65000)
        router.originate(client.prefixes[0])
        assert client.prefixes[0] in fresh_testbed.announced_prefixes()

    def test_bgp_hijack_blocked_at_mux(self, fresh_testbed):
        """A client announcing someone else's space over BGP is filtered."""
        fresh_testbed.register_client("victim", "alice")
        attacker = fresh_testbed.register_client("attacker", "mallory")
        router = attacker.attach_bgp("gatech01", local_asn=65001)
        victim_prefix = fresh_testbed.experiments["victim"].prefixes[0]
        router.originate(victim_prefix)
        assert victim_prefix not in fresh_testbed.announced_prefixes()
        server = fresh_testbed.server("gatech01")
        assert server.safety.blocked_count() >= 1

    def test_relay_destination_routes(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        router = client.attach_bgp("gatech01", local_asn=65000)
        dest = next(
            node.asn for node in fresh_testbed.graph.nodes() if node.kind.value == "access"
        )
        server = fresh_testbed.server("gatech01")
        dst_prefix = Prefix("203.0.113.0/24")
        sent = server.relay_destination("exp1", dest, dst_prefix)
        assert sent >= 1
        # Client's router received per-peer routes on separate sessions.
        received = [
            r for r in router.loc_rib.routes() if r.prefix == dst_prefix
        ]
        assert received


class TestDisconnect:
    def test_disconnect_withdraws(self, fresh_testbed):
        client = fresh_testbed.register_client("exp1", "alice")
        client.attach("gatech01")
        client.announce(client.prefixes[0])
        client.detach("gatech01")
        assert client.prefixes[0] not in fresh_testbed.announced_prefixes()


class TestCommunityControl:
    def test_communities_select_peers(self, fresh_testbed):
        """A client can steer announcements with PEERING:peer communities
        over its BGP session, instead of per-peer sessions."""
        from repro.bgp.attributes import Community

        client = fresh_testbed.register_client("exp1", "alice")
        server = fresh_testbed.server("gatech01")
        upstreams = sorted(server.neighbor_asns)
        router = client.attach_bgp("gatech01", local_asn=64512)
        chosen = upstreams[0]
        router.originate(
            client.prefixes[0],
            communities=[Community(fresh_testbed.asn, chosen)],
        )
        spec = server.announcements_for("exp1")[client.prefixes[0]]
        assert spec.peers == (chosen,)
        outcome = fresh_testbed.outcome_for(client.prefixes[0])
        assert outcome.route(chosen).path == (fresh_testbed.asn,)

    def test_communities_ignore_unknown_peers(self, fresh_testbed):
        """Steering communities naming non-neighbors select nothing at
        this server (silently, like unmatched communities in production)."""
        from repro.bgp.attributes import Community

        client = fresh_testbed.register_client("exp1", "alice")
        router = client.attach_bgp("gatech01", local_asn=64512)
        router.originate(
            client.prefixes[0],
            communities=[Community(fresh_testbed.asn, 65535)],
        )
        assert client.prefixes[0] not in fresh_testbed.announced_prefixes()
