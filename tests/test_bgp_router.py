"""Integration tests for the full BGP router."""


from repro.net.addr import IPAddress, Prefix
from repro.sim import Engine
from repro.bgp.attributes import Community, NO_EXPORT
from repro.bgp.policy import (
    MatchConditions,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapTerm,
    SetActions,
)
from repro.bgp.router import BGPRouter, PeerConfig, connect_routers

P1 = Prefix("184.164.224.0/24")
P2 = Prefix("184.164.225.0/24")


def make_router(engine, asn, rid):
    return BGPRouter(engine, asn=asn, router_id=IPAddress(rid))


def ebgp_pair(engine, r1, r2, **kwargs):
    """Connect two routers with default configs (eBGP or iBGP by ASN)."""
    c1 = PeerConfig(
        peer_id=f"to-{r2.router_id}",
        remote_asn=r2.asn,
        local_address=r1.router_id,
        **kwargs,
    )
    c2 = PeerConfig(
        peer_id=f"to-{r1.router_id}",
        remote_asn=r1.asn,
        local_address=r2.router_id,
        **kwargs,
    )
    connect_routers(engine, r1, c1, r2, c2)
    return c1, c2


class TestOrigination:
    def test_originate_and_propagate(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        a.originate(P1)
        best = b.best_route(P1)
        assert best is not None
        assert best.attributes.as_path.asns() == (65001,)
        assert best.attributes.next_hop == IPAddress("10.0.0.1")

    def test_withdraw_propagates(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        a.originate(P1)
        assert b.best_route(P1) is not None
        a.withdraw_local(P1)
        assert b.best_route(P1) is None

    def test_transit_chain(self):
        """Routes propagate A -> B -> C with the path growing."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1)
        best = c.best_route(P1)
        assert best is not None
        assert best.attributes.as_path.asns() == (65002, 65001)
        assert best.attributes.next_hop == IPAddress("10.0.0.2")

    def test_established_peer_gets_existing_table(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        a.originate(P1)
        a.originate(P2)
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        assert b.best_route(P1) is not None and b.best_route(P2) is not None


class TestLoopPrevention:
    def test_own_asn_rejected(self):
        """A route whose path contains our ASN is dropped (poisoning)."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        # Originate with a poisoned path by using export policy prepend of
        # the victim's ASN.
        poisoned = RouteMap(
            [RouteMapTerm("poison", actions=SetActions(prepend=(65003,)))],
        )
        # Rewire: a's export to b poisons AS 65003.
        a.peer("to-10.0.0.2").config.export_policy = poisoned
        a.originate(P1)
        assert b.best_route(P1) is not None
        # b's sender-side loop check suppresses the export entirely, so c
        # never sees the poisoned route.
        assert c.best_route(P1) is None

    def test_no_advertise_back_to_source_as(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        a.originate(P1)
        # b must not advertise the route back to a: a's adj-in from b is empty.
        assert b.best_route(P1) is not None
        assert a.routes_received_from("to-10.0.0.2") == []


class TestCommunities:
    def test_no_export_stops_at_as_boundary(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1, communities=[NO_EXPORT])
        assert b.best_route(P1) is not None
        assert c.best_route(P1) is None

    def test_community_propagates(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        tag = Community(65001, 42)
        a.originate(P1, communities=[tag])
        assert tag in b.best_route(P1).attributes.communities


class TestPolicies:
    def test_import_filter(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        deny_p1 = RouteMap(
            [
                RouteMapTerm(
                    "deny",
                    permit=False,
                    match=MatchConditions(
                        prefix_list=PrefixList([PrefixListEntry(P1)])
                    ),
                ),
                RouteMapTerm("rest", permit=True),
            ]
        )
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"))
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), import_policy=deny_p1)
        connect_routers(engine, a, c1, b, c2)
        a.originate(P1)
        a.originate(P2)
        assert b.best_route(P1) is None
        assert b.best_route(P2) is not None
        assert b.rejected_policy >= 1

    def test_export_local_pref_stripped_on_ebgp(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        set_lp = RouteMap([RouteMapTerm("lp", actions=SetActions(local_pref=500))])
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"))
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), import_policy=set_lp)
        connect_routers(engine, a, c1, b, c2)
        a.originate(P1)
        # b imported with LP 500 but c (eBGP from b) must not see it.
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, b, c)
        assert c.best_route(P1).attributes.local_pref is None

    def test_med_not_propagated_beyond_neighbor(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1, med=50)
        assert b.best_route(P1).attributes.med == 50
        assert c.best_route(P1).attributes.med is None


class TestBestPathSelection:
    def test_prefers_shorter_path_across_peers(self):
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        middle = make_router(engine, 65009, "10.0.0.9")
        listener = make_router(engine, 65010, "10.0.0.10")
        ebgp_pair(engine, dest, middle)
        ebgp_pair(engine, dest, listener)
        ebgp_pair(engine, middle, listener)
        dest.originate(P1)
        best = listener.best_route(P1)
        assert best.attributes.as_path.asns() == (65000,)
        # And the alternate (via middle) exists among candidates.
        candidates = listener.loc_rib.candidates(P1)
        assert len(candidates) == 2

    def test_reconverges_on_withdrawal(self):
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        middle = make_router(engine, 65009, "10.0.0.9")
        listener = make_router(engine, 65010, "10.0.0.10")
        ebgp_pair(engine, dest, middle)
        ebgp_pair(engine, dest, listener)
        ebgp_pair(engine, middle, listener)
        dest.originate(P1)
        # Kill the direct session: listener must fall back to the long path.
        listener.peer("to-10.0.0.0").session.stop()
        best = listener.best_route(P1)
        assert best is not None
        assert best.attributes.as_path.asns() == (65009, 65000)


class TestIBGP:
    def test_ibgp_no_transit_without_reflection(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65001, "10.0.0.2")
        c = make_router(engine, 65001, "10.0.0.3")
        # chain a - b - c, all iBGP
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1)
        assert b.best_route(P1) is not None
        assert c.best_route(P1) is None  # b won't reflect without RR

    def test_route_reflector(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        rr = make_router(engine, 65001, "10.0.0.2")
        c = make_router(engine, 65001, "10.0.0.3")
        connect_routers(
            engine,
            a,
            PeerConfig("to-rr", 65001, IPAddress("10.0.0.1")),
            rr,
            PeerConfig("10.0.0.1", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
        )
        connect_routers(
            engine,
            rr,
            PeerConfig("10.0.0.3", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
            c,
            PeerConfig("to-rr", 65001, IPAddress("10.0.0.3")),
        )
        a.originate(P1)
        best = c.best_route(P1)
        assert best is not None
        assert best.attributes.originator_id is not None
        assert len(best.attributes.cluster_list) == 1
        # iBGP: path stays empty, local pref set.
        assert best.attributes.as_path.asns() == ()
        assert best.attributes.local_pref == 100

    def test_reflection_loop_prevented(self):
        """Two RRs in a cycle must not loop a route forever."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        rr1 = make_router(engine, 65001, "10.0.0.2")
        rr2 = make_router(engine, 65001, "10.0.0.3")
        connect_routers(
            engine,
            a,
            PeerConfig("to-rr1", 65001, IPAddress("10.0.0.1")),
            rr1,
            PeerConfig("10.0.0.1", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
        )
        connect_routers(
            engine,
            rr1,
            PeerConfig("10.0.0.3", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
            rr2,
            PeerConfig("10.0.0.2", 65001, IPAddress("10.0.0.3"), route_reflector_client=True),
        )
        a.originate(P1)
        engine.run(until=10)
        assert rr2.best_route(P1) is not None


class TestAddPath:
    def test_multiple_paths_advertised(self):
        """An ADD-PATH peer receives alternates, not just the best."""
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        m1 = make_router(engine, 65001, "10.0.0.1")
        m2 = make_router(engine, 65002, "10.0.0.2")
        mux = make_router(engine, 47065, "10.0.0.47")
        client = make_router(engine, 65100, "10.0.1.1")
        ebgp_pair(engine, dest, m1)
        ebgp_pair(engine, dest, m2)
        ebgp_pair(engine, m1, mux)
        ebgp_pair(engine, m2, mux)
        ebgp_pair(engine, mux, client, add_path=True)
        dest.originate(P1)
        routes = client.routes_received_from("to-10.0.0.47")
        paths = {r.attributes.as_path.asns() for r in routes if r.prefix == P1}
        assert (47065, 65001, 65000) in paths
        assert (47065, 65002, 65000) in paths

    def test_add_path_withdrawal(self):
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        m1 = make_router(engine, 65001, "10.0.0.1")
        mux = make_router(engine, 47065, "10.0.0.47")
        client = make_router(engine, 65100, "10.0.1.1")
        ebgp_pair(engine, dest, m1)
        ebgp_pair(engine, m1, mux)
        ebgp_pair(engine, dest, mux)
        ebgp_pair(engine, mux, client, add_path=True)
        dest.originate(P1)
        assert len([r for r in client.routes_received_from("to-10.0.0.47") if r.prefix == P1]) == 2
        dest.withdraw_local(P1)
        assert client.routes_received_from("to-10.0.0.47") == []


class TestMRAI:
    def test_updates_batched(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"), mrai=30.0)
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"))
        connect_routers(engine, a, c1, b, c2)
        a.originate(P1)
        a.originate(P2)
        assert b.best_route(P1) is None  # MRAI holds them back
        engine.run(until=31)
        assert b.best_route(P1) is not None and b.best_route(P2) is not None
        # Both prefixes share attributes -> a single batched UPDATE.
        session = a.peer("to-b").session
        assert session.updates_sent == 1


class TestMaxPrefixes:
    def test_limit_enforced(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"))
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), max_prefixes=2)
        connect_routers(engine, a, c1, b, c2)
        for i in range(5):
            a.originate(Prefix(f"184.164.{224 + i}.0/24"))
        assert len(list(b.peer("to-a").adj_in.routes())) == 2
        assert b.peer("to-a").prefix_limit_hit
