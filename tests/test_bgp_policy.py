"""Policy engine tests: prefix lists, AS-path filters, route maps."""


from repro.net.addr import IPAddress, Prefix
from repro.bgp.attributes import ASPath, Community, PathAttributes
from repro.bgp.policy import (
    AsPathFilter,
    MatchConditions,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapTerm,
    SetActions,
)
from repro.bgp.rib import Route


def make_route(prefix="184.164.224.0/24", path=(3356, 47065), communities=()):
    return Route(
        prefix=Prefix(prefix),
        attributes=PathAttributes(
            as_path=ASPath.from_asns(path),
            next_hop=IPAddress("10.0.0.1"),
            communities=frozenset(communities),
        ),
        peer_id="peer",
        peer_asn=path[0] if path else None,
    )


class TestPrefixList:
    def test_exact_match(self):
        pl = PrefixList([PrefixListEntry(Prefix("10.0.0.0/8"))])
        assert pl.permits(Prefix("10.0.0.0/8"))
        assert not pl.permits(Prefix("10.1.0.0/16"))  # more specific: no ge/le

    def test_le_range(self):
        pl = PrefixList([PrefixListEntry(Prefix("10.0.0.0/8"), ge=8, le=24)])
        assert pl.permits(Prefix("10.1.0.0/16"))
        assert pl.permits(Prefix("10.1.2.0/24"))
        assert not pl.permits(Prefix("10.1.2.0/25"))

    def test_ge_only(self):
        pl = PrefixList([PrefixListEntry(Prefix("10.0.0.0/8"), ge=24)])
        assert pl.permits(Prefix("10.1.2.0/24"))
        assert pl.permits(Prefix("10.1.2.128/25"))
        assert not pl.permits(Prefix("10.1.0.0/16"))

    def test_first_match_wins(self):
        pl = PrefixList(
            [
                PrefixListEntry(Prefix("10.1.0.0/16"), permit=False, ge=16, le=32),
                PrefixListEntry(Prefix("10.0.0.0/8"), permit=True, ge=8, le=32),
            ]
        )
        assert not pl.permits(Prefix("10.1.2.0/24"))
        assert pl.permits(Prefix("10.2.0.0/16"))

    def test_default_deny(self):
        assert not PrefixList().permits(Prefix("10.0.0.0/8"))
        assert PrefixList(default_permit=True).permits(Prefix("10.0.0.0/8"))

    def test_permitting_factory_with_le(self):
        pl = PrefixList.permitting([Prefix("184.164.224.0/19")], le=24)
        assert pl.permits(Prefix("184.164.224.0/19"))
        assert pl.permits(Prefix("184.164.230.0/24"))
        assert not pl.permits(Prefix("184.164.224.0/25"))
        assert not pl.permits(Prefix("184.0.0.0/8"))


class TestAsPathFilter:
    def test_origin_in(self):
        f = AsPathFilter(origin_in=frozenset({47065}))
        assert f.matches(make_route().attributes)
        assert not f.matches(make_route(path=(3356, 174)).attributes)

    def test_contains_none(self):
        f = AsPathFilter(contains_none=frozenset({666}))
        assert f.matches(make_route().attributes)
        assert not f.matches(make_route(path=(666, 47065)).attributes)

    def test_contains_any(self):
        f = AsPathFilter(contains_any=frozenset({3356, 174}))
        assert f.matches(make_route().attributes)
        assert not f.matches(make_route(path=(1, 2)).attributes)

    def test_length_bounds(self):
        f = AsPathFilter(max_length=3)
        assert f.matches(make_route().attributes)
        assert not f.matches(make_route(path=(1, 2, 3, 4)).attributes)
        g = AsPathFilter(min_length=3)
        assert not g.matches(make_route().attributes)

    def test_first_asn(self):
        f = AsPathFilter(first_asn_in=frozenset({3356}))
        assert f.matches(make_route().attributes)
        assert not f.matches(make_route(path=(174, 47065)).attributes)


class TestRouteMap:
    def test_default_deny(self):
        result = RouteMap().apply(make_route())
        assert not result.permitted
        assert result.term == "<default-deny>"

    def test_permit_all(self):
        result = RouteMap.PERMIT_ALL.apply(make_route())
        assert result.permitted

    def test_first_term_wins(self):
        rm = RouteMap(
            [
                RouteMapTerm(
                    "deny-doc",
                    permit=False,
                    match=MatchConditions(
                        prefix_list=PrefixList([PrefixListEntry(Prefix("192.0.2.0/24"))])
                    ),
                ),
                RouteMapTerm("allow", permit=True),
            ]
        )
        assert not rm.apply(make_route("192.0.2.0/24")).permitted
        assert rm.apply(make_route()).permitted

    def test_set_local_pref_and_prepend(self):
        rm = RouteMap(
            [
                RouteMapTerm(
                    "tune",
                    actions=SetActions(local_pref=250, prepend=(47065, 47065)),
                )
            ]
        )
        result = rm.apply(make_route())
        assert result.route.attributes.local_pref == 250
        assert result.route.attributes.as_path.asns() == (47065, 47065, 3356, 47065)

    def test_community_actions(self):
        c1, c2 = Community(1, 1), Community(2, 2)
        rm = RouteMap(
            [
                RouteMapTerm(
                    "comm",
                    actions=SetActions(add_communities=frozenset({c2}), remove_communities=frozenset({c1})),
                )
            ]
        )
        result = rm.apply(make_route(communities=[c1]))
        assert result.route.attributes.communities == {c2}

    def test_clear_communities(self):
        rm = RouteMap([RouteMapTerm("clear", actions=SetActions(clear_communities=True))])
        result = rm.apply(make_route(communities=[Community(1, 1)]))
        assert result.route.attributes.communities == frozenset()

    def test_match_communities(self):
        c = Community(47065, 666)
        rm = RouteMap(
            [
                RouteMapTerm(
                    "tagged",
                    permit=False,
                    match=MatchConditions(communities_any=frozenset({c})),
                ),
                RouteMapTerm("rest", permit=True),
            ]
        )
        assert not rm.apply(make_route(communities=[c])).permitted
        assert rm.apply(make_route()).permitted

    def test_custom_match_and_action(self):
        rm = RouteMap(
            [
                RouteMapTerm(
                    "custom",
                    match=MatchConditions(custom=lambda r: r.prefix.length == 24),
                    actions=SetActions(custom=lambda r: r.with_attributes(r.attributes.with_med(7))),
                )
            ]
        )
        result = rm.apply(make_route())
        assert result.route.attributes.med == 7
        assert not rm.apply(make_route("10.0.0.0/8")).permitted

    def test_set_weight(self):
        rm = RouteMap([RouteMapTerm("w", actions=SetActions(weight=500))])
        assert rm.apply(make_route()).route.weight == 500

    def test_original_route_not_mutated(self):
        rm = RouteMap([RouteMapTerm("lp", actions=SetActions(local_pref=999))])
        original = make_route()
        rm.apply(original)
        assert original.attributes.local_pref is None
