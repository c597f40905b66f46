"""Tests for connectivity analysis and the AS-level data plane."""

import random

import pytest

from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet
from repro.inet.analysis import (
    country_coverage,
    peer_export_sizes,
    peer_reachability,
    top_cone_overlap,
)
from repro.inet.dataplane import DataPlane, Delivery, DeliveryStatus
from repro.inet.routing import Announcement, OriginSpec, propagate
from repro.inet.topology import ASGraph, ASNode
from repro.secroute.flowspec import (
    EnforcementVerdict,
    FlowSpecAction,
    FlowSpecDistributor,
    FlowSpecRule,
    resolver_from_outcomes,
)


def build_world():
    g = ASGraph()
    for asn, country, prefixes in [
        (1, "US", 10),
        (3, "NL", 100),
        (4, "DE", 50),
        (5, "FR", 30),
        (6, "GB", 20),
        (7, "JP", 400),
        (47065, "NL", 1),
    ]:
        g.add_as(ASNode(asn=asn, country=country, prefix_count=prefixes))
    g.add_provider(3, 1)
    g.add_provider(4, 1)
    g.add_provider(5, 3)
    g.add_provider(6, 4)
    g.add_provider(7, 1)
    g.add_peering(47065, 3)
    g.add_peering(47065, 4)
    return g


class TestPeerReachability:
    def test_reachable_is_union_of_cones(self):
        g = build_world()
        reach = peer_reachability(g, 47065)
        assert reach.reachable_asns == {3, 4, 5, 6}
        assert reach.reachable_prefixes == 100 + 50 + 30 + 20
        assert reach.total_prefixes == 611

    def test_fraction(self):
        g = build_world()
        reach = peer_reachability(g, 47065)
        assert reach.prefix_fraction == pytest.approx(200 / 611)

    def test_per_peer_sizes(self):
        g = build_world()
        sizes = dict(peer_export_sizes(g, 47065))
        assert sizes == {3: 130, 4: 70}

    def test_export_sorted_descending(self):
        g = build_world()
        exports = peer_export_sizes(g, 47065)
        assert exports[0][0] == 3

    def test_no_peers(self):
        g = build_world()
        reach = peer_reachability(g, 7)
        assert reach.peer_count == 0 and reach.reachable_prefixes == 0


class TestCoverageHelpers:
    def test_country_coverage(self):
        g = build_world()
        assert country_coverage(g, {3, 4, 5}) == {"NL", "DE", "FR"}

    def test_top_cone_overlap(self):
        g = build_world()
        overlap = top_cone_overlap(g, {3, 4}, cutoffs=(2, 4))
        # ranking: 1 (cone 6... includes 3,4,5,6,7), then 3 (cone {3,5}),
        # then 4 (cone {4,6}) -- ties by asn
        assert overlap[2] == 1  # only 3 in top 2
        assert overlap[4] == 2


def two_origin_world():
    g = ASGraph()
    for asn in (1, 3, 4, 5, 66, 9):
        g.add_as(ASNode(asn=asn))
    g.add_provider(3, 1)
    g.add_provider(4, 1)
    g.add_provider(5, 3)  # victim
    g.add_provider(66, 4)  # hijacker
    g.add_provider(9, 4)  # bystander near hijacker
    return g


class TestDataPlane:
    def test_delivery_follows_control_plane(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        prefix = Prefix("184.164.224.0/24")
        plane.install(prefix, outcome, owner=5)
        delivery = plane.send(
            9, Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1"))
        )
        assert delivery.status is DeliveryStatus.DELIVERED
        assert delivery.path == (9, 4, 1, 3, 5)
        assert delivery.final_asn == 5

    def test_blackhole_when_no_route(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5, announce_to=()))
        plane = DataPlane(g)
        prefix = Prefix("184.164.224.0/24")
        plane.install(prefix, outcome, owner=5)
        delivery = plane.send(
            9, Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1"))
        )
        assert delivery.status is DeliveryStatus.BLACKHOLE

    def test_no_matching_prefix(self):
        g = two_origin_world()
        plane = DataPlane(g)
        delivery = plane.send(9, Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("10.0.0.1")))
        assert delivery.status is DeliveryStatus.BLACKHOLE

    def test_hijack_interception_detected(self):
        g = two_origin_world()
        contested = propagate(
            g, Announcement(origins=(OriginSpec(asn=5), OriginSpec(asn=66)))
        )
        plane = DataPlane(g)
        prefix = Prefix("184.164.224.0/24")
        plane.install(prefix, contested, owner=5)
        delivery = plane.send(
            9, Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1"))
        )
        assert delivery.status is DeliveryStatus.INTERCEPTED
        assert delivery.final_asn == 66

    def test_more_specific_attracts_traffic(self):
        """A /25 hijack overrides the legitimate /24 (LPM on outcomes)."""
        g = two_origin_world()
        legit = propagate(g, Announcement.single(5))
        hijack = propagate(g, Announcement.single(66))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), legit, owner=5)
        plane.install(Prefix("184.164.224.0/25"), hijack, owner=5)
        delivery = plane.send(
            3, Packet(src=IPAddress("3.3.3.3"), dst=IPAddress("184.164.224.1"))
        )
        assert delivery.final_asn == 66
        assert delivery.status is DeliveryStatus.INTERCEPTED

    def test_source_validation_blocks_spoofing(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        plane.enable_source_validation(9)
        spoofed = Packet(src=IPAddress("8.8.8.8"), dst=IPAddress("184.164.224.1"))
        delivery = plane.send(9, spoofed, legitimate_sources={Prefix("9.0.0.0/8")})
        assert delivery.status is DeliveryStatus.SOURCE_FILTERED

    def test_source_validation_explicit_empty_set_filters_everything(self):
        """An explicitly *empty* legitimate_sources set means the ingress
        may source nothing: BCP 38 admits only what is listed, so even a
        truthful source address is SOURCE_FILTERED (same as passing None).
        """
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        plane.enable_source_validation(9)
        packet = Packet(src=IPAddress("9.1.2.3"), dst=IPAddress("184.164.224.1"))
        for sources in (set(), None):
            delivery = plane.send(9, packet, legitimate_sources=sources)
            assert delivery.status is DeliveryStatus.SOURCE_FILTERED
            assert delivery.final_asn == 9

    def test_source_validation_allows_legitimate(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        plane.enable_source_validation(9)
        packet = Packet(src=IPAddress("9.1.2.3"), dst=IPAddress("184.164.224.1"))
        delivery = plane.send(9, packet, legitimate_sources={Prefix("9.0.0.0/8")})
        assert delivery.status is DeliveryStatus.DELIVERED

    def test_ttl_expiry(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        packet = Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1"), ttl=2)
        delivery = plane.send(9, packet)
        assert delivery.status is DeliveryStatus.TTL_EXPIRED

    def test_ttl_expiring_exactly_at_origin_still_delivers(self):
        """TTL is a *transit* budget: the path 9-4-1-3-5 is 4 hops, so
        ttl=4 reaches the origin with TTL 0 and must be DELIVERED — the
        origin check precedes the expiry check (pinned edge semantics)."""
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        packet = Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1"), ttl=4)
        delivery = plane.send(9, packet)
        assert delivery.status is DeliveryStatus.DELIVERED
        assert delivery.path == (9, 4, 1, 3, 5)
        assert delivery.packet.ttl == 0

    def test_ttl_one_short_of_origin_expires(self):
        """...whereas ttl=3 dies at the last transit AS, one hop short."""
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        packet = Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1"), ttl=3)
        delivery = plane.send(9, packet)
        assert delivery.status is DeliveryStatus.TTL_EXPIRED
        assert delivery.final_asn == 3
        assert delivery.path == (9, 4, 1, 3)

    def test_tap_sees_transit_traffic(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        seen = []
        plane.register_tap(1, seen.append)
        plane.send(9, Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1")))
        assert len(seen) == 1

    def test_traceroute(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        plane.install(Prefix("184.164.224.0/24"), outcome, owner=5)
        assert plane.traceroute(9, IPAddress("184.164.224.1"), IPAddress("9.9.9.9")) == [
            9, 4, 1, 3, 5,
        ]

    def test_uninstall(self):
        g = two_origin_world()
        outcome = propagate(g, Announcement.single(5))
        plane = DataPlane(g)
        prefix = Prefix("184.164.224.0/24")
        plane.install(prefix, outcome, owner=5)
        plane.uninstall(prefix)
        delivery = plane.send(9, Packet(src=IPAddress("9.9.9.9"), dst=IPAddress("184.164.224.1")))
        assert delivery.status is DeliveryStatus.BLACKHOLE


# -- differential: the lazy forwarding loop against the per-hop walker -------------------------


class _ReferenceDistributor(FlowSpecDistributor):
    """Enforcement as a linear first-match scan with ``rule.matches`` —
    the classifier ``decide`` compiles its runs from."""

    def decide(self, asn, packet):
        for rule in self.rules_at(asn):
            if rule.matches(packet):
                return self._enforce(asn, rule, packet)
        return None


def _reference_send(plane, ingress_asn, packet):
    """The forwarding loop that builds the hopped packet at every hop
    (``Packet.hop``): what ``DataPlane.send`` must stay observably equal
    to while materialising it only where a tap or the Delivery looks."""
    match = plane._match(packet.dst)
    if match is None:
        return Delivery(DeliveryStatus.BLACKHOLE, packet, (ingress_asn,), ingress_asn)
    prefix, outcome = match
    current = ingress_asn
    path = [current]
    while True:
        tap = plane._taps.get(current)
        if tap is not None:
            tap(packet)
        decision = plane._flowspec.decide(current, packet)
        if decision is not None:
            if decision.verdict is EnforcementVerdict.DROP:
                return Delivery(DeliveryStatus.FLOWSPEC_DROPPED, packet, tuple(path), current)
            if decision.verdict is EnforcementVerdict.RATE_EXCEEDED:
                return Delivery(DeliveryStatus.RATE_LIMITED, packet, tuple(path), current)
            if decision.verdict is EnforcementVerdict.REDIRECT:
                return Delivery(
                    DeliveryStatus.SCRUBBED, packet,
                    tuple(path) + (decision.scrubber,), decision.scrubber,
                )
            packet = packet.mark(decision.dscp)
        route = outcome.route(current)
        if route is None:
            return Delivery(DeliveryStatus.BLACKHOLE, packet, tuple(path), current)
        if route.via is None:
            owner = plane._prefix_owner.get(prefix)
            status = (
                DeliveryStatus.INTERCEPTED
                if owner is not None and current != owner
                else DeliveryStatus.DELIVERED
            )
            return Delivery(status, packet, tuple(path), current)
        if packet.expired:
            return Delivery(DeliveryStatus.TTL_EXPIRED, packet, tuple(path), current)
        packet = packet.hop(current)
        current = route.via
        path.append(current)


WIDE, NARROW = Prefix("184.164.224.0/22"), Prefix("184.164.225.0/24")


def _random_world(rng):
    """A small valley-free graph (providers always lower-numbered, a few
    peerings), WIDE originated by one stub and NARROW by another — with a
    poisoned AS, so some sources blackhole — each installed in a plane."""
    size = rng.randrange(7, 15)
    g = ASGraph()
    for asn in range(1, size + 1):
        g.add_as(ASNode(asn=asn))
    for asn in range(2, size + 1):
        for provider in rng.sample(range(1, asn), min(asn - 1, rng.randrange(1, 3))):
            g.add_provider(asn, provider)
    for _ in range(rng.randrange(3)):
        a, b = rng.sample(range(1, size + 1), 2)
        if b not in g.neighbors(a):
            g.add_peering(a, b)
    wide_origin, narrow_origin, poisoned = rng.sample(range(2, size + 1), 3)
    outcomes = {
        WIDE: propagate(g, Announcement.single(wide_origin, prefix=WIDE)),
        NARROW: propagate(
            g, Announcement.single(narrow_origin, prefix=NARROW, poison=(poisoned,))
        ),
    }
    # NARROW is "owned" by the WIDE origin: landing at its real origin
    # reads INTERCEPTED, like a more-specific hijack.
    return g, outcomes, {WIDE: wide_origin, NARROW: wide_origin}


def _random_rule(rng, origins, scrubbers):
    dst = rng.choice([WIDE, NARROW, Prefix("184.164.225.128/25")])
    action = rng.choice([
        FlowSpecAction.discard(),
        FlowSpecAction.rate_limit(rng.randrange(1, 4)),
        FlowSpecAction.redirect(rng.choice(scrubbers)),
        FlowSpecAction.mark(rng.randrange(64)),
        FlowSpecAction.mark(rng.randrange(64)),
    ])
    return FlowSpecRule(
        dst_prefix=dst,
        originator=origins[NARROW if NARROW.contains(dst) else WIDE],
        action=action,
        src_prefix=rng.choice([None, None, Prefix("9.0.0.0/8"), Prefix("9.9.0.0/16")]),
        protos=rng.choice([(), (), ("udp",), ("tcp", "udp")]),
        dst_ports=rng.choice([(), (), ((53, 53),), ((0, 1023), (8000, 8100))]),
        src_ports=rng.choice([(), (), (), ((1024, 65535),)]),
    )


def _differential_run(seed):
    """One seeded world: both sides sent the same packets; returns the
    delivery statuses reached."""
    rng = random.Random(seed)
    g, outcomes, owners = _random_world(rng)
    asns = sorted(g.asns())
    origins = {
        prefix: next(asn for asn, route in outcome.items() if route.via is None)
        for prefix, outcome in outcomes.items()
    }
    deployers = rng.sample(asns, rng.randrange(1, len(asns) + 1))
    rules = [_random_rule(rng, origins, asns) for _ in range(rng.randrange(2, 9))]
    tapped = rng.sample(asns, rng.randrange(4))

    sides = []
    for distributor_cls in (FlowSpecDistributor, _ReferenceDistributor):
        plane = DataPlane(g)
        for prefix, outcome in outcomes.items():
            plane.install(prefix, outcome, owner=owners[prefix])
        dist = distributor_cls(deployers, resolver_from_outcomes(outcomes))
        installs = [dist.announce(rule) for rule in rules]
        plane.attach_flowspec(dist)
        seen = []
        for asn in tapped:
            plane.register_tap(asn, lambda packet, asn=asn, seen=seen: seen.append((asn, packet)))
        sides.append((plane, dist, seen, installs))
    (plane, dist, seen, installs), (ref_plane, ref_dist, ref_seen, ref_installs) = sides
    assert installs == ref_installs

    statuses = set()
    for burst in range(3):
        for _ in range(40):
            source = rng.choice(asns)
            dst = rng.choice([WIDE, NARROW]).first_address() + rng.randrange(256)
            governing = outcomes[NARROW if NARROW.contains(dst) else WIDE]
            packet = Packet(
                src=IPAddress(rng.choice(["9.9.9.9", "9.1.1.1", "7.7.7.7"])),
                dst=dst,
                # 0 … one more than the path needs (buckets of rate 1-3
                # cross their budget mid-burst either way).
                ttl=rng.randrange(len(governing.forwarding_chain(source)) + 2),
                proto=rng.choice(["udp", "tcp", "icmp"]),
                src_port=rng.choice([None, 80, 40_000]),
                dst_port=rng.choice([None, 53, 443, 8080]),
                trace=rng.choice([(), (64512,)]),
                size=rng.choice([64, 1500]),
            )
            got = plane.send(source, packet)
            want = _reference_send(ref_plane, source, packet)
            # Packet equality covers ttl, trace, dscp and ident alike.
            assert got == want, (seed, source, packet)
            statuses.add(got.status)
        assert seen == ref_seen, seed
        assert dist.rule_counters() == ref_dist.rule_counters(), seed
        assert dist._buckets == ref_dist._buckets, seed
        if burst == 0:
            dist.new_epoch()
            ref_dist.new_epoch()
        else:  # a rule change mid-life must reach the compiled classifier
            gone = rng.choice(rules)
            assert dist.withdraw(gone.originator, gone.dst_prefix) == ref_dist.withdraw(
                gone.originator, gone.dst_prefix
            )
    return statuses


def test_send_equals_per_hop_reference():
    """Random small worlds x rule sets (discard / rate-limit / redirect /
    mark-then-forward; src-prefix, proto and port components; partial
    deployment) x TTLs x taps: Delivery, tap-visible packets, per-rule
    counters and bucket state all equal the per-hop reference's."""
    reached = set()
    for seed in range(60):
        reached |= _differential_run(seed)
    # Only a check if the worlds exercise every way a packet can end.
    assert reached == set(DeliveryStatus) - {DeliveryStatus.SOURCE_FILTERED}
