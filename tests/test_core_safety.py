"""Safety-enforcement tests: the hijack/leak/flap/spoof gauntlet."""


from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet
from repro.bgp.attributes import ASPath
from repro.bgp.dampening import DampeningConfig
from repro.core.safety import SafetyConfig, SafetyEnforcer, SafetyVerdict

ALLOCATED = Prefix("184.164.224.0/24")


def check(enforcer, prefix, path=ASPath(), testbed_space=True, now=0.0, client="exp1"):
    return enforcer.check_announcement(
        client,
        prefix,
        path,
        allocated={ALLOCATED},
        testbed_space=testbed_space,
        now=now,
    )


class TestPrefixFilters:
    def test_allocated_prefix_allowed(self):
        enforcer = SafetyEnforcer()
        assert check(enforcer, ALLOCATED).allowed

    def test_more_specific_of_allocation_allowed(self):
        enforcer = SafetyEnforcer()
        assert check(enforcer, Prefix("184.164.224.0/25")).allowed

    def test_hijack_of_external_space_blocked(self):
        enforcer = SafetyEnforcer()
        decision = check(enforcer, Prefix("8.8.8.0/24"), testbed_space=False)
        assert decision.verdict is SafetyVerdict.PREFIX_OUTSIDE_TESTBED

    def test_unallocated_testbed_prefix_blocked(self):
        """Isolation: another experiment's prefix is off-limits."""
        enforcer = SafetyEnforcer()
        decision = check(enforcer, Prefix("184.164.225.0/24"))
        assert decision.verdict is SafetyVerdict.PREFIX_NOT_ALLOCATED

    def test_covering_announcement_blocked(self):
        """Announcing the whole /19 would leak others' space."""
        enforcer = SafetyEnforcer()
        decision = check(enforcer, Prefix("184.164.224.0/20"))
        assert decision.verdict is SafetyVerdict.PREFIX_TOO_COARSE


class TestOriginFilters:
    def test_private_asn_path_allowed_and_stripped(self):
        enforcer = SafetyEnforcer()
        decision = check(enforcer, ALLOCATED, path=ASPath.from_asns([64512, 64513]))
        assert decision.allowed
        assert decision.stripped_path.asns() == ()

    def test_public_origin_is_leak(self):
        enforcer = SafetyEnforcer()
        decision = check(enforcer, ALLOCATED, path=ASPath.from_asns([64512, 3356]))
        assert decision.verdict is SafetyVerdict.ROUTE_LEAK

    def test_public_transit_asn_rejected(self):
        enforcer = SafetyEnforcer()
        decision = check(enforcer, ALLOCATED, path=ASPath.from_asns([3356, 64512]))
        assert decision.verdict is SafetyVerdict.BAD_ORIGIN


class TestRateLimitAndDamping:
    def test_rate_limit(self):
        enforcer = SafetyEnforcer(SafetyConfig(max_announcements_per_window=3))
        verdicts = [
            check(enforcer, ALLOCATED, now=float(i) * 0.1).verdict for i in range(5)
        ]
        assert SafetyVerdict.RATE_LIMITED in verdicts

    def test_rate_limit_window_resets(self):
        enforcer = SafetyEnforcer(
            SafetyConfig(max_announcements_per_window=2, window_seconds=10)
        )
        assert check(enforcer, ALLOCATED, now=0.0).allowed
        assert check(enforcer, ALLOCATED, now=1.0).allowed
        assert not check(enforcer, ALLOCATED, now=2.0).allowed
        assert check(enforcer, ALLOCATED, now=15.0).allowed

    def test_rate_limit_per_client(self):
        enforcer = SafetyEnforcer(SafetyConfig(max_announcements_per_window=1))
        assert check(enforcer, ALLOCATED, client="a").allowed
        assert check(enforcer, ALLOCATED, client="b").allowed

    def test_flap_storm_damped(self):
        enforcer = SafetyEnforcer(
            SafetyConfig(
                max_announcements_per_window=1000,
                dampening=DampeningConfig(half_life=60.0),
            )
        )
        now = 0.0
        verdicts = []
        for _ in range(6):
            verdicts.append(check(enforcer, ALLOCATED, now=now).verdict)
            enforcer.check_withdrawal("exp1", ALLOCATED, now + 0.5)
            now += 1.0
        assert SafetyVerdict.DAMPED in verdicts

    def test_damping_recovers(self):
        enforcer = SafetyEnforcer(
            SafetyConfig(
                max_announcements_per_window=1000,
                dampening=DampeningConfig(half_life=5.0, max_suppress_time=60.0),
            )
        )
        now = 0.0
        for _ in range(6):
            check(enforcer, ALLOCATED, now=now)
            enforcer.check_withdrawal("exp1", ALLOCATED, now + 0.4)
            now += 0.8
        assert check(enforcer, ALLOCATED, now=now + 300.0).allowed


class TestSpoofing:
    def test_legitimate_source_allowed(self):
        enforcer = SafetyEnforcer()
        packet = Packet(src=IPAddress("184.164.224.5"), dst=IPAddress("8.8.8.8"))
        assert enforcer.check_packet("exp1", packet, {ALLOCATED}).allowed

    def test_spoofed_source_blocked(self):
        enforcer = SafetyEnforcer()
        packet = Packet(src=IPAddress("8.8.4.4"), dst=IPAddress("8.8.8.8"))
        decision = enforcer.check_packet("exp1", packet, {ALLOCATED})
        assert decision.verdict is SafetyVerdict.SPOOFED_SOURCE

    def test_waiver_allows_controlled_spoofing(self):
        enforcer = SafetyEnforcer(SafetyConfig(allow_spoofing_for=frozenset({"exp1"})))
        packet = Packet(src=IPAddress("8.8.4.4"), dst=IPAddress("8.8.8.8"))
        assert enforcer.check_packet("exp1", packet, {ALLOCATED}).allowed
        assert not enforcer.check_packet("exp2", packet, {ALLOCATED}).allowed


class TestAudit:
    def test_audit_log_records_decisions(self):
        enforcer = SafetyEnforcer()
        check(enforcer, ALLOCATED)
        check(enforcer, Prefix("8.8.8.0/24"), testbed_space=False)
        assert len(enforcer.audit_log) == 2
        assert enforcer.blocked_count() == 1

    def test_decisions_for_client(self):
        enforcer = SafetyEnforcer()
        check(enforcer, ALLOCATED, client="a")
        check(enforcer, ALLOCATED, client="b")
        assert len(enforcer.decisions_for("a")) == 1
