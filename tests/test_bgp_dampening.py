"""Route-flap damping (RFC 2439) tests."""


import pytest
from hypothesis import given, strategies as st

from repro.net.addr import Prefix
from repro.bgp.dampening import (
    DampeningConfig,
    PENALTY_WITHDRAWAL,
    RouteFlapDamper,
)

P = Prefix("184.164.224.0/24")


class TestConfig:
    def test_defaults_sane(self):
        config = DampeningConfig()
        assert config.reuse_threshold < config.suppress_threshold
        assert config.penalty_ceiling > config.suppress_threshold

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            DampeningConfig(half_life=0)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DampeningConfig(suppress_threshold=100, reuse_threshold=200)


class TestDamper:
    def test_first_announcement_free(self):
        damper = RouteFlapDamper()
        assert damper.record_announcement("p", P, now=0.0) is False
        assert damper.penalty("p", P, now=0.0) == 0.0

    def test_single_flap_not_suppressed(self):
        damper = RouteFlapDamper()
        damper.record_announcement("p", P, now=0.0)
        assert damper.record_withdrawal("p", P, now=1.0) is False
        assert damper.penalty("p", P, now=1.0) == pytest.approx(PENALTY_WITHDRAWAL)

    def test_repeated_flaps_suppress(self):
        damper = RouteFlapDamper()
        damper.record_announcement("p", P, now=0.0)
        suppressed = False
        t = 1.0
        for _ in range(3):
            suppressed = damper.record_withdrawal("p", P, now=t)
            t += 1
            damper.record_announcement("p", P, now=t)
            t += 1
        assert suppressed or damper.is_suppressed("p", P, now=t)

    def test_penalty_decays(self):
        damper = RouteFlapDamper(DampeningConfig(half_life=900))
        damper.record_announcement("p", P, now=0.0)
        damper.record_withdrawal("p", P, now=0.0)
        assert damper.penalty("p", P, now=900.0) == pytest.approx(
            PENALTY_WITHDRAWAL / 2, rel=1e-6
        )

    def test_reuse_after_decay(self):
        config = DampeningConfig(half_life=10.0, max_suppress_time=120.0)
        damper = RouteFlapDamper(config)
        damper.record_announcement("p", P, now=0.0)
        t = 0.0
        for _ in range(4):
            damper.record_withdrawal("p", P, now=t)
            damper.record_announcement("p", P, now=t + 0.5)
            t += 1.0
        assert damper.is_suppressed("p", P, now=t)
        # After many half-lives the penalty decays below reuse.
        assert not damper.is_suppressed("p", P, now=t + 200.0)

    def test_reuse_time_estimate(self):
        config = DampeningConfig(half_life=10.0)
        damper = RouteFlapDamper(config)
        damper.record_announcement("p", P, now=0.0)
        t = 0.0
        for _ in range(4):
            damper.record_withdrawal("p", P, now=t)
            damper.record_announcement("p", P, now=t)
            t += 0.1
        if damper.is_suppressed("p", P, now=t):
            eta = damper.reuse_time("p", P, now=t)
            assert eta > 0
            assert not damper.is_suppressed("p", P, now=t + eta + 0.01)

    def test_penalty_capped_by_max_suppress(self):
        config = DampeningConfig(half_life=60.0, max_suppress_time=600.0)
        damper = RouteFlapDamper(config)
        damper.record_announcement("p", P, now=0.0)
        for i in range(200):
            damper.record_withdrawal("p", P, now=float(i))
            damper.record_announcement("p", P, now=float(i) + 0.5)
        assert damper.penalty("p", P, now=200.0) <= config.penalty_ceiling
        assert damper.reuse_time("p", P, now=200.0) <= config.max_suppress_time + 1

    def test_keys_are_independent(self):
        damper = RouteFlapDamper()
        other = Prefix("184.164.225.0/24")
        damper.record_announcement("p", P, now=0.0)
        for t in range(6):
            damper.record_withdrawal("p", P, now=float(t))
            damper.record_announcement("p", P, now=t + 0.5)
        assert damper.is_suppressed("p", P, now=6.0)
        assert not damper.is_suppressed("p", other, now=6.0)
        assert not damper.is_suppressed("q", P, now=6.0)

    def test_fully_decayed_entries_forgotten(self):
        config = DampeningConfig(half_life=1.0)
        damper = RouteFlapDamper(config)
        damper.record_announcement("p", P, now=0.0)
        damper.record_withdrawal("p", P, now=0.0)
        assert damper.tracked() == 1
        damper.is_suppressed("p", P, now=100.0)  # triggers refresh + cleanup
        assert damper.tracked() == 0

    def test_flap_count(self):
        damper = RouteFlapDamper()
        damper.record_announcement("p", P, now=0.0)
        damper.record_withdrawal("p", P, now=1.0)
        damper.record_announcement("p", P, now=2.0)
        assert damper.flap_count("p", P) == 2  # withdrawal + re-announce


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30))
def test_penalty_never_negative_and_bounded(gaps):
    config = DampeningConfig(half_life=10.0)
    damper = RouteFlapDamper(config)
    now = 0.0
    damper.record_announcement("p", P, now=now)
    for gap in gaps:
        now += gap
        damper.record_withdrawal("p", P, now=now)
        now += 0.01
        damper.record_announcement("p", P, now=now)
        penalty = damper.penalty("p", P, now=now)
        assert 0 <= penalty <= config.penalty_ceiling + 1e-6
