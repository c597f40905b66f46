"""Unit and property tests for repro.net.addr."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import AddressError, IPAddress, Prefix, parse_prefix


class TestIPAddressParsing:
    def test_parse_v4(self):
        addr = IPAddress("192.0.2.1")
        assert addr.version == 4
        assert addr.value == 0xC0000201
        assert str(addr) == "192.0.2.1"

    def test_parse_v4_zero(self):
        assert IPAddress("0.0.0.0").value == 0

    def test_parse_v4_max(self):
        assert IPAddress("255.255.255.255").value == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "a.b.c.d", "1..2.3"]
    )
    def test_parse_v4_invalid(self, bad):
        with pytest.raises(AddressError):
            IPAddress(bad)

    def test_parse_v6_full(self):
        addr = IPAddress("2001:db8:0:0:0:0:0:1")
        assert addr.version == 6
        assert str(addr) == "2001:db8::1"

    def test_parse_v6_compressed(self):
        assert IPAddress("2001:db8::1").value == 0x20010DB8000000000000000000000001

    def test_parse_v6_all_zero(self):
        assert str(IPAddress("::")) == "::"

    @pytest.mark.parametrize("bad", ["::1::2", "1:2:3", "2001:db8::g", "1:2:3:4:5:6:7:8:9"])
    def test_parse_v6_invalid(self, bad):
        with pytest.raises(AddressError):
            IPAddress(bad)

    def test_out_of_range_int(self):
        with pytest.raises(AddressError):
            IPAddress(1 << 32, 4)
        with pytest.raises(AddressError):
            IPAddress(-1, 4)

    def test_copy_constructor(self):
        a = IPAddress("10.0.0.1")
        assert IPAddress(a) == a


class TestIPAddressOps:
    def test_arithmetic(self):
        assert IPAddress("10.0.0.1") + 1 == IPAddress("10.0.0.2")
        assert IPAddress("10.0.0.2") - 1 == IPAddress("10.0.0.1")
        assert IPAddress("10.0.0.2") - IPAddress("10.0.0.1") == 1

    def test_ordering(self):
        assert IPAddress("10.0.0.1") < IPAddress("10.0.0.2")
        assert IPAddress("9.255.255.255") < IPAddress("10.0.0.0")

    def test_packed_roundtrip_v4(self):
        addr = IPAddress("203.0.113.77")
        assert IPAddress.from_packed(addr.packed()) == addr
        assert len(addr.packed()) == 4

    def test_packed_roundtrip_v6(self):
        addr = IPAddress("2001:db8::42")
        assert IPAddress.from_packed(addr.packed()) == addr
        assert len(addr.packed()) == 16

    def test_bad_packed_length(self):
        with pytest.raises(AddressError):
            IPAddress.from_packed(b"\x01\x02\x03")

    def test_hashable(self):
        assert len({IPAddress("10.0.0.1"), IPAddress("10.0.0.1")}) == 1


class TestPrefix:
    def test_parse(self):
        p = Prefix("192.0.2.0/24")
        assert p.length == 24
        assert str(p) == "192.0.2.0/24"

    def test_strict_host_bits(self):
        with pytest.raises(AddressError):
            Prefix("192.0.2.1/24")

    def test_nonstrict_masks(self):
        p = Prefix("192.0.2.99/24", strict=False)
        assert p.address == IPAddress("192.0.2.0")

    def test_contains_address(self):
        p = Prefix("10.0.0.0/8")
        assert IPAddress("10.255.1.1") in p
        assert IPAddress("11.0.0.0") not in p

    def test_contains_prefix(self):
        assert Prefix("10.0.0.0/8").contains(Prefix("10.1.0.0/16"))
        assert not Prefix("10.1.0.0/16").contains(Prefix("10.0.0.0/8"))
        assert Prefix("10.0.0.0/8").contains(Prefix("10.0.0.0/8"))

    def test_overlaps(self):
        assert Prefix("10.0.0.0/8").overlaps(Prefix("10.2.0.0/16"))
        assert not Prefix("10.0.0.0/8").overlaps(Prefix("11.0.0.0/8"))

    def test_subnets(self):
        halves = list(Prefix("10.0.0.0/8").subnets())
        assert halves == [Prefix("10.0.0.0/9"), Prefix("10.128.0.0/9")]

    def test_subnets_deeper(self):
        subs = list(Prefix("184.164.224.0/19").subnets(24))
        assert len(subs) == 32
        assert subs[0] == Prefix("184.164.224.0/24")
        assert subs[-1] == Prefix("184.164.255.0/24")

    def test_subnet_invalid(self):
        with pytest.raises(AddressError):
            list(Prefix("10.0.0.0/24").subnets(8))

    def test_supernet(self):
        assert Prefix("10.1.0.0/16").supernet(8) == Prefix("10.0.0.0/8")

    def test_num_addresses(self):
        assert Prefix("192.0.2.0/24").num_addresses() == 256

    def test_first_last(self):
        p = Prefix("192.0.2.0/24")
        assert p.first_address() == IPAddress("192.0.2.0")
        assert p.last_address() == IPAddress("192.0.2.255")

    def test_default_route(self):
        p = Prefix("0.0.0.0/0")
        assert p.contains(Prefix("10.0.0.0/8"))
        assert p.num_addresses() == 1 << 32

    def test_ordering(self):
        assert Prefix("10.0.0.0/8") < Prefix("10.0.0.0/16")
        assert Prefix("10.0.0.0/8") < Prefix("11.0.0.0/8")

    def test_parse_prefix_bare_address(self):
        p = parse_prefix("192.0.2.1")
        assert p.length == 32

    def test_v6_prefix(self):
        p = Prefix("2001:db8::/32")
        assert p.contains(Prefix("2001:db8:1::/48"))

    def test_version_mismatch_contains(self):
        assert not Prefix("10.0.0.0/8").contains(Prefix("2001:db8::/32"))


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_v4_text_roundtrip(value):
    addr = IPAddress(value, 4)
    assert IPAddress(str(addr)) == addr


@given(st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_v6_text_roundtrip(value):
    addr = IPAddress(value, 6)
    assert IPAddress(str(addr)) == addr


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)
def test_prefix_contains_own_addresses(value, length):
    p = Prefix(IPAddress(value, 4), length, strict=False)
    assert p.contains(p.first_address())
    assert p.contains(p.last_address())
    assert p.contains(p)


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=1, max_value=32),
)
def test_supernet_contains_subnet(value, length):
    p = Prefix(IPAddress(value, 4), length, strict=False)
    assert p.supernet().contains(p)
