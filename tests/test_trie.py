"""Unit and property tests for the radix trie."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPAddress, Prefix
from repro.net.trie import PrefixTrie


@pytest.fixture
def trie():
    t = PrefixTrie()
    t[Prefix("10.0.0.0/8")] = "big"
    t[Prefix("10.1.0.0/16")] = "mid"
    t[Prefix("10.1.2.0/24")] = "small"
    t[Prefix("192.0.2.0/24")] = "doc"
    return t


class TestBasicOps:
    def test_exact_get(self, trie):
        assert trie[Prefix("10.1.0.0/16")] == "mid"

    def test_get_missing(self, trie):
        assert trie.get(Prefix("10.2.0.0/16")) is None
        with pytest.raises(KeyError):
            trie[Prefix("10.2.0.0/16")]

    def test_contains(self, trie):
        assert Prefix("10.0.0.0/8") in trie
        assert Prefix("10.0.0.0/9") not in trie

    def test_len(self, trie):
        assert len(trie) == 4

    def test_replace_does_not_grow(self, trie):
        trie[Prefix("10.0.0.0/8")] = "new"
        assert len(trie) == 4
        assert trie[Prefix("10.0.0.0/8")] == "new"

    def test_remove(self, trie):
        assert trie.remove(Prefix("10.1.0.0/16")) == "mid"
        assert len(trie) == 3
        assert Prefix("10.1.0.0/16") not in trie
        # Other routes unaffected.
        assert trie[Prefix("10.1.2.0/24")] == "small"

    def test_remove_missing(self, trie):
        with pytest.raises(KeyError):
            trie.remove(Prefix("172.16.0.0/12"))

    def test_version_mismatch(self, trie):
        with pytest.raises(ValueError):
            trie.insert(Prefix("2001:db8::/32"), "v6")

    def test_default_route(self):
        t = PrefixTrie()
        t[Prefix("0.0.0.0/0")] = "default"
        assert t.lookup(IPAddress("8.8.8.8")) == (Prefix("0.0.0.0/0"), "default")


class TestLookup:
    def test_lpm_most_specific_wins(self, trie):
        prefix, value = trie.lookup(IPAddress("10.1.2.3"))
        assert value == "small"
        assert prefix == Prefix("10.1.2.0/24")

    def test_lpm_falls_back(self, trie):
        assert trie.lookup(IPAddress("10.1.3.1"))[1] == "mid"
        assert trie.lookup(IPAddress("10.9.9.9"))[1] == "big"

    def test_lpm_miss(self, trie):
        assert trie.lookup(IPAddress("11.0.0.1")) is None

    def test_lookup_prefix_target(self, trie):
        assert trie.lookup(Prefix("10.1.2.0/25"))[1] == "small"


class TestCoveringCovered:
    def test_covering(self, trie):
        found = list(trie.covering(Prefix("10.1.2.0/24")))
        assert [v for _, v in found] == ["big", "mid", "small"]

    def test_covered(self, trie):
        found = dict(trie.covered(Prefix("10.0.0.0/8")))
        assert set(found.values()) == {"big", "mid", "small"}

    def test_covered_excludes_outside(self, trie):
        found = dict(trie.covered(Prefix("192.0.0.0/8")))
        assert set(found.values()) == {"doc"}

    def test_items_sorted(self, trie):
        keys = list(trie.keys())
        assert keys == sorted(keys)


class TestFirstFree:
    def test_allocates_in_order(self):
        t = PrefixTrie()
        pool = Prefix("184.164.224.0/19")
        first = t.first_free(pool, 24)
        assert first == Prefix("184.164.224.0/24")
        t[first] = "alloc"
        second = t.first_free(pool, 24)
        assert second == Prefix("184.164.225.0/24")

    def test_skips_covering_allocation(self):
        t = PrefixTrie()
        pool = Prefix("10.0.0.0/8")
        t[Prefix("10.0.0.0/9")] = "half"
        free = t.first_free(pool, 10)
        assert free == Prefix("10.128.0.0/10")

    def test_exhaustion(self):
        t = PrefixTrie()
        pool = Prefix("192.0.2.0/30")
        for sub in pool.subnets(32):
            assert t.first_free(pool, 32) == sub
            t[sub] = True
        assert t.first_free(pool, 32) is None

    def test_invalid_length(self):
        t = PrefixTrie()
        with pytest.raises(ValueError):
            t.first_free(Prefix("10.0.0.0/24"), 8)


prefixes = st.builds(
    lambda v, l: Prefix(IPAddress(v, 4), l, strict=False),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


@given(st.lists(prefixes, max_size=40), prefixes)
def test_lookup_matches_linear_scan(entries, target):
    """LPM result must equal the longest entry that contains the target."""
    trie = PrefixTrie()
    for i, p in enumerate(entries):
        trie[p] = i
    result = trie.lookup(target.address)
    expected = None
    store = {}
    for i, p in enumerate(entries):
        store[p] = i  # later duplicates replace earlier, like the trie
    for p, i in store.items():
        if p.contains(target.address):
            if expected is None or p.length > expected[0].length:
                expected = (p, i)
    assert result == expected


@given(st.lists(prefixes, unique=True, max_size=40))
def test_insert_remove_roundtrip(entries):
    trie = PrefixTrie()
    for i, p in enumerate(entries):
        trie[p] = i
    assert len(trie) == len(entries)
    assert sorted(trie.keys()) == sorted(entries)
    for p in entries:
        del trie[p]
    assert len(trie) == 0
    assert list(trie.items()) == []


@pytest.mark.parametrize("version", [4, 6])
@pytest.mark.parametrize("seed", range(8))
def test_lookup_returns_the_stored_key(version, seed):
    """Across insert / replace / remove interleavings, looking an address
    up gives the very ``Prefix`` object last inserted for the winning
    entry — the same answer as the last of ``covering`` on its host
    prefix — and ``remove`` forgets the key with the value."""
    rng = random.Random(seed * 2 + version)
    bits = 32 if version == 4 else 128
    # A few networks nested inside each other, so lookups see real LPM.
    base = rng.getrandbits(bits)
    pool = [
        (base ^ (rng.getrandbits(bits) >> rng.randrange(4, bits)), rng.randrange(bits + 1))
        for _ in range(24)
    ]

    def fresh(i):
        value, length = pool[i]
        return Prefix(IPAddress(value, version), length, strict=False)

    trie = PrefixTrie(version)
    model = {}  # prefix -> (key object, value)
    for step in range(300):
        i = rng.randrange(len(pool))
        key = fresh(i)  # equal to, never identical with, an earlier key
        if key in model and rng.random() < 0.4:
            assert trie.remove(key) == model.pop(key)[1]
        else:
            trie.insert(key, step)  # insert, or replace under a new key object
            model[key] = (key, step)
        assert len(trie) == len(model)

        value, _ = pool[rng.randrange(len(pool))]
        addr = IPAddress(value ^ rng.getrandbits(3), version)
        covering = [p for p in model if p.contains(addr)]
        hit = trie.lookup(addr)
        chain = list(trie.covering(Prefix(addr, bits)))
        if not covering:
            assert hit is None and chain == []
            continue
        stored, expected = model[max(covering, key=lambda p: p.length)]
        assert hit[0] is stored and hit[1] == expected
        assert chain[-1][0] is stored and chain[-1][1] == expected
        assert [p for p, _ in chain] == sorted(covering, key=lambda p: p.length)
    assert all(k is model[k][0] for k in trie.keys())


def test_lookup_address_of_other_family_raises():
    v4 = PrefixTrie(4)
    v4[Prefix("0.0.0.0/0")] = "default"
    with pytest.raises(ValueError):
        v4.lookup(IPAddress("2001:db8::1"))
    with pytest.raises(ValueError):
        PrefixTrie(6).lookup(IPAddress("10.0.0.1"))
