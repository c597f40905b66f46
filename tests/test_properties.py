"""Cross-cutting property-based tests on core invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.attributes import ASPath, Origin, PathAttributes
from repro.bgp.decision import best_path
from repro.bgp.errors import BGPError
from repro.bgp.messages import MARKER, decode
from repro.bgp.rib import Route
from repro.net.addr import IPAddress, Prefix

PREFIX = Prefix("184.164.224.0/24")


# --- decision process is a deterministic total order -------------------------

route_strategy = st.builds(
    lambda path, lp, med, origin, ebgp, weight, metric, t, peer: Route(
        prefix=PREFIX,
        attributes=PathAttributes(
            origin=Origin(origin),
            as_path=ASPath.from_asns(path),
            next_hop=IPAddress("10.0.0.1"),
            med=med,
            local_pref=lp,
        ),
        peer_asn=path[0] if path else None,
        peer_id=f"peer-{peer}",
        ebgp=ebgp,
        weight=weight,
        igp_metric=metric,
        learned_at=float(t),
    ),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=7),
)


def _unique_peers(routes):
    """A RIB never holds two routes with the same (peer, path id); give
    each generated candidate a distinct peer identity."""
    from dataclasses import replace

    return [replace(r, peer_id=f"peer-{i}") for i, r in enumerate(routes)]


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(route_strategy, min_size=1, max_size=8))
def test_best_path_is_order_insensitive(routes):
    """The ranking must not depend on input order (no oscillation)."""
    routes = _unique_peers(routes)
    forward = best_path(routes)
    backward = best_path(list(reversed(routes)))
    assert forward == backward


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(route_strategy, min_size=2, max_size=8))
def test_best_path_prefix_stability(routes):
    """Removing a losing route never changes the winner (independence of
    irrelevant alternatives for the deterministic ladder)."""
    routes = _unique_peers(routes)
    ranked = best_path(routes)
    winner = ranked[0]
    without_loser = [r for r in routes if r is not ranked[-1]] or [winner]
    assert best_path(without_loser)[0] == winner


# --- codec robustness -----------------------------------------------------------

@settings(max_examples=300)
@given(st.binary(min_size=0, max_size=64))
def test_decode_never_crashes_on_garbage(data):
    """Arbitrary bytes must produce a BGPError, never an unhandled crash."""
    try:
        decode(data)
    except BGPError:
        pass


@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=64), st.integers(min_value=1, max_value=5))
def test_decode_never_crashes_on_corrupted_header(data, kind):
    """A valid marker with garbage body must also fail cleanly."""
    body = MARKER + (19 + len(data)).to_bytes(2, "big") + bytes([kind]) + data
    try:
        decode(body)
    except BGPError:
        pass


@settings(max_examples=100)
@given(st.binary(min_size=19, max_size=96))
def test_decode_with_flipped_bytes(data):
    """Take a real KEEPALIVE/NOTIFICATION frame and flip bytes."""
    from repro.bgp.messages import NotificationMessage

    raw = bytearray(NotificationMessage(6, 2, b"x" * 16).encode())
    for i, b in enumerate(data[: len(raw)]):
        raw[i % len(raw)] ^= b
    try:
        decode(bytes(raw))
    except BGPError:
        pass


# --- prefix trie vs naive dict ---------------------------------------------------

@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=8, max_value=32),
        ),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_trie_covering_matches_bruteforce(entries, probe_value):
    from repro.net.trie import PrefixTrie

    trie = PrefixTrie()
    prefixes = []
    for value, length in entries:
        prefix = Prefix(IPAddress(value, 4), length, strict=False)
        trie[prefix] = str(prefix)
        prefixes.append(prefix)
    probe = Prefix(IPAddress(probe_value, 4), 32)
    covering = [p for p, _ in trie.covering(probe)]
    brute = sorted(
        {p for p in prefixes if p.contains(probe)}, key=lambda p: p.length
    )
    assert covering == brute
