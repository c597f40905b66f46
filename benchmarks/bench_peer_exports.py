"""§4.2 aside (route-table scale context for Figure 2):

"at AMS-IX, only our 5 largest peers give us more than 10K routes, and
307 give us fewer than 100 routes."

Reproduces the per-peer export-size distribution at the AMS-IX mux and
checks its heavy tail: a handful of large exporters, a long tail of tiny
ones.
"""

from conftest import emit

from repro.inet.analysis import peer_export_sizes


def test_peer_export_distribution(paper_testbed, benchmark):
    exports = benchmark(
        peer_export_sizes, paper_testbed.graph, paper_testbed.asn
    )
    sizes = [count for _asn, count in exports]
    over_10k = sum(1 for s in sizes if s > 10_000)
    under_100 = sum(1 for s in sizes if s < 100)
    median = sorted(sizes)[len(sizes) // 2]

    emit(
        "§4.2: routes exported per AMS-IX peer",
        [
            ["peers", len(sizes)],
            ["peers exporting >10K routes", over_10k, "(paper: 5)"],
            ["peers exporting <100 routes", under_100, "(paper: 307)"],
            ["median export size", median],
            ["largest five", sizes[:5]],
        ],
    )

    # Shape: a handful of big feeds, most peers tiny.
    assert 1 <= over_10k <= 25
    assert under_100 > len(sizes) * 0.5
    assert median < 100
    # Heavy tail: the top feed dwarfs the median.
    assert sizes[0] > 100 * max(1, median)


def test_export_sizes_sum_close_to_reach(paper_testbed, benchmark):
    """Per-peer sizes overlap (shared cones) so their union (reachable
    prefixes) is far below their sum — the reason adding the Nth peer
    adds little new reach."""
    from repro.inet.analysis import peer_reachability

    reach = benchmark(peer_reachability, paper_testbed.graph, paper_testbed.asn)
    total = sum(reach.per_peer_prefixes.values())
    emit(
        "§4.2 (extension): cone overlap",
        [
            ["sum of per-peer exports", total],
            ["union (reachable)", reach.reachable_prefixes],
            ["overlap factor", f"{total / max(1, reach.reachable_prefixes):.2f}"],
        ],
    )
    assert total > reach.reachable_prefixes
