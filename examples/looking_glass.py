#!/usr/bin/env python3
"""Looking glass + telemetry walkthrough: observe the testbed like an
operator.

The paper's operators need to watch what every experiment announces and
where it propagates (§4).  This example stands up an observed testbed,
runs a small steering experiment, and then asks the operator questions:

1. ``testbed.observe()`` installs the collector — metrics registry,
   tracer on the control path, BMP-style route monitor on every mux;
2. a client announces with steering (selective peers, prepend, poison);
3. the looking glass answers "who originates this prefix, and what does
   the Internet see?" from the converged and monitored state;
4. the trace of the announcement renders as a causal span tree;
5. the registry exports a Prometheus-style metrics snapshot.

Run:  PYTHONPATH=src python examples/looking_glass.py
"""

from itertools import islice

from repro.core import Testbed
from repro.inet.gen import InternetConfig


def main() -> None:
    print("== Building and observing the testbed ==")
    testbed = Testbed.build_default(
        InternetConfig(n_ases=600, total_prefixes=40_000, seed=23)
    )
    collector = testbed.observe()
    print(f"collector live: {collector.stats()}\n")

    print("== A steered announcement ==")
    client = testbed.register_client("lg-demo", researcher="you")
    client.attach("gatech01")
    client.attach("amsterdam01")
    prefix = client.prefixes[0]
    gatech_peers = sorted(testbed.server("gatech01").neighbor_asns)
    client.announce(prefix, servers=["gatech01"],
                    peers=gatech_peers[:2], prepend=1)
    client.announce(prefix, servers=["amsterdam01"])
    testbed._flush_dirty()
    print(f"announced {prefix}: gatech01 limited to peers "
          f"{gatech_peers[:2]} with prepend 1, amsterdam01 to all peers\n")

    print("== Looking glass: the operator's view ==")
    glass = collector.glass
    vantages = [asn for asn in glass.neighbors("washington01")[:2]]
    print(glass.render(prefix, vantages=vantages))
    communities = glass.communities(prefix)
    for server in sorted(communities):
        print(f"  {server} post-policy communities: "
              f"{', '.join(communities[server]) or '(none)'}")
    print()

    print("== The announcement as a span tree ==")
    # The deferred convergence joins the trace of the announce that last
    # dirtied the prefix — the amsterdam01 one here.
    root = collector.tracer.find("client.announce")[-1]
    print(collector.tracer.render(root.trace_id))
    print()

    print("== BMP-style route monitoring stream (first 5 messages) ==")
    for message in islice(collector.monitor.messages, 5):
        print(f"  {message}")
    print()

    print("== Metrics snapshot (Prometheus text format) ==")
    # peering_propagation_seconds measures wall-clock compute time — the
    # one intentionally non-deterministic family; everything else in the
    # snapshot is identical run to run.
    print("\n".join(
        line
        for line in collector.export_metrics().splitlines()
        if not line.startswith("peering_propagation_seconds")
    ))


if __name__ == "__main__":
    main()
