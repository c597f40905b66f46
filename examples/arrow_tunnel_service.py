#!/usr/bin/env python3
"""An ARROW-style deployed service on PEERING servers.

ARROW ("One Tunnel is (Often) Enough", SIGCOMM 2014, [42] in the paper)
demonstrated an incrementally deployable answer to black holes, DoS, and
prefix hijacking: a provider sells a *tunnel* into a healthy part of the
Internet, bypassing a broken segment.  The paper notes ARROW built its
real-world prototype on an early version of PEERING.

This example deploys the service with the server-side packet-processing
API (§3 "Deploying real services"):

1. a customer AS suffers a black hole: the transit AS on its path to a
   destination silently drops traffic;
2. the customer buys an ARROW tunnel: its traffic is steered to a
   PEERING prefix (the tunnel ingress at the Amsterdam server);
3. a pipeline rule at the server rewrites tunneled packets to their true
   destination and re-injects them from PEERING's AS — whose own routes
   avoid the broken transit;
4. end-to-end connectivity is restored without the customer's provider
   fixing anything.

Run:  python examples/arrow_tunnel_service.py
"""

from repro.core import Action, Match, Rule, ServiceHost, Testbed
from repro.inet.gen import InternetConfig
from repro.inet.routing import Announcement, propagate
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet


def main() -> None:
    testbed = Testbed.build_default(
        InternetConfig(n_ases=1200, total_prefixes=120_000, seed=2014)
    )
    graph = testbed.graph

    # The ARROW operator is a PEERING experiment with a public ingress.
    operator = testbed.register_client("arrow", researcher="peter-et-al")
    ingress_prefix = operator.prefixes[0]
    operator.attach("amsterdam01")
    operator.attach("gatech01")
    operator.announce(ingress_prefix)
    ingress_ip = ingress_prefix.first_address() + 1
    print(f"ARROW ingress live at {ingress_ip} (anycast from 2 sites)")

    # A destination service somewhere on the Internet.
    dest_asn = next(
        n.asn for n in graph.nodes() if n.kind.value == "content"
    )
    dst_prefix = Prefix("203.0.113.0/24")
    testbed.dataplane.install(
        dst_prefix, propagate(graph, Announcement.single(dest_asn)), owner=dest_asn
    )
    target = dst_prefix.first_address() + 80

    # The customer: an access AS whose path to the destination crosses a
    # transit we will break.
    customer_asn = next(
        n.asn
        for n in graph.nodes()
        if n.kind.value == "access"
        and len(testbed.dataplane.send(
            n.asn, Packet(src=IPAddress("198.18.0.1"), dst=target)
        ).path) >= 4
    )
    baseline = testbed.dataplane.send(
        customer_asn, Packet(src=IPAddress("198.18.0.1"), dst=target)
    )
    broken_transit = baseline.path[1]
    print(f"customer AS{customer_asn} -> {target}: path "
          f"{' -> '.join(map(str, baseline.path))}")

    # Black hole: the transit drops traffic for the destination prefix.
    # (Control plane still points through it, the LIFEGUARD scenario.)
    class BlackholingOutcome:
        def __init__(self, outcome, victim):
            self._outcome, self._victim = outcome, victim

        def route(self, asn):
            if asn == self._victim:
                return None  # drops everything for this prefix
            return self._outcome.route(asn)

    original = testbed.dataplane._outcomes[dst_prefix]
    testbed.dataplane._outcomes[dst_prefix] = BlackholingOutcome(
        original, broken_transit
    )
    broken = testbed.dataplane.send(
        customer_asn, Packet(src=IPAddress("198.18.0.1"), dst=target)
    )
    print(f"\n*** AS{broken_transit} blackholes {dst_prefix}: "
          f"customer delivery = {broken.status.value} ***")

    # The ARROW service: a pipeline rule at the PEERING servers rewrites
    # tunnel traffic (dst = ingress) to the true destination and lets
    # PEERING's own (healthy) routes carry it.
    host = ServiceHost(testbed.server("amsterdam01"))
    host.pipeline.add_rule(
        Rule(
            "arrow-decap",
            Match(dst=Prefix(str(ingress_ip), 32)),
            Action.REWRITE,
            rewrite_dst=target,
        )
    )

    # Customer sends via the tunnel: traffic to the ARROW ingress...
    tunneled = testbed.dataplane.send(
        customer_asn, Packet(src=IPAddress("198.18.0.1"), dst=ingress_ip,
                             payload={"inner-dst": str(target)})
    )
    print(f"\ncustomer -> ARROW ingress: {tunneled.status.value} along "
          f"{' -> '.join(map(str, tunneled.path))}")
    # The tunnel leg may even cross the broken AS: the hole only swallows
    # traffic addressed to the destination prefix, and tunneled packets
    # are addressed to the ARROW ingress.
    assert tunneled.final_asn == testbed.asn

    # ...which the server rewrites and re-injects from PEERING.
    verdict, rewritten = host.process(tunneled.packet)
    assert rewritten is not None and rewritten.dst == target
    second_leg = testbed.dataplane.send(testbed.asn, rewritten)
    print(f"ARROW -> destination: {second_leg.status.value} along "
          f"{' -> '.join(map(str, second_leg.path))}")

    restored = (
        tunneled.status.value == "delivered"
        and second_leg.status.value == "delivered"
        and broken_transit not in second_leg.path
    )
    print(f"\nend-to-end restored avoiding AS{broken_transit}: {restored}")
    assert restored
    print("done.")


if __name__ == "__main__":
    main()
