#!/usr/bin/env python3
"""The §4.2 experiment: emulate Hurricane Electric's backbone with
MinineXt and couple it to PEERING at AMS-IX.

"We emulated the PoP-level global backbone of Hurricane Electric (HE),
using data from Topology Zoo.  We set up a Quagga routing engine for each
of the 24 PoPs, configured each PoP to originate a prefix, and configured
sessions between adjacent PoPs.  We then connected the emulated Amsterdam
PoP to peer at AMS-IX via PEERING ... Routes from AMS-IX propagated
through the emulated HE topology, and MinineXt forwarded routes from
emulated PoPs out to the Internet via AMS-IX."

Run:  python examples/hurricane_electric_emulation.py
"""

from repro.core import Testbed
from repro.emulation import MinineXt, hurricane_electric
from repro.inet.gen import InternetConfig
from repro.net.addr import Prefix

HE_PRIVATE_ASN = 64700  # the emulated HE runs behind a private ASN


def main() -> None:
    print("== Building PEERING and the emulated HE backbone ==")
    testbed = Testbed.build_default(
        InternetConfig(n_ases=800, total_prefixes=80_000, seed=24)
    )
    topology = hurricane_electric()
    emulation = MinineXt.from_zoo(topology, engine=testbed.engine)
    for pop in topology.pops:
        emulation.add_quagga(pop.name, asn=HE_PRIVATE_ASN)
    sessions = emulation.ibgp_adjacent_sessions()
    print(f"{len(topology.pops)} PoPs, {emulation.lsdb.link_count()} links, "
          f"{sessions} iBGP sessions between adjacent PoPs")

    print("\n== Each PoP originates a prefix ==")
    client = testbed.register_client("he-emulation", researcher="§4.2",
                                     prefix_count=8)
    pop_prefixes = {}
    # Slice client /24s into per-PoP /27s (24 PoPs need 3 /24s).
    available = iter(
        sub for prefix in client.prefixes for sub in prefix.subnets(27)
    )
    for pop in topology.pops:
        pop_prefix = next(available)
        pop_prefixes[pop.name] = pop_prefix
        emulation.container(pop.name).service.originate(pop_prefix)
    emulation.converge(duration=300)
    tables = emulation.total_routes()
    print(f"intradomain convergence: every PoP holds "
          f"{min(tables.values())}..{max(tables.values())} routes "
          f"(expect {len(topology.pops)})")

    print("\n== Connecting the emulated AMS PoP to PEERING at AMS-IX ==")
    # The AMS PoP speaks eBGP to the mux through the client's BGP session.
    router = client.attach_bgp("amsterdam01", local_asn=HE_PRIVATE_ASN)
    # Bridge: the client-side router IS the AMS PoP's external face; feed
    # it the PoP prefixes the backbone carries.
    for pop_name, pop_prefix in pop_prefixes.items():
        router.originate(pop_prefix)
    emulation.converge(duration=120)

    announced = [p for p in testbed.announced_prefixes()]
    print(f"PoP prefixes now announced to the Internet via AMS-IX: "
          f"{len(announced)}")
    sample_prefix = pop_prefixes["HKG"]
    outcome = testbed.outcome_for(sample_prefix)
    print(f"e.g. {sample_prefix} (Hong Kong PoP) reaches "
          f"{len(outcome.reachable_asns())} ASes; a sample path: "
          f"{next(iter(outcome.items()))[1].path}")

    # Note: the public ASN on those paths is PEERING's, because the mux
    # strips the emulated domain's private ASN (§3).
    for asn, route in outcome.items():
        assert HE_PRIVATE_ASN not in route.path, "private ASN leaked!"
    print("verified: the private HE ASN never appears on public paths "
          "(mux strips it)")

    print("\n== Routes from AMS-IX propagate INTO the emulated backbone ==")
    amsterdam = testbed.server("amsterdam01")
    some_dest = sorted(amsterdam.neighbor_asns)[0]
    dst_prefix = Prefix("203.0.113.0/24")
    sent = amsterdam.relay_destination("he-emulation", some_dest, dst_prefix)
    print(f"mux relayed {sent} peer route(s) for {dst_prefix} to the client")
    best = router.best_route(dst_prefix)
    print(f"AMS PoP gateway selected: {best.attributes.as_path} via tunnel")

    print(f"\n== Resource footprint ({len(topology.pops)} Quagga routers) ==")
    megabytes = emulation.modeled_memory_bytes() / (1024 * 1024)
    print(f"modeled Quagga memory for the whole emulation: {megabytes:.0f} MB"
          " (the paper ran it in 8 GB on a commodity desktop)")
    print(f"IGP path SEA -> AMS: {' -> '.join(emulation.igp_path('SEA', 'AMS'))}")
    print("done.")


if __name__ == "__main__":
    main()
