"""§4.2 "Scalable intradomain emulation" — the Hurricane Electric run.

Reproduces the experiment end to end: 24 Quagga PoPs from Topology Zoo,
iBGP sessions between adjacent PoPs, one prefix originated per PoP, the
Amsterdam PoP coupled to the AMS-IX mux; routes flow both directions.
Also reports the modeled memory footprint ("ran on a commodity desktop
using 8GB RAM").
"""

from conftest import emit

from repro.core import Testbed
from repro.emulation import MinineXt, QuaggaMemoryModel, hurricane_electric
from repro.inet.gen import InternetConfig
from repro.net.addr import Prefix

HE_ASN = 64700


def build_emulation(engine=None):
    topology = hurricane_electric()
    emulation = MinineXt.from_zoo(topology, engine=engine)
    for pop in topology.pops:
        emulation.add_quagga(pop.name, asn=HE_ASN)
    emulation.ibgp_adjacent_sessions()
    for i, pop in enumerate(topology.pops):
        emulation.container(pop.name).service.originate(
            Prefix(f"216.218.{i}.0/24")
        )
    emulation.converge(duration=600)
    return topology, emulation


def test_he_backbone_convergence(benchmark):
    topology, emulation = benchmark.pedantic(
        build_emulation, rounds=1, iterations=1
    )
    tables = emulation.total_routes()
    emit(
        "§4.2: HE backbone emulation",
        [
            ["PoPs", len(topology.pops), "(paper: 24)"],
            ["links", emulation.lsdb.link_count()],
            ["routes per PoP", f"{min(tables.values())}..{max(tables.values())}"],
        ],
    )
    assert len(topology.pops) == 24
    assert all(count == 24 for count in tables.values())


def test_he_coupled_to_amsix(benchmark):
    """Routes from AMS-IX propagate through the emulated HE topology and
    PoP prefixes flow out to the Internet."""
    testbed = benchmark.pedantic(
        Testbed.build_default,
        args=(InternetConfig(n_ases=1000, total_prefixes=100_000, seed=4),),
        rounds=1,
        iterations=1,
    )
    topology = hurricane_electric()
    emulation = MinineXt.from_zoo(topology, engine=testbed.engine)
    for pop in topology.pops:
        emulation.add_quagga(pop.name, asn=HE_ASN)
    emulation.ibgp_adjacent_sessions()

    client = testbed.register_client("he", researcher="bench", prefix_count=8)
    gateway = client.attach_bgp("amsterdam01", local_asn=HE_ASN)
    pop_prefixes = {}
    available = iter(
        sub for prefix in client.prefixes for sub in prefix.subnets(27)
    )
    for pop in topology.pops:
        pop_prefix = next(available)
        pop_prefixes[pop.name] = pop_prefix
        emulation.container(pop.name).service.originate(pop_prefix)
        gateway.originate(pop_prefix)
    emulation.converge(duration=600)

    announced = set(testbed.announced_prefixes())
    outward = sum(1 for p in pop_prefixes.values() if p in announced)

    amsterdam = testbed.server("amsterdam01")
    dest = sorted(amsterdam.neighbor_asns)[0]
    inward = amsterdam.relay_destination("he", dest, Prefix("203.0.113.0/24"))
    best = gateway.best_route(Prefix("203.0.113.0/24"))

    # No private-ASN leak on any public path.
    leaked = 0
    for pop_prefix in pop_prefixes.values():
        outcome = testbed.outcome_for(pop_prefix)
        leaked += sum(1 for _asn, route in outcome.items() if HE_ASN in route.path)

    emit(
        "§4.2: HE <-> AMS-IX coupling",
        [
            ["PoP prefixes announced outward", f"{outward}/24"],
            ["peer routes relayed inward", inward],
            ["gateway selected a route", best is not None],
            ["private-ASN leaks on public paths", leaked, "(must be 0)"],
        ],
    )
    assert outward == 24
    assert inward >= 1
    assert best is not None
    assert leaked == 0


def test_he_memory_fits_commodity_desktop(benchmark):
    _topology, emulation = benchmark.pedantic(build_emulation, rounds=1, iterations=1)
    model = QuaggaMemoryModel()
    total = emulation.modeled_memory_bytes(model)
    emit(
        "§4.2: emulation footprint",
        [
            ["modeled memory", f"{total / 2**30:.2f} GB", "(paper: ran in 8 GB)"],
            ["per-PoP baseline", f"{model.baseline / 2**20:.0f} MB"],
        ],
    )
    assert total < 8 * 2**30
