"""Traffic workload generators for data-plane experiments.

Provides the flows examples and benchmarks push through the testbed:
probe trains toward a destination set, anycast client populations, and
attack sources and flows for the DDoS campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..inet.topology import ASGraph, ASKind
from ..net.addr import IPAddress
from ..net.packet import Packet

__all__ = [
    "ProbeTrain",
    "ClientPopulation",
    "client_population",
    "zipf_attack_sources",
    "zipf_clients",
    "attack_flows",
]


@dataclass
class ProbeTrain:
    """A sequence of probe packets from one source toward many targets."""

    src: IPAddress
    targets: List[IPAddress]
    proto: str = "icmp-echo"

    def packets(self) -> Iterator[Packet]:
        for target in self.targets:
            yield Packet(src=self.src, dst=target, proto=self.proto)


def client_population(
    graph: ASGraph,
    count: int,
    seed: int = 0,
    kinds: Sequence[ASKind] = (ASKind.ACCESS, ASKind.ENTERPRISE),
) -> List[int]:
    """Sample ``count`` client ASes, weighted by their prefix mass (a
    proxy for user population) — the vantage set for anycast-catchment
    and reachability studies."""
    rng = random.Random(seed)
    candidates = [node for node in graph.nodes() if node.kind in kinds]
    if not candidates:
        raise ValueError("no candidate client ASes")
    weights = [node.prefix_count for node in candidates]
    chosen = set()
    result: List[int] = []
    attempts = 0
    while len(result) < min(count, len(candidates)) and attempts < 50 * count:
        node = rng.choices(candidates, weights=weights)[0]
        attempts += 1
        if node.asn in chosen:
            continue
        chosen.add(node.asn)
        result.append(node.asn)
    return result


@dataclass(frozen=True)
class ClientPopulation:
    """A volume-weighted anycast client population: ``(asn, clients)``
    pairs, heaviest first.

    The weights are *client counts* (simulated end users behind each
    vantage AS), so a population of millions of clients collapses to one
    entry per AS — which is what lets catchment mapping scale: assignment
    is per-AS, volume accounting is per-entry.  Construct directly for
    hand-built populations (entries may reference ASNs absent from a
    topology; catchment mapping reports them as unserved) or sample one
    with :func:`zipf_clients`."""

    weights: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        for asn, clients in self.weights:
            if clients < 0:
                raise ValueError(f"negative client count for AS{asn}")

    @property
    def total_clients(self) -> int:
        return sum(clients for _asn, clients in self.weights)

    @property
    def n_ases(self) -> int:
        return len(self.weights)

    def asns(self) -> Tuple[int, ...]:
        return tuple(asn for asn, _clients in self.weights)

    def items(self) -> Tuple[Tuple[int, int], ...]:
        return self.weights


def zipf_clients(
    graph: ASGraph,
    ases: int,
    clients: int,
    seed: int = 0,
    exponent: float = 1.1,
    kinds: Sequence[ASKind] = (ASKind.ACCESS, ASKind.ENTERPRISE),
) -> ClientPopulation:
    """Sample an anycast client population: ``ases`` vantage ASes picked
    by prefix mass (users live where prefixes do), per-AS client volumes
    Zipf over rank — a few heavy eyeball networks, a long tail —
    normalized so the population totals exactly ``clients``.

    Deterministic under ``seed``.  ``ases`` is capped at the number of
    candidate ASes of the requested kinds; ``ases == 0`` yields the empty
    population.  Raises if ``clients`` cannot give every sampled AS at
    least one client.

    Unlike :func:`client_population` (one weighted draw per attempt —
    fine for hundreds of vantages), sampling here is batched over
    precomputed cumulative weights, so population-scale vantage sets
    (tens of thousands of ASes) sample in well under a second."""
    if ases < 0:
        raise ValueError("ases must be >= 0")
    if ases == 0:
        return ClientPopulation(())
    sampled = _sample_by_mass(graph, ases, seed, kinds)
    if not sampled:
        raise ValueError("no candidate client ASes")
    if clients < len(sampled):
        raise ValueError(
            f"need clients >= {len(sampled)} to cover every sampled AS"
        )
    shares = [1.0 / (rank + 1) ** exponent for rank in range(len(sampled))]
    total_share = sum(shares)
    volumes = [max(1, round(clients * s / total_share)) for s in shares]
    # Rounding drift lands on the heaviest AS, keeping the total exact.
    volumes[0] += clients - sum(volumes)
    return ClientPopulation(tuple(zip(sampled, volumes)))


def _sample_by_mass(
    graph: ASGraph,
    count: int,
    seed: int,
    kinds: Sequence[ASKind],
) -> List[int]:
    """Distinct ASes weighted by prefix mass, in draw order (so Zipf
    rank follows sampling luck, heaviest-mass ASes likeliest first).
    Batched rejection sampling over cumulative weights; asking for every
    candidate (or more) short-circuits to mass order."""
    candidates = [node for node in graph.nodes() if node.kind in kinds]
    if not candidates:
        raise ValueError("no candidate client ASes")
    if count >= len(candidates):
        ordered = sorted(candidates, key=lambda n: (-n.prefix_count, n.asn))
        return [node.asn for node in ordered]
    rng = random.Random(seed)
    cum: List[int] = []
    total = 0
    for node in candidates:
        total += max(1, node.prefix_count)
        cum.append(total)
    chosen = set()
    sampled: List[int] = []
    attempts = 0
    limit = 50 * count
    while len(sampled) < count and attempts < limit:
        batch = rng.choices(
            candidates, cum_weights=cum, k=min(4096, limit - attempts)
        )
        attempts += len(batch)
        for node in batch:
            if node.asn in chosen:
                continue
            chosen.add(node.asn)
            sampled.append(node.asn)
            if len(sampled) == count:
                break
    return sampled


def zipf_attack_sources(
    graph: ASGraph,
    count: int,
    total_packets: int,
    seed: int = 0,
    exponent: float = 1.1,
    exclude: Sequence[int] = (),
) -> List[Tuple[int, int]]:
    """Sample a DDoS source population: ``count`` ASes picked by prefix
    mass (botnets live where users do) with per-source volumes Zipf over
    rank — a few heavy hitters, a long tail — normalized to
    ``total_packets``.  Deterministic under ``seed``; returns
    ``[(asn, n_packets), ...]`` heaviest first, every source >= 1 packet.
    """
    if count < 1 or total_packets < count:
        raise ValueError("need count >= 1 and total_packets >= count")
    rng = random.Random(seed)
    banned = set(exclude)
    candidates = [node for node in graph.nodes() if node.asn not in banned]
    if len(candidates) < count:
        raise ValueError(f"only {len(candidates)} candidate source ASes")
    weights = [max(1, node.prefix_count) for node in candidates]
    chosen: List[int] = []
    seen = set()
    while len(chosen) < count:
        node = rng.choices(candidates, weights=weights)[0]
        if node.asn in seen:
            continue
        seen.add(node.asn)
        chosen.append(node.asn)
    shares = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total_share = sum(shares)
    volumes = [
        max(1, round(total_packets * share / total_share)) for share in shares
    ]
    # Rounding drift lands on the heaviest source, keeping the total exact.
    volumes[0] += total_packets - sum(volumes)
    return list(zip(chosen, volumes))


def attack_flows(
    sources: Sequence[Tuple[int, int]],
    target: IPAddress,
    proto: str = "udp",
    dst_port: Optional[int] = None,
    ttl: int = 64,
) -> Iterator[Tuple[int, Packet]]:
    """Expand ``[(source_asn, n_packets)]`` into the ``(ingress, packet)``
    stream :meth:`repro.faults.plan.FaultPlan.flood_traffic` drives.

    Source addresses are synthesized per source AS (one /32 per AS, so
    BCP 38 at the ingress would pass them); the flow 5-tuple is fixed per
    source, which is what a FlowSpec match component keys on."""
    for source_asn, n_packets in sources:
        src = IPAddress((10 << 24) | (source_asn & 0xFFFFFF), 4)
        for _ in range(n_packets):
            yield source_asn, Packet(
                src=src, dst=target, proto=proto, dst_port=dst_port, ttl=ttl
            )
