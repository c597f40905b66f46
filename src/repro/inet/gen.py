"""Synthetic Internet generator.

Builds a policy-annotated AS graph with the structural features §4.1's
results depend on:

* a **tier-1 clique** (no providers, full peer mesh) atop a
  customer-provider hierarchy grown by preferential attachment, giving
  heavy-tailed customer cones like CAIDA AS-rank;
* **content/CDN ASes** with open peering policies and many prefixes
  (the YouTube/Netflix concentration the paper leans on);
* per-AS **countries** drawn from a worldwide distribution (Europe-heavy
  among IXP members) so "peers based in 59 countries" has an analogue;
* per-AS **prefix counts** drawn from a Zipf-like tail normalized to a
  target global table size (~520K, the Internet of 2014).

The generator is fully deterministic for a given
:class:`InternetConfig.seed`.
"""

from __future__ import annotations

import bz2
import gzip
import math
import os
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (
    IO, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from .ixp import IXP
from .topology import ASGraph, ASKind, ASNode, PeeringPolicy

__all__ = [
    "InternetConfig",
    "AmsIxConfig",
    "CaidaConfig",
    "build_internet",
    "build_amsix",
    "build_caida_like",
    "load_caida_serial",
    "degree_stats",
    "Internet",
]


# Rough worldwide country pool; weights favour regions with dense IXP
# presence.  62 countries so a well-connected AS set can plausibly span
# the paper's 59.
_COUNTRIES: List[Tuple[str, float]] = [
    ("NL", 8), ("DE", 8), ("GB", 7), ("US", 10), ("FR", 5), ("RU", 4),
    ("UA", 2), ("PL", 3), ("SE", 3), ("NO", 2), ("DK", 2), ("FI", 2),
    ("BE", 2), ("CH", 2), ("AT", 2), ("CZ", 2), ("IT", 3), ("ES", 3),
    ("PT", 1), ("IE", 1), ("RO", 2), ("BG", 1), ("HU", 1), ("SK", 1),
    ("GR", 1), ("TR", 2), ("IL", 1), ("AE", 1), ("SA", 1), ("IN", 3),
    ("CN", 3), ("HK", 2), ("SG", 2), ("JP", 3), ("KR", 2), ("TW", 1),
    ("TH", 1), ("MY", 1), ("ID", 1), ("PH", 1), ("VN", 1), ("AU", 2),
    ("NZ", 1), ("BR", 3), ("AR", 1), ("CL", 1), ("CO", 1), ("MX", 2),
    ("PE", 1), ("CA", 2), ("ZA", 1), ("EG", 1), ("NG", 1), ("KE", 1),
    ("MA", 1), ("TN", 1), ("IS", 1), ("EE", 1), ("LV", 1), ("LT", 1),
    ("SI", 1), ("HR", 1),
]
_COUNTRY_TOTAL = sum(w for _, w in _COUNTRIES)


@dataclass(frozen=True)
class InternetConfig:
    """Knobs for the synthetic Internet.  Defaults produce ~4000 ASes with
    a ~520K-prefix global table in a few seconds."""

    n_ases: int = 4000
    n_tier1: int = 12
    transit_fraction: float = 0.12
    content_fraction: float = 0.08
    total_prefixes: int = 520_000
    mean_providers: float = 1.8
    transit_peer_degree: int = 4
    tier1_pool_weight: int = 24
    eyeball_fraction: float = 0.08
    seed: int = 1914
    first_asn: int = 100


@dataclass(frozen=True)
class CaidaConfig:
    """Knobs for the Internet-scale generator (:func:`build_caida_like`).

    Defaults are calibrated against the public AS-level measurements the
    roadmap cites — CAIDA AS-rank for the hierarchy, Loye et al.'s
    complex-network analysis of the public peering ecosystem for the
    IXP-mediated peer edges:

    * **Heavy-tailed customer cones / degrees.** Preferential attachment
      where a provider re-enters the candidate pool once per customer it
      acquires yields a power-law degree tail (exponent ≈ 2.1, the value
      reported for the AS graph); the largest cones cover a large
      fraction of all ASes, as CAIDA AS-rank shows for real tier-1s.
    * **Small clique core.** ~16 tier-1s in a full peer mesh (the
      measured clique is 10–20 ASes).
    * **Zipf-sized IXPs.** Public peering LAN memberships are extremely
      skewed (a few DE-CIX/AMS-IX-scale fabrics, hundreds of small
      ones); IXP sizes here follow a Zipf law and each member peers with
      a *sample* of co-members rather than the full mesh, matching the
      measured mean adjacency (real IXP members do not all peer).
    * **Mean degree ≈ 4–6** overall (real AS graph: ~4.2 counting c2p
      only, ~6 with public p2p edges included).
    """

    n_ases: int = 50_000
    n_tier1: int = 16
    transit_fraction: float = 0.10
    content_fraction: float = 0.05
    mean_providers: float = 1.9
    tier1_seed_weight: int = 6
    n_ixps: int = 120
    ixp_member_fraction: float = 0.30
    ixp_zipf_exponent: float = 1.1
    ixp_peer_degree: int = 4
    total_prefixes: int = 600_000
    seed: int = 1914
    first_asn: int = 1

    def __post_init__(self) -> None:
        if self.n_ases < self.n_tier1 + 10:
            raise ValueError("n_ases too small for the configured tier-1 core")
        if not 1.0 <= self.mean_providers <= 2.0:
            raise ValueError("mean_providers must be in [1, 2]")


@dataclass(frozen=True)
class AmsIxConfig:
    """Membership structure of the modeled AMS-IX, matching §4.1: 669
    members, 554 on the route server; the 115 others split 48 open /
    12 closed / 40 case-by-case / 15 unlisted."""

    total_members: int = 669
    route_server_members: int = 554
    open_policy: int = 48
    closed_policy: int = 12
    case_by_case: int = 40
    unlisted: int = 15
    name: str = "AMS-IX"
    country: str = "NL"

    def __post_init__(self) -> None:
        rest = self.open_policy + self.closed_policy + self.case_by_case + self.unlisted
        if self.route_server_members + rest != self.total_members:
            raise ValueError("AMS-IX member split does not sum to total_members")

    @classmethod
    def scaled(cls, total_members: int, name: str = "AMS-IX", country: str = "NL") -> "AmsIxConfig":
        """The paper's membership structure scaled down to
        ``total_members`` (for small test internets), preserving the
        554:48:12:40:15 proportions."""
        paper = cls()
        factor = total_members / paper.total_members
        rs = round(paper.route_server_members * factor)
        open_p = round(paper.open_policy * factor)
        closed = round(paper.closed_policy * factor)
        cbc = round(paper.case_by_case * factor)
        unlisted = total_members - rs - open_p - closed - cbc
        if unlisted < 0:
            rs += unlisted
            unlisted = 0
        return cls(
            total_members=total_members,
            route_server_members=rs,
            open_policy=open_p,
            closed_policy=closed,
            case_by_case=cbc,
            unlisted=unlisted,
            name=name,
            country=country,
        )


@dataclass
class Internet:
    """The generated world: graph + IXPs + bookkeeping."""

    graph: ASGraph
    ixps: Dict[str, IXP] = field(default_factory=dict)
    config: Optional[InternetConfig] = None
    caida_config: Optional[CaidaConfig] = None

    def total_prefixes(self) -> int:
        return sum(node.prefix_count for node in self.graph.nodes())


def _draw_country(rng: random.Random) -> str:
    roll = rng.uniform(0, _COUNTRY_TOTAL)
    acc = 0.0
    for country, weight in _COUNTRIES:
        acc += weight
        if roll <= acc:
            return country
    return _COUNTRIES[-1][0]


def _zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def build_internet(config: InternetConfig = InternetConfig()) -> Internet:
    """Generate the AS graph (no IXPs yet; see :func:`build_amsix`)."""
    rng = random.Random(config.seed)
    graph = ASGraph()
    next_asn = config.first_asn

    n_transit = max(4, int(config.n_ases * config.transit_fraction))
    n_content = max(2, int(config.n_ases * config.content_fraction))
    n_access = config.n_ases - config.n_tier1 - n_transit - n_content
    if n_access <= 0:
        raise ValueError("n_ases too small for the configured fractions")

    # --- Tier-1 clique ------------------------------------------------------
    tier1: List[int] = []
    for i in range(config.n_tier1):
        node = ASNode(
            asn=next_asn,
            name=f"T1-{i}",
            country=_draw_country(rng),
            kind=ASKind.TIER1,
            peering_policy=PeeringPolicy.SELECTIVE,
        )
        graph.add_as(node)
        tier1.append(next_asn)
        next_asn += 1
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            graph.add_peering(a, b)

    # --- Transit hierarchy (preferential attachment on current degree) --------
    transit: List[int] = []
    attach_pool: List[int] = list(tier1)  # provider candidates, repeated by cone

    def pick_providers(count: int, pool: Sequence[int]) -> Set[int]:
        chosen: Set[int] = set()
        # candidates is only ever rebound, never mutated, so the pool is
        # read in place.
        candidates = pool
        while candidates and len(chosen) < count:
            pick = rng.choice(candidates)
            chosen.add(pick)
            if len(chosen) < count:
                candidates = [asn for asn in candidates if asn != pick]
        return chosen

    for i in range(n_transit):
        node = ASNode(
            asn=next_asn,
            name=f"TR-{i}",
            country=_draw_country(rng),
            kind=ASKind.TRANSIT,
            peering_policy=rng.choice(
                [PeeringPolicy.OPEN, PeeringPolicy.SELECTIVE, PeeringPolicy.CASE_BY_CASE]
            ),
        )
        graph.add_as(node)
        n_providers = 1 + (1 if rng.random() < 0.6 else 0)
        for provider in pick_providers(n_providers, attach_pool):
            graph.add_provider(node.asn, provider)
        transit.append(node.asn)
        # Preferential attachment: transit providers join the pool several
        # times so later ASes attach to them more often (cone heavy tail).
        attach_pool.extend([node.asn] * 2)
        next_asn += 1

    # Most stub mass attaches directly to tier-1/very large transit (which
    # do not peer at IXP route servers); this is what keeps peer-route
    # coverage at the paper's ~1/4 rather than near-complete.
    attach_pool.extend(tier1 * config.tier1_pool_weight)

    # Peer mesh among transits (sparse, degree-bounded).
    for asn in transit:
        others = [t for t in transit if t != asn]
        rng.shuffle(others)
        for other in others[: config.transit_peer_degree]:
            if graph.relationship(asn, other) is None and rng.random() < 0.35:
                graph.add_peering(asn, other)

    # --- Content / CDN ASes -------------------------------------------------
    content: List[int] = []
    content_names = [
        "Google", "Netflix", "Akamai", "Microsoft", "CloudCo", "StreamCo",
        "Hurricane Electric", "GoDaddy", "Airtel", "Pacnet", "RETN",
        "Terremark", "TransTeleCom", "EdgeCast", "Fastly-like", "OVH-like",
    ]
    for i in range(n_content):
        name = content_names[i] if i < len(content_names) else f"CDN-{i}"
        node = ASNode(
            asn=next_asn,
            name=name,
            country=_draw_country(rng),
            kind=ASKind.CONTENT,
            # Content providers overwhelmingly peer openly (§3).
            peering_policy=PeeringPolicy.OPEN if rng.random() < 0.85 else PeeringPolicy.SELECTIVE,
        )
        graph.add_as(node)
        providers = pick_providers(1 + (1 if rng.random() < 0.5 else 0), transit + tier1)
        for provider in providers:
            graph.add_provider(node.asn, provider)
        content.append(node.asn)
        next_asn += 1

    # --- Access / enterprise edge ----------------------------------------------
    access: List[int] = []
    provider_pool = attach_pool  # tier1 + weighted transit
    n_eyeballs = max(1, int(n_access * config.eyeball_fraction))
    for i in range(n_access):
        # A slice of the access tier models large incumbent eyeball ISPs:
        # they buy transit from tier-1s directly and originate a large
        # share of the global table, but are not IXP route-server members.
        # They are the bulk of the ~3/4 of the Internet that PEERING can
        # only reach via transit (§4.1).
        if i < n_eyeballs:
            node = ASNode(
                asn=next_asn,
                name=f"EYEBALL-{i}",
                country=_draw_country(rng),
                kind=ASKind.ACCESS,
                peering_policy=PeeringPolicy.SELECTIVE,
            )
            graph.add_as(node)
            for provider in pick_providers(2, tier1):
                graph.add_provider(node.asn, provider)
            access.append(node.asn)
            next_asn += 1
            continue
        kind = ASKind.ACCESS if rng.random() < 0.7 else ASKind.ENTERPRISE
        node = ASNode(
            asn=next_asn,
            name=f"EDGE-{i}",
            country=_draw_country(rng),
            kind=kind,
            peering_policy=rng.choices(
                [
                    PeeringPolicy.OPEN,
                    PeeringPolicy.SELECTIVE,
                    PeeringPolicy.CASE_BY_CASE,
                    PeeringPolicy.CLOSED,
                    PeeringPolicy.UNLISTED,
                ],
                weights=[35, 15, 25, 10, 15],
            )[0],
        )
        graph.add_as(node)
        n_providers = 1 + (1 if rng.random() < (config.mean_providers - 1.0) else 0)
        for provider in pick_providers(n_providers, provider_pool):
            graph.add_provider(node.asn, provider)
        access.append(node.asn)
        next_asn += 1

    _assign_prefix_counts(graph, config, rng, tier1, transit, content, access)
    graph.validate()
    return Internet(graph=graph, config=config)


def _assign_prefix_counts(
    graph: ASGraph,
    config: InternetConfig,
    rng: random.Random,
    tier1: List[int],
    transit: List[int],
    content: List[int],
    access: List[int],
) -> None:
    """Zipf-ish prefix counts, normalized so they sum to total_prefixes.

    Kind multipliers keep transit/content ASes originating far more
    prefixes than stubs, which drives the heavy-tailed per-peer export
    sizes in §4.1 ("only our 5 largest peers give us more than 10K").
    """
    multipliers = {
        ASKind.TIER1: 12.0,
        ASKind.TRANSIT: 3.0,
        ASKind.CONTENT: 3.0,
        ASKind.ACCESS: 1.0,
        ASKind.ENTERPRISE: 0.5,
    }
    raw: Dict[int, float] = {}
    for asn in tier1 + transit + content + access:
        node = graph.get(asn)
        base = multipliers.get(node.kind, 1.0)
        if node.name.startswith("EYEBALL-"):
            base = 90.0  # incumbent ISPs hold a large share of the table
        # Mild Pareto tail on top of the kind multiplier.
        raw[asn] = base * rng.paretovariate(1.6)
    scale = config.total_prefixes / sum(raw.values())
    for asn, weight in raw.items():
        graph.get(asn).prefix_count = max(1, round(weight * scale))


def build_amsix(
    internet: Internet,
    config: AmsIxConfig = AmsIxConfig(),
    seed: int = 7,
    rs_sort_jitter: float = 0.8,
) -> IXP:
    """Attach an AMS-IX-shaped IXP to the generated Internet.

    Members are drawn with a European bias and content/transit ASes are
    over-represented (they are the ASes that show up at big IXPs); the
    route-server/bilateral/policy split follows the paper exactly.
    """
    graph = internet.graph
    rng = random.Random(seed)
    ixp = IXP(config.name, graph, country=config.country, seed=seed)
    # Exact cone sizes of every non-tier-1 AS with customers, shared by the
    # membership weights and the route-server sort key below.
    cone_size = _cone_sizes(
        graph, [node.asn for node in graph.nodes() if node.kind is not ASKind.TIER1]
    )

    europe = {
        "NL", "DE", "GB", "FR", "BE", "CH", "AT", "SE", "NO", "DK", "FI",
        "PL", "CZ", "IT", "ES", "PT", "IE", "RO", "BG", "HU", "SK", "GR",
        "EE", "LV", "LT", "SI", "HR", "IS", "RU", "UA", "TR",
    }

    def membership_weight(node: ASNode) -> float:
        # Tier-1s sell transit; they do not join route servers or peer
        # openly at IXPs, so they are absent from the modeled membership
        # (matching why PEERING's peer routes cover only ~1/4 of the
        # Internet: the rest hides behind transit-only ASes).
        if node.kind is ASKind.TIER1:
            return 0.0
        weight = 1.0
        if node.country in europe:
            weight *= 4.0
        if node.kind is ASKind.CONTENT:
            weight *= 8.0
        if node.kind is ASKind.TRANSIT:
            # Big networks show up at big IXPs: presence scales gently
            # with customer-cone size.
            cone = cone_size.get(node.asn, 1)
            weight *= 1.0 + math.log2(max(2, cone)) / 2.0
        return weight

    eligible = [
        (node, membership_weight(node)) for node in graph.nodes()
    ]
    eligible = [(node, weight) for node, weight in eligible if weight > 0]
    if len(eligible) < config.total_members:
        raise ValueError(
            f"not enough eligible ASes ({len(eligible)}) for "
            f"{config.total_members} IXP members; use AmsIxConfig.scaled()"
        )
    nodes = [node for node, _ in eligible]
    # Accumulated once: choices(weights=w) builds exactly this list per
    # call, then makes the same random() draw and bisect.
    cum_weights = list(accumulate(weight for _, weight in eligible))
    members: List[int] = []
    chosen: Set[int] = set()
    # Weighted sampling without replacement.
    while len(members) < config.total_members:
        asn = rng.choices(nodes, cum_weights=cum_weights)[0].asn
        if asn in chosen:
            continue
        chosen.add(asn)
        members.append(asn)

    # Route-server users skew small, but not strictly: some very large
    # networks (Hurricane Electric, famously) peer with everyone via route
    # servers.  A lognormal jitter on the cone-size sort key keeps a
    # handful of big exporters on the route server while the largest
    # members mostly stay bilateral/selective.
    members.sort(
        key=lambda asn: (
            cone_size.get(asn, 1) * rng.lognormvariate(0.0, rs_sort_jitter),
            asn,
        )
    )
    rs_members = members[: config.route_server_members]
    bilateral_only = members[config.route_server_members :]

    for asn in rs_members:
        ixp.add_member(asn)
    # Join the route server in one pass (mesh built incrementally), as one
    # graph mutation: join_route_server reads the adjacency sets, not the
    # cached views batch() leaves stale.
    with graph.batch():
        for asn in rs_members:
            ixp.join_route_server(asn)

    # The bilateral-only members get the paper's exact policy split.
    policies = (
        [PeeringPolicy.OPEN] * config.open_policy
        + [PeeringPolicy.CLOSED] * config.closed_policy
        + [PeeringPolicy.CASE_BY_CASE] * config.case_by_case
        + [PeeringPolicy.UNLISTED] * config.unlisted
    )
    rng.shuffle(policies)
    for asn, policy in zip(bilateral_only, policies):
        graph.get(asn).peering_policy = policy
        ixp.add_member(asn)

    internet.ixps[config.name] = ixp
    return ixp


def _cone_sizes(graph: ASGraph, roots: Iterable[int]) -> Dict[int, int]:
    """``len(graph.customer_cone(asn))`` for every AS with customers at
    or below ``roots``, in one bottom-up pass over the customer DAG.

    A cone is its AS, its customers, and its customers' cones, so each
    AS is walked once instead of once per provider above it.  ASes
    without customers are absent (their cone is themselves).  A provider
    cycle makes the pass fall back to one walk per AS, so sizes stay
    exact on any graph.
    """
    _, customers, _ = graph.adjacency()
    order: List[int] = []  # post-order: every AS after its customers
    seen: Set[int] = set()
    on_path: Set[int] = set()
    cyclic = False
    for root in roots:
        if root in seen or not customers[root]:
            continue
        seen.add(root)
        on_path.add(root)
        stack = [(root, iter(customers[root]))]
        while stack:
            asn, below = stack[-1]
            for customer in below:
                if not customers[customer]:
                    continue
                if customer in seen:
                    cyclic = cyclic or customer in on_path
                    continue
                seen.add(customer)
                on_path.add(customer)
                stack.append((customer, iter(customers[customer])))
                break
            else:
                stack.pop()
                on_path.discard(asn)
                order.append(asn)
    if cyclic:
        return {asn: len(graph.customer_cone(asn)) for asn in order}
    cones: Dict[int, Set[int]] = {}
    for asn in order:
        cone = cones[asn] = {asn}
        cone.update(customers[asn])
        for customer in customers[asn]:
            sub = cones.get(customer)
            if sub is not None:
                cone |= sub
    return {asn: len(cone) for asn, cone in cones.items()}


# ---------------------------------------------------------------------------
# Internet-scale generator (CAIDA-calibrated)
# ---------------------------------------------------------------------------


def build_caida_like(
    n_ases: int = 50_000, config: Optional[CaidaConfig] = None
) -> Internet:
    """Generate an Internet-scale AS graph (50k+ ASes in a few seconds).

    Structure targets are documented on :class:`CaidaConfig`; the
    construction differs from :func:`build_internet` in three ways that
    matter at this scale:

    * **One pool slot per customer won.** Provider candidates live in a
      flat list; every time an AS acquires a customer it is appended
      again, so sampling a uniform index *is* preferential attachment —
      O(1) per edge instead of :func:`build_internet`'s per-pick list
      rebuild, and the resulting customer-cone sizes follow the measured
      power law.
    * **Zipf-sized IXPs with sampled peer meshes.** Members draw a
      bounded number of co-member peers instead of joining a full
      route-server mesh (a 3k-member full mesh alone would be ~5M
      edges — the real AS graph has ~0.4M).
    * **Batched mutation.** The whole build runs under
      :meth:`ASGraph.batch`, so ~10^5 edge insertions cost one graph
      version bump and one cache invalidation.

    An explicit ``config`` takes precedence over ``n_ases``.
    """
    cfg = config if config is not None else CaidaConfig(n_ases=n_ases)
    rng = random.Random(cfg.seed)
    graph = ASGraph()

    n_rest = cfg.n_ases - cfg.n_tier1
    n_transit = max(8, int(cfg.n_ases * cfg.transit_fraction))
    n_content = max(4, int(cfg.n_ases * cfg.content_fraction))
    if n_transit + n_content > n_rest:
        raise ValueError("n_ases too small for the configured fractions")
    country_names = [c for c, _ in _COUNTRIES]
    country_weights = [w for _, w in _COUNTRIES]
    countries = rng.choices(country_names, weights=country_weights, k=cfg.n_ases)
    extra_provider_p = cfg.mean_providers - 1.0

    tier1: List[int] = []
    transit: List[int] = []
    content: List[int] = []
    ixps: Dict[str, IXP] = {}

    with graph.batch():
        # --- tier-1 clique core --------------------------------------------
        for i in range(cfg.n_tier1):
            asn = cfg.first_asn + i
            graph.add_as(
                ASNode(
                    asn=asn,
                    name=f"T1-{i}",
                    country=countries[i],
                    kind=ASKind.TIER1,
                    peering_policy=PeeringPolicy.SELECTIVE,
                )
            )
            tier1.append(asn)
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                graph.add_peering(a, b)

        # --- customer-provider hierarchy (flat-pool preferential attach) ---
        pool: List[int] = tier1 * cfg.tier1_seed_weight
        pool_append = pool.append
        randrange = rng.randrange
        random_ = rng.random
        next_asn = cfg.first_asn + cfg.n_tier1
        for i in range(n_rest):
            asn = next_asn
            next_asn += 1
            if i < n_transit:
                kind = ASKind.TRANSIT
                policy = (
                    PeeringPolicy.OPEN if random_() < 0.5 else PeeringPolicy.SELECTIVE
                )
                name = f"TR-{i}"
            elif i < n_transit + n_content:
                kind = ASKind.CONTENT
                policy = PeeringPolicy.OPEN
                name = f"CDN-{i - n_transit}"
            else:
                kind = ASKind.ACCESS if random_() < 0.8 else ASKind.ENTERPRISE
                policy = PeeringPolicy.UNLISTED
                name = ""
            graph.add_as(
                ASNode(
                    asn=asn,
                    name=name,
                    country=countries[cfg.n_tier1 + i],
                    kind=kind,
                    peering_policy=policy,
                )
            )
            want = 1 + (1 if random_() < extra_provider_p else 0)
            chosen: Set[int] = set()
            pool_len = len(pool)
            attempts = 0
            # The pool holds only earlier ASes, so attachment is acyclic
            # and never self-referential by construction.
            while len(chosen) < want and attempts < 16:
                attempts += 1
                chosen.add(pool[randrange(pool_len)])
            for provider in chosen:
                graph.add_provider(asn, provider)
                pool_append(provider)  # one slot per customer won
            if kind is ASKind.TRANSIT:
                transit.append(asn)
                pool_append(asn)
            elif kind is ASKind.CONTENT:
                content.append(asn)

        # --- IXP-mediated public peering (Zipf sizes, sampled meshes) -------
        member_slots = int(cfg.n_ases * cfg.ixp_member_fraction)
        zipf = _zipf_weights(cfg.n_ixps, cfg.ixp_zipf_exponent)
        zsum = sum(zipf)
        sizes = [max(4, int(member_slots * w / zsum)) for w in zipf]
        # Degree-weighted membership (big networks show up at big IXPs),
        # content ASes over-represented, tier-1s absent: they sell
        # transit instead of peering openly at public fabrics.
        tier1_set = set(tier1)
        member_pool: List[int] = [a for a in pool if a not in tier1_set]
        member_pool.extend(content * 8)
        if not member_pool:  # degenerate tiny configs
            member_pool = list(transit) or list(content) or list(tier1)
        member_pool_len = len(member_pool)
        for rank, size in enumerate(sizes):
            ixp_name = f"IXP-{rank}"
            ixp = IXP(
                ixp_name, graph, country=_draw_country(rng), seed=cfg.seed + rank
            )
            members_set: Set[int] = set()
            attempts = 0
            limit = size * 8
            while len(members_set) < size and attempts < limit:
                attempts += 1
                members_set.add(member_pool[randrange(member_pool_len)])
            members = sorted(members_set)
            for asn in members:
                ixp.add_member(asn)
            m = len(members)
            for asn in members:
                for _ in range(cfg.ixp_peer_degree):
                    other = members[randrange(m)]
                    if other != asn and graph.relationship(asn, other) is None:
                        graph.add_peering(asn, other)
            ixps[ixp_name] = ixp

        _assign_caida_prefix_counts(graph, cfg, rng)

    graph.validate()
    return Internet(graph=graph, ixps=ixps, caida_config=cfg)


def _assign_caida_prefix_counts(
    graph: ASGraph, cfg: CaidaConfig, rng: random.Random
) -> None:
    """Zipf-ish per-AS prefix counts normalized to the global table size
    (same shape as :func:`_assign_prefix_counts`, one O(n) pass)."""
    multipliers = {
        ASKind.TIER1: 12.0,
        ASKind.TRANSIT: 4.0,
        ASKind.CONTENT: 3.0,
        ASKind.ACCESS: 1.0,
        ASKind.ENTERPRISE: 0.5,
    }
    raw: List[Tuple[ASNode, float]] = []
    total = 0.0
    for node in graph.nodes():
        weight = multipliers.get(node.kind, 1.0) * rng.paretovariate(1.6)
        raw.append((node, weight))
        total += weight
    scale = cfg.total_prefixes / total
    for node, weight in raw:
        node.prefix_count = max(1, round(weight * scale))


def degree_stats(graph: ASGraph) -> Dict[str, float]:
    """Calibration summary for a generated graph.

    Compare against the targets documented on :class:`CaidaConfig`:
    mean degree ≈ 4–6, a heavy tail (the top 1% of ASes holding a large
    share of all adjacencies), and tier-1 customer cones covering most
    of the Internet.
    """
    n = len(graph)
    degrees = sorted(
        (len(graph.neighbors(asn)) for asn in graph.asns()), reverse=True
    )
    edges = graph.edge_count()
    degree_sum = sum(degrees)
    top1 = max(1, n // 100)
    best_cone = 0
    for asn in graph.tier1_clique():
        best_cone = max(best_cone, len(graph.customer_cone(asn)))
    return {
        "n_ases": float(n),
        "edges": float(edges),
        "mean_degree": (2.0 * edges / n) if n else 0.0,
        "max_degree": float(degrees[0]) if degrees else 0.0,
        "top1pct_degree_share": (
            sum(degrees[:top1]) / degree_sum if degree_sum else 0.0
        ),
        "max_cone_fraction": (best_cone / n) if n else 0.0,
    }


# -- CAIDA serial ingestion ----------------------------------------------------

SerialSource = Union[str, "os.PathLike[str]", Iterable[str]]


def _serial_lines(source: SerialSource) -> Iterator[str]:
    """Lines of a serial file: a path (``.gz``/``.bz2`` transparently
    decompressed) or any iterable of strings."""
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        fh: IO[str]
        if path.endswith(".bz2"):
            fh = bz2.open(path, "rt", encoding="utf-8")
        elif path.endswith(".gz"):
            fh = gzip.open(path, "rt", encoding="utf-8")
        else:
            fh = open(path, "r", encoding="utf-8")
        with fh:
            yield from fh
    else:
        yield from source


def load_caida_serial(source: SerialSource) -> Internet:
    """Load a published CAIDA AS-relationship *serial* snapshot.

    The public format is one edge per line — ``<provider>|<customer>|-1``
    for transit, ``<peer>|<peer>|0`` for settlement-free peering — with
    ``#`` comment headers; newer snapshots append a fourth ``|source``
    field (``bgp``/``mlp``/…), which is ignored.  ``source`` may be a
    filesystem path (``.gz``/``.bz2`` decompressed transparently) or any
    iterable of lines, so tests can feed literal strings.

    Exact duplicate lines are tolerated (snapshots occasionally repeat
    an edge); conflicting relationships for one AS pair, self-loops,
    unknown codes, and malformed lines raise :class:`ValueError` with
    the offending line number.  The whole build runs under
    :meth:`ASGraph.batch` — one version bump however many edges — and
    node/edge insertion order is a pure function of the input, so the
    resulting graph version and :func:`degree_stats` are identical
    across runs on the same snapshot.

    AS kinds are inferred from the loaded structure (provider-free ASes
    with customers are the clique :meth:`ASGraph.tier1_clique` reports,
    other transit ASes are TRANSIT, the rest ACCESS), which is what
    makes the stats directly comparable with :func:`build_caida_like`
    output.  Node metadata beyond that (names, countries, IXP
    memberships) is not part of the serial format.
    """
    graph = ASGraph()
    # Local bookkeeping: inside batch() the graph's frozen views are
    # deliberately stale, so dup/conflict detection must not consult
    # graph.relationship().
    seen: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    known: Set[int] = set()
    with graph.batch():
        for lineno, raw in enumerate(_serial_lines(source), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"line {lineno}: expected 'a|b|rel[|source]', got {line!r}"
                )
            try:
                a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno}: non-integer field in {line!r}"
                ) from exc
            if rel not in (-1, 0):
                raise ValueError(
                    f"line {lineno}: unknown relationship code {rel}"
                )
            if a == b:
                raise ValueError(f"line {lineno}: self-loop on AS{a}")
            pair = (a, b) if a < b else (b, a)
            norm = (-1, a, b) if rel == -1 else (0, *pair)
            prev = seen.get(pair)
            if prev is not None:
                if prev != norm:
                    raise ValueError(
                        f"line {lineno}: conflicting relationship for "
                        f"AS{a}--AS{b}"
                    )
                continue  # exact duplicate
            seen[pair] = norm
            for asn in pair:
                if asn not in known:
                    known.add(asn)
                    graph.add_as(ASNode(asn=asn, name=f"AS{asn}"))
            if rel == -1:
                graph.add_provider(customer=b, provider=a)
            else:
                graph.add_peering(a, b)
    for asn in graph.asns():
        node = graph.get(asn)
        if graph.customers(asn):
            node.kind = (
                ASKind.TIER1 if not graph.providers(asn) else ASKind.TRANSIT
            )
        else:
            node.kind = ASKind.ACCESS
    return Internet(graph=graph)
