"""Synthetic web ecosystem for the §4.1 destination-coverage experiment.

The paper fetched the Alexa Top 500, resolved every embedded resource
(49,776 resources from 4,182 FQDNs → 2,757 distinct IPs) and checked
which IPs the AMS-IX peer routes covered (1,055 of 2,757, and 157 of the
500 sites themselves).  The punchline: *content is concentrated in a few
CDNs/clouds that peer openly*, so peer routes over-cover popular content
relative to random addresses.

This generator reproduces that structure on the synthetic Internet:

* ``site_count`` popular sites, each hosted on some AS (Zipf-weighted
  toward content ASes, but with a tail on access/enterprise space — most
  origin sites are *not* on CDNs);
* each site's page pulls resources from third-party FQDNs (analytics,
  ads, CDN assets) whose hosting is heavily concentrated on CDN ASes;
* FQDNs resolve to IPs inside their hosting AS's address space.

The DNS side is modeled by :class:`Resolver`, which assigns each AS a
synthetic address block and each FQDN an address in its hoster's block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..inet.topology import ASGraph, ASKind
from ..net.addr import IPAddress, Prefix

__all__ = ["WebConfig", "Site", "Resource", "WebEcosystem", "build_web_ecosystem"]


@dataclass(frozen=True)
class WebConfig:
    site_count: int = 500
    mean_resources_per_page: int = 100
    third_party_fqdn_pool: int = 4200
    cdn_concentration: float = 0.62  # fraction of third-party FQDNs on CDNs
    seed: int = 4182


@dataclass(frozen=True)
class Resource:
    fqdn: str
    ip: IPAddress
    asn: int


@dataclass(frozen=True)
class Site:
    rank: int
    domain: str
    ip: IPAddress
    asn: int
    resources: Tuple[Resource, ...]


class Resolver:
    """Synthetic DNS: maps FQDNs to IPs inside the hosting AS's block.

    Each AS gets a /16 out of 60.0.0.0/6-ish space, deterministic by ASN,
    so IP→AS attribution is trivially invertible for the analysis.
    """

    def __init__(self) -> None:
        self._assigned: Dict[str, IPAddress] = {}
        self._per_as_counter: Dict[int, int] = {}

    def block_for(self, asn: int) -> Prefix:
        base = IPAddress("60.0.0.0").value + ((asn % 65536) << 16)
        return Prefix(IPAddress(base), 16)

    def resolve(self, fqdn: str, asn: int, names_per_ip: int = 1) -> IPAddress:
        """Stable resolution.  ``names_per_ip`` > 1 packs several FQDNs
        onto one frontend address, the way CDN edges serve many names."""
        if fqdn in self._assigned:
            return self._assigned[fqdn]
        count = self._per_as_counter.get(asn, 0)
        host = 1 + count // max(1, names_per_ip)
        self._per_as_counter[asn] = count + 1
        address = self.block_for(asn).address + host
        self._assigned[fqdn] = address
        return address

    def asn_of(self, ip: IPAddress) -> int:
        base = IPAddress("60.0.0.0").value
        return ((ip.value - base) >> 16) & 0xFFFF


@dataclass
class WebEcosystem:
    """The generated web: sites, resources, and the resolution map."""

    sites: List[Site]
    resolver: Resolver
    graph: ASGraph

    def distinct_fqdns(self) -> Set[str]:
        return {resource.fqdn for site in self.sites for resource in site.resources}

    def distinct_ips(self) -> Set[IPAddress]:
        return {resource.ip for site in self.sites for resource in site.resources}

    def coverage(self, reachable_asns: Set[int]) -> Dict[str, int]:
        """The §4.1 coverage numbers against a set of peer-reachable ASes.

        Returns counts shaped like the paper's: sites with peer routes,
        total resources, distinct FQDNs, distinct IPs, covered IPs.
        """
        sites_covered = sum(1 for site in self.sites if site.asn in reachable_asns)
        ips = self.distinct_ips()
        covered_ips = {
            ip
            for site in self.sites
            for resource in site.resources
            if resource.asn in reachable_asns
            for ip in [resource.ip]
        }
        return {
            "sites": len(self.sites),
            "sites_covered": sites_covered,
            "resources": sum(len(site.resources) for site in self.sites),
            "fqdns": len(self.distinct_fqdns()),
            "ips": len(ips),
            "ips_covered": len(covered_ips),
        }


def _pick_weighted(rng: random.Random, items: Sequence[int], weights: Sequence[float]) -> int:
    return rng.choices(items, weights=weights)[0]


def build_web_ecosystem(graph: ASGraph, config: WebConfig = WebConfig()) -> WebEcosystem:
    """Generate the synthetic Alexa-like web over ``graph``."""
    rng = random.Random(config.seed)
    resolver = Resolver()

    content_asns = [n.asn for n in graph.nodes() if n.kind is ASKind.CONTENT]
    edge_nodes = [
        n for n in graph.nodes() if n.kind in (ASKind.ACCESS, ASKind.ENTERPRISE)
    ]
    edge_asns = [n.asn for n in edge_nodes]
    # Self-hosting concentrates in large networks: weight edge hosting by
    # prefix mass, so most non-CDN sites live in big (mostly transit-only)
    # incumbents — which is why peer routes cover only ~1/3 of top sites.
    edge_weights = [max(1, n.prefix_count) for n in edge_nodes]
    transit_asns = [n.asn for n in graph.nodes() if n.kind is ASKind.TRANSIT]
    if not content_asns or not edge_asns:
        raise ValueError("graph lacks content or edge ASes for a web ecosystem")

    # Third-party FQDN pool: concentrated on CDNs, Zipf across them.
    cdn_weights = [1.0 / (i + 1) ** 0.8 for i in range(len(content_asns))]
    fqdn_hosts: List[int] = []
    for i in range(config.third_party_fqdn_pool):
        if rng.random() < config.cdn_concentration:
            fqdn_hosts.append(_pick_weighted(rng, content_asns, cdn_weights))
        else:
            if transit_asns and rng.random() >= 0.8:
                fqdn_hosts.append(rng.choice(transit_asns))
            else:
                fqdn_hosts.append(rng.choices(edge_asns, weights=edge_weights)[0])
    fqdn_names = [f"cdn{i}.assets.example" for i in range(config.third_party_fqdn_pool)]

    # Popularity of third-party FQDNs is itself Zipf (everyone embeds the
    # same analytics/CDN domains).
    fqdn_popularity = [1.0 / (i + 1) for i in range(config.third_party_fqdn_pool)]

    sites: List[Site] = []
    for rank in range(1, config.site_count + 1):
        # Top sites skew toward CDN/content hosting; the tail is self-hosted.
        if rng.random() < 0.35:
            site_asn = _pick_weighted(rng, content_asns, cdn_weights)
        else:
            site_asn = rng.choices(edge_asns, weights=edge_weights)[0]
        domain = f"site{rank}.example"
        site_ip = resolver.resolve(domain, site_asn)

        n_resources = max(5, int(rng.gauss(config.mean_resources_per_page, 30)))
        chosen = rng.choices(
            range(config.third_party_fqdn_pool), weights=fqdn_popularity, k=n_resources
        )
        resources = []
        content_set = set(content_asns)
        for index in chosen:
            fqdn = fqdn_names[index]
            asn = fqdn_hosts[index]
            packing = 6 if asn in content_set else 1
            resources.append(
                Resource(
                    fqdn=fqdn,
                    ip=resolver.resolve(fqdn, asn, names_per_ip=packing),
                    asn=asn,
                )
            )
        sites.append(
            Site(rank=rank, domain=domain, ip=site_ip, asn=site_asn, resources=tuple(resources))
        )
    return WebEcosystem(sites=sites, resolver=resolver, graph=graph)
