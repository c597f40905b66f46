"""Topology Zoo data: the Hurricane Electric PoP-level backbone.

§4.2 emulates "the PoP-level global backbone of Hurricane Electric (HE),
using data from Topology Zoo ... 24 PoPs".  The coordinates and adjacency
below are transcribed from the Topology Zoo HE graph (2011 snapshot, 24
nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["PoP", "ZooTopology", "hurricane_electric"]


@dataclass(frozen=True)
class PoP:
    name: str
    city: str
    country: str
    latitude: float
    longitude: float


@dataclass
class ZooTopology:
    name: str
    pops: List[PoP]
    links: List[Tuple[str, str]]

    def pop(self, name: str) -> PoP:
        for pop in self.pops:
            if pop.name == name:
                return pop
        raise KeyError(name)

    def neighbors(self, name: str) -> List[str]:
        out = []
        for a, b in self.links:
            if a == name:
                out.append(b)
            elif b == name:
                out.append(a)
        return sorted(out)

    def validate(self) -> None:
        names = {pop.name for pop in self.pops}
        if len(names) != len(self.pops):
            raise ValueError("duplicate PoP names")
        for a, b in self.links:
            if a not in names or b not in names:
                raise ValueError(f"link references unknown PoP: {a}-{b}")
        # connectivity check
        if self.pops:
            seen = {self.pops[0].name}
            frontier = [self.pops[0].name]
            while frontier:
                current = frontier.pop()
                for neighbor in self.neighbors(current):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            if seen != names:
                raise ValueError(f"topology not connected; unreachable: {names - seen}")


# Hurricane Electric PoP-level backbone, 24 PoPs (Topology Zoo snapshot).
_HE_POPS: List[PoP] = [
    PoP("SEA", "Seattle", "US", 47.61, -122.33),
    PoP("PAO", "Palo Alto", "US", 37.44, -122.14),
    PoP("FMT", "Fremont", "US", 37.55, -121.99),
    PoP("SJC", "San Jose", "US", 37.34, -121.89),
    PoP("LAX", "Los Angeles", "US", 34.05, -118.24),
    PoP("PHX", "Phoenix", "US", 33.45, -112.07),
    PoP("LAS", "Las Vegas", "US", 36.17, -115.14),
    PoP("DEN", "Denver", "US", 39.74, -104.99),
    PoP("DAL", "Dallas", "US", 32.78, -96.80),
    PoP("HOU", "Houston", "US", 29.76, -95.37),
    PoP("KCY", "Kansas City", "US", 39.10, -94.58),
    PoP("CHI", "Chicago", "US", 41.88, -87.63),
    PoP("MSP", "Minneapolis", "US", 44.98, -93.27),
    PoP("TOR", "Toronto", "CA", 43.65, -79.38),
    PoP("NYC", "New York", "US", 40.71, -74.01),
    PoP("ASH", "Ashburn", "US", 39.04, -77.49),
    PoP("ATL", "Atlanta", "US", 33.75, -84.39),
    PoP("MIA", "Miami", "US", 25.76, -80.19),
    PoP("LON", "London", "GB", 51.51, -0.13),
    PoP("PAR", "Paris", "FR", 48.86, 2.35),
    PoP("AMS", "Amsterdam", "NL", 52.37, 4.90),
    PoP("FRA", "Frankfurt", "DE", 50.11, 8.68),
    PoP("ZRH", "Zurich", "CH", 47.38, 8.54),
    PoP("HKG", "Hong Kong", "HK", 22.32, 114.17),
]

_HE_LINKS: List[Tuple[str, str]] = [
    # West coast ring
    ("SEA", "PAO"), ("PAO", "FMT"), ("FMT", "SJC"), ("SJC", "LAX"),
    ("PAO", "SJC"),
    # Southwest
    ("LAX", "PHX"), ("LAX", "LAS"), ("LAS", "PHX"), ("PHX", "DAL"),
    # Mountain / central
    ("SEA", "DEN"), ("DEN", "KCY"), ("KCY", "CHI"), ("DEN", "DAL"),
    ("DAL", "HOU"), ("HOU", "ATL"), ("DAL", "CHI"),
    # Midwest / east
    ("CHI", "MSP"), ("MSP", "SEA"), ("CHI", "TOR"), ("TOR", "NYC"),
    ("CHI", "NYC"), ("NYC", "ASH"), ("ASH", "ATL"), ("ATL", "MIA"),
    ("MIA", "HOU"),
    # Transatlantic + Europe
    ("NYC", "LON"), ("ASH", "LON"), ("LON", "PAR"), ("LON", "AMS"),
    ("AMS", "FRA"), ("PAR", "ZRH"), ("FRA", "ZRH"), ("PAR", "FRA"),
    # Transpacific
    ("SJC", "HKG"), ("SEA", "HKG"),
]


def hurricane_electric() -> ZooTopology:
    """The 24-PoP HE backbone used by §4.2's emulation."""
    topology = ZooTopology(name="HurricaneElectric", pops=list(_HE_POPS), links=list(_HE_LINKS))
    topology.validate()
    return topology
