"""BGP path attributes: AS paths, origin, communities, and the bundle.

:class:`ASPath` models the segmented structure from RFC 4271 (AS_SEQUENCE /
AS_SET) with the operations experiments need: prepending, private-ASN
stripping (what a PEERING mux does before routes reach the Internet),
poisoning checks (loop detection is how poisoning works), and aggregate
length (AS_SET counts as one).

:class:`PathAttributes` is the immutable bundle attached to a route.  The
helper constructors keep call sites terse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import FrozenSet, Iterable, Optional, Tuple

from ..net.addr import IPAddress

__all__ = [
    "Origin",
    "SegmentType",
    "ASPathSegment",
    "ASPath",
    "Community",
    "WELL_KNOWN_COMMUNITIES",
    "NO_EXPORT",
    "NO_ADVERTISE",
    "PathAttributes",
    "is_private_asn",
]

# RFC 6996 private ASN ranges (16-bit and 32-bit).
_PRIVATE_16 = range(64512, 65535)
_PRIVATE_32 = range(4200000000, 4294967295)


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use ASNs."""
    return asn in _PRIVATE_16 or asn in _PRIVATE_32


class Origin(IntEnum):
    """ORIGIN attribute; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class SegmentType(IntEnum):
    AS_SET = 1
    AS_SEQUENCE = 2


@dataclass(frozen=True)
class ASPathSegment:
    kind: SegmentType
    asns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.asns:
            raise ValueError("empty AS path segment")
        if self.kind == SegmentType.AS_SET:
            # Canonicalize sets: sorted, deduplicated.
            object.__setattr__(self, "asns", tuple(sorted(set(self.asns))))

    def path_length(self) -> int:
        """Decision-process length contribution: an AS_SET counts as 1."""
        return 1 if self.kind == SegmentType.AS_SET else len(self.asns)

    def __str__(self) -> str:
        inner = " ".join(str(a) for a in self.asns)
        if self.kind == SegmentType.AS_SET:
            return "{" + inner.replace(" ", ",") + "}"
        return inner


@dataclass(frozen=True)
class ASPath:
    """A full AS_PATH as a tuple of segments."""

    segments: Tuple[ASPathSegment, ...] = ()

    @classmethod
    def from_asns(cls, asns: Iterable[int]) -> "ASPath":
        """Build a single AS_SEQUENCE path (the overwhelmingly common case)."""
        asns = tuple(asns)
        if not asns:
            return cls()
        return cls((ASPathSegment(SegmentType.AS_SEQUENCE, asns),))

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Prepend ``asn`` ``count`` times (what a router does on export)."""
        if count < 1:
            raise ValueError("prepend count must be >= 1")
        head = (asn,) * count
        if self.segments and self.segments[0].kind == SegmentType.AS_SEQUENCE:
            first = ASPathSegment(
                SegmentType.AS_SEQUENCE, head + self.segments[0].asns
            )
            return ASPath((first,) + self.segments[1:])
        return ASPath((ASPathSegment(SegmentType.AS_SEQUENCE, head),) + self.segments)

    def contains(self, asn: int) -> bool:
        """Loop detection — also the mechanism AS-path poisoning exploits."""
        return any(asn in segment.asns for segment in self.segments)

    def strip(self, predicate) -> "ASPath":
        """Remove every ASN for which ``predicate`` holds (e.g. private ASNs)."""
        segments = []
        for segment in self.segments:
            kept = tuple(a for a in segment.asns if not predicate(a))
            if kept:
                segments.append(ASPathSegment(segment.kind, kept))
        return ASPath(tuple(segments))

    def strip_private(self) -> "ASPath":
        """Drop RFC 6996 private ASNs — the mux operation from §3."""
        return self.strip(is_private_asn)

    def length(self) -> int:
        return sum(segment.path_length() for segment in self.segments)

    def asns(self) -> Tuple[int, ...]:
        """Every ASN appearing anywhere in the path, in order."""
        result: Tuple[int, ...] = ()
        for segment in self.segments:
            result += segment.asns
        return result

    @property
    def origin_asn(self) -> Optional[int]:
        """The originating AS (last ASN of the last sequence), or None."""
        for segment in reversed(self.segments):
            if segment.kind == SegmentType.AS_SEQUENCE:
                return segment.asns[-1]
        return None

    @property
    def first_asn(self) -> Optional[int]:
        """The neighbor AS that sent this path (first ASN), or None."""
        for segment in self.segments:
            if segment.kind == SegmentType.AS_SEQUENCE:
                return segment.asns[0]
        return None

    def __str__(self) -> str:
        return " ".join(str(segment) for segment in self.segments) or "(empty)"


@dataclass(frozen=True, order=True)
class Community:
    """An RFC 1997 community, ``ASN:value``."""

    asn: int
    value: int

    @classmethod
    def parse(cls, text: str) -> "Community":
        head, _, tail = text.partition(":")
        try:
            return cls(int(head), int(tail))
        except ValueError:
            raise ValueError(f"invalid community {text!r}") from None

    def packed(self) -> int:
        return (self.asn << 16) | self.value

    @classmethod
    def from_packed(cls, value: int) -> "Community":
        return cls((value >> 16) & 0xFFFF, value & 0xFFFF)

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


NO_EXPORT = Community(0xFFFF, 0xFF01)
NO_ADVERTISE = Community(0xFFFF, 0xFF02)
WELL_KNOWN_COMMUNITIES = {
    "no-export": NO_EXPORT,
    "no-advertise": NO_ADVERTISE,
}


@dataclass(frozen=True)
class PathAttributes:
    """The attribute bundle carried with a route.

    ``local_pref`` is optional (only meaningful within an AS); ``med`` is
    optional; ``communities`` is a frozenset so bundles stay hashable.
    """

    origin: Origin = Origin.IGP
    as_path: ASPath = field(default_factory=ASPath)
    next_hop: Optional[IPAddress] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: FrozenSet[Community] = frozenset()
    atomic_aggregate: bool = False
    aggregator: Optional[Tuple[int, IPAddress]] = None
    # RFC 4456 route reflection:
    originator_id: Optional[IPAddress] = None
    cluster_list: Tuple[int, ...] = ()

    def prepended(self, asn: int, count: int = 1) -> "PathAttributes":
        return replace(self, as_path=self.as_path.prepend(asn, count))

    def with_next_hop(self, next_hop: IPAddress) -> "PathAttributes":
        return replace(self, next_hop=next_hop)

    def with_local_pref(self, local_pref: Optional[int]) -> "PathAttributes":
        return replace(self, local_pref=local_pref)

    def with_med(self, med: Optional[int]) -> "PathAttributes":
        return replace(self, med=med)

    def with_communities(self, communities: Iterable[Community]) -> "PathAttributes":
        return replace(self, communities=frozenset(communities))

    def add_communities(self, communities: Iterable[Community]) -> "PathAttributes":
        return replace(self, communities=self.communities | frozenset(communities))

    def reflected(self, originator: IPAddress, cluster_id: int) -> "PathAttributes":
        """Stamp RFC 4456 reflection state before re-advertising an iBGP route."""
        return replace(
            self,
            originator_id=self.originator_id or originator,
            cluster_list=(cluster_id,) + self.cluster_list,
        )

    def __str__(self) -> str:
        parts = [f"path={self.as_path}", f"origin={self.origin.name}"]
        if self.next_hop is not None:
            parts.append(f"nh={self.next_hop}")
        if self.local_pref is not None:
            parts.append(f"lp={self.local_pref}")
        if self.med is not None:
            parts.append(f"med={self.med}")
        if self.communities:
            parts.append("comm=" + ",".join(str(c) for c in sorted(self.communities)))
        return " ".join(parts)
