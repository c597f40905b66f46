"""RPKI origin validation: ROAs, the registry, and RFC 6811 semantics.

The testbed-side safety layer (:mod:`repro.core.safety`) can only protect
the Internet *from the testbed*; it does nothing for the simulated
ecosystem itself.  This module is the substrate's half of the story: a
Route Origin Authorization database with covering-ROA lookup over the
prefix trie, and the RFC 6811 validation outcome
(:class:`ValidationState`) for any ``(prefix, origin AS)`` pair.

RFC 6811 in one paragraph: collect every ROA whose prefix *covers* the
announced prefix.  No covering ROA → **NotFound**.  At least one covering
ROA whose ASN equals the announced origin, whose maxLength admits the
announced length, and whose ASN is not AS0 → **Valid**.  Covering ROAs
exist but none matches → **Invalid**.  An AS0 ROA (RFC 7607/6483) can
therefore only ever make announcements Invalid — it is how an address
holder says "nothing originates this space".

The registry is shared by both sides of the reproduction: the
propagation-level ROV deployment in :mod:`repro.secroute.policy` and the
testbed's own announcement vetting in :mod:`repro.core.safety`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..net.addr import Prefix
from ..net.trie import PrefixTrie

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..telemetry.metrics import CounterChild, MetricsRegistry

__all__ = ["ValidationState", "Roa", "RoaRegistry"]

# Instance serials so two registries never share a cache fingerprint.
_REGISTRY_SERIALS = itertools.count(1)


class ValidationState(Enum):
    """RFC 6811 origin-validation outcome."""

    VALID = "valid"
    NOT_FOUND = "not-found"
    INVALID = "invalid"

    @property
    def rank(self) -> int:
        """Decision-process preference: lower is better (RFC 8481-style
        valid > not-found > invalid)."""
        return _RANK[self]

    def __str__(self) -> str:
        return self.value


_RANK = {
    ValidationState.VALID: 0,
    ValidationState.NOT_FOUND: 1,
    ValidationState.INVALID: 2,
}


@dataclass(frozen=True)
class Roa:
    """One Route Origin Authorization (RFC 6482/9582).

    ``max_length`` defaults to the ROA prefix's own length — the
    conservative form registries recommend.  ``asn=0`` is the AS0 ROA:
    it matches no real origin, so it can only invalidate.
    """

    prefix: Prefix
    asn: int
    max_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.asn < 0:
            raise ValueError(f"ROA ASN must be >= 0, got {self.asn}")
        if self.max_length is not None and not (
            self.prefix.length <= self.max_length <= self.prefix.bits
        ):
            raise ValueError(
                f"maxLength {self.max_length} outside "
                f"[{self.prefix.length}, {self.prefix.bits}] for {self.prefix}"
            )

    @property
    def effective_max_length(self) -> int:
        return self.prefix.length if self.max_length is None else self.max_length

    def covers(self, prefix: Prefix) -> bool:
        return self.prefix.contains(prefix)

    def permits(self, prefix: Prefix, origin_asn: int) -> bool:
        """Does this ROA make ``(prefix, origin)`` Valid?  AS0 never does."""
        return (
            self.asn != 0
            and self.asn == origin_asn
            and self.covers(prefix)
            and prefix.length <= self.effective_max_length
        )

    def __str__(self) -> str:
        return f"ROA({self.prefix}, AS{self.asn}, maxLength={self.effective_max_length})"


class RoaRegistry:
    """The validated ROA payload set, indexed for covering-ROA lookup.

    Backed by one :class:`~repro.net.trie.PrefixTrie` per address family
    so :meth:`covering_roas` is a single trie ancestry walk.  A version
    counter advances on every mutation; ``fingerprint()`` keys outcome
    caches so a ROA change invalidates anything computed under the old
    payload set (satisfying the same staleness contract the propagation
    engine has with the graph's version counter).
    """

    def __init__(self, roas: Tuple[Roa, ...] = ()) -> None:
        self._tries: Dict[int, PrefixTrie[List[Roa]]] = {
            4: PrefixTrie(4),
            6: PrefixTrie(6),
        }
        self._count = 0
        self._version = 0
        self._serial = next(_REGISTRY_SERIALS)
        self._verdict_children: Dict[str, "CounterChild"] = {}
        for roa in roas:
            self.add(roa)

    def fingerprint(self) -> Tuple[int, int]:
        """Hashable identity of this registry's current contents."""
        return (self._serial, self._version)

    # -- payload maintenance ---------------------------------------------------

    def add(self, roa: Roa) -> None:
        trie = self._tries[roa.prefix.version]
        bucket = trie.get(roa.prefix)
        if bucket is None:
            trie.insert(roa.prefix, [roa])
        elif roa not in bucket:
            bucket.append(roa)
        else:
            return  # duplicate payload; no version bump
        self._count += 1
        self._version += 1

    def remove(self, roa: Roa) -> None:
        trie = self._tries[roa.prefix.version]
        bucket = trie.get(roa.prefix)
        if bucket is None or roa not in bucket:
            raise KeyError(str(roa))
        bucket.remove(roa)
        if not bucket:
            trie.remove(roa.prefix)
        self._count -= 1
        self._version += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Roa]:
        for version in (4, 6):
            for _prefix, bucket in self._tries[version].items():
                yield from bucket

    # -- validation ------------------------------------------------------------

    def covering_roas(self, prefix: Prefix) -> List[Roa]:
        """Every ROA whose prefix covers ``prefix`` (shortest first)."""
        out: List[Roa] = []
        for _covering, bucket in self._tries[prefix.version].covering(prefix):
            out.extend(bucket)
        return out

    def validate(self, prefix: Prefix, origin_asn: int) -> ValidationState:
        """RFC 6811 origin validation of ``(prefix, origin_asn)``."""
        covering = self.covering_roas(prefix)
        if not covering:
            state = ValidationState.NOT_FOUND
        elif any(roa.permits(prefix, origin_asn) for roa in covering):
            state = ValidationState.VALID
        else:
            state = ValidationState.INVALID
        child = self._verdict_children.get(state.value)
        if child is not None:
            child.inc()
        return state

    # -- telemetry -------------------------------------------------------------

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Count every validation as
        ``peering_secroute_rov_verdicts_total{verdict=...}``."""
        counter = metrics.counter(
            "peering_secroute_rov_verdicts_total",
            "RFC 6811 origin-validation outcomes by verdict",
            ("verdict",),
        )
        self._verdict_children = {
            state.value: counter.labels(state.value) for state in ValidationState
        }
