"""Prefix pool management.

PEERING owns a /19 and hands each experiment its own /24 ("PEERING
supports a client per /24 prefix", §5), which is what isolates
simultaneous experiments from each other (§3).  The pool also accepts
donated prefixes ("some researchers have offered to donate IPv4 prefixes")
and IPv6 blocks.

Allocation is first-fit over a radix trie, so releasing a block makes it
reusable and fragmentation is handled naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..net.addr import IPAddress, Prefix
from ..net.trie import PrefixTrie

__all__ = ["AllocationError", "Allocation", "PrefixPool"]

CLIENT_PREFIX_LENGTH = 24
CLIENT_PREFIX_LENGTH_V6 = 48


class AllocationError(Exception):
    """Raised when the pool cannot satisfy or locate an allocation."""


@dataclass(frozen=True)
class Allocation:
    prefix: Prefix
    owner: str
    pool_block: Prefix


class PrefixPool:
    """Allocates client prefixes out of one or more supernets."""

    def __init__(self, supernets: Optional[List[Prefix]] = None) -> None:
        self._supernets: Dict[int, List[Prefix]] = {4: [], 6: []}
        self._allocated: Dict[int, PrefixTrie] = {4: PrefixTrie(4), 6: PrefixTrie(6)}
        self._by_owner: Dict[str, List[Allocation]] = {}
        for supernet in supernets or []:
            self.add_supernet(supernet)

    def add_supernet(self, supernet: Prefix) -> None:
        """Add a block to allocate from (the /19, or a donated prefix)."""
        for existing in self._supernets[supernet.version]:
            if existing.overlaps(supernet):
                raise AllocationError(f"{supernet} overlaps pool block {existing}")
        self._supernets[supernet.version].append(supernet)

    def allocate(
        self,
        owner: str,
        length: Optional[int] = None,
        version: int = 4,
    ) -> Allocation:
        """First-fit allocate a client prefix for ``owner``."""
        if length is None:
            length = CLIENT_PREFIX_LENGTH if version == 4 else CLIENT_PREFIX_LENGTH_V6
        trie = self._allocated[version]
        for block in self._supernets[version]:
            if length < block.length:
                continue
            candidate = trie.first_free(block, length)
            if candidate is not None:
                allocation = Allocation(prefix=candidate, owner=owner, pool_block=block)
                trie[candidate] = allocation
                self._by_owner.setdefault(owner, []).append(allocation)
                return allocation
        raise AllocationError(
            f"pool exhausted: no free /{length} (IPv{version}) for {owner!r}"
        )

    def release(self, prefix: Prefix) -> Allocation:
        """Return a block to the pool."""
        trie = self._allocated[prefix.version]
        try:
            allocation = trie.remove(prefix)
        except KeyError:
            raise AllocationError(f"{prefix} is not allocated") from None
        self._by_owner[allocation.owner].remove(allocation)
        if not self._by_owner[allocation.owner]:
            del self._by_owner[allocation.owner]
        return allocation

    def release_owner(self, owner: str) -> List[Allocation]:
        """Release everything held by ``owner`` (experiment teardown)."""
        released = []
        for allocation in list(self._by_owner.get(owner, [])):
            released.append(self.release(allocation.prefix))
        return released

    def owner_of(self, prefix: Union[Prefix, IPAddress]) -> Optional[str]:
        """Owner of the allocation covering ``prefix`` (exact or within;
        a bare address is its own host prefix)."""
        hit = self._allocated[prefix.version].lookup(prefix)
        return hit[1].owner if hit is not None else None

    def allocations_for(self, owner: str) -> List[Allocation]:
        return list(self._by_owner.get(owner, []))

    def contains(self, prefix: Prefix) -> bool:
        """True if ``prefix`` falls inside any pool supernet — the mux's
        most basic export filter ("prefixes outside PEERING control")."""
        return any(
            block.contains(prefix) for block in self._supernets[prefix.version]
        )

    def capacity(self, length: int = CLIENT_PREFIX_LENGTH, version: int = 4) -> int:
        """How many /``length`` blocks the pool can hold in total."""
        total = 0
        for block in self._supernets[version]:
            if length >= block.length:
                total += 1 << (length - block.length)
        return total

    def free_count(self, length: int = CLIENT_PREFIX_LENGTH, version: int = 4) -> int:
        """Remaining /``length`` allocations (exact-length count)."""
        used = sum(
            1 << (length - a.prefix.length) if a.prefix.length <= length else 0
            for a in self._allocated[version].values()
        )
        return self.capacity(length, version) - used
