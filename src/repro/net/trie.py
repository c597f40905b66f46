"""Binary radix trie keyed by IP prefixes.

Provides the two lookups routers need constantly:

* **Longest-prefix match** (:meth:`PrefixTrie.lookup`) for forwarding.
* **Covered / covering enumeration** for filter evaluation and aggregation.

The trie is also the engine behind the PEERING prefix pool
(:class:`repro.core.allocation.PrefixPool`), which needs first-fit free-block
allocation out of a covering prefix.

Descent is pure integer shift/mask arithmetic on the prefix's address
value — one ``(value >> shift) & 1`` per level, no per-bit generator —
which roughly halves insert/lookup cost at forwarding-table scale (see
``benchmarks/bench_trie.py``).  A node holding a value remembers the
:class:`Prefix` it was inserted under, so every query hands back that
stored key instead of rebuilding a prefix from the descent — looking up
an address allocates nothing.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar, Union

from .addr import IPAddress, Prefix

__all__ = ["PrefixTrie"]

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "key")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        # The prefix this node was last inserted under; None = no value here.
        self.key: Optional[Prefix] = None


class PrefixTrie(Generic[V]):
    """A mapping from :class:`Prefix` to arbitrary values with LPM lookup.

    One trie holds one address family; mixing IPv4 and IPv6 keys raises
    ``ValueError``.  Behaves like a mutable mapping for its core operations
    (``trie[prefix] = value``, ``prefix in trie``, ``del trie[prefix]``,
    ``len(trie)``) and adds router-style queries on top.
    """

    def __init__(self, version: int = 4):
        if version not in (4, 6):
            raise ValueError(f"unknown IP version {version}")
        self._version = version
        self._bits = 32 if version == 4 else 128
        self._root: _Node[V] = _Node()
        self._size = 0

    def _check(self, prefix: Union[IPAddress, Prefix]) -> None:
        if prefix.version != self._version:
            raise ValueError(
                f"IPv{prefix.version} prefix in IPv{self._version} trie"
            )

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        self._check(prefix)
        node = self._root
        addr = prefix.address.value
        shift = self._bits
        for _ in range(prefix.length):
            shift -= 1
            bit = (addr >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = node.children[bit] = _Node()
            node = child
        if node.key is None:
            self._size += 1
        node.value = value
        node.key = prefix

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup."""
        self._check(prefix)
        node = self._root
        addr = prefix.address.value
        shift = self._bits
        for _ in range(prefix.length):
            shift -= 1
            node = node.children[(addr >> shift) & 1]
            if node is None:
                return default
        return node.value if node.key is not None else default

    def __getitem__(self, prefix: Prefix) -> V:
        sentinel = object()
        value = self.get(prefix, sentinel)  # type: ignore[arg-type]
        if value is sentinel:
            raise KeyError(prefix)
        return value  # type: ignore[return-value]

    def __contains__(self, prefix: Prefix) -> bool:
        sentinel = object()
        return self.get(prefix, sentinel) is not sentinel  # type: ignore[arg-type]

    def remove(self, prefix: Prefix) -> V:
        """Remove and return the value at ``prefix``; KeyError if absent."""
        self._check(prefix)
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        addr = prefix.address.value
        shift = self._bits
        for _ in range(prefix.length):
            shift -= 1
            bit = (addr >> shift) & 1
            child = node.children[bit]
            if child is None:
                raise KeyError(prefix)
            path.append((node, bit))
            node = child
        if node.key is None:
            raise KeyError(prefix)
        value = node.value
        node.value = None
        node.key = None
        self._size -= 1
        # Prune now-empty leaf chain.
        while path and node.key is None and node.children[0] is None and node.children[1] is None:
            parent, bit = path.pop()
            parent.children[bit] = None
            node = parent
        return value  # type: ignore[return-value]

    def __delitem__(self, prefix: Prefix) -> None:
        self.remove(prefix)

    def __len__(self) -> int:
        return self._size

    def lookup(self, target: Union[IPAddress, Prefix]) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for an address (or prefix) — the forwarding op.

        Returns ``(matching_prefix, value)`` or ``None`` when nothing covers
        the target.
        """
        self._check(target)
        if isinstance(target, Prefix):
            addr, length = target.address.value, target.length
        else:
            addr, length = target.value, self._bits
        node = self._root
        best = node if node.key is not None else None
        top = self._bits - 1
        for shift in range(top, top - length, -1):
            node = node.children[(addr >> shift) & 1]
            if node is None:
                break
            if node.key is not None:
                best = node
        if best is None:
            return None
        return best.key, best.value  # type: ignore[return-value]

    def covering(self, target: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Yield (prefix, value) for every stored prefix that covers ``target``.

        Yielded shortest (least specific) first; includes an exact match.
        """
        self._check(target)
        bits = self._bits
        node = self._root
        addr = target.address.value
        if node.key is not None:
            yield node.key, node.value  # type: ignore[misc]
        for depth in range(1, target.length + 1):
            node = node.children[(addr >> (bits - depth)) & 1]
            if node is None:
                return
            if node.key is not None:
                yield node.key, node.value  # type: ignore[misc]

    def covered(self, target: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Yield (prefix, value) for every stored prefix within ``target``.

        Includes an exact match; yielded in address order.
        """
        self._check(target)
        node = self._root
        addr = target.address.value
        shift = self._bits
        for _ in range(target.length):
            shift -= 1
            node = node.children[(addr >> shift) & 1]
            if node is None:
                return
        yield from self._walk(node)

    def _walk(self, node: _Node[V]) -> Iterator[Tuple[Prefix, V]]:
        if node.key is not None:
            yield node.key, node.value  # type: ignore[misc]
        for child in node.children:
            if child is not None:
                yield from self._walk(child)

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All (prefix, value) pairs in address order."""
        yield from self._walk(self._root)

    def keys(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        for _, value in self.items():
            yield value

    def first_free(self, within: Prefix, length: int) -> Optional[Prefix]:
        """First /``length`` inside ``within`` that neither covers nor is
        covered by any stored prefix — the allocation primitive for prefix
        pools.  Returns ``None`` when the block is exhausted.
        """
        self._check(within)
        if length < within.length or length > self._bits:
            raise ValueError(f"cannot allocate /{length} inside {within}")
        for candidate in within.subnets(length):
            if next(self.covered(candidate), None) is not None:
                continue
            covering = [p for p, _ in self.covering(candidate)]
            if covering:
                continue
            return candidate
        return None
