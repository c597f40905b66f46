"""Compiled Gao–Rexford propagation engine for sweep-style experiments.

Every experiment the paper showcases (§2: LIFEGUARD-style poisoning,
PoiRoot-style selective announcement, anycast prepend engineering) is a
*sweep*: evaluate dozens-to-thousands of announcement configurations over
the same AS graph.  The reference :func:`repro.inet.routing.propagate`
re-derives everything per call: it materializes a full AS-path tuple per
reached AS and pays per-call set copies on every adjacency access.

:class:`PropagationEngine` instead **compiles** the :class:`ASGraph` once
into int-indexed, pre-sorted per-node neighbor tuples (invalidated by
the graph's version counter) and converges over a **parent-pointer route
table**: per AS an ``(kind, via, root-spec, pathlen)`` record.  AS paths
are reconstructed lazily on demand, so no path tuples are copied during
convergence.

The trick that makes the route table sufficient: in each propagation
phase, every AS on a candidate's path is already *finalized* (it either
originated the route or settled at an earlier level), so the
reference's ``neighbor not in path`` loop check decomposes exactly into

* "neighbor already holds a route" — one bitmap read, and
* "neighbor's ASN appears in the origin's export path" (prepends and
  poison sentinels) — folded into the same bitmap.

Neither needs the path.  Index order is ASN order, so walking each
path-length level in ascending index tie-breaks identically to the
reference heap's ASN/path comparisons — the engine is route-for-route
identical to ``propagate()`` (property tests in
``tests/test_inet_engine.py`` enforce this).

There is one convergence loop, :func:`_converge`.  Route security (ROV
drop sets, Peerlock tail masks) is an accept hook at the points where
that loop settles a slot: a refused offer writes nothing, and the next
offer in ``(pathlen, via)`` order gets the slot — what a router that
filtered its best path does.  An unsecured run never enters the hook.

On top sit an LRU result cache keyed by ``(graph version, canonical
announcement, security fingerprint)``, two delta regimes that answer a
changed announcement from the previous route table without converging
(noop, shift — see :meth:`PropagationEngine.propagate_delta`), and
:meth:`PropagationEngine.propagate_many`, which orders a sweep's cache
misses by delta affinity and chains them through those regimes in one
process.  A shift moves every export path by the same length and shares
the previous table; unsecured, each spec may also swap its own poisoned
ASes among ones that have no customers, which can never export a route,
by patching their slots alone in a copy (:func:`_swap_poison`).  So the
variants of an anycast sweep, which differ only in the stub each site
poisons, can chain without a converge.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from collections import OrderedDict
from time import perf_counter
from typing import (
    TYPE_CHECKING, AbstractSet, Dict, FrozenSet, Iterator, List, Mapping,
    Optional, Sequence, Set, Tuple,
)

from ..telemetry.metrics import MetricsRegistry
from .routing import Announcement, ASRoute, RouteKind, RoutingOutcome
from .topology import ASGraph, TopologyError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..secroute.policy import CompiledSecurity

__all__ = [
    "CompiledTopology",
    "CompiledOutcome",
    "OutcomeCache",
    "PropagationEngine",
    "canonical_key",
]

_ORIGIN = int(RouteKind.ORIGIN)
_CUSTOMER = int(RouteKind.CUSTOMER)
_PEER = int(RouteKind.PEER)
_PROVIDER = int(RouteKind.PROVIDER)

# One compiled origin spec: (origin_index, export_path, export_set,
# announce_to_set); and the parent-pointer route table (kind, via, root,
# plen) _converge returns.
SpecT = Tuple[int, Tuple[int, ...], FrozenSet[int], Optional[FrozenSet[int]]]
TableT = Tuple[bytearray, List[int], List[int], List[int]]

# One origin seed of a _converge level: (origin_index, export_path,
# spec_index, targets) — sorting seeds orders them by index, then export
# path, then spec, the reference heap's tie-break among origin offers.
_SeedT = Tuple[int, Tuple[int, ...], int, List[int]]

# Transient kind code for slots named on every spec's export path: they
# can never take a route, so _converge marks them settled up front and
# translates the code back to 0 (unreached) on return.
_BLOCKED = 5
_UNBLOCK = bytes(range(_BLOCKED)) + bytes(256 - _BLOCKED)


class CompiledTopology:
    """An :class:`ASGraph` frozen into int-indexed adjacency tuples.

    ASes are renumbered ``0..n-1`` in ascending-ASN order (so comparing
    indices is comparing ASNs), and each relation is one tuple of
    neighbor indices per node, in ascending order, for the hot loops.
    """

    __slots__ = (
        "version", "n", "asns", "idx",
        "providers", "customers", "peers", "peer_nodes", "cust_nodes",
    )

    def __init__(self, graph: ASGraph) -> None:
        self.version = graph.version
        asns = sorted(graph.asns())
        self.asns: List[int] = asns
        n = self.n = len(asns)
        idx = {asn: i for i, asn in enumerate(asns)}
        self.idx: Dict[int, int] = idx

        to_index = idx.__getitem__

        def views(rel: Mapping[int, AbstractSet[int]]) -> List[Tuple[int, ...]]:
            adj = array("l")
            off = array("l", [0])
            for asn in asns:
                adj.extend(sorted(map(to_index, rel[asn])))
                off.append(len(adj))
            # tolist() gives fresh, adjacent ints; reusing idx's slows _converge ~15 %.
            lst = adj.tolist()
            return [tuple(lst[off[i]:off[i + 1]]) for i in range(n)]

        # Straight from the adjacency sets, so the graph's sorted-view
        # caches stay empty instead of holding a second copy of these views.
        providers, customers, peers = graph.adjacency()
        self.providers = views(providers)
        self.customers = views(customers)
        self.peers = views(peers)
        # Ascending index lists of nodes that have peer / customer edges,
        # so phases 2 and 3 skip the (usually large) pure-stub remainder.
        self.peer_nodes = tuple(i for i, p in enumerate(self.peers) if p)
        self.cust_nodes = tuple(i for i, c in enumerate(self.customers) if c)


def canonical_key(announcement: Announcement) -> Tuple:
    """Hashable canonical form of an announcement for result caching.

    Spec order is preserved (it is semantically significant when one
    origin carries several specs); ``announce_to`` is normalized to a
    sorted unique tuple since only membership matters.  The prefix is
    deliberately *not* part of the key: propagation is prefix-agnostic,
    so announcements of different prefixes with identical steering share
    one converged outcome.  (Security-filtered runs key the prefix via
    the policy fingerprint instead — verdicts depend on it.)
    """
    return tuple(
        (
            spec.asn,
            spec.prepend,
            tuple(spec.poison),
            tuple(spec.path_suffix),
            None if spec.announce_to is None
            else tuple(sorted(set(spec.announce_to))),
        )
        for spec in announcement.origins
    )


def _affinity_key(announcement: Announcement) -> Tuple:
    """:func:`canonical_key` minus prepend counts.

    Two announcements with equal affinity keys differ only in prepend
    engineering, so consecutive sweep points within one affinity group
    classify as shift (or noop) deltas — the cheapest regimes.  Sweeps
    converge their misses grouped by this key."""
    return tuple(
        (
            spec.asn,
            tuple(spec.poison),
            tuple(spec.path_suffix),
            None if spec.announce_to is None
            else tuple(sorted(set(spec.announce_to))),
        )
        for spec in announcement.origins
    )


def _affinity_order(keys: Sequence[Tuple]) -> List[int]:
    """The order a sweep converges its misses in.

    ``keys[pos]`` is the affinity key (plus security fingerprint) of
    miss ``pos``.  Positions come grouped by key, so each group chains
    through shift/noop deltas; groups run largest first, ties in
    first-seen order, and positions keep input order within a group."""
    groups: Dict[Tuple, List[int]] = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    ordered = sorted(groups.values(), key=len, reverse=True)
    return [pos for group in ordered for pos in group]


def _compile_specs(
    compiled: CompiledTopology, announcement: Announcement
) -> Tuple[SpecT, ...]:
    """Per-spec (origin_index, export_path, export_set, announce_to_set)."""
    specs: List[SpecT] = []
    for spec in announcement.origins:
        oi = compiled.idx.get(spec.asn)
        if oi is None:
            raise TopologyError(f"unknown AS{spec.asn}")
        epath = spec.export_path()
        ato = None if spec.announce_to is None else frozenset(spec.announce_to)
        specs.append((oi, epath, frozenset(epath), ato))
    return tuple(specs)


def _converge(
    ct: CompiledTopology,
    specs: Sequence[SpecT],
    sec: Optional["CompiledSecurity"] = None,
) -> TableT:
    """Run the three Gao–Rexford phases over the compiled topology.

    Returns the parent-pointer route table ``(kind, via, root, plen)``:
    ``kind[i]`` is the RouteKind value (0 = unreached; nonzero doubles as
    the "has a route" bitmap), ``via[i]`` the neighbor index forwarded to,
    ``root[i]`` the spec index whose export path terminates i's parent
    chain (both -1 at origins and unreached slots), ``plen[i]`` the
    AS-path length.

    Heap-free for any number of specs.  Every edge has unit weight, so
    the reference's per-phase Dijkstra is a BFS by path-length *levels*:
    a level holds the exporters whose offer has that length, plus the
    origin specs whose export path has that length (different prepends
    enter at different levels).  Walking levels in ascending order, each
    level's exporters in ascending index with origin seeds merged in at
    their index and ordered by ``(export_path, spec_index)``, makes the
    first writer of a slot the minimum ``(pathlen, via, target,
    export_path)`` key — exactly the reference heap's pop order.  All
    three phases are that one loop (:func:`spread` below) over a
    different relation: phase 2 simply never re-exports what it settles.

    The reference's two pop-time predicates cost one byte read per edge:
    "already has a route" is ``kind[t]``, and "ASN appears on the export
    path" is folded into it — a slot named by *every* spec carries the
    transient ``_BLOCKED`` code (cleared on return), while a slot named
    by only some specs sits in the small ``partial`` map and is checked
    against the exporter's root spec at settle time, so per-spec poison
    stays exact.  Only slots that have someone to export to enter the
    next frontier; the stub majority is settled and forgotten.

    ``sec`` adds the reference's third pop-time predicate,
    ``security.rejects``, to that same settle-time check.  A writer that
    is refused does not write, so the slot stays open for the next
    writer in ``(pathlen, via, target)`` order — the candidate the
    reference heap would pop next.  The predicate reads three things:

    * ``drops[spec]`` — the slots whose ROV drops that spec's (Invalid)
      origin;
    * ``refuses[t]`` — the tracked ASNs slot ``t`` refuses to see behind
      a path's first hop: its Peerlock protected set, plus the tier-1 set
      where ``t`` runs Peerlock-lite and the offer is a customer route;
    * the offer's tail mask — ``fmask[v]``, the tracked bits on exporter
      ``v``'s own path (``omask[spec]`` for an origin's offer, its export
      path behind the first hop).  Acceptance records ``fmask[t] =
      tail | bit[v]``.
    """
    n = ct.n
    asns = ct.asns
    peers = ct.peers
    idx = ct.idx

    kind = bytearray(n)
    via: List[int] = [-1] * n
    root: List[int] = [-1] * n
    plen: List[int] = [0] * n

    named: Dict[int, List[int]] = {}
    for si, (_oi, _epath, eset, _ato) in enumerate(specs):
        for asn in eset:
            named.setdefault(asn, []).append(si)
    partial: Dict[int, FrozenSet[int]] = {}
    for asn, by in named.items():
        i = idx.get(asn)
        if i is not None:
            if len(by) == len(specs):
                kind[i] = _BLOCKED
            else:
                partial[i] = frozenset(by)
    for oi, _epath, _eset, _ato in specs:
        kind[oi] = _ORIGIN
        partial.pop(oi, None)

    drops: List[FrozenSet[int]] = []
    omask: List[int] = []
    bit: List[int] = []
    fmask: List[int] = []
    lock: List[int] = []
    lock_customer: List[int] = []
    if sec is not None:
        drops_of: Dict[int, FrozenSet[int]] = {}
        for _oi, epath, _eset, _ato in specs:
            origin = epath[-1]
            if origin not in drops_of:
                drops_of[origin] = frozenset(
                    idx[a] for a in sec.drops.get(origin, ()) if a in idx
                )
            drops.append(drops_of[origin])
            omask.append(sec.path_mask(epath[1:]))

        def by_slot(masks: Mapping[int, int]) -> List[int]:
            # Deployers are a minority: fill their slots, not n lookups.
            dense = [0] * n
            for asn, mask in masks.items():
                i = idx.get(asn)
                if i is not None:
                    dense[i] = mask
            return dense

        bit = by_slot(sec.bits)
        lock = by_slot(sec.pmask)
        lock_customer = list(lock)
        if sec.t1mask:
            for asn in sec.lite:
                i = idx.get(asn)
                if i is not None:
                    lock_customer[i] |= sec.t1mask
        fmask = [0] * n
    # One test per settle decides whether any per-slot check runs at all.
    checked = bool(partial) or sec is not None

    def origin_seeds(adj: List[Tuple[int, ...]]) -> Dict[int, List[_SeedT]]:
        """Per level, what each spec offers its origin's ``adj`` side."""
        seeds: Dict[int, List[_SeedT]] = {}
        for si, (oi, epath, eset, ato) in enumerate(specs):
            targets = [
                t for t in adj[oi]
                if (ato is None or asns[t] in ato) and asns[t] not in eset
            ]
            seeds.setdefault(len(epath), []).append((oi, epath, si, targets))
        return seeds

    def holders(nodes: Sequence[int]) -> Dict[int, List[int]]:
        """Route holders among ``nodes``, bucketed by their offer's length."""
        buckets: Dict[int, List[int]] = {}
        bucket_of = buckets.setdefault
        for e in nodes:
            if via[e] >= 0:
                bucket_of(plen[e] + 1, []).append(e)
        return buckets

    def spread(
        adj: List[Tuple[int, ...]],
        k: int,
        buckets: Dict[int, List[int]],
        seeds: Dict[int, List[_SeedT]],
    ) -> None:
        """Settle kind-``k`` routes along ``adj``, level by level."""
        refuses = lock_customer if k == _CUSTOMER else lock
        for lvl in seeds:
            buckets.setdefault(lvl, [])
        while buckets:
            lvl = min(buckets)
            frontier = buckets.pop(lvl)
            frontier.sort()
            stops: List[_SeedT] = sorted(seeds.get(lvl, []))
            stops.append((n, (), -1, []))  # sentinel: flush the frontier's tail
            nxt: List[int] = []
            start = 0
            for oi, _epath, si, targets in stops:
                cut = bisect_left(frontier, oi, start)
                for v in frontier[start:cut]:
                    r = root[v]
                    for t in adj[v]:
                        if not kind[t]:
                            if checked:
                                if t in partial and r in partial[t]:
                                    continue
                                if sec is not None:
                                    m = fmask[v]
                                    if t in drops[r] or m & refuses[t]:
                                        continue
                                    fmask[t] = m | bit[v]
                            kind[t] = k
                            via[t] = v
                            root[t] = r
                            plen[t] = lvl
                            if adj[t]:
                                nxt.append(t)
                start = cut
                for t in targets:
                    if not kind[t]:
                        if sec is not None:
                            m = omask[si]
                            if t in drops[si] or m & refuses[t]:
                                continue
                            fmask[t] = m | bit[oi]
                        kind[t] = k
                        via[t] = oi
                        root[t] = si
                        plen[t] = lvl
                        if adj[t]:
                            nxt.append(t)
            if nxt and k != _PEER:  # peer routes go to customers only
                buckets.setdefault(lvl + 1, []).extend(nxt)

    # ---- Phase 1: customer routes climb provider edges ---------------------
    spread(ct.providers, _CUSTOMER, {}, origin_seeds(ct.providers))

    # ---- Phase 2: one hop across peer edges --------------------------------
    # An origin offers each peer the *last* of its specs that announces to
    # it (reference dict-comprehension semantics), poison checked after.
    chosen_of: Dict[int, Dict[int, int]] = {}
    for si, (oi, _epath, _eset, ato) in enumerate(specs):
        chosen = chosen_of.setdefault(oi, {})
        for p in peers[oi]:
            if ato is None or asns[p] in ato:
                chosen[p] = si
    peer_seeds: Dict[int, List[_SeedT]] = {}
    for oi, chosen in chosen_of.items():
        offered: Dict[int, List[int]] = {}
        for p, si in chosen.items():
            if asns[p] not in specs[si][2]:
                offered.setdefault(si, []).append(p)
        for si, targets in offered.items():
            epath = specs[si][1]
            peer_seeds.setdefault(len(epath), []).append((oi, epath, si, targets))
    spread(peers, _PEER, holders(ct.peer_nodes), peer_seeds)

    # ---- Phase 3: routes descend provider->customer edges ------------------
    spread(ct.customers, _PROVIDER, holders(ct.cust_nodes),
           origin_seeds(ct.customers))

    if _BLOCKED in kind:
        kind = kind.translate(_UNBLOCK)
    return kind, via, root, plen


class CompiledOutcome(RoutingOutcome):
    """A :class:`RoutingOutcome` backed by the compact parent-pointer
    table.  AS paths (and :class:`ASRoute` objects) materialize lazily
    and are memoized; everything else reads the arrays directly."""

    def __init__(
        self,
        graph: ASGraph,
        compiled: CompiledTopology,
        table: TableT,
        specs: Tuple[SpecT, ...],
        security_fp: Optional[Tuple] = None,
        plen_shift: int = 0,
    ) -> None:
        self._graph = graph
        self._compiled = compiled
        self._kind, self._via, self._root, self._plen = table
        # A pure prepend change shifts every selected route's path length
        # by the same amount; the shift is recorded here instead of
        # copying the 50k-entry plen array (accessors reconstruct paths
        # from via pointers and never read plen; a reader of plen values
        # adds the shift to every reached, non-origin slot).
        self._plen_shift = plen_shift
        # Delta-propagation provenance: the compiled specs this table was
        # converged for and the security fingerprint in effect (None =
        # unsecured).  propagate_delta only reuses a table whose
        # provenance matches the new request's.
        self._specs = specs
        self._security_fp = security_fp
        self._memo: Dict[int, ASRoute] = {}

    # -- core accessors -------------------------------------------------------

    def route(self, asn: int) -> Optional[ASRoute]:
        memo = self._memo
        route = memo.get(asn)
        if route is not None:
            return route
        i = self._compiled.idx.get(asn)
        if i is None:
            return None
        k = self._kind[i]
        if not k:
            return None
        route = ASRoute(kind=RouteKind(k), path=self._path_of(i), via=self._via_asn(i))
        memo[asn] = route
        return route

    def _via_asn(self, i: int) -> Optional[int]:
        v = self._via[i]
        return None if v < 0 else self._compiled.asns[v]

    def _path_of(self, i: int) -> Tuple[int, ...]:
        """Reconstruct the AS path by walking parent pointers to the
        originating spec's export path.  A route visits each slot at most
        once, so a walk that meets no origin within ``len(via)`` hops, or
        meets a slot pointing nowhere, is a corrupt table and raises."""
        if self._kind[i] == _ORIGIN:
            return ()
        asns = self._compiled.asns
        via = self._via
        kind = self._kind
        n = len(via)
        parts: List[int] = []
        cur = via[i]
        while cur >= 0 and kind[cur] != _ORIGIN and len(parts) < n:
            parts.append(asns[cur])
            cur = via[cur]
        if cur >= 0 and kind[cur] == _ORIGIN:
            return tuple(parts) + self._specs[self._root[i]][1]
        raise RuntimeError(
            f"corrupt route table: the via chain of AS{asns[i]} (slot {i}) "
            + ("ends at an empty pointer" if cur < 0 else "reaches no origin")
        )

    def reaches(self, asn: int) -> bool:
        i = self._compiled.idx.get(asn)
        return i is not None and bool(self._kind[i])

    def reachable_asns(self) -> Set[int]:
        asns = self._compiled.asns
        return {asns[i] for i, k in enumerate(self._kind) if k}

    def __len__(self) -> int:
        # kind-code 0 is "not reached"; bytearray.count is C-speed, and
        # telemetry stamps len(outcome) onto every convergence span.
        return len(self._kind) - self._kind.count(0)

    def items(self) -> Iterator[Tuple[int, ASRoute]]:
        asns = self._compiled.asns
        for i, k in enumerate(self._kind):
            if k:
                asn = asns[i]
                yield asn, self.route(asn)

    def forwarding_chain(self, asn: int, max_hops: int = 64) -> List[int]:
        # Same semantics as the base class, but walks the via array
        # without materializing ASRoute objects.
        chain = [asn]
        idx = self._compiled.idx
        asns = self._compiled.asns
        kind = self._kind
        via = self._via
        i = idx.get(asn)
        for _ in range(max_hops):
            if i is None or not kind[i]:
                return chain  # blackhole
            if kind[i] == _ORIGIN:
                return chain
            i = via[i]
            chain.append(asns[i])
        return chain

    def as_path(self, asn: int) -> Optional[Tuple[int, ...]]:
        route = self.route(asn)
        return route.path if route is not None else None


class OutcomeCache:
    """LRU cache of converged outcomes keyed by
    ``(graph version, canonical announcement)``.

    Hit/miss/eviction stats live in a :class:`MetricsRegistry` (labelled
    ``peering_cache_*_total{cache=...}``) — the testbed passes its shared
    registry in so every cache shows up in one export; a standalone cache
    gets a private registry.  The ``hits``/``misses``/``evictions``
    attributes remain readable as plain ints for existing callers."""

    def __init__(
        self,
        maxsize: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "propagation",
    ) -> None:
        self.maxsize = maxsize
        self.name = name
        self._data: "OrderedDict[Tuple, RoutingOutcome]" = OrderedDict()
        # Keys bucketed by their graph-version component (key[0]), so
        # prune_version touches only stale entries instead of scanning
        # the whole cache on every graph mutation.
        self._by_version: Dict[object, Set[Tuple]] = {}
        registry = metrics if metrics is not None else MetricsRegistry()
        self._hits = registry.counter(
            "peering_cache_hits_total", "Outcome cache hits", ("cache",)
        ).labels(name)
        self._misses = registry.counter(
            "peering_cache_misses_total", "Outcome cache misses", ("cache",)
        ).labels(name)
        self._evictions = registry.counter(
            "peering_cache_evictions_total", "Outcome cache LRU evictions", ("cache",)
        ).labels(name)
        self._entries = registry.gauge(
            "peering_cache_entries", "Outcome cache current size", ("cache",)
        ).labels(name)

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    def get(self, key: Tuple) -> Optional[RoutingOutcome]:
        outcome = self._data.get(key)
        if outcome is None:
            self._misses.value += 1.0
            return None
        self._data.move_to_end(key)
        self._hits.value += 1.0
        return outcome

    def put(self, key: Tuple, outcome: RoutingOutcome) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = outcome
        self._by_version.setdefault(key[0], set()).add(key)
        if len(data) > self.maxsize:
            old_key, _ = data.popitem(last=False)
            bucket = self._by_version.get(old_key[0])
            if bucket is not None:
                bucket.discard(old_key)
                if not bucket:
                    del self._by_version[old_key[0]]
            self._evictions.value += 1.0
        self._entries.value = float(len(data))

    def prune_version(self, version: int) -> None:
        """Drop entries computed against any graph version but ``version``.

        O(stale entries) via the per-version key buckets — a graph
        mutation no longer pays a full cache scan to invalidate."""
        buckets = self._by_version
        data = self._data
        for ver in [v for v in buckets if v != version]:
            for key in buckets.pop(ver):
                del data[key]
        self._entries.value = float(len(data))

    def clear(self) -> None:
        self._data.clear()
        self._by_version.clear()
        self._entries.value = 0.0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# -- delta regimes ------------------------------------------------------------

# Regime labels of stats()["delta"] and the delta-run counters.  Nothing
# counts under "cone"; benchmarks/e2e/harness.py reads the key.
_DELTA_MODES = ("noop", "shift", "cone", "fallback", "full")


def _active_security(
    security: Optional["CompiledSecurity"], announcement: Announcement
) -> Optional["CompiledSecurity"]:
    """``security`` as :func:`_converge` wants it: a ``SecurityPolicy``
    compiled against ``announcement``, and None when nothing it holds can
    reject a route — so an inactive policy shares the unsecured cache
    entries and delta chains."""
    if security is not None and hasattr(security, "compile_for"):
        security = security.compile_for(announcement)  # type: ignore[attr-defined]
    if security is not None and not security.active:
        return None
    return security


def _delta_regime(
    ct: CompiledTopology,
    old_specs: Optional[Tuple[SpecT, ...]],
    new_specs: Tuple[SpecT, ...],
    security: Optional["CompiledSecurity"],
) -> Tuple[str, int, List[int]]:
    """How to get ``new_specs``' route table from the one converged for
    ``old_specs`` on the same topology under the same security
    fingerprint (None = there is no such table): ``(mode, plen_shift,
    slots)``, the last the slots a shift patches.

    * ``noop`` — identical specs: the old table is the answer.
    * ``shift`` — every spec keeps its origin and targets, every export
      path's length moves by the same ``d``, and the specs keep their
      ``(origin, export path, spec index)`` order, so every level of the
      kernel moves by ``d`` and (kind, via, root) is preserved, plen
      shifted uniformly.  Unsecured, each spec's export set may also
      change its own poisoned ASes, so long as every AS that any spec
      adds or drops is absent from the graph or customer-less, no origin
      and no neighbour a spec announces to.  Such an AS never exports a
      route (it holds no customer route, and peer and provider routes go
      to customers only), so which specs name it moves its own slot
      alone: those slots are listed.  Secured, only a single spec with
      an unchanged export set, last hop and tail mask shifts: acceptance
      reads those too.
    * ``fallback`` — a reusable table, but the change is neither; and
      ``full`` — no reusable table.  Both converge from scratch.

    The per-spec checks come first, so a change that moves one spec's
    prepend and not the others' is rejected in O(#specs).
    """
    if old_specs is None:
        return "full", 0, []
    if new_specs == old_specs:
        return "noop", 0, []
    if len(new_specs) != len(old_specs):
        return "fallback", 0, []
    d = len(new_specs[0][1]) - len(old_specs[0][1])
    for (ooi, oepath, _oeset, oato), (noi, nepath, _neset, nato) in zip(
        old_specs, new_specs
    ):
        if noi != ooi or nato != oato or len(nepath) - len(oepath) != d:
            return "fallback", 0, []
    if security is not None:
        _oi, oepath, oeset, _ato = old_specs[0]
        _ni, nepath, neset, _nto = new_specs[0]
        if (
            len(new_specs) == 1
            and neset == oeset
            and nepath[-1] == oepath[-1]
            and security.path_mask(nepath[1:]) == security.path_mask(oepath[1:])
        ):
            return "shift", d, []
        return "fallback", 0, []
    if len(new_specs) > 1 and sorted(
        range(len(new_specs)), key=lambda si: new_specs[si][:2]
    ) != sorted(range(len(old_specs)), key=lambda si: old_specs[si][:2]):
        return "fallback", 0, []
    changed: Set[int] = set()
    for old, new in zip(old_specs, new_specs):
        changed |= old[2] ^ new[2]
    slots: List[int] = []
    for asn in changed:
        i = ct.idx.get(asn)
        if i is None:
            continue
        if ct.customers[i]:
            return "fallback", 0, []
        for oi, _epath, _eset, ato in new_specs:
            if i == oi or (
                (ato is None or asn in ato)
                and (oi in ct.providers[i] or oi in ct.peers[i])
            ):
                return "fallback", 0, []
        slots.append(i)
    return "shift", d, slots


def _swap_poison(
    ct: CompiledTopology, table: TableT, specs: Tuple[SpecT, ...], slots: List[int]
) -> TableT:
    """``table`` with customer-less ``slots`` given the route the kernel
    would under ``specs`` (see :func:`_delta_regime`).

    A slot's barred specs are those whose export set names it.  Named by
    every spec, the slot is cleared.  Otherwise it takes the minimum
    ``(plen + 1, index)`` offer among its peers holding a customer route
    whose root spec is not barred (phase 2), else among its providers
    holding any non-origin route with such a root (phase 3) — the
    kernel's ``partial`` check.  ``plen`` stays in ``table``'s frame.  No
    copy when there is nothing to patch."""
    if not slots:
        return table
    kind, via, root, plen = table
    kind, via, root, plen = bytearray(kind), list(via), list(root), list(plen)
    for i in slots:
        asn = ct.asns[i]
        barred = {si for si, spec in enumerate(specs) if asn in spec[2]}
        kind[i], via[i], root[i], plen[i] = 0, -1, -1, 0
        if len(barred) == len(specs):
            continue
        offers = [
            (plen[v] + 1, v) for v in ct.peers[i]
            if kind[v] == _CUSTOMER and root[v] not in barred
        ]
        k = _PEER
        if not offers:
            offers = [
                (plen[v] + 1, v) for v in ct.providers[i]
                if kind[v] and kind[v] != _ORIGIN and root[v] not in barred
            ]
            k = _PROVIDER
        if offers:
            plen[i], v = min(offers)
            kind[i], via[i], root[i] = k, v, root[v]
    return kind, via, root, plen


class PropagationEngine:
    """Compiled, cached, batched route propagation over one ``ASGraph``.

    The graph stays mutable: the engine recompiles automatically when
    ``graph.version`` moves, and the result cache never returns an
    outcome computed against a stale topology.
    """

    def __init__(
        self,
        graph: ASGraph,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.graph = graph
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = OutcomeCache(cache_size, metrics=self.metrics)
        self._compiled: Optional[CompiledTopology] = None
        self._compiles = self.metrics.counter(
            "peering_propagation_compiles_total",
            "Topology compilations (graph version changes)",
        ).labels()
        self._runs = self.metrics.counter(
            "peering_propagation_runs_total",
            "Full convergence runs (cache misses)",
        ).labels()
        self._seconds = self.metrics.histogram(
            "peering_propagation_seconds",
            "Wall-clock convergence time per in-process run",
        ).labels()
        # Delta-regime instrumentation: runs by regime (noop / shift /
        # fallback / full; "cone" stays as a label that reads 0) and a
        # running total of table slots reused as-is — the looking glass
        # reads these to show work saved.
        self._delta_runs = self.metrics.counter(
            "peering_propagation_delta_runs_total",
            "Incremental propagation runs by regime",
            ("mode",),
        )
        self._delta_saved = self.metrics.counter(
            "peering_propagation_delta_saved_total",
            "AS slots reused from the previous route table by delta runs",
        ).labels()

    @property
    def compile_count(self) -> int:
        return int(self._compiles.value)

    # -- compilation ----------------------------------------------------------

    def compiled(self) -> CompiledTopology:
        """The compiled topology for the graph's *current* version."""
        compiled = self._compiled
        if compiled is None or compiled.version != self.graph.version:
            compiled = CompiledTopology(self.graph)
            self._compiled = compiled
            self._compiles.inc()
            self.cache.prune_version(compiled.version)
        return compiled

    # -- single announcement --------------------------------------------------

    def propagate(
        self,
        announcement: Announcement,
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> RoutingOutcome:
        """Converged routes for ``announcement``; drop-in for
        :func:`repro.inet.routing.propagate`.

        ``security`` applies per-AS import filters (ROV drop-invalid,
        Peerlock) exactly as the reference path does; a ``SecurityPolicy``
        is compiled against the announcement automatically.  The cache
        key gains the policy fingerprint, so outcomes computed under
        different security configurations (or ROA registry versions)
        never alias."""
        return self._cached(announcement, use_cache, security)

    def propagate_delta(
        self,
        prev_outcome: Optional[RoutingOutcome],
        announcement: Announcement,
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> RoutingOutcome:
        """Converged routes for ``announcement``, reusing the route table
        of ``prev_outcome`` where the change cannot have moved it.

        The result is route-for-route identical to :meth:`propagate` —
        incrementality is purely an optimization, picked per change by
        :func:`_delta_regime`:

        * **noop** — identical steering: the previous outcome *is* the
          answer.
        * **shift** — every spec keeps its origin and targets and its
          export path moves by the same length (prepend engineering):
          every route keeps its (kind, via) and shifts ``plen``
          uniformly, sharing the previous table.  Unsecured, each spec's
          poison may also swap among ASes without customers, whose slots
          alone are patched in a copy.
        * **fallback** — ``prev_outcome`` is reusable but the change is
          neither of the above: one full convergence.
        * **full** — ``prev_outcome`` is not reusable (None, another
          graph version, another security fingerprint): likewise.

        ``prev_outcome`` may be any outcome this engine produced for the
        *current* graph version under the same security fingerprint;
        anything else degrades gracefully to a full run.  Cache keys are
        identical to :meth:`propagate`'s, so delta-produced outcomes
        compose with fingerprinted security lookups and never alias."""
        return self._cached(
            announcement, use_cache, security, prev_outcome, chained=True
        )

    def _cached(
        self,
        announcement: Announcement,
        use_cache: bool,
        security: Optional["CompiledSecurity"],
        prev: Optional[RoutingOutcome] = None,
        chained: bool = False,
    ) -> RoutingOutcome:
        compiled = self.compiled()
        security = _active_security(security, announcement)
        key = (
            compiled.version,
            canonical_key(announcement),
            None if security is None else security.fingerprint,
        )
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        outcome = self._run_delta(compiled, announcement, prev, security, chained)
        if use_cache:
            self.cache.put(key, outcome)
        return outcome

    def _run_delta(
        self,
        compiled: CompiledTopology,
        announcement: Announcement,
        prev: Optional[RoutingOutcome],
        security: Optional["CompiledSecurity"],
        chained: bool,
    ) -> RoutingOutcome:
        """One cache miss.  ``chained`` runs (everything but a plain
        :meth:`propagate`) are counted under their delta regime."""
        started = perf_counter()
        specs = _compile_specs(compiled, announcement)
        sec_fp = None if security is None else security.fingerprint
        base: Optional[CompiledOutcome] = None
        if (
            isinstance(prev, CompiledOutcome)
            and prev._compiled is compiled
            and prev._security_fp == sec_fp
        ):
            base = prev
        mode, shift, slots = _delta_regime(
            compiled, None if base is None else base._specs, specs, security
        )
        outcome: CompiledOutcome
        if base is not None and mode == "noop":
            outcome = base
        else:
            if base is not None and mode == "shift":
                # Tables are never mutated after construction, so a pure
                # prepend change shares all four arrays with the previous
                # outcome (a poison swap patches copies); the uniform plen
                # shift stays pending, composing with any shift the base
                # itself carries.
                table = _swap_poison(
                    compiled, (base._kind, base._via, base._root, base._plen),
                    specs, slots,
                )
                shift += base._plen_shift
            else:
                table = _converge(compiled, specs, security)
                self._runs.inc()
            outcome = CompiledOutcome(
                self.graph, compiled, table, specs, sec_fp, shift
            )
        if chained:
            self._delta_runs.labels(mode).inc()
            if mode in ("noop", "shift"):
                self._delta_saved.inc(float(compiled.n - len(slots)))
        self._seconds.observe(perf_counter() - started)
        return outcome

    # -- sweeps ---------------------------------------------------------------

    def propagate_many(
        self,
        announcements: Sequence[Announcement],
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> List[RoutingOutcome]:
        """Converge a whole sweep.

        Misses are reordered for delta affinity (same steering group —
        and same security fingerprint — adjacent) and chained through
        incremental reconvergence, so a steering sweep pays full
        converges at most at group boundaries; a boundary that only swaps
        customer-less poisons, per spec, shifts too.  Secured sweeps
        compile the policy per announcement (verdicts depend on prefix
        and origins).
        """
        announcements = list(announcements)
        compiled = self.compiled()
        secs = [_active_security(security, a) for a in announcements]
        fps = [None if s is None else s.fingerprint for s in secs]

        results: List[Optional[RoutingOutcome]] = [None] * len(announcements)
        miss_idx: List[int] = []
        keys: List[Tuple] = []
        for i, announcement in enumerate(announcements):
            key = (compiled.version, canonical_key(announcement), fps[i])
            keys.append(key)
            cached = self.cache.get(key) if use_cache else None
            if cached is not None:
                results[i] = cached
            else:
                miss_idx.append(i)

        # Every miss reuses the previous miss's route table where the
        # regime allows.
        aff = [(_affinity_key(announcements[i]), fps[i]) for i in miss_idx]
        prev: Optional[RoutingOutcome] = None
        for pos in _affinity_order(aff):
            i = miss_idx[pos]
            outcome = self._run_delta(
                compiled, announcements[i], prev, secs[i], chained=True
            )
            results[i] = outcome
            if use_cache:
                self.cache.put(keys[i], outcome)
            prev = outcome
        return results  # type: ignore[return-value]

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        compiled = self._compiled
        return {
            "graph_version": self.graph.version,
            "compiled_version": None if compiled is None else compiled.version,
            "compile_count": self.compile_count,
            "cache": self.cache.stats(),
            "delta": {
                mode: int(self._delta_runs.labels(mode).value)
                for mode in _DELTA_MODES
            },
            "delta_saved_slots": int(self._delta_saved.value),
            # Constant; benchmarks/e2e/harness.py::engine_counters reads both keys.
            "parallel": {"chains": 0, "pool_fallbacks": {}},
        }


def default_parallelism() -> int:
    """CPUs less one; only benchmarks/e2e/cli.py and e2e/anycast.py read it."""
    return max(1, (os.cpu_count() or 1) - 1)
