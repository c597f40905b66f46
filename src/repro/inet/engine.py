"""Compiled Gao–Rexford propagation engine for sweep-style experiments.

Every experiment the paper showcases (§2: LIFEGUARD-style poisoning,
PoiRoot-style selective announcement, anycast prepend engineering) is a
*sweep*: evaluate dozens-to-thousands of announcement configurations over
the same AS graph.  The reference :func:`repro.inet.routing.propagate`
re-derives everything per call: it materializes a full AS-path tuple per
reached AS and pays per-call set copies on every adjacency access.

:class:`PropagationEngine` instead **compiles** the :class:`ASGraph` once
into int-indexed, pre-sorted CSR-style adjacency arrays (invalidated by
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

On top sit an LRU result cache keyed by ``(graph version, canonical
announcement)`` and :meth:`PropagationEngine.propagate_many`, which fans
a sweep out over a ``multiprocessing`` pool, shipping the compiled
topology once per worker and compact route tables back.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from collections import OrderedDict
from heapq import heappop, heappush
from time import perf_counter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterator, List, Optional,
    Sequence, Set, Tuple,
)

from ..telemetry.metrics import MetricsRegistry
from .routing import Announcement, ASRoute, OriginSpec, RouteKind, RoutingOutcome
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

# Empty tie-break rank for non-origin heap entries.  Origin entries carry
# their export path here, mirroring the reference heap's path comparison
# when (pathlen, via, target) tie between two specs of one origin.
_NO_RANK: Tuple[int, ...] = ()

# One compiled origin spec: (origin_index, export_path, export_set,
# announce_to_set); and the parent-pointer route table (kind, via, root,
# plen) every converge function returns.
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

# _converge_delta gives up (falls back to a full run) when the dirty cone
# exceeds n / _CONE_BAIL_DEN slots.  The constant is the measured
# crossover against the heap-free full converge, rounded to the safe
# side: on CAIDA-like graphs (bench_propagation --scale cone ladder,
# bail lifted) the cone path costs ~1.5 ms + ~14 us per withdrawn slot
# at 50k ASes against a ~10 ms full run and breaks even at 1.0-1.3 % of
# n there, ~1.4 % at 10k and ~1.6 % at 4k ASes — a fraction of n,
# because the full run and the cone path's fixed part both scale with
# n.  0.8 % keeps every cone that runs >= 1.2x ahead of the full run
# (propagate_delta is "purely an optimisation"): a bail costs the
# caller ~3 % over the full run it falls back to, an overrun cone
# grows linearly (0.3x of full at 5 %, 0.15x at 12 %), and past the
# crossover the odds of a late _DeltaUnsupported only grow.
_CONE_BAIL_DEN = 125


class _DeltaUnsupported(Exception):
    """An incremental convergence hit a corner whose reference semantics
    depend on state the delta keeps frozen (equal-key ties across specs,
    improvements into surviving entries under security filters).  The
    caller falls back to a full run — correctness over cleverness."""


class CompiledTopology:
    """An :class:`ASGraph` frozen into int-indexed adjacency arrays.

    ASes are renumbered ``0..n-1`` in ascending-ASN order (so comparing
    indices is comparing ASNs), and each relation is stored CSR-style as
    one flat neighbor array plus per-node offsets.  Per-node tuples are
    derived once for the hot loops; the CSR arrays are also the compact
    pickle form shipped to pool workers.
    """

    __slots__ = (
        "version", "n", "asns", "idx",
        "prov_off", "prov_adj", "cust_off", "cust_adj", "peer_off", "peer_adj",
        "providers", "customers", "peers", "peer_nodes", "cust_nodes",
        "_nbrs",
    )

    def __init__(self, graph: ASGraph) -> None:
        self.version = graph.version
        asns = sorted(graph.asns())
        self.asns: List[int] = asns
        self.n = len(asns)
        idx = {asn: i for i, asn in enumerate(asns)}
        self.idx: Dict[int, int] = idx

        def build(sorted_of: Callable[[int], Tuple[int, ...]]) -> Tuple[array, array]:
            adj = array("l")
            off = array("l", [0])
            for asn in asns:
                # sorted-by-ASN neighbors map to sorted indices (monotone).
                adj.extend(idx[nbr] for nbr in sorted_of(asn))
                off.append(len(adj))
            return off, adj

        self.prov_off, self.prov_adj = build(graph.sorted_providers)
        self.cust_off, self.cust_adj = build(graph.sorted_customers)
        self.peer_off, self.peer_adj = build(graph.sorted_peers)
        self._derive_views()

    def _derive_views(self) -> None:
        def views(off: array, adj: array) -> List[Tuple[int, ...]]:
            lst = adj.tolist()
            return [tuple(lst[off[i]:off[i + 1]]) for i in range(self.n)]

        self.providers = views(self.prov_off, self.prov_adj)
        self.customers = views(self.cust_off, self.cust_adj)
        self.peers = views(self.peer_off, self.peer_adj)
        # Ascending index lists of nodes that have peer / customer edges,
        # so phases 2 and 3 skip the (usually large) pure-stub remainder.
        self.peer_nodes = tuple(i for i, p in enumerate(self.peers) if p)
        self.cust_nodes = tuple(i for i, c in enumerate(self.customers) if c)
        self._nbrs: Optional[List[Tuple[int, ...]]] = None

    def children_index(self) -> List[Tuple[int, ...]]:
        """Per-node merged neighbor tuples — the reusable superset of any
        route table's dependence children.

        Whatever the route kind, ``via[i]`` is a topology neighbor of
        ``i``, so the dependence children of ``v`` (slots whose parent
        pointer is ``v``) are always found inside ``children_index()[v]``
        by checking ``via[child] == v``.  Built once per compiled
        topology (so invalidation rides the graph-version recompile) and
        shared by every delta run, letting withdraw/invalidate passes
        walk exactly the affected cone instead of scanning all n slots.
        """
        nbrs = self._nbrs
        if nbrs is None:
            nbrs = self._nbrs = [
                p + q + c
                for p, q, c in zip(self.providers, self.peers, self.customers)
            ]
        return nbrs

    # -- pickling (pool workers get the CSR arrays, not the tuple views) ------

    def __getstate__(self) -> Tuple:
        return (
            self.version, self.asns,
            self.prov_off, self.prov_adj,
            self.cust_off, self.cust_adj,
            self.peer_off, self.peer_adj,
        )

    def __setstate__(self, state: Tuple) -> None:
        (self.version, self.asns,
         self.prov_off, self.prov_adj,
         self.cust_off, self.cust_adj,
         self.peer_off, self.peer_adj) = state
        self.n = len(self.asns)
        self.idx = {asn: i for i, asn in enumerate(self.asns)}
        self._derive_views()


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
    classify as shift (or noop) deltas — the cheapest regimes.  Sweep
    chains are ordered by this key so workers see whole groups."""
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


def _partition_chains(
    keys: Sequence[Tuple], workers: int
) -> List[List[int]]:
    """Deal affinity groups onto ``workers`` delta chains.

    ``keys[pos]`` is the affinity key (plus security fingerprint) of
    miss ``pos``.  Groups are kept whole — splitting one would turn
    in-group shift deltas into cross-worker full converges — and
    assigned greedily, largest group to the least-loaded worker, so the
    chains stay balanced even when group sizes are skewed.  Group
    discovery order and the stable sort keep the result deterministic.
    Returns non-empty chains of positions (input order within a group)."""
    groups: Dict[Tuple, List[int]] = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    ordered = sorted(groups.values(), key=len, reverse=True)
    chains: List[List[int]] = [[] for _ in range(max(1, workers))]
    loads = [0] * len(chains)
    for grp in ordered:
        w = loads.index(min(loads))
        chains[w].extend(grp)
        loads[w] += len(grp)
    return [c for c in chains if c]


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
    """
    n = ct.n
    asns = ct.asns
    peers = ct.peers

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
        i = ct.idx.get(asn)
        if i is not None:
            if len(by) == len(specs):
                kind[i] = _BLOCKED
            else:
                partial[i] = frozenset(by)
    for oi, _epath, _eset, _ato in specs:
        kind[oi] = _ORIGIN
        partial.pop(oi, None)

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
                            if partial and t in partial and r in partial[t]:
                                continue
                            kind[t] = k
                            via[t] = v
                            root[t] = r
                            plen[t] = lvl
                            if adj[t]:
                                nxt.append(t)
                start = cut
                for t in targets:
                    if not kind[t]:
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


def _converge_secure(
    ct: CompiledTopology,
    specs: Sequence[SpecT],
    sec: "CompiledSecurity",
) -> TableT:
    """The three Gao–Rexford phases with per-AS security filters.

    The same three phases as :func:`_converge`, but heap-driven: a
    rejected candidate must leave its slot open for a worse one, which
    first-writer-wins levels cannot express.  Heap entries are
    ``(key, export_path_rank, spec_index)`` with ``key = pathlen*n² +
    via*n + target`` — ordered like the reference heap because index
    order is ASN order; origin pushes carry their export path as the
    rank (the reference's tie-break between two specs of one origin),
    everything else ``_NO_RANK``.  Two additions derive from a
    :class:`~repro.secroute.policy.CompiledSecurity`:

    * **ROV drop sets** — per spec, the node indices refusing routes of
      that spec's (Invalid) origin; checked wherever a node would accept
      a route.
    * **Peerlock masks** — ``fmask[i]`` tracks the protected/tier-1 bits
      of node i's AS path (i itself excluded, mirroring the reference's
      ``path[1:]`` tail check which skips the first hop).  A candidate
      popped at ``t`` via ``v`` has tail mask ``fmask[v]`` (or the
      spec's export-path tail mask ``omask[si]`` for direct origin
      pushes, distinguished by the rank field), and commits
      ``fmask[t] = m | bit(v)``.

    Rejected candidates are skipped without finalizing the slot, so a
    worse candidate can still fill it later — identical semantics to the
    reference's pop-time ``security.rejects`` check.
    """
    n = ct.n
    n2 = n * n
    asns = ct.asns
    providers = ct.providers
    customers = ct.customers
    peers = ct.peers
    push_ = heappush
    pop_ = heappop

    # -- index the compiled policy against this topology ---------------------
    idx = ct.idx
    drop_idx: List[frozenset] = []
    omask: List[int] = []
    for _oi, epath, _eset, _ato in specs:
        droppers = sec.drops.get(epath[-1])
        drop_idx.append(
            frozenset(idx[a] for a in droppers if a in idx)
            if droppers else frozenset()
        )
        omask.append(sec.path_mask(epath[1:]))
    bit_get = sec.bits.get
    pm_get = sec.pmask.get
    lite = sec.lite
    t1 = sec.t1mask
    bit_arr = [bit_get(a, 0) for a in asns]
    pl_arr = [pm_get(a, 0) for a in asns]
    lt_arr = [t1 if a in lite else 0 for a in asns]

    kind = bytearray(n)
    via: List[int] = [-1] * n
    root: List[int] = [-1] * n
    plen: List[int] = [0] * n
    fmask: List[int] = [0] * n

    for oi, _epath, _eset, _ato in specs:
        kind[oi] = _ORIGIN
    spec_sets = [s[2] for s in specs]

    # ---- Phase 1: customer routes climb provider edges ---------------------
    heap: List[Tuple[int, Tuple[int, ...], int]] = []
    for si, (oi, epath, eset, ato) in enumerate(specs):
        base = len(epath) * n2 + oi * n
        for p in providers[oi]:
            pasn = asns[p]
            if (ato is None or pasn in ato) and pasn not in eset:
                push_(heap, (base + p, epath, si))
    while heap:
        key, rank, si = pop_(heap)
        t = key % n
        if kind[t]:
            continue
        rest = key // n
        v = rest % n
        m = omask[si] if rank else fmask[v]
        if t in drop_idx[si]:
            continue
        if m & (pl_arr[t] | lt_arr[t]):  # from a customer: lite applies
            continue
        kind[t] = _CUSTOMER
        via[t] = v
        root[t] = si
        plen[t] = rest // n
        fmask[t] = m | bit_arr[v]
        nbase = key - key % n2 + n2 + t * n
        eset = spec_sets[si]
        for p in providers[t]:
            if not kind[p] and asns[p] not in eset:
                push_(heap, (nbase + p, _NO_RANK, si))

    # ---- Phase 2: one hop across peer edges --------------------------------
    specs_of_origin: Dict[int, List[int]] = {}
    for si, (oi, _epath, _eset, _ato) in enumerate(specs):
        specs_of_origin.setdefault(oi, []).append(si)
    cand: Dict[int, Tuple[int, int, int, int]] = {}
    for e in ct.peer_nodes:
        k = kind[e]
        if not k:
            continue
        pe = peers[e]
        if k == _ORIGIN:
            base_spec: Dict[int, Tuple[int, int]] = {}
            for si in specs_of_origin[e]:
                _oi, epath, eset, ato = specs[si]
                pl = len(epath)
                for p in pe:
                    if ato is None or asns[p] in ato:
                        base_spec[p] = (pl, si)
            for p, (pl, si) in base_spec.items():
                if kind[p] or asns[p] in spec_sets[si]:
                    continue
                if p in drop_idx[si] or omask[si] & pl_arr[p]:
                    continue
                inc = cand.get(p)
                if inc is None or pl < inc[0] or (pl == inc[0] and e < inc[1]):
                    cand[p] = (pl, e, si, omask[si])
        else:
            pl = plen[e] + 1
            si = root[e]
            eset = spec_sets[si]
            m = fmask[e]
            for p in pe:
                if kind[p] or asns[p] in eset:
                    continue
                if p in drop_idx[si] or m & pl_arr[p]:
                    continue
                inc = cand.get(p)
                if inc is None or pl < inc[0] or (pl == inc[0] and e < inc[1]):
                    cand[p] = (pl, e, si, m)
    for t, (pl, v, si, m) in cand.items():
        kind[t] = _PEER
        via[t] = v
        root[t] = si
        plen[t] = pl
        fmask[t] = m | bit_arr[v]

    # ---- Phase 3: routes descend provider->customer edges ------------------
    heap = []
    for e in ct.cust_nodes:
        k = kind[e]
        if not k:
            continue
        cu = customers[e]
        if k == _ORIGIN:
            for si in specs_of_origin[e]:
                _oi, epath, eset, ato = specs[si]
                base = len(epath) * n2 + e * n
                for c in cu:
                    casn = asns[c]
                    if (ato is None or casn in ato) and casn not in eset:
                        push_(heap, (base + c, epath, si))
        else:
            si = root[e]
            eset = spec_sets[si]
            base = (plen[e] + 1) * n2 + e * n
            for c in cu:
                if not kind[c] and asns[c] not in eset:
                    push_(heap, (base + c, _NO_RANK, si))
    while heap:
        key, rank, si = pop_(heap)
        t = key % n
        if kind[t]:
            continue
        rest = key // n
        v = rest % n
        m = omask[si] if rank else fmask[v]
        if t in drop_idx[si]:
            continue
        if m & pl_arr[t]:  # provider route: lite does not apply
            continue
        kind[t] = _PROVIDER
        via[t] = v
        root[t] = si
        plen[t] = rest // n
        fmask[t] = m | bit_arr[v]
        nbase = key - key % n2 + n2 + t * n
        eset = spec_sets[si]
        for c in customers[t]:
            if not kind[c] and asns[c] not in eset:
                push_(heap, (nbase + c, _NO_RANK, si))

    return kind, via, root, plen


def _spec_diff(
    old_specs: Sequence[SpecT], new_specs: Sequence[SpecT]
) -> Tuple[Dict[int, int], List[int], List[int]]:
    """Monotone content matching between two compiled spec tuples.

    Returns ``(remap, dirty_old, dirty_new)``: ``remap`` maps each
    *stable* old spec index to its new index, the dirty lists hold the
    unmatched remainder on either side.  Matching is order-preserving
    (greedy, in-order) because spec order is semantically significant —
    same-origin overwrite semantics and heap tie-breaks both read it — so
    a reordered spec counts as withdrawn-plus-reannounced.
    """
    remap: Dict[int, int] = {}
    j = 0
    for osi, ospec in enumerate(old_specs):
        for nsi in range(j, len(new_specs)):
            if new_specs[nsi] == ospec:
                remap[osi] = nsi
                j = nsi + 1
                break
    matched = set(remap.values())
    dirty_old = [i for i in range(len(old_specs)) if i not in remap]
    dirty_new = [i for i in range(len(new_specs)) if i not in matched]
    return remap, dirty_old, dirty_new


def _converge_delta(
    ct: CompiledTopology,
    old_specs: Sequence[SpecT],
    old_table: TableT,
    new_specs: Sequence[SpecT],
    sec: Optional["CompiledSecurity"] = None,
) -> Optional[Tuple[TableT, int]]:
    """Incrementally re-converge ``new_specs`` starting from the table of
    ``old_specs`` on the *same* compiled topology.

    The route table makes withdrawal exact: ``root`` is constant along
    every via chain, so the cone of a changed spec is precisely the slots
    whose root is that spec — clear them, remap surviving roots, and
    re-run the three phases over a heap seeded only at the boundary:

    * dirty specs announce fresh from their origins,
    * surviving holders adjacent to a cleared slot re-offer their routes,
    * phase 2 pull-recomputes exactly the peers of changed exporters,
    * phase 3 first invalidates the provider-route subtrees hanging off
      any changed exporter (old-children walk), then reseeds.

    Surviving entries are *frozen*: a popped candidate only touches one
    when it strictly beats it, and every improvement re-pushes its
    expansions so the cascade rewrites the affected subtree.  Because
    heap keys pop in ascending order, any pop that beats a stored entry
    is necessarily beating frozen (old-run) state — new-run settles are
    already minimal.  Two corners where exact reference semantics would
    need more than the frozen table offers raise
    :class:`_DeltaUnsupported` (caller falls back to a full run): equal
    ``(plen, via)`` ties resolved on export-path content across different
    specs, and improvements into frozen entries while security filters
    are active (downstream path masks would go stale).

    Returns ``((kind, via, root, plen), touched)`` with ``touched`` the
    number of slots examined/rewritten, or ``None`` when no old spec
    survives (a full run does the same work).
    """
    remap, dirty_old, dirty_new = _spec_diff(old_specs, new_specs)
    if not remap:
        return None

    n = ct.n
    n2 = n * n
    asns = ct.asns
    providers = ct.providers
    customers = ct.customers
    peers = ct.peers
    push_ = heappush
    pop_ = heappop

    kind0, via0, root0, plen0 = old_table
    dirty_old_set = set(dirty_old)
    dirty_new_set = set(dirty_new)

    # ---- Withdraw: root is constant along via chains, so the slots
    # rooted in a dirty spec are exactly the old dependence subtree of
    # its origin, restricted to dirty roots.  Walking that subtree over
    # the children index costs O(cone edges) instead of an O(n) scan —
    # and valley-free export narrows it further: only an origin or a
    # customer-route holder has children beyond its customers, so the
    # provider-route bulk of a cone never scans its peer meshes.  The
    # walk reads only the old table, discovering the cone incrementally
    # and bailing as soon as it is provably too large, before any array
    # has been copied — an oversized cone costs the caller next to
    # nothing on its way to the full run.
    bail_at = n // _CONE_BAIL_DEN
    nbrs = ct.children_index()
    cleared: List[int] = []
    for o in {old_specs[si][0] for si in dirty_old}:
        stack = [o]
        while stack:
            v2 = stack.pop()
            for t in nbrs[v2] if kind0[v2] >= _CUSTOMER else customers[v2]:
                if via0[t] == v2 and root0[t] in dirty_old_set:
                    cleared.append(t)
                    stack.append(t)
            if len(cleared) > bail_at:
                return None

    kind = bytearray(kind0)
    via = list(via0)
    plen = list(plen0)
    # Root remap: the common sweep case keeps every stable spec at its
    # old index (identity remap), so the new root array is a C-level copy
    # of the old one.  Only a genuinely reordered spec list pays the O(n)
    # per-slot remap pass.
    if all(o == m for o, m in remap.items()):
        root = list(root0)
    else:
        root = [-1] * n
        for i, k in enumerate(kind0):
            if k and k != _ORIGIN:
                m = remap.get(root0[i])
                if m is not None:
                    root[i] = m
    touched = bytearray(n)
    for t in cleared:
        kind[t] = 0
        via[t] = -1
        root[t] = -1
        plen[t] = 0
        touched[t] = 1

    # ---- Origin status changes invalidate whole dependence subtrees:
    # an AS that gains or loses origin status changes every route whose
    # via chain passes through it, whatever the root.  Same walk, not
    # restricted by root — its size is only discovered on the way, so
    # the bail trips as soon as the region is provably too large.
    old_orig = {s[0] for s in old_specs}
    new_orig = {s[0] for s in new_specs}
    osc = old_orig ^ new_orig
    if osc:
        stack = []
        for o in osc:
            if kind[o]:
                kind[o] = 0
                via[o] = -1
                plen[o] = 0
                root[o] = -1
            if not touched[o]:
                touched[o] = 1
                cleared.append(o)
            stack.append(o)
        while stack:
            v2 = stack.pop()
            for d in nbrs[v2]:
                if kind[d] and kind[d] != _ORIGIN and via0[d] == v2:
                    kind[d] = 0
                    via[d] = -1
                    plen[d] = 0
                    root[d] = -1
                    touched[d] = 1
                    cleared.append(d)
                    stack.append(d)
            if len(cleared) > bail_at:
                return None
        for o in new_orig:
            if kind[o] != _ORIGIN:
                kind[o] = _ORIGIN
                via[o] = -1
                plen[o] = 0
                root[o] = -1

    # ---- Security tables (mirrors _converge_secure) and path-mask
    # reconstruction for survivors, parents before children.
    drop_idx: List[FrozenSet[int]] = []
    omask: List[int] = []
    bit_arr: List[int] = []
    pl_arr: List[int] = []
    lt_arr: List[int] = []
    fmask: List[int] = []
    if sec is not None:
        idx = ct.idx
        for _oi, epath, _eset, _ato in new_specs:
            droppers = sec.drops.get(epath[-1])
            drop_idx.append(
                frozenset(idx[a] for a in droppers if a in idx)
                if droppers else frozenset()
            )
            omask.append(sec.path_mask(epath[1:]))
        bit_get = sec.bits.get
        pm_get = sec.pmask.get
        lite = sec.lite
        t1 = sec.t1mask
        bit_arr = [bit_get(a, 0) for a in asns]
        pl_arr = [pm_get(a, 0) for a in asns]
        lt_arr = [t1 if a in lite else 0 for a in asns]
        fmask = [0] * n
        for i in sorted(
            (i for i, k in enumerate(kind) if k and k != _ORIGIN),
            key=plen.__getitem__,
        ):
            v2 = via[i]
            base = omask[root[i]] if kind[v2] == _ORIGIN else fmask[v2]
            fmask[i] = base | bit_arr[v2]

    spec_sets = [s[2] for s in new_specs]
    specs_of_origin: Dict[int, List[int]] = {}
    for si, (soi, _e, _s, _a) in enumerate(new_specs):
        specs_of_origin.setdefault(soi, []).append(si)

    changed_p1: Set[int] = set(cleared)

    # ---- Phase 1 delta: dirty specs seed at their origins; survivors at
    # the withdrawal boundary re-offer routes into cleared slots.
    heap: List[Tuple[int, Tuple[int, ...], int]] = []
    for si in dirty_new:
        soi, epath, eset, ato = new_specs[si]
        base2 = len(epath) * n2 + soi * n
        for p in providers[soi]:
            pasn = asns[p]
            if (ato is None or pasn in ato) and pasn not in eset:
                push_(heap, (base2 + p, epath, si))
    for t in cleared:
        tasn = asns[t]
        for c in customers[t]:
            kc = kind[c]
            if kc == _CUSTOMER:
                si = root[c]
                if tasn not in spec_sets[si]:
                    push_(heap, ((plen[c] + 1) * n2 + c * n + t, _NO_RANK, si))
            elif kc == _ORIGIN:
                for si in specs_of_origin.get(c, ()):
                    if si in dirty_new_set:
                        continue
                    _soi, epath, eset, ato = new_specs[si]
                    if (ato is None or tasn in ato) and tasn not in eset:
                        push_(heap, (len(epath) * n2 + c * n + t, epath, si))
    while heap:
        key, rank, si = pop_(heap)
        t = key % n
        kt = kind[t]
        if kt == _ORIGIN:
            continue
        rest = key // n
        v2 = rest % n
        pl = rest // n
        if kt == _CUSTOMER:
            curkey = plen[t] * n2 + via[t] * n + t
            if key > curkey:
                continue
            if key == curkey:
                if root[t] != si:
                    # equal (plen, via) across specs: reference breaks the
                    # tie on export-path content the table doesn't keep
                    raise _DeltaUnsupported
                continue
            if sec is not None:
                # improving a frozen entry would stale downstream masks
                raise _DeltaUnsupported
            if pl == plen[t]:
                if si != root[t]:
                    raise _DeltaUnsupported
                # same spec, same length, lower via: reroute in place —
                # children's (plen, via) keys are unaffected.
                via[t] = v2
                touched[t] = 1
                continue
            # strictly shorter: settle below; expansions cascade through
            # the old subtree with strictly better keys.
        elif sec is not None:
            m = omask[si] if rank else fmask[v2]
            if t in drop_idx[si]:
                continue
            if m & (pl_arr[t] | lt_arr[t]):
                continue
            fmask[t] = m | bit_arr[v2]
        kind[t] = _CUSTOMER
        via[t] = v2
        root[t] = si
        plen[t] = pl
        touched[t] = 1
        changed_p1.add(t)
        eset = spec_sets[si]
        nbase = (pl + 1) * n2 + t * n
        for p in providers[t]:
            kp = kind[p]
            if kp == _ORIGIN or asns[p] in eset:
                continue
            if kp == _CUSTOMER and nbase + p >= plen[p] * n2 + via[p] * n + p:
                continue  # can't beat the incumbent
            push_(heap, (nbase + p, _NO_RANK, si))

    # ---- Phase 2 delta: pull-recompute exactly the peers of changed
    # exporters (and changed slots themselves).  Pulls read only
    # phase-1/origin state, so they are order-independent.
    dirty_origins = {old_specs[si][0] for si in dirty_old}
    dirty_origins.update(new_specs[si][0] for si in dirty_new)
    exp_changed = changed_p1 | dirty_origins
    # Per-target lists of *changed* adjacent exporters.  Offers from
    # unchanged exporters are literally unchanged (exporter state, spec
    # content, and security masks all survive), so most recomputes only
    # need the old incumbent plus these lists — an IXP member with
    # thousands of peers no longer rescans the whole mesh because one of
    # them changed.  Targets whose old route was customer/origin (which
    # shadowed every peer offer) still rescan in full.
    cand_of: Dict[int, List[int]] = {}
    for e in exp_changed:
        ke = kind[e]
        if (not ke or ke == _PEER or ke == _PROVIDER) and peers[e]:
            cand_of.setdefault(e, [])
        for p in peers[e]:
            kp = kind[p]
            if not kp or kp == _PEER or kp == _PROVIDER:
                cand_of.setdefault(p, []).append(e)
    changed_p2: Set[int] = set()
    for t, cands in cand_of.items():
        k0t = kind0[t]
        dense = 4 * len(cands) >= len(peers[t])
        if k0t == _PEER:
            e0 = via0[t]
            # incumbent unchanged: it still beats every unchanged rival
            # (it won the old run), so only it and the changed exporters
            # can produce the new minimum.  Dense candidate lists fall
            # back to the plain mesh scan — cheaper than set + sort.
            scan: Sequence[int] = (
                peers[t]
                if dense or e0 in exp_changed
                else sorted({e0, *cands})
            )
        elif not k0t or k0t == _PROVIDER:
            # old run found no valid peer offer for t, and unchanged
            # exporters still offer nothing — only changed ones can.
            scan = peers[t] if dense else sorted(cands)
        else:
            scan = peers[t]
        tasn = asns[t]
        best_pl = -1
        best_e = -1
        best_si = -1
        best_m = 0
        for e in scan:  # ascending e: first win at a length is lowest via
            ke = kind[e]
            if ke == _ORIGIN:
                sel = -1
                for si in specs_of_origin.get(e, ()):
                    ato = new_specs[si][3]
                    if ato is None or tasn in ato:
                        sel = si  # later specs overwrite, as in reference
                if sel < 0 or tasn in spec_sets[sel]:
                    continue
                pl = len(new_specs[sel][1])
                m = 0
                if sec is not None:
                    m = omask[sel]
                    if t in drop_idx[sel] or m & pl_arr[t]:
                        continue
                si2 = sel
            elif ke == _CUSTOMER:
                si2 = root[e]
                if tasn in spec_sets[si2]:
                    continue
                pl = plen[e] + 1
                m = 0
                if sec is not None:
                    m = fmask[e]
                    if t in drop_idx[si2] or m & pl_arr[t]:
                        continue
            else:
                continue
            if best_pl < 0 or pl < best_pl:
                best_pl = pl
                best_e = e
                best_si = si2
                best_m = m
        if best_pl < 0:
            if kind[t] == _PEER:
                kind[t] = 0
                via[t] = -1
                root[t] = -1
                plen[t] = 0
                touched[t] = 1
                changed_p2.add(t)
                cleared.append(t)
        else:
            if (kind[t] != _PEER or via[t] != best_e
                    or root[t] != best_si or plen[t] != best_pl):
                kind[t] = _PEER
                via[t] = best_e
                root[t] = best_si
                plen[t] = best_pl
                touched[t] = 1
                changed_p2.add(t)
            if sec is not None:
                fmask[t] = best_m | bit_arr[best_e]

    # ---- Phase 3 delta: provider-route subtrees hanging off any changed
    # exporter are stale.  A slot still holding _PROVIDER here is an old
    # survivor (via == via0), and provider routes only ever point at a
    # topology customer — so walking customers[v2] and filtering on
    # kind/via visits exactly the old via0-children, without building a
    # full O(n) children array.
    changed12 = exp_changed | changed_p2
    stack2 = list(changed12)
    while stack2:
        v2 = stack2.pop()
        for d in customers[v2]:
            if kind[d] == _PROVIDER and via[d] == v2:
                kind[d] = 0
                via[d] = -1
                root[d] = -1
                plen[d] = 0
                touched[d] = 1
                cleared.append(d)
                stack2.append(d)

    heap = []
    for si in dirty_new:
        soi, epath, eset, ato = new_specs[si]
        base2 = len(epath) * n2 + soi * n
        for c in customers[soi]:
            casn = asns[c]
            if (ato is None or casn in ato) and casn not in eset:
                push_(heap, (base2 + c, epath, si))
    for e in changed12:
        ke = kind[e]
        if ke == _CUSTOMER or ke == _PEER:
            si = root[e]
            eset = spec_sets[si]
            base2 = (plen[e] + 1) * n2 + e * n
            for c in customers[e]:
                if asns[c] not in eset:
                    push_(heap, (base2 + c, _NO_RANK, si))
    # Every slot that went route->empty was appended to `cleared` when it
    # was cleared (withdraw, origin-status, phase-2 removal, phase-3
    # invalidation), so the reseed only visits the dirty region instead
    # of scanning all n slots.  Re-settled slots skip via the kind check.
    for t in cleared:
        if kind[t]:
            continue
        tasn = asns[t]
        for v2 in providers[t]:
            kv = kind[v2]
            if not kv:
                continue
            if kv == _ORIGIN:
                for si in specs_of_origin.get(v2, ()):
                    if si in dirty_new_set:
                        continue
                    _soi, epath, eset, ato = new_specs[si]
                    if (ato is None or tasn in ato) and tasn not in eset:
                        push_(heap, (len(epath) * n2 + v2 * n + t, epath, si))
            elif v2 not in changed12:
                si = root[v2]
                if tasn not in spec_sets[si]:
                    push_(heap, ((plen[v2] + 1) * n2 + v2 * n + t, _NO_RANK, si))
    while heap:
        key, rank, si = pop_(heap)
        t = key % n
        kt = kind[t]
        if kt and kt != _PROVIDER:
            continue
        rest = key // n
        v2 = rest % n
        pl = rest // n
        if kt == _PROVIDER:
            curkey = plen[t] * n2 + via[t] * n + t
            if key > curkey:
                continue
            if key == curkey:
                if root[t] != si:
                    raise _DeltaUnsupported
                continue
            if sec is not None:
                raise _DeltaUnsupported
            if pl == plen[t]:
                if si != root[t]:
                    raise _DeltaUnsupported
                via[t] = v2
                touched[t] = 1
                continue
        elif sec is not None:
            m = omask[si] if rank else fmask[v2]
            if t in drop_idx[si]:
                continue
            if m & pl_arr[t]:  # provider route: lite does not apply
                continue
            fmask[t] = m | bit_arr[v2]
        kind[t] = _PROVIDER
        via[t] = v2
        root[t] = si
        plen[t] = pl
        touched[t] = 1
        eset = spec_sets[si]
        nbase = (pl + 1) * n2 + t * n
        for c in customers[t]:
            kc = kind[c]
            if kc == 0:
                if asns[c] not in eset:
                    push_(heap, (nbase + c, _NO_RANK, si))
            elif kc == _PROVIDER:
                if asns[c] not in eset and nbase + c < plen[c] * n2 + via[c] * n + c:
                    push_(heap, (nbase + c, _NO_RANK, si))

    return (kind, via, root, plen), touched.count(1)


class CompiledOutcome(RoutingOutcome):
    """A :class:`RoutingOutcome` backed by the compact parent-pointer
    table.  AS paths (and :class:`ASRoute` objects) materialize lazily
    and are memoized; everything else reads the arrays directly."""

    def __init__(
        self,
        graph: ASGraph,
        compiled: CompiledTopology,
        table: TableT,
        spec_paths: Tuple[Tuple[int, ...], ...],
        specs: Optional[Tuple[SpecT, ...]] = None,
        security_fp: Optional[Tuple] = None,
        plen_shift: int = 0,
    ) -> None:
        self._graph = graph
        self._compiled = compiled
        self._kind, self._via, self._root, self._plen = table
        # A pure prepend change shifts every selected route's path length
        # by the same amount; the shift is recorded here instead of
        # copying the 50k-entry plen array (accessors reconstruct paths
        # from via pointers and never read plen, so materialization —
        # see _table() — is deferred until a cone delta needs it).
        self._plen_shift = plen_shift
        self._spec_paths = spec_paths
        # Delta-propagation provenance: the compiled specs this table was
        # converged for and the security fingerprint in effect (None =
        # unsecured).  propagate_delta only reuses a table whose
        # provenance matches the new request's.
        self._specs = specs
        self._security_fp = security_fp
        self._memo: Dict[int, ASRoute] = {}

    def _table(self) -> TableT:
        """The parent-pointer table with any pending plen shift applied.

        Materializes at most once (rebinding ``self._plen`` to a fresh
        list — the shared predecessor array is never mutated); origin
        and unreached slots keep their plen untouched, matching what an
        eager shift would have produced."""
        s = self._plen_shift
        if s:
            self._plen = [
                p + s if (k and k != _ORIGIN) else p
                for k, p in zip(self._kind, self._plen)
            ]
            self._plen_shift = 0
        return (self._kind, self._via, self._root, self._plen)

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
        originating spec's export path."""
        if self._kind[i] == _ORIGIN:
            return ()
        asns = self._compiled.asns
        via = self._via
        kind = self._kind
        parts: List[int] = []
        cur = via[i]
        while kind[cur] != _ORIGIN:
            parts.append(asns[cur])
            cur = via[cur]
        return tuple(parts) + self._spec_paths[self._root[i]]

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

    # -- anycast fast path ----------------------------------------------------

    def origin_spec_index(self, asn: int) -> Optional[int]:
        """Which origin spec's export terminates ``asn``'s forwarding
        chain — the index into the announcement's ``origins`` tuple, or
        None when unreached or when ``asn`` itself originates (several
        specs may share one origin; its root slot holds -1, as unreached
        slots do, whichever kernel built the table).  For a multi-site
        anycast announcement (one spec per site) this *is* the catchment
        identity: the site whose announcement front won ``asn``, answered
        from the root array without materializing a route."""
        i = self._compiled.idx.get(asn)
        if i is None or self._kind[i] in (0, _ORIGIN):
            return None
        return self._root[i]

    def spec_table(self) -> Tuple[Dict[int, int], bytearray, List[int], List[int]]:
        """The raw per-AS arrays ``(index_of, kind, root, plen)`` with any
        pending path-length shift applied.

        ``index_of`` maps ASN to slot; ``kind[slot]`` is the RouteKind
        code (0 = unreached), ``root[slot]`` the winning origin-spec
        index, ``plen[slot]`` the selected path length.  This is the bulk
        interface population-scale catchment mapping reads — millions of
        clients collapse to two array lookups each instead of per-AS
        route materialization.  Callers must not mutate the arrays."""
        kind, _via, root, plen = self._table()
        return self._compiled.idx, kind, root, plen


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


# -- multiprocessing worker plumbing ------------------------------------------
# The compiled topology (and any compiled security masks, deduped) are
# shipped once per worker via the pool initializer; tasks then carry
# whole *chains* of (tiny) canonical spec blobs ordered for delta
# affinity, and results carry one compact entry per chain point: either
# a route table or a reference to an earlier table plus a pending plen
# shift.  Workers converge incrementally exactly like the serial sweep
# path, so the 10x delta-chaining win survives the fan-out.

_WORKER_TOPOLOGY: Optional[CompiledTopology] = None
_WORKER_SECURITIES: Tuple["CompiledSecurity", ...] = ()

_DELTA_MODES = ("noop", "shift", "cone", "fallback", "full")

# Chain-result entries: ("table", kind, via, root, plen) ships a full
# route table; ("shift", base_pos, pending) references the table entry
# at base_pos in the same chain, sharing all four arrays with a pending
# uniform plen shift (0 for a pure noop).  The two shapes differ in
# arity, so the alias is a variadic tuple dispatched on entry[0].
ChainEntryT = Tuple[Any, ...]
ChainBlobT = Tuple[Tuple[int, Tuple[int, ...], Optional[Tuple[int, ...]]], ...]
ChainResultT = Tuple[List[ChainEntryT], Dict[str, int], int]


def _pool_init(
    compiled: CompiledTopology,
    securities: Sequence["CompiledSecurity"] = (),
) -> None:
    global _WORKER_TOPOLOGY, _WORKER_SECURITIES
    _WORKER_TOPOLOGY = compiled
    _WORKER_SECURITIES = tuple(securities)


def _pool_run_chain(chain: Sequence[Tuple[ChainBlobT, int]]) -> ChainResultT:
    """Converge one delta-affinity chain of (spec_blob, sec_slot) items.

    Mirrors the serial sweep loop: each point reuses the previous
    point's route table when the regime allows (noop/shift/cone), and
    only regime transitions or security-fingerprint changes pay a full
    converge.  Shift points ship no arrays at all — just a reference to
    the chain's last full table and the accumulated plen offset."""
    ct = _WORKER_TOPOLOGY
    assert ct is not None  # set by the pool initializer
    secs = _WORKER_SECURITIES
    n = ct.n
    entries: List[ChainEntryT] = []
    counts = dict.fromkeys(_DELTA_MODES, 0)
    saved = 0
    prev_specs: Optional[Tuple[SpecT, ...]] = None
    prev_slot = -2  # sec slot of the previous point (-1 = unsecured)
    table: Optional[TableT] = None
    pending = 0  # un-materialized plen shift carried by `table`
    base_pos = -1  # entries index of the table backing shift references
    for spec_blob, sec_slot in chain:
        specs = tuple(
            (ct.idx[asn], epath, frozenset(epath),
             None if ato is None else frozenset(ato))
            for asn, epath, ato in spec_blob
        )
        sec = None if sec_slot < 0 else secs[sec_slot]
        mode = "full"
        if prev_specs is not None and sec_slot == prev_slot:
            assert table is not None
            if specs == prev_specs:
                counts["noop"] += 1
                saved += n
                entries.append(("shift", base_pos, pending))
                continue
            shift = PropagationEngine._shift_delta(prev_specs, specs, sec)
            if shift is not None:
                pending += shift
                counts["shift"] += 1
                saved += n
                entries.append(("shift", base_pos, pending))
                prev_specs = specs
                continue
            if pending:
                # cone deltas need real plen values; materialize like
                # CompiledOutcome._table (origins/unreached untouched)
                kind0, via0, root0, plen0 = table
                plen0 = [
                    p + pending if (k and k != _ORIGIN) else p
                    for k, p in zip(kind0, plen0)
                ]
                table = (kind0, via0, root0, plen0)
                pending = 0
            try:
                res = _converge_delta(ct, prev_specs, table, specs, sec)
            except _DeltaUnsupported:
                res = None
            if res is not None:
                table, frontier = res
                mode = "cone"
                saved += max(0, n - frontier)
            else:
                mode = "fallback"
                table = None
        else:
            table = None
            pending = 0
        if table is None:
            table = (
                _converge(ct, specs) if sec is None
                else _converge_secure(ct, specs, sec)
            )
            pending = 0
        counts[mode] += 1
        kind, via, root, plen = table
        entries.append((
            "table", bytes(kind),
            array("l", via), array("l", root), array("l", plen),
        ))
        base_pos = len(entries) - 1
        prev_specs = specs
        prev_slot = sec_slot
    return entries, counts, saved


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
        # Incremental-convergence instrumentation: runs by regime (noop /
        # shift / cone / fallback / full), the per-run recomputed-frontier
        # histogram, and a running total of table slots reused as-is —
        # the looking glass reads these to show work saved.
        self._delta_runs = self.metrics.counter(
            "peering_propagation_delta_runs_total",
            "Incremental propagation runs by regime",
            ("mode",),
        )
        self._delta_frontier = self.metrics.histogram(
            "peering_propagation_delta_frontier_size",
            "AS slots recomputed per incremental convergence",
            buckets=(0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0),
        ).labels()
        self._delta_saved = self.metrics.counter(
            "peering_propagation_delta_saved_total",
            "AS slots reused from the previous route table by delta runs",
        ).labels()
        # Parallel-sweep instrumentation: chains dispatched to pool
        # workers, worker-side regime counts (also folded into the
        # overall delta counters above), and pool degradations — spawn
        # (no fork on this platform) or serial (pool creation failed).
        self._par_chains = self.metrics.counter(
            "peering_propagation_parallel_chains_total",
            "Delta chains dispatched to pool workers",
        ).labels()
        self._par_delta_runs = self.metrics.counter(
            "peering_propagation_parallel_delta_runs_total",
            "Worker-side incremental propagation runs by regime",
            ("mode",),
        )
        self._pool_fallbacks = self.metrics.counter(
            "peering_propagation_pool_fallbacks_total",
            "Parallel sweeps degraded to a spawn context or serial runs",
            ("kind",),
        )

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
        compiled = self.compiled()
        if security is not None and hasattr(security, "compile_for"):
            security = security.compile_for(announcement)  # type: ignore[attr-defined]
        if security is not None and not security.active:
            security = None
        key = (
            compiled.version,
            canonical_key(announcement),
            None if security is None else security.fingerprint,
        )
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        outcome = self._run(compiled, announcement, security)
        if use_cache:
            self.cache.put(key, outcome)
        return outcome

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
        incrementality is purely an optimization, picked per change:

        * **noop** — identical steering: the previous outcome *is* the
          answer.
        * **shift** — same origin/export-set/targets, only the export
          path length changed (prepend engineering): every surviving
          route keeps its (kind, via) and shifts ``plen`` uniformly.
        * **cone** — general case: withdraw exactly the cones rooted in
          changed specs, re-seed the frontier at the changed origin and
          the withdrawal boundary, and converge only ASes whose best
          route could change.
        * **fallback / full** — no reusable previous table (different
          graph version or security fingerprint, no stable specs, or an
          exact-semantics corner): a normal full convergence.

        ``prev_outcome`` may be any outcome this engine produced for the
        *current* graph version under the same security fingerprint;
        anything else degrades gracefully to a full run.  Cache keys are
        identical to :meth:`propagate`'s, so delta-produced outcomes
        compose with fingerprinted security lookups and never alias."""
        compiled = self.compiled()
        if security is not None and hasattr(security, "compile_for"):
            security = security.compile_for(announcement)  # type: ignore[attr-defined]
        if security is not None and not security.active:
            security = None
        sec_fp = None if security is None else security.fingerprint
        key = (compiled.version, canonical_key(announcement), sec_fp)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        outcome = self._run_delta(
            compiled, announcement, prev_outcome, security, sec_fp
        )
        if use_cache:
            self.cache.put(key, outcome)
        return outcome

    @staticmethod
    def _shift_delta(
        old_specs: Tuple[SpecT, ...],
        new_specs: Tuple[SpecT, ...],
        security: Optional["CompiledSecurity"],
    ) -> Optional[int]:
        """Path-length delta if the change is a pure prepend adjustment
        (single spec, same origin/export-set/targets): acceptance
        decisions depend only on those plus — under security — the
        export path's tail mask and last hop, so (kind, via) is
        preserved exactly and plen shifts uniformly.  None otherwise."""
        if len(old_specs) != 1 or len(new_specs) != 1:
            return None
        ooi, oepath, oeset, oato = old_specs[0]
        noi, nepath, neset, nato = new_specs[0]
        if noi != ooi or neset != oeset or nato != oato:
            return None
        if security is not None:
            if nepath[-1] != oepath[-1]:
                return None
            if security.path_mask(nepath[1:]) != security.path_mask(oepath[1:]):
                return None
        return len(nepath) - len(oepath)

    def _run_delta(
        self,
        compiled: CompiledTopology,
        announcement: Announcement,
        prev: Optional[RoutingOutcome],
        security: Optional["CompiledSecurity"],
        sec_fp: Optional[Tuple],
    ) -> RoutingOutcome:
        started = perf_counter()
        new_specs = _compile_specs(compiled, announcement)
        base: Optional[CompiledOutcome] = None
        if (
            isinstance(prev, CompiledOutcome)
            and prev._compiled is compiled
            and prev._specs is not None
            and prev._security_fp == sec_fp
        ):
            base = prev
        mode = "full"
        table: Optional[TableT] = None
        frontier = 0
        plen_shift = 0
        if base is not None:
            old_specs = base._specs
            assert old_specs is not None
            if new_specs == old_specs:
                self._observe_delta("noop", 0, compiled.n, started)
                return base
            shift = self._shift_delta(old_specs, new_specs, security)
            if shift is not None:
                # Tables are never mutated after construction, so all
                # four arrays are shared with the previous outcome; the
                # uniform plen shift stays pending (composing with any
                # shift the base itself still carries) until someone
                # actually needs plen values.
                table = (base._kind, base._via, base._root, base._plen)
                plen_shift = base._plen_shift + shift
                mode = "shift"
            else:
                old_table = base._table()
                try:
                    res = _converge_delta(
                        compiled, old_specs, old_table, new_specs, security
                    )
                except _DeltaUnsupported:
                    res = None
                if res is not None:
                    table, frontier = res
                    mode = "cone"
                else:
                    mode = "fallback"
        if table is None:
            if security is None:
                table = _converge(compiled, new_specs)
            else:
                table = _converge_secure(compiled, new_specs, security)
            frontier = compiled.n
        spec_paths = tuple(s[1] for s in new_specs)
        outcome = CompiledOutcome(
            self.graph, compiled, table, spec_paths,
            specs=new_specs, security_fp=sec_fp, plen_shift=plen_shift,
        )
        self._runs.inc()
        self._observe_delta(mode, frontier, compiled.n, started)
        return outcome

    def _observe_delta(
        self, mode: str, frontier: int, n: int, started: float
    ) -> None:
        self._delta_runs.labels(mode).inc()
        if mode in ("noop", "shift", "cone"):
            self._delta_frontier.observe(float(frontier))
            self._delta_saved.inc(float(max(0, n - frontier)))
        self._seconds.observe(perf_counter() - started)

    def _run(
        self,
        compiled: CompiledTopology,
        announcement: Announcement,
        security: Optional["CompiledSecurity"] = None,
    ) -> CompiledOutcome:
        started = perf_counter()
        specs = _compile_specs(compiled, announcement)
        if security is None:
            table = _converge(compiled, specs)
        else:
            table = _converge_secure(compiled, specs, security)
        spec_paths = tuple(s[1] for s in specs)
        outcome = CompiledOutcome(
            self.graph, compiled, table, spec_paths,
            specs=specs,
            security_fp=None if security is None else security.fingerprint,
        )
        self._runs.inc()
        self._seconds.observe(perf_counter() - started)
        return outcome

    # -- sweeps ---------------------------------------------------------------

    def propagate_many(
        self,
        announcements: Sequence[Announcement],
        parallel: Optional[int] = None,
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> List[RoutingOutcome]:
        """Converge a whole sweep; with ``parallel=N`` fan the cache
        misses out over N worker processes sharing one compiled topology.

        Misses are reordered for delta affinity (same steering group —
        and same security fingerprint — adjacent) and chained through
        incremental reconvergence both serially and inside each pool
        worker, so a steering sweep pays full converges only at group
        boundaries.  Secured sweeps compile the policy per announcement
        (verdicts depend on prefix and origins) and ship the deduped
        compiled masks to workers alongside the topology.
        """
        announcements = list(announcements)
        compiled = self.compiled()
        secs: List[Optional["CompiledSecurity"]]
        if security is None:
            secs = [None] * len(announcements)
        elif hasattr(security, "compile_for"):
            secs = [
                security.compile_for(a)  # type: ignore[attr-defined]
                for a in announcements
            ]
            secs = [s if s is not None and s.active else None for s in secs]
        else:
            one = security if security.active else None
            secs = [one] * len(announcements)
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

        if miss_idx:
            aff = [
                (_affinity_key(announcements[i]), fps[i]) for i in miss_idx
            ]
            workers = 0 if not parallel else min(int(parallel), len(miss_idx))
            outcomes: Optional[List[CompiledOutcome]] = None
            if workers > 1:
                outcomes = self._run_parallel_chains(
                    compiled,
                    [announcements[i] for i in miss_idx],
                    [secs[i] for i in miss_idx],
                    [fps[i] for i in miss_idx],
                    _partition_chains(aff, workers),
                )
            if outcomes is not None:
                for pos, outcome in enumerate(outcomes):
                    i = miss_idx[pos]
                    results[i] = outcome
                    if use_cache:
                        self.cache.put(keys[i], outcome)
            else:
                # Serial (or pool-degraded) sweeps chain through delta
                # propagation in affinity order: every miss reuses the
                # previous miss's route table where the regime allows.
                prev: Optional[RoutingOutcome] = None
                [chain] = _partition_chains(aff, 1)
                for pos in chain:
                    i = miss_idx[pos]
                    outcome = self._run_delta(
                        compiled, announcements[i], prev, secs[i], fps[i]
                    )
                    results[i] = outcome
                    if use_cache:
                        self.cache.put(keys[i], outcome)
                    prev = outcome
        return results  # type: ignore[return-value]

    def _run_parallel_chains(
        self,
        compiled: CompiledTopology,
        announcements: Sequence[Announcement],
        secs: Sequence[Optional["CompiledSecurity"]],
        fps: Sequence[Optional[Tuple]],
        chains: List[List[int]],
    ) -> Optional[List[CompiledOutcome]]:
        """Run delta chains in a worker pool; None = degrade to serial.

        Ships the compiled topology plus the *unique* compiled-security
        objects once per worker; each task is one chain of canonical
        spec blobs with a slot index into that security table.  Workers
        return one compact entry per point (a table, or a reference to
        an earlier in-chain table plus a pending plen shift) and their
        per-regime counts, which fold into the engine's delta metrics."""
        import multiprocessing

        all_specs: List[Tuple[SpecT, ...]] = []
        blobs: List[Tuple] = []
        for announcement in announcements:
            specs = _compile_specs(compiled, announcement)  # validates origins
            all_specs.append(specs)
            blobs.append(
                tuple(
                    (spec.asn, spec.export_path(), spec.announce_to)
                    for spec in announcement.origins
                )
            )
        # Dedupe shipped securities: (fingerprint, drop-sets) pins the
        # converge-relevant state, so sweeps under one policy ship each
        # distinct mask table once instead of once per announcement.
        sec_objs: List["CompiledSecurity"] = []
        slot_of: Dict[Tuple, int] = {}
        slots: List[int] = []
        for sec in secs:
            if sec is None:
                slots.append(-1)
                continue
            skey = (
                sec.fingerprint,
                tuple(sorted(
                    (o, tuple(sorted(d))) for o, d in sec.drops.items()
                )),
            )
            slot = slot_of.get(skey)
            if slot is None:
                slot = len(sec_objs)
                sec_objs.append(sec)
                slot_of[skey] = slot
            slots.append(slot)
        payloads = [
            [(blobs[pos], slots[pos]) for pos in chain] for chain in chains
        ]
        ctx: multiprocessing.context.BaseContext
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: pickle the topology
            ctx = multiprocessing.get_context("spawn")
            self._pool_fallbacks.labels("spawn").inc()
        try:
            with ctx.Pool(
                processes=len(payloads),
                initializer=_pool_init,
                initargs=(compiled, sec_objs),
            ) as pool:
                raw = pool.map(_pool_run_chain, payloads)
        except (OSError, PermissionError):
            # Sandboxed/locked-down hosts without working semaphores:
            # degrade to serial delta chaining rather than failing.
            self._pool_fallbacks.labels("serial").inc()
            return None
        outcomes: List[Optional[CompiledOutcome]] = [None] * len(announcements)
        for chain, (entries, counts, saved) in zip(chains, raw):
            chain_outcomes: List[CompiledOutcome] = []
            for pos, entry in zip(chain, entries):
                specs = all_specs[pos]
                spec_paths = tuple(s[1] for s in specs)
                if entry[0] == "table":
                    _tag, kind_b, via_a, root_a, plen_a = entry
                    table = (
                        bytearray(kind_b), via_a.tolist(),
                        root_a.tolist(), plen_a.tolist(),
                    )
                    outcome = CompiledOutcome(
                        self.graph, compiled, table, spec_paths,
                        specs=specs, security_fp=fps[pos],
                    )
                else:
                    _tag2, base_pos, pending = entry
                    base = chain_outcomes[base_pos]
                    outcome = CompiledOutcome(
                        self.graph, compiled,
                        (base._kind, base._via, base._root, base._plen),
                        spec_paths, specs=specs, security_fp=fps[pos],
                        plen_shift=pending,
                    )
                chain_outcomes.append(outcome)
                outcomes[pos] = outcome
            for mode, count in counts.items():
                if count:
                    self._delta_runs.labels(mode).inc(count)
                    self._par_delta_runs.labels(mode).inc(count)
            self._delta_saved.inc(float(saved))
            # noops return the prior table and are not "runs" serially
            self._runs.inc(sum(counts.values()) - counts["noop"])
            self._par_chains.inc()
        return outcomes  # type: ignore[return-value]

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
            "parallel": {
                "chains": int(self._par_chains.value),
                "delta": {
                    mode: int(self._par_delta_runs.labels(mode).value)
                    for mode in _DELTA_MODES
                },
                "pool_fallbacks": {
                    kind: int(self._pool_fallbacks.labels(kind).value)
                    for kind in ("spawn", "serial")
                },
            },
        }


def default_parallelism() -> int:
    """Worker count for sweep fan-out (leave one CPU for the driver)."""
    return max(1, (os.cpu_count() or 1) - 1)
