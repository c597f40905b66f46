"""A complete BGP router: sessions + RIB stages + decision + export.

This is the library's Quagga: PEERING servers are built from it, the
MinineXt emulation runs one per PoP, and Figure 2 measures its table
memory.  It implements:

* per-peer Adj-RIB-In (post import policy), Loc-RIB, per-peer Adj-RIB-Out;
* the decision process from :mod:`repro.bgp.decision`;
* eBGP export rules (prepend own ASN, next-hop-self, strip LOCAL_PREF and
  non-local MED), iBGP rules (no iBGP-to-iBGP re-advertisement unless
  acting as an RFC 4456 route reflector), NO_EXPORT/NO_ADVERTISE handling;
* receive-side loop rejection (own ASN in AS_PATH — the mechanism that
  makes AS-path poisoning work);
* ADD-PATH transmit: up to ``add_path_limit`` ranked paths per prefix for
  peers that negotiated it (the BIRD-mode mux in §3);
* optional MRAI batching per peer and max-prefix limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..net.addr import IPAddress, Prefix
from ..net.channel import ChannelPair, Endpoint
from ..sim.engine import Engine, Timer
from .attributes import (
    NO_ADVERTISE,
    NO_EXPORT,
    Community,
    Origin,
    PathAttributes,
    ASPath,
)
from .decision import select_best
from .errors import BGPError
from .policy import RouteMap
from .rib import AdjRIBIn, AdjRIBOut, LocRIB, Route
from .session import BGPSession, SessionConfig
from .messages import UpdateMessage

__all__ = ["PeerConfig", "BGPRouter", "connect_routers"]


@dataclass
class PeerConfig:
    """Configuration of one neighbor."""

    peer_id: str
    remote_asn: int
    local_address: IPAddress
    import_policy: RouteMap = field(default_factory=lambda: RouteMap.PERMIT_ALL)
    export_policy: RouteMap = field(default_factory=lambda: RouteMap.PERMIT_ALL)
    add_path: bool = False
    add_path_limit: int = 4
    passive: bool = False
    hold_time: int = 90
    mrai: float = 0.0
    max_prefixes: Optional[int] = None
    route_reflector_client: bool = False
    next_hop_self_ibgp: bool = False
    # Resilience knobs, passed through to the session (see SessionConfig).
    auto_reconnect: bool = False
    idle_hold_time: float = 5.0
    idle_hold_max: float = 300.0
    graceful_restart: bool = False
    restart_time: int = 120
    description: str = ""


class _Peer:
    """Runtime state for one neighbor."""

    def __init__(self, config: PeerConfig, session: BGPSession) -> None:
        self.config = config
        self.session = session
        self.adj_in = AdjRIBIn(config.peer_id)
        self.adj_out = AdjRIBOut(config.peer_id)
        self.pending_announce: Dict[Tuple[Prefix, Optional[int]], Route] = {}
        self.pending_withdraw: Set[Tuple[Prefix, Optional[int]]] = set()
        self.mrai_timer: Optional[Timer] = None
        self.prefix_limit_hit = False
        # RFC 4724: armed when the peer goes down gracefully; flushes the
        # stale-retained routes if the peer does not come back in time.
        self.restart_deadline: Optional[Timer] = None
        self.stale_flushes = 0
        self._path_ids = itertools.count(1)
        self._assigned_ids: Dict[Tuple[str, Optional[int]], int] = {}

    def path_id_for(self, route: Route) -> int:
        """Stable ADD-PATH id for a (source peer, source path id) route."""
        key = route.key()
        if key not in self._assigned_ids:
            self._assigned_ids[key] = next(self._path_ids)
        return self._assigned_ids[key]


class BGPRouter:
    """A BGP speaker with an arbitrary number of neighbors.

    Hooks:

    * ``on_best_change(prefix, old_route, new_route)`` — Loc-RIB change.
    * ``on_update_received(peer_id, UpdateMessage)`` — raw feed (used by the
      measurement collectors).
    """

    def __init__(
        self,
        engine: Engine,
        asn: int,
        router_id: IPAddress,
        cluster_id: Optional[int] = None,
        always_compare_med: bool = False,
    ) -> None:
        self.engine = engine
        self.asn = asn
        self.router_id = router_id
        self.cluster_id = cluster_id if cluster_id is not None else router_id.value
        self.always_compare_med = always_compare_med
        self.loc_rib = LocRIB()
        self._peers: Dict[str, _Peer] = {}
        self._local_routes: Dict[Prefix, Route] = {}
        self.on_best_change: Optional[
            Callable[[Prefix, Optional[Route], Optional[Route]], None]
        ] = None
        self.on_update_received: Optional[Callable[[str, UpdateMessage], None]] = None
        # Hook for IGP integration: maps a route's next hop to its IGP
        # metric (step 8 of the decision process).  Installed by the
        # emulation layer; None means all metrics are 0.
        self.resolve_igp_metric: Optional[Callable[[IPAddress], int]] = None
        self.rejected_policy = 0

    # -- peer management -----------------------------------------------------

    def add_peer(self, config: PeerConfig, endpoint: Optional[Endpoint]) -> BGPSession:
        """Register a neighbor reachable over ``endpoint``; returns its session.

        ``endpoint`` may be ``None`` when the transport will be supplied
        later through the session's ``transport_factory`` (mux failover,
        fault-injection links).
        """
        if config.peer_id in self._peers:
            raise BGPError(f"duplicate peer id {config.peer_id!r}")
        session = BGPSession(
            self.engine,
            SessionConfig(
                local_asn=self.asn,
                peer_asn=config.remote_asn,
                local_id=self.router_id,
                hold_time=config.hold_time,
                add_path=config.add_path,
                passive=config.passive,
                auto_reconnect=config.auto_reconnect,
                idle_hold_time=config.idle_hold_time,
                idle_hold_max=config.idle_hold_max,
                graceful_restart=config.graceful_restart,
                restart_time=config.restart_time,
                description=config.description or config.peer_id,
            ),
            endpoint,
        )
        peer = _Peer(config, session)
        session.on_update = lambda _s, update: self._handle_update(peer, update)
        session.on_established = lambda _s: self._handle_established(peer)
        session.on_down = lambda _s, reason: self._handle_down(peer, reason)
        session.on_route_refresh = lambda _s: self._full_export(peer)
        self._peers[config.peer_id] = peer
        return session

    def peer(self, peer_id: str) -> _Peer:
        return self._peers[peer_id]

    def peers(self) -> List[str]:
        return list(self._peers)

    # -- local origination -----------------------------------------------------

    def originate(
        self,
        prefix: Prefix,
        communities: Iterable[Community] = (),
        med: Optional[int] = None,
        origin: Origin = Origin.IGP,
    ) -> None:
        """Originate ``prefix`` locally (a ``network`` statement)."""
        attributes = PathAttributes(
            origin=origin,
            as_path=ASPath(),
            next_hop=None,
            med=med,
            communities=frozenset(communities),
        )
        route = Route(
            prefix=prefix,
            attributes=attributes,
            peer_id="",
            ebgp=False,
            local=True,
            weight=32768,
            learned_at=self.engine.now,
        )
        self._local_routes[prefix] = route
        self._reselect(prefix)

    def withdraw_local(self, prefix: Prefix) -> None:
        if self._local_routes.pop(prefix, None) is not None:
            self._reselect(prefix)

    def local_prefixes(self) -> List[Prefix]:
        return list(self._local_routes)

    # -- inbound -----------------------------------------------------------------

    def _handle_update(self, peer: _Peer, update: UpdateMessage) -> None:
        if self.on_update_received is not None:
            self.on_update_received(peer.config.peer_id, update)
        if update.is_end_of_rib:
            # RFC 4724: the recovered peer finished re-advertising; any
            # route it did not refresh is gone for real.
            self._flush_stale_routes(peer)
            return
        touched: Set[Prefix] = set()
        for path_id, prefix in update.withdrawn:
            if peer.adj_in.remove(prefix, path_id) is not None:
                touched.add(prefix)
        if update.attributes is not None:
            for path_id, prefix in update.nlri:
                if self._accept(peer, prefix, path_id, update.attributes):
                    touched.add(prefix)
        for prefix in touched:
            self._reselect(prefix)

    def _accept(
        self,
        peer: _Peer,
        prefix: Prefix,
        path_id: Optional[int],
        attributes: PathAttributes,
    ) -> bool:
        """Validate + apply import policy + install into Adj-RIB-In."""
        if attributes.as_path.contains(self.asn):
            return peer.adj_in.remove(prefix, path_id) is not None
        if attributes.originator_id == self.router_id:
            return peer.adj_in.remove(prefix, path_id) is not None
        if self.cluster_id in attributes.cluster_list:
            return peer.adj_in.remove(prefix, path_id) is not None
        ebgp = peer.config.remote_asn != self.asn
        if ebgp:
            # LOCAL_PREF is not accepted across AS boundaries.
            attributes = attributes.with_local_pref(None)
        igp_metric = 0
        if self.resolve_igp_metric is not None and attributes.next_hop is not None:
            igp_metric = self.resolve_igp_metric(attributes.next_hop)
        route = Route(
            prefix=prefix,
            attributes=attributes,
            peer_asn=peer.config.remote_asn,
            peer_id=peer.config.peer_id,
            path_id=path_id,
            ebgp=ebgp,
            igp_metric=igp_metric,
            learned_at=self.engine.now,
        )
        result = peer.config.import_policy.apply(route)
        if not result.permitted:
            self.rejected_policy += 1
            return peer.adj_in.remove(prefix, path_id) is not None
        if (
            peer.config.max_prefixes is not None
            and prefix not in peer.adj_in
            and len(peer.adj_in) >= peer.config.max_prefixes
        ):
            peer.prefix_limit_hit = True
            return False
        peer.adj_in.add(result.route)
        return True

    def _handle_established(self, peer: _Peer) -> None:
        self._full_export(peer)
        if peer.session.gr_active:
            # End-of-RIB: tells a gracefully-restarted peer it may flush
            # whatever stale routes we did not just re-advertise.
            peer.session.send_end_of_rib()

    def _handle_down(self, peer: _Peer, reason: str) -> None:
        if peer.session.last_down_graceful:
            self._retain_peer_routes(peer)
        else:
            self._flush_peer_routes(peer)

    def _flush_peer_routes(self, peer: _Peer) -> None:
        dropped = peer.adj_in.clear()
        # The peer lost our advertisements too: forget Adj-RIB-Out so the
        # next full export is not suppressed as "already sent".
        peer.adj_out.clear()
        peer.pending_announce.clear()
        peer.pending_withdraw.clear()
        if peer.restart_deadline is not None:
            peer.restart_deadline.stop()
        for route in dropped:
            self._reselect(route.prefix)

    def _retain_peer_routes(self, peer: _Peer) -> None:
        """RFC 4724 graceful restart: keep the peer's routes, stale-marked,
        until it re-advertises, sends End-of-RIB, or the deadline passes."""
        peer.adj_in.mark_all_stale()
        peer.adj_out.clear()
        peer.pending_announce.clear()
        peer.pending_withdraw.clear()
        deadline = peer.session.peer_restart_time
        if not deadline:
            deadline = peer.session.config.restart_time
        if peer.restart_deadline is None:
            peer.restart_deadline = self.engine.timer(
                deadline,
                lambda: self._flush_stale_routes(peer),
                label=f"gr-deadline:{peer.config.peer_id}",
            )
        peer.restart_deadline.start(deadline)

    def _flush_stale_routes(self, peer: _Peer) -> None:
        if peer.restart_deadline is not None:
            peer.restart_deadline.stop()
        dropped = peer.adj_in.flush_stale()
        if dropped:
            peer.stale_flushes += len(dropped)
        for route in dropped:
            self._reselect(route.prefix)

    # -- decision + export ---------------------------------------------------------

    def _candidates(self, prefix: Prefix) -> List[Route]:
        routes: List[Route] = []
        local = self._local_routes.get(prefix)
        if local is not None:
            routes.append(local)
        for peer in self._peers.values():
            routes.extend(peer.adj_in.routes_for(prefix))
        return routes

    def _reselect(self, prefix: Prefix) -> None:
        old = self.loc_rib.best(prefix)
        best, ranked = select_best(
            self._candidates(prefix), always_compare_med=self.always_compare_med
        )
        changed = self.loc_rib.set(prefix, best, ranked)
        if changed:
            if self.on_best_change is not None:
                self.on_best_change(prefix, old, best)
        # Export runs even when only the alternate set changed: ADD-PATH
        # peers see alternates, and a withdrawn alternate needs a withdraw.
        for peer in self._peers.values():
            if peer.session.established:
                self._export_prefix(peer, prefix)

    def _exportable(self, peer: _Peer, route: Route) -> Optional[Route]:
        """Apply export rules + policy; None means do not advertise."""
        config = peer.config
        ebgp_peer = config.remote_asn != self.asn
        attributes = route.attributes

        if NO_ADVERTISE in attributes.communities:
            return None
        if not route.local and not route.ebgp and not ebgp_peer:
            # iBGP-learned route to an iBGP peer: only a route reflector
            # may re-advertise, and only per RFC 4456 client rules.
            if not self._may_reflect(peer, route):
                return None
            attributes = attributes.reflected(
                _originator_of(route, self.router_id), self.cluster_id
            )
        if ebgp_peer:
            # NO_EXPORT stops *re-export* of learned routes at the AS edge.
            # A locally-originated route carrying the community is still
            # announced: the originator attached it for downstream ASes to
            # honor (how PEERING clients scope announcements to one peer).
            if NO_EXPORT in attributes.communities and not route.local:
                return None
            # Don't advertise a route back into the AS it came from: the
            # receiver would reject it anyway (loop detection).
            if attributes.as_path.contains(config.remote_asn):
                return None
            attributes = attributes.with_local_pref(None)
            if not route.local:
                # MED is non-transitive: only the originating neighbor AS's
                # MED crosses one AS boundary.
                attributes = attributes.with_med(None)
            attributes = attributes.prepended(self.asn)
            attributes = attributes.with_next_hop(config.local_address)
            # Reflection state is iBGP-internal.
            if attributes.originator_id is not None or attributes.cluster_list:
                attributes = replace(attributes, originator_id=None, cluster_list=())
        else:
            if route.local or config.next_hop_self_ibgp or attributes.next_hop is None:
                attributes = attributes.with_next_hop(config.local_address)
            if attributes.local_pref is None:
                attributes = attributes.with_local_pref(100)

        candidate = route.with_attributes(attributes)
        result = config.export_policy.apply(candidate)
        if not result.permitted:
            return None
        return result.route

    def _may_reflect(self, peer: _Peer, route: Route) -> bool:
        """RFC 4456: reflect client routes to everyone, non-client routes
        only to clients."""
        source = self._peers.get(route.peer_id)
        if source is None:
            return False
        if source.config.route_reflector_client:
            return True
        return peer.config.route_reflector_client

    def _export_prefix(self, peer: _Peer, prefix: Prefix) -> None:
        """Bring peer's Adj-RIB-Out for ``prefix`` in sync with Loc-RIB."""
        if peer.session.add_path_active:
            ranked = [
                r
                for r in self.loc_rib.candidates(prefix)
                if r.peer_id != peer.config.peer_id
            ][: peer.config.add_path_limit]
            desired: Dict[Optional[int], Route] = {}
            for route in ranked:
                exported = self._exportable(peer, route)
                if exported is not None:
                    pid = peer.path_id_for(route)
                    desired[pid] = Route(
                        prefix=exported.prefix,
                        attributes=exported.attributes,
                        peer_asn=exported.peer_asn,
                        peer_id=exported.peer_id,
                        path_id=pid,
                        ebgp=exported.ebgp,
                        local=exported.local,
                        weight=exported.weight,
                        learned_at=exported.learned_at,
                    )
        else:
            best = self.loc_rib.best(prefix)
            desired = {}
            if best is not None and best.peer_id != peer.config.peer_id:
                exported = self._exportable(peer, best)
                if exported is not None:
                    desired[None] = Route(
                        prefix=exported.prefix,
                        attributes=exported.attributes,
                        peer_asn=exported.peer_asn,
                        peer_id=exported.peer_id,
                        path_id=None,
                        ebgp=exported.ebgp,
                        local=exported.local,
                        weight=exported.weight,
                        learned_at=exported.learned_at,
                    )

        current_ids = set(peer.adj_out.path_ids(prefix))
        desired_ids = set(desired)
        for pid in current_ids - desired_ids:
            peer.adj_out.withdraw(prefix, pid)
            self._queue_withdraw(peer, prefix, pid)
        for pid, route in desired.items():
            if peer.adj_out.advertise(route):
                self._queue_announce(peer, route)

    def _full_export(self, peer: _Peer) -> None:
        for prefix in set(self.loc_rib.prefixes()):
            self._export_prefix(peer, prefix)

    # -- update transmission (with optional MRAI batching) ----------------------

    def _queue_announce(self, peer: _Peer, route: Route) -> None:
        key = (route.prefix, route.path_id)
        peer.pending_withdraw.discard(key)
        peer.pending_announce[key] = route
        self._maybe_flush(peer)

    def _queue_withdraw(self, peer: _Peer, prefix: Prefix, path_id: Optional[int]) -> None:
        key = (prefix, path_id)
        peer.pending_announce.pop(key, None)
        peer.pending_withdraw.add(key)
        self._maybe_flush(peer)

    def _maybe_flush(self, peer: _Peer) -> None:
        if peer.config.mrai <= 0:
            self._flush(peer)
            return
        if peer.mrai_timer is None:
            peer.mrai_timer = self.engine.timer(
                peer.config.mrai, lambda: self._flush(peer), label=f"mrai:{peer.config.peer_id}"
            )
        if not peer.mrai_timer.running:
            peer.mrai_timer.start()

    def _flush(self, peer: _Peer) -> None:
        if not peer.session.established:
            peer.pending_announce.clear()
            peer.pending_withdraw.clear()
            return
        if peer.pending_withdraw:
            items = sorted(peer.pending_withdraw, key=lambda k: (k[0].key(), k[1] or 0))
            prefixes = [p for p, _ in items]
            if peer.session.add_path_active:
                peer.session.withdraw(prefixes, path_ids=[pid or 0 for _, pid in items])
            else:
                peer.session.withdraw(prefixes)
            peer.pending_withdraw.clear()
        if peer.pending_announce:
            # Group by identical attributes so one UPDATE carries many NLRI.
            groups: Dict[PathAttributes, List[Tuple[Prefix, Optional[int]]]] = {}
            for (prefix, pid), route in peer.pending_announce.items():
                groups.setdefault(route.attributes, []).append((prefix, pid))
            for attributes, entries in groups.items():
                entries.sort(key=lambda e: (e[0].key(), e[1] or 0))
                prefixes = [p for p, _ in entries]
                if peer.session.add_path_active:
                    peer.session.announce(
                        prefixes, attributes, path_ids=[pid or 0 for _, pid in entries]
                    )
                else:
                    peer.session.announce(prefixes, attributes)
            peer.pending_announce.clear()

    # -- introspection -------------------------------------------------------------

    def table_size(self) -> int:
        return len(self.loc_rib)

    def adj_in_size(self) -> int:
        return sum(len(p.adj_in) for p in self._peers.values())

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        return self.loc_rib.best(prefix)

    def routes_received_from(self, peer_id: str) -> List[Route]:
        return list(self._peers[peer_id].adj_in.routes())


def _originator_of(route: Route, default: IPAddress) -> IPAddress:
    if route.attributes.originator_id is not None:
        return route.attributes.originator_id
    # Best effort: use the route's peer id when it parses as an address.
    try:
        return IPAddress(route.peer_id)
    except Exception:
        return default


def connect_routers(
    engine: Engine,
    left: BGPRouter,
    left_config: PeerConfig,
    right: BGPRouter,
    right_config: PeerConfig,
    start: bool = True,
) -> ChannelPair:
    """Wire two routers together with a fresh channel pair and (optionally)
    start the sessions immediately."""
    pair = ChannelPair(f"{left_config.peer_id}<->{right_config.peer_id}")
    left_session = left.add_peer(left_config, pair.a)
    right_session = right.add_peer(right_config, pair.b)
    if start:
        left_session.start()
        right_session.start()
    return pair
