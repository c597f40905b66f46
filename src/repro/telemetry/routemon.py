"""BMP-inspired route monitoring of the PEERING muxes.

The production testbed's operators watch what every experiment announces
through route-monitoring feeds; RFC 7854 (BMP) is how a real router
exports that view to a monitoring station.  :class:`RouteMonitor` plays
the station: it taps each client-facing :class:`~repro.bgp.session.BGPSession`
for PEER_UP / PEER_DOWN / pre-policy ROUTE_MONITORING messages, and
receives post-policy notifications from the testbed's announcement
registry (the analogue of BMP's Adj-RIB-Out / post-policy monitoring).

* **pre-policy** — exactly what the client said on the wire, before any
  safety filter ran (BMP's L-flag clear).
* **post-policy** — what the mux actually accepted into the substrate
  (only announcements that survived the safety gauntlet appear).

The monitor keeps a per-mux monitored RIB built from the post-policy
stream; :meth:`rib_routes` renders it as :class:`~repro.bgp.rib.Route`
objects (steering communities encoded PEERING-style as ``ASN:peer``).
:class:`~repro.telemetry.lookingglass.LookingGlass` queries both this RIB
and the converged substrate outcomes.

No runtime imports from :mod:`repro.core` (this module is imported while
core is still loading); server/spec objects are duck-typed.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from ..bgp.attributes import ASPath, Community, Origin, PathAttributes
from ..bgp.messages import UpdateMessage
from ..bgp.rib import Route
from ..bgp.session import BGPSession
from ..net.addr import IPAddress, Prefix
from .metrics import GaugeChild, MetricsRegistry

__all__ = ["BMPKind", "RouteMonitorMessage", "RouteMonitor", "MonitoredRib"]

MAX_16BIT = 1 << 16

# Monitoring messages kept per monitor; an observed testbed would
# otherwise grow the list for as long as it runs.
_MESSAGES_KEEP = 10_000


class SpecLike(Protocol):
    """Shape of :class:`repro.core.server.AnnouncementSpec` (duck-typed)."""

    @property
    def peers(self) -> Optional[Tuple[int, ...]]: ...

    @property
    def prepend(self) -> int: ...

    @property
    def poison(self) -> Tuple[int, ...]: ...


class BMPKind(Enum):
    """RFC 7854 message types this monitor emits."""

    ROUTE_MONITORING = "route-monitoring"
    PEER_DOWN = "peer-down"
    PEER_UP = "peer-up"


class RouteMonitorMessage(NamedTuple):
    """One monitoring message: which peer said what, where, when.

    ``pre_policy`` distinguishes the wire view (client update as
    received) from the post-policy view (accepted into the substrate);
    PEER_UP/DOWN messages carry no prefix.  A NamedTuple rather than a
    frozen dataclass: messages are immutable either way, and one is built
    per monitored UPDATE — construction cost counts against the
    telemetry overhead gate.
    """

    kind: BMPKind
    time: float
    server: str
    client_id: str
    peer: Optional[int] = None
    prefix: Optional[Prefix] = None
    pre_policy: bool = True
    withdraw: bool = False
    as_path: Tuple[int, ...] = ()
    communities: Tuple[str, ...] = ()
    reason: str = ""

    def __str__(self) -> str:
        view = "pre" if self.pre_policy else "post"
        what = self.prefix if self.prefix is not None else self.reason
        return (
            f"[{self.time:10.3f}] {self.kind.value:<16} {self.server}/"
            f"{self.client_id} peer={self.peer} {view} {what}"
        ).rstrip()


class _RibEntry(NamedTuple):
    """Post-policy state of one prefix at one mux."""

    client_id: str
    spec: SpecLike
    installed_at: float


class MonitoredRib:
    """The monitored post-policy RIB of one mux."""

    def __init__(self, server: str, address: IPAddress) -> None:
        self.server = server
        self.address = address
        self._entries: Dict[Prefix, _RibEntry] = {}

    def install(self, prefix: Prefix, entry: _RibEntry) -> None:
        self._entries[prefix] = entry

    def remove(self, prefix: Prefix) -> Optional[_RibEntry]:
        return self._entries.pop(prefix, None)

    def get(self, prefix: Prefix) -> Optional[_RibEntry]:
        return self._entries.get(prefix)

    def prefixes(self) -> List[Prefix]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._entries


class RouteMonitor:
    """BMP-style monitoring station for every mux in the testbed.

    Wire it to a session with :meth:`attach_session` (installs a tap that
    forwards session events); the testbed forwards post-policy changes
    through :meth:`post_policy_announce` / :meth:`post_policy_withdraw`.
    The most recent messages are kept in :attr:`messages` (emit order, at
    most ``_MESSAGES_KEEP``; older ones are counted in :attr:`dropped`).
    """

    def __init__(
        self,
        asn: int,
        clock: Callable[[], float],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.asn = asn
        self.clock = clock
        self.messages: Deque[RouteMonitorMessage] = deque(maxlen=_MESSAGES_KEEP)
        self.emitted = 0
        self._ribs: Dict[str, MonitoredRib] = {}
        registry = metrics if metrics is not None else MetricsRegistry()
        self._msg_counter = registry.counter(
            "peering_routemon_messages_total",
            "Route monitoring messages by kind and policy view",
            ("kind", "view"),
        )
        self._rib_gauge = registry.gauge(
            "peering_routemon_rib_routes",
            "Monitored post-policy RIB size per mux",
            ("server",),
        )
        # Label children resolved once: the (kind, view) space is closed
        # and muxes register via adopt_mux.  _emit is per-UPDATE hot.
        self._msg_children = {
            (kind, view): self._msg_counter.labels(kind.value, view)
            for kind in BMPKind
            for view in ("pre", "post")
        }
        self._rib_children: Dict[str, GaugeChild] = {}
        # Steering-community strings are pure functions of (our ASN, peer)
        # — memoized, one f-string per peer ever.
        self._community_strs: Dict[int, str] = {}

    # -- mux / session wiring -------------------------------------------------

    def adopt_mux(self, server: str, address: IPAddress) -> MonitoredRib:
        """Start monitoring a mux (idempotent)."""
        rib = self._ribs.get(server)
        if rib is None:
            rib = self._ribs[server] = MonitoredRib(server, address)
            self._rib_children[server] = self._rib_gauge.labels(server)
        return rib

    def attach_session(
        self,
        server: str,
        client_id: str,
        peer: Optional[int],
        session: BGPSession,
    ) -> None:
        """Tap one client-facing session for pre-policy monitoring."""

        def tap(
            sess: BGPSession, event: str, update: Optional[UpdateMessage]
        ) -> None:
            self._session_event(server, client_id, peer, sess, event, update)

        session.taps.append(tap)

    def _session_event(
        self,
        server: str,
        client_id: str,
        peer: Optional[int],
        session: BGPSession,
        event: str,
        update: Optional[UpdateMessage],
    ) -> None:
        now = self.clock()
        if event == "established":
            self._emit(
                RouteMonitorMessage(
                    BMPKind.PEER_UP, now, server, client_id, peer=peer
                )
            )
        elif event == "down":
            self._emit(
                RouteMonitorMessage(
                    BMPKind.PEER_DOWN,
                    now,
                    server,
                    client_id,
                    peer=peer,
                    reason=session.last_error or "",
                )
            )
        elif event == "update-received" and update is not None:
            as_path: Tuple[int, ...] = ()
            communities: Tuple[str, ...] = ()
            if update.attributes is not None:
                as_path = update.attributes.as_path.asns()
                communities = tuple(
                    str(c) for c in sorted(update.attributes.communities)
                )
            for _path_id, prefix in update.withdrawn:
                self._emit(
                    RouteMonitorMessage(
                        BMPKind.ROUTE_MONITORING,
                        now,
                        server,
                        client_id,
                        peer=peer,
                        prefix=prefix,
                        pre_policy=True,
                        withdraw=True,
                    )
                )
            for _path_id, prefix in update.nlri:
                self._emit(
                    RouteMonitorMessage(
                        BMPKind.ROUTE_MONITORING,
                        now,
                        server,
                        client_id,
                        peer=peer,
                        prefix=prefix,
                        pre_policy=True,
                        as_path=as_path,
                        communities=communities,
                    )
                )

    # -- post-policy stream (fed by the testbed's announcement registry) ------

    def post_policy_announce(
        self,
        server: str,
        address: IPAddress,
        client_id: str,
        prefix: Prefix,
        spec: SpecLike,
    ) -> None:
        now = self.clock()
        rib = self.adopt_mux(server, address)
        rib.install(prefix, _RibEntry(client_id, spec, now))
        self._rib_children[server].set(len(rib))
        self._emit(
            RouteMonitorMessage(
                BMPKind.ROUTE_MONITORING,
                now,
                server,
                client_id,
                prefix=prefix,
                pre_policy=False,
                communities=tuple(
                    self._community_str(peer) for peer in (spec.peers or ())
                ),
            )
        )

    def post_policy_withdraw(
        self, server: str, address: IPAddress, client_id: str, prefix: Prefix
    ) -> None:
        now = self.clock()
        rib = self.adopt_mux(server, address)
        if rib.remove(prefix) is None:
            return
        self._rib_children[server].set(len(rib))
        self._emit(
            RouteMonitorMessage(
                BMPKind.ROUTE_MONITORING,
                now,
                server,
                client_id,
                prefix=prefix,
                pre_policy=False,
                withdraw=True,
            )
        )

    def _community_str(self, peer: int) -> str:
        cached = self._community_strs.get(peer)
        if cached is None:
            cached = self._community_strs[peer] = f"{self.asn}:{peer}"
        return cached

    def _emit(self, message: RouteMonitorMessage) -> None:
        self.messages.append(message)
        self.emitted += 1
        view = "pre" if message.pre_policy else "post"
        self._msg_children[(message.kind, view)].inc()

    # -- queries --------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Messages evicted from :attr:`messages`."""
        return self.emitted - len(self.messages)

    def servers(self) -> List[str]:
        return sorted(self._ribs)

    def rib(self, server: str) -> Optional[MonitoredRib]:
        return self._ribs.get(server)

    def of_kind(self, kind: BMPKind) -> List[RouteMonitorMessage]:
        return [m for m in self.messages if m.kind is kind]

    def for_prefix(self, prefix: Prefix) -> List[RouteMonitorMessage]:
        return [m for m in self.messages if m.prefix == prefix]

    def _export_path(self, spec: SpecLike) -> Tuple[int, ...]:
        # Mirrors OriginSpec.export_path (not imported: core/inet must not
        # be a runtime dependency of this module).
        path = (self.asn,) * (1 + spec.prepend)
        if spec.poison:
            path = path + tuple(spec.poison) + (self.asn,)
        return path

    def rib_routes(self, server: str) -> List[Route]:
        """The monitored RIB of one mux as BGP routes.

        Steering state is encoded the way the production testbed does it:
        ``PEERING:peer`` communities select the peers the prefix goes to
        (peers above 16 bits cannot be community-encoded and are
        omitted, like on a real wire).
        """
        rib = self._ribs.get(server)
        if rib is None:
            return []
        routes: List[Route] = []
        for prefix in rib.prefixes():
            entry = rib.get(prefix)
            if entry is None:  # pragma: no cover - prefixes() is keys
                continue
            spec = entry.spec
            communities = frozenset(
                Community(self.asn, peer)
                for peer in (spec.peers or ())
                if 0 <= peer < MAX_16BIT
            )
            attributes = PathAttributes(
                origin=Origin.IGP,
                as_path=ASPath.from_asns(self._export_path(spec)),
                next_hop=rib.address,
                communities=communities,
            )
            routes.append(
                Route(
                    prefix=prefix,
                    attributes=attributes,
                    peer_asn=self.asn,
                    peer_id=str(rib.address),
                    learned_at=float(int(entry.installed_at)),
                )
            )
        return routes
