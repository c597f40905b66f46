"""PEERING servers ("muxes").

A server sits at a site — a university with transit upstreams, or an IXP
where it peers via the route server and bilaterally — and interposes
between researcher clients and the (simulated) Internet:

* **Interdomain side**: the server's adjacencies live in the
  :class:`~repro.inet.topology.ASGraph` under the shared PEERING ASN.
  Client announcements become :class:`~repro.inet.routing.OriginSpec`
  entries and propagate over the substrate; routes toward other
  destinations are derived per-peer with
  :meth:`~repro.inet.routing.RoutingOutcome.exports_to`.

* **Client side**: real BGP sessions (full wire codec / FSM / timers) in
  one of two modes, the §3 design choice:

  - :attr:`MuxMode.QUAGGA` — one session per upstream peer per client.
    Faithful to the deployed Transit-Portal-derived design; "cannot
    support large IXPs with many peers".
  - :attr:`MuxMode.BIRD` — a single session per client multiplexing all
    peers with ADD-PATH path identifiers (the planned BIRD design).

The server does **not** run best-path selection across peers — each
peer's routes are relayed to clients separately, which is the testbed's
core trick for giving researchers peer-level control (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

from ..bgp.attributes import ASPath, Origin, PathAttributes
from ..bgp.errors import BGPError
from ..bgp.messages import UpdateMessage
from ..bgp.session import BGPSession, SessionConfig
from ..net.addr import IPAddress, Prefix
from ..net.channel import ChannelPair, Endpoint
from ..net.packet import Packet
from ..net.tunnel import Tunnel, TunnelEndpoint
from ..sim.engine import Engine
from ..inet.routing import ASRoute
from ..telemetry.tracing import maybe_span
from .safety import SafetyDecision, SafetyEnforcer, SafetyVerdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.journal import ControlJournal, SpecTuple
    from ..guard.supervisor import Supervisor
    from .testbed import Testbed

__all__ = [
    "MuxMode",
    "SiteKind",
    "SiteConfig",
    "AnnouncementSpec",
    "PeeringServer",
    "spec_to_tuple",
    "spec_from_tuple",
]


class MuxMode(Enum):
    QUAGGA = "quagga"  # session per upstream peer per client
    BIRD = "bird"  # one ADD-PATH session per client


class SiteKind(Enum):
    UNIVERSITY = "university"
    IXP = "ixp"


@dataclass(frozen=True)
class SiteConfig:
    """Where a server is deployed and how it connects."""

    name: str
    kind: SiteKind
    country: str = "US"
    ixp: Optional[str] = None  # IXP name for IXP sites
    upstream_asns: Tuple[int, ...] = ()  # transit providers for university sites


@dataclass(frozen=True)
class AnnouncementSpec:
    """How a client wants one prefix announced from this server.

    ``peers``: restrict to these peer/upstream ASNs (None = all at this
    server) — the "pick and choose peers" control.  ``prepend`` and
    ``poison`` steer paths; both survive safety filtering because they
    only affect PEERING's own prefix.
    """

    peers: Optional[Tuple[int, ...]] = None
    prepend: int = 0
    poison: Tuple[int, ...] = ()


def spec_to_tuple(spec: AnnouncementSpec) -> "SpecTuple":
    """Serialize for the control journal (plain tuples, JSON-safe)."""
    return (spec.peers, spec.prepend, spec.poison)


def spec_from_tuple(raw: "SpecTuple") -> AnnouncementSpec:
    peers, prepend, poison = raw
    return AnnouncementSpec(
        peers=tuple(peers) if peers is not None else None,
        prepend=int(prepend),
        poison=tuple(poison),
    )


class _ClientAttachment:
    """Server-side state for one connected client."""

    def __init__(self, client_id: str, mode: MuxMode, tunnel: Tunnel, local: TunnelEndpoint) -> None:
        self.client_id = client_id
        self.mode = mode
        self.tunnel = tunnel
        self.tunnel_endpoint = local
        # peer asn -> session (QUAGGA), or 0 -> the one ADD-PATH session (BIRD)
        self.sessions: Dict[int, BGPSession] = {}
        self.path_id_by_peer: Dict[int, int] = {}
        self.peer_by_path_id: Dict[int, int] = {}
        self.announcements: Dict[Prefix, AnnouncementSpec] = {}

    def path_id_for(self, peer_asn: int) -> int:
        if peer_asn not in self.path_id_by_peer:
            path_id = len(self.path_id_by_peer) + 1
            self.path_id_by_peer[peer_asn] = path_id
            self.peer_by_path_id[path_id] = peer_asn
        return self.path_id_by_peer[peer_asn]


class PeeringServer:
    """One PEERING mux."""

    TUNNEL_NET = Prefix("100.64.0.0/10")  # CGN space for tunnel endpoints

    def __init__(
        self,
        testbed: "Testbed",
        site: SiteConfig,
        address: IPAddress,
        safety: Optional[SafetyEnforcer] = None,
    ) -> None:
        self.testbed = testbed
        self.site = site
        self.address = address
        self.engine: Engine = testbed.engine
        self.asn: int = testbed.asn
        self.safety = safety or SafetyEnforcer()
        self.neighbor_asns: Set[int] = set()
        self._clients: Dict[str, _ClientAttachment] = {}
        self._next_tunnel_host = 1
        self._relayed_counter = testbed.metrics.counter(
            "peering_updates_relayed_total",
            "Per-peer routes relayed down client sessions",
            ("server",),
        ).labels(site.name)
        self.alive = True
        self.wedged = False  # alive-but-unresponsive (hung process)
        self.crash_count = 0
        self._reprovision_seq = 0
        # Supervision wiring (set by repro.guard.Supervisor.adopt_server).
        self.guard: Optional["Supervisor"] = None
        self.journal: Optional["ControlJournal"] = None

    # -- interdomain attachment --------------------------------------------------

    def attach_university_upstreams(self) -> None:
        """Buy transit from the site's configured upstream ASNs."""
        graph = self.testbed.graph
        for upstream in self.site.upstream_asns:
            if upstream not in graph.providers(self.asn):
                graph.add_provider(self.asn, upstream)
            self.neighbor_asns.add(upstream)

    def join_ixp(self, request_bilateral: bool = True) -> Dict[str, int]:
        """Join the site's IXP: route server first, then bilateral
        requests to open (and case-by-case) members — the §4.1 recipe.

        Returns summary counts.
        """
        if self.site.ixp is None:
            raise ValueError(f"site {self.site.name} has no IXP")
        ixp = self.testbed.internet.ixps[self.site.ixp]
        ixp.add_member(self.asn)
        gained = ixp.join_route_server(self.asn)
        self.neighbor_asns |= gained
        accepted = 0
        requested = 0
        if request_bilateral:
            from ..inet.topology import PeeringPolicy

            graph = self.testbed.graph
            for target in sorted(ixp.non_route_server_members()):
                if target == self.asn:
                    continue
                if graph.relationship(self.asn, target) is not None:
                    # Already related (e.g. one of our transit providers
                    # is present here): not a new peering at this site.
                    continue
                policy = graph.get(target).peering_policy
                if policy in (
                    PeeringPolicy.OPEN,
                    PeeringPolicy.CASE_BY_CASE,
                    PeeringPolicy.UNLISTED,
                ):
                    requested += 1
                    result = ixp.request_bilateral(self.asn, target)
                    if result.accepted:
                        accepted += 1
                        self.neighbor_asns.add(target)
        return {
            "route_server_peers": len(gained),
            "bilateral_requested": requested,
            "bilateral_accepted": accepted,
            "total_neighbors": len(self.neighbor_asns),
        }

    # -- client attachment --------------------------------------------------------

    def connect_client(
        self,
        client_id: str,
        mode: MuxMode = MuxMode.QUAGGA,
        client_asn: int = 64512,
        peer_asns: Optional[Iterable[int]] = None,
        graceful_restart: bool = False,
        restart_time: int = 60,
    ) -> Tuple[TunnelEndpoint, Dict[int, Endpoint]]:
        """Attach a client: build the OpenVPN-style tunnel and the BGP
        session endpoints the client should drive.

        Returns ``(client_tunnel_endpoint, {peer_asn: channel_endpoint})``;
        in BIRD mode the dict has a single entry keyed by 0.
        """
        if not self.alive or self.wedged:
            raise ValueError(f"mux {self.site.name!r} is down")
        if client_id in self._clients:
            raise ValueError(f"client {client_id!r} already attached")
        if self.guard is not None and not self.guard.allows_connect(client_id):
            raise ValueError(f"client {client_id!r} is quarantined")
        selected = set(peer_asns) if peer_asns is not None else set(self.neighbor_asns)
        unknown = selected - self.neighbor_asns
        if unknown:
            raise ValueError(f"not neighbors at {self.site.name}: {sorted(unknown)}")
        # Validation done: journal the attachment write-ahead, before any
        # state it describes is built.
        if self.journal is not None:
            self.journal.append(
                self.engine.now, "connect", server=self.site.name, client=client_id
            )
        local_addr = self._tunnel_address()
        remote_addr = self._tunnel_address()
        local = TunnelEndpoint(local_addr, name=f"{self.site.name}:{client_id}:server")
        remote = TunnelEndpoint(remote_addr, name=f"{self.site.name}:{client_id}:client")
        tunnel = Tunnel(local, remote, rate_limit=self.testbed.tunnel_rate_limit)
        local.on_packet = lambda packet: self._client_packet(client_id, packet)

        attachment = _ClientAttachment(client_id, mode, tunnel, local)
        self._clients[client_id] = attachment

        # QUAGGA: one session per selected peer, keyed by its ASN, so the
        # client sees each peer as if directly connected (§3).  BIRD: one
        # ADD-PATH session, keyed 0, and a path id per selected peer.
        bird = mode is MuxMode.BIRD
        if bird:
            for peer_asn in sorted(selected):
                attachment.path_id_for(peer_asn)
        endpoints: Dict[int, Endpoint] = {}
        for key in [0] if bird else sorted(selected):
            name = "bird" if bird else f"AS{key}"
            pair = ChannelPair(f"{self.site.name}:{client_id}:{'bird' if bird else key}")
            session = BGPSession(
                self.engine,
                SessionConfig(
                    local_asn=self.asn,
                    peer_asn=client_asn,
                    local_id=self.address,
                    passive=True,
                    add_path=bird,
                    graceful_restart=graceful_restart,
                    restart_time=restart_time,
                    description=f"{self.site.name}/{client_id}/{name}",
                ),
                pair.a,
            )
            session.on_update = self._update_handler(attachment, key or None)
            self._arm_end_of_rib(session)
            attachment.sessions[key] = session
            endpoints[key] = pair.b
        telemetry = self.testbed.telemetry
        if telemetry is not None:
            for key, session in attachment.sessions.items():
                telemetry.monitor.attach_session(
                    self.site.name, client_id, key or None, session
                )
        return remote, endpoints

    @staticmethod
    def _arm_end_of_rib(session: BGPSession) -> None:
        """After (re-)establishing with graceful restart, tell the client
        we are done re-advertising (the mux relays on demand, so "done" is
        immediate) — letting it flush stale-retained routes promptly."""

        def established(s: BGPSession) -> None:
            if s.gr_active:
                s.send_end_of_rib()

        session.on_established = established

    def disconnect_client(self, client_id: str) -> None:
        attachment = self._clients.pop(client_id, None)
        if attachment is None:
            return
        if self.journal is not None:
            self.journal.append(
                self.engine.now, "disconnect", server=self.site.name, client=client_id
            )
        for session in attachment.sessions.values():
            session.stop("client disconnected")
        attachment.tunnel.take_down()
        for prefix in list(attachment.announcements):
            # record=False: the disconnect record subsumes these in replay.
            self.testbed.retract(self, client_id, prefix, record=False)

    def drop_client_sessions(self, client_id: str) -> int:
        """Abruptly sever every BGP session of one client (supervision
        teardown: breaker trip or quarantine).  The attachment itself is
        kept — a re-admitted client re-provisions channels through
        :meth:`reconnect_endpoint`.  Returns the number of sessions
        dropped."""
        attachment = self._clients.get(client_id)
        if attachment is None:
            return 0
        dropped = 0
        for session in attachment.sessions.values():
            if session.endpoint is not None and not session.endpoint.closed:
                session.drop("supervision teardown")
                dropped += 1
        return dropped

    # -- crash / restart ---------------------------------------------------------

    def crash(self, hard: bool = False) -> None:
        """The mux process dies abruptly: sessions drop without CEASE,
        tunnels go down, and the site's announcements leave the Internet.

        ``hard=False`` models a polite reboot: attachment state (including
        announcement specs) survives in "process memory" for
        :meth:`restart`.  ``hard=True`` models a real crash (power loss,
        ``kill -9`` of a wedged process): in-memory announcement maps are
        LOST, and :meth:`restart` can rebuild them only from the control
        journal.
        """
        if not self.alive:
            return
        self.alive = False
        self.wedged = False  # a dead process is no longer hung
        self.crash_count += 1
        for attachment in self._clients.values():
            for session in attachment.sessions.values():
                session.drop("mux crashed")
            attachment.tunnel.take_down()
            for prefix in list(attachment.announcements):
                # Registry only, and record=False: a crash is not a client
                # withdrawal — the journal keeps recording the client's
                # intent so restart can restore it.
                self.testbed.retract(self, attachment.client_id, prefix, record=False)
            if hard:
                attachment.announcements.clear()
        self.testbed.events.emit(
            "mux-crash", source=self.site.name, clients=len(self._clients), hard=hard
        )

    def wedge(self) -> None:
        """The mux process hangs: still claims to be alive (sessions stay
        up, ports open) but processes nothing.  Only the watchdog's
        liveness probes can tell; it force-crashes the process hard."""
        if self.alive:
            self.wedged = True  # a hung process announces nothing, not even this

    def probe(self) -> bool:
        """Liveness probe (the watchdog's health check): False for a dead
        *or* wedged process."""
        return self.alive and not self.wedged

    def restart(self) -> None:
        """The mux comes back: tunnels up, announcements re-propagated.

        When a control journal is wired (supervised testbed), announcement
        state is rebuilt from the journal's replay — deterministic even
        after a *hard* crash wiped process memory, and without waiting for
        any client to reconnect.  Unsupervised servers fall back to the
        retained in-memory specs (PR 1 behaviour).

        BGP sessions are *not* resurrected here — each client re-establishes
        through its own backoff schedule via :meth:`reconnect_endpoint`,
        like real speakers reconnecting to a rebooted router."""
        if self.alive:
            return
        self.alive = True
        self.wedged = False
        journal_state = (
            self.journal.server_state(self.site.name) if self.journal is not None else None
        )
        for attachment in self._clients.values():
            attachment.tunnel.bring_up()
            if journal_state is not None:
                attachment.announcements = {
                    Prefix(prefix_str): spec_from_tuple(raw)
                    for prefix_str, raw in journal_state.get(
                        attachment.client_id, {}
                    ).items()
                }
            for prefix, spec in attachment.announcements.items():
                # record=False: restoring journaled intent, not a new action.
                self.testbed.announce(self, attachment.client_id, prefix, spec, record=False)
        self.testbed.events.emit(
            "mux-restart",
            source=self.site.name,
            clients=len(self._clients),
            journal_replay=journal_state is not None,
        )

    def reconnect_endpoint(self, client_id: str, key: int) -> Optional[Endpoint]:
        """Re-provision one client session over a fresh channel.

        ``key`` is the peer ASN (QUAGGA mode) or 0 (BIRD mode) — the same
        keys :meth:`connect_client` returned.  Returns the client's end of
        the new channel, or ``None`` while the mux is down (the client
        keeps backing off and retries later).

        Supervision gate: a quarantined client, or one whose breaker is
        OPEN, is refused here too — otherwise auto-reconnect would defeat
        session teardown by pulling a fresh channel and implicit-starting
        on its own OPEN."""
        if not self.alive or self.wedged:
            return None
        attachment = self._clients.get(client_id)
        if attachment is None:
            return None
        if self.guard is not None and not self.guard.allows_reprovision(self, client_id):
            return None
        session = attachment.sessions.get(key)
        if session is None:
            return None
        if session.endpoint is not None and session.endpoint.connected:
            # Existing channel still healthy; nothing to re-provision.
            return None
        self._reprovision_seq += 1
        pair = ChannelPair(
            f"{self.site.name}:{client_id}:{key}#r{self._reprovision_seq}"
        )
        try:
            session.rebind(pair.a)
        except BGPError:
            return None
        self.testbed.events.emit(
            "session-reprovisioned", source=self.site.name, client=client_id, key=key
        )
        return pair.b

    def client_session_count(self, client_id: Optional[str] = None) -> int:
        if client_id is not None:
            return len(self._clients[client_id].sessions)
        return sum(len(a.sessions) for a in self._clients.values())

    def _tunnel_address(self) -> IPAddress:
        address = self.TUNNEL_NET.address + self._next_tunnel_host
        self._next_tunnel_host += 1
        return address

    # -- client control plane ----------------------------------------------------------

    def _update_handler(self, attachment: _ClientAttachment, peer_asn: Optional[int]):
        def handle(session: BGPSession, update: UpdateMessage) -> None:
            self._handle_client_update(attachment, peer_asn, session, update)

        return handle

    def _handle_client_update(
        self,
        attachment: _ClientAttachment,
        peer_asn: Optional[int],
        session: BGPSession,
        update: UpdateMessage,
    ) -> None:
        """A client spoke BGP at us: vet and translate into the substrate."""
        if self.wedged:
            return  # a hung process reads nothing off the wire
        with maybe_span(
            self.testbed.tracer,
            "mux.update",
            server=self.site.name,
            client=attachment.client_id,
            announced=len(update.nlri),
            withdrawn=len(update.withdrawn),
        ):
            self._vet_client_update(attachment, peer_asn, update)

    def _vet_client_update(
        self,
        attachment: _ClientAttachment,
        peer_asn: Optional[int],
        update: UpdateMessage,
    ) -> None:
        client_id = attachment.client_id
        now = self.engine.now
        if self.guard is not None and not self.guard.admit_update(self, client_id, now):
            # Quarantined or breaker-refused: the message is dropped and
            # audited; enforcement (session teardown) is the guard's job.
            self.safety.log_decision(
                client_id,
                SafetyDecision(
                    SafetyVerdict.BREAKER_OPEN
                    if not self.guard.is_quarantined(client_id)
                    else SafetyVerdict.QUARANTINED,
                    "update refused by supervision layer",
                ),
                now,
                count_violation=False,
            )
            return
        allocated = self.testbed.allocated_prefixes(client_id)

        for path_id, prefix in update.withdrawn:
            target_peer = self._resolve_peer(attachment, peer_asn, path_id)
            self.safety.check_withdrawal(client_id, prefix, now)
            if self.guard is not None:
                self.guard.record_flap(self, client_id, now)
            self._retract_via_peer(attachment, prefix, target_peer)

        if update.attributes is not None:
            as_path = update.attributes.as_path
            community_peers = self._community_targets(update.attributes)
            for path_id, prefix in update.nlri:
                if self.guard is not None and self.guard.is_blocked(self, client_id):
                    break  # breaker/containment fired mid-update; stop admitting
                target_peer = self._resolve_peer(attachment, peer_asn, path_id)
                # A prefix already announced by this client is being
                # extended to another peer session: validate but do not
                # recharge the rate limiter / flap damper.
                is_new = prefix not in attachment.announcements
                if (
                    is_new
                    and self.guard is not None
                    and not self.guard.admit_prefix_count(
                        self, client_id, len(attachment.announcements) + 1, now
                    )
                ):
                    continue
                with maybe_span(
                    self.testbed.tracer, "safety.check", prefix=str(prefix)
                ) as check:
                    decision = self.safety.check_announcement(
                        client_id,
                        prefix,
                        as_path,
                        allocated=set(allocated),
                        testbed_space=self.testbed.pool.contains(prefix),
                        now=now,
                        count_flap=is_new,
                        foreign_allocated=self.testbed.foreign_allocated_prefixes(
                            client_id
                        ),
                    )
                    if check is not None:
                        check.set(verdict=decision.verdict.value)
                if not decision.allowed:
                    continue
                if community_peers is not None:
                    # Community-steered: the client tagged PEERING:peer
                    # communities selecting exactly which peers hear it
                    # (how announcements are controlled over a single
                    # session in the production testbed).
                    for selected in sorted(community_peers & self.neighbor_asns):
                        self._extend_announcement(attachment, prefix, selected)
                else:
                    self._extend_announcement(attachment, prefix, target_peer)

    def _community_targets(self, attributes: PathAttributes) -> Optional[Set[int]]:
        """Peers selected by PEERING announcement-control communities.

        A community ``PEERING_ASN:X`` on a client announcement means
        "announce this prefix to peer AS X" (X must be a 16-bit ASN, a
        codec constraint the real testbed shares).  None = no steering
        communities present, so the session/path-id addressing applies.
        """
        selected = {
            community.value
            for community in attributes.communities
            if community.asn == self.asn
        }
        return selected or None

    def _resolve_peer(
        self, attachment: _ClientAttachment, peer_asn: Optional[int], path_id: Optional[int]
    ) -> Optional[int]:
        """Which upstream peer a client message addresses.

        QUAGGA mode: fixed by the session.  BIRD mode: by ADD-PATH id
        (None/0 = all peers).
        """
        if peer_asn is not None:
            return peer_asn
        if path_id in (None, 0):
            return None
        return attachment.peer_by_path_id.get(path_id)

    def _extend_announcement(
        self, attachment: _ClientAttachment, prefix: Prefix, peer_asn: Optional[int]
    ) -> None:
        spec = attachment.announcements.get(prefix)
        if peer_asn is None:
            new_spec = AnnouncementSpec(peers=None)
        else:
            current = set(spec.peers) if spec is not None and spec.peers is not None else (
                set() if spec is None else None
            )
            if current is None:
                new_spec = AnnouncementSpec(peers=None)
            else:
                current.add(peer_asn)
                new_spec = AnnouncementSpec(peers=tuple(sorted(current)))
        attachment.announcements[prefix] = new_spec
        self.testbed.announce(self, attachment.client_id, prefix, new_spec)

    def _retract_via_peer(
        self, attachment: _ClientAttachment, prefix: Prefix, peer_asn: Optional[int]
    ) -> None:
        spec = attachment.announcements.get(prefix)
        if spec is None:
            return
        if peer_asn is None or spec.peers is None:
            remaining: Set[int] = set() if peer_asn is not None and spec.peers is None else set()
            if peer_asn is None:
                attachment.announcements.pop(prefix, None)
                self.testbed.retract(self, attachment.client_id, prefix)
                return
            # withdraw one peer from an "all peers" spec
            remaining = set(self.neighbor_asns) - {peer_asn}
        else:
            remaining = set(spec.peers) - {peer_asn}
        if remaining:
            new_spec = AnnouncementSpec(peers=tuple(sorted(remaining)))
            attachment.announcements[prefix] = new_spec
            self.testbed.announce(self, attachment.client_id, prefix, new_spec)
        else:
            attachment.announcements.pop(prefix, None)
            self.testbed.retract(self, attachment.client_id, prefix)

    # -- programmatic announcement API (used by PeeringClient) ---------------------------

    def announce(
        self, client_id: str, prefix: Prefix, spec: Optional[AnnouncementSpec] = None
    ) -> SafetyDecision:
        """Vetted programmatic announcement (no client BGP session needed:
        the web-service path from §3 'Easing management')."""
        attachment = self._require_client(client_id)
        spec = spec or AnnouncementSpec()
        if spec.peers is not None:
            unknown = set(spec.peers) - self.neighbor_asns
            if unknown:
                raise ValueError(f"not neighbors at {self.site.name}: {sorted(unknown)}")
        with maybe_span(
            self.testbed.tracer,
            "mux.announce",
            server=self.site.name,
            client=client_id,
            prefix=str(prefix),
        ) as span:
            decision = self._vet_announce(attachment, client_id, prefix, spec)
            if span is not None:
                span.set(verdict=decision.verdict.value)
            return decision

    def _vet_announce(
        self,
        attachment: _ClientAttachment,
        client_id: str,
        prefix: Prefix,
        spec: AnnouncementSpec,
    ) -> SafetyDecision:
        now = self.engine.now
        if self.guard is not None:
            if self.guard.is_quarantined(client_id):
                return self.safety.log_decision(
                    client_id,
                    SafetyDecision(
                        SafetyVerdict.QUARANTINED,
                        f"client {client_id!r} is quarantined",
                    ),
                    now,
                    count_violation=False,
                )
            is_new = prefix not in attachment.announcements
            count = len(attachment.announcements) + (1 if is_new else 0)
            if not self.guard.admit_prefix_count(self, client_id, count, now):
                return self.safety.log_decision(
                    client_id,
                    SafetyDecision(
                        SafetyVerdict.BREAKER_OPEN,
                        "announcement refused: circuit breaker open",
                    ),
                    now,
                    count_violation=False,
                )
        with maybe_span(self.testbed.tracer, "safety.check", prefix=str(prefix)) as check:
            decision = self.safety.check_announcement(
                client_id,
                prefix,
                ASPath(),
                allocated=set(self.testbed.allocated_prefixes(client_id)),
                testbed_space=self.testbed.pool.contains(prefix),
                now=now,
                foreign_allocated=self.testbed.foreign_allocated_prefixes(client_id),
            )
            if check is not None:
                check.set(verdict=decision.verdict.value)
        if decision.allowed:
            attachment.announcements[prefix] = spec
            self.testbed.announce(self, client_id, prefix, spec)
        return decision

    def withdraw(self, client_id: str, prefix: Prefix) -> None:
        attachment = self._require_client(client_id)
        with maybe_span(
            self.testbed.tracer,
            "mux.withdraw",
            server=self.site.name,
            client=client_id,
            prefix=str(prefix),
        ):
            self.safety.check_withdrawal(client_id, prefix, self.engine.now)
            if self.guard is not None:
                self.guard.record_flap(self, client_id, self.engine.now)
            if prefix in attachment.announcements:
                attachment.announcements.pop(prefix)
                self.testbed.retract(self, client_id, prefix)

    def announcements_for(self, client_id: str) -> Dict[Prefix, AnnouncementSpec]:
        return dict(self._require_client(client_id).announcements)

    def _require_client(self, client_id: str) -> _ClientAttachment:
        try:
            return self._clients[client_id]
        except KeyError:
            raise ValueError(f"client {client_id!r} is not attached to {self.site.name}") from None

    # -- route relay to clients ------------------------------------------------------------

    def routes_toward(self, destination_asn: int) -> Dict[int, ASRoute]:
        """Per-peer routes this server hears for a destination AS — the
        mux's Adj-RIB-In slice, one entry per peer that exports a route.
        """
        outcome = self.testbed.outcome_for_origin(destination_asn)
        routes: Dict[int, ASRoute] = {}
        for peer_asn in sorted(self.neighbor_asns):
            exported = outcome.exports_to(peer_asn, self.asn)
            if exported is not None:
                routes[peer_asn] = exported
        return routes

    def relay_destination(self, client_id: str, destination_asn: int, prefix: Prefix) -> int:
        """Push the route each selected peer has for ``prefix`` (originated
        by ``destination_asn``) down the client's sessions, preserving
        per-peer separation.  Returns the number of routes sent."""
        attachment = self._require_client(client_id)
        if not self.alive or self.wedged:
            return 0  # a dead/hung process relays nothing
        routes = self.routes_toward(destination_asn)
        sent = 0
        for peer_asn, route in routes.items():
            attributes = PathAttributes(
                origin=Origin.IGP,
                as_path=ASPath.from_asns(route.path),
                next_hop=attachment.tunnel_endpoint.address,
            )
            if attachment.mode is MuxMode.QUAGGA:
                session = attachment.sessions.get(peer_asn)
                if session is not None and session.established:
                    session.announce([prefix], attributes)
                    sent += 1
            else:
                session = attachment.sessions.get(0)
                # connect_client gave each selected peer a path id, and only those.
                path_id = attachment.path_id_by_peer.get(peer_asn)
                if session is not None and session.established and path_id is not None:
                    session.announce([prefix], attributes, path_ids=[path_id])
                    sent += 1
        if sent:
            self._relayed_counter.inc(sent)
        return sent

    # -- data plane ----------------------------------------------------------------------

    def _client_packet(self, client_id: str, packet: Packet) -> None:
        """Traffic from a client tunnel: vet the source, then hand to the
        substrate at our AS."""
        allocated = set(self.testbed.allocated_prefixes(client_id))
        decision = self.safety.check_packet(client_id, packet, allocated)
        if not decision.allowed:
            return
        self.testbed.inject_packet(self, client_id, packet)

    def deliver_to_client(self, client_id: str, packet: Packet) -> bool:
        """Traffic from the Internet toward a client prefix: through the
        tunnel."""
        attachment = self._clients.get(client_id)
        if attachment is None or not attachment.tunnel.up:
            return False
        attachment.tunnel_endpoint.send(packet)
        return True
