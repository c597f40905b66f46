"""PEERING clients — the researcher-side handle.

A client connects to one or more servers over tunnels and (optionally)
real BGP sessions, then drives experiments:

* :meth:`PeeringClient.announce` / :meth:`withdraw` — the programmatic
  control path (what the paper's prototype web service exposes), with
  per-server and per-peer selection, prepending, and poisoning.
* :meth:`attach_bgp` — a full client-side BGP speaker per mux session,
  for experiments that bring their own router (e.g. a MinineXt gateway).
* :meth:`send` / ``on_packet`` — data-plane access through the tunnels.
* :meth:`routes_toward` — the per-peer routes each mux hears for a
  destination (the "routes exported by each peer, not just the best"
  property from §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from ..bgp.router import BGPRouter, PeerConfig
from ..bgp.session import BGPSession
from ..inet.dataplane import Delivery
from ..inet.routing import ASRoute
from ..net.addr import IPAddress, Prefix
from ..net.channel import Endpoint
from ..net.packet import Packet
from ..net.tunnel import TunnelEndpoint
from ..telemetry.tracing import maybe_span
from .experiment import Experiment
from .safety import SafetyDecision
from .server import AnnouncementSpec, MuxMode, PeeringServer

if TYPE_CHECKING:  # pragma: no cover
    from .testbed import Testbed

__all__ = ["Attachment", "PeeringClient"]


@dataclass
class Attachment:
    """Client-side state for one server connection."""

    server: PeeringServer
    mode: MuxMode
    tunnel: TunnelEndpoint
    endpoints: Dict[int, Endpoint]
    router: Optional[BGPRouter] = None
    sessions: Dict[int, BGPSession] = field(default_factory=dict)


class PeeringClient:
    """A researcher's client, bound to one experiment."""

    def __init__(self, testbed: "Testbed", client_id: str, experiment: Experiment) -> None:
        self.testbed = testbed
        self.client_id = client_id
        self.experiment = experiment
        self.attachments: Dict[str, Attachment] = {}
        self.on_packet: Optional[Callable[[Packet], None]] = None
        self.received_packets: List[Packet] = []

    @property
    def prefixes(self) -> List[Prefix]:
        return list(self.experiment.prefixes)

    # -- attachment -------------------------------------------------------------

    def attach(
        self,
        server_name: str,
        mode: MuxMode = MuxMode.QUAGGA,
        peer_asns: Optional[Iterable[int]] = None,
        client_asn: int = 64512,
        graceful_restart: bool = False,
    ) -> Attachment:
        """Connect to a server (tunnel + session endpoints reserved)."""
        server = self.testbed.server(server_name)
        tunnel, endpoints = server.connect_client(
            self.client_id,
            mode=mode,
            peer_asns=peer_asns,
            client_asn=client_asn,
            graceful_restart=graceful_restart,
        )
        tunnel.on_packet = self._packet_in
        attachment = Attachment(
            server=server, mode=mode, tunnel=tunnel, endpoints=endpoints
        )
        self.attachments[server_name] = attachment
        self.testbed.attach_client_server(self.client_id, server_name)
        return attachment

    def attach_bgp(
        self,
        server_name: str,
        mode: MuxMode = MuxMode.QUAGGA,
        local_asn: int = 64512,
        peer_asns: Optional[Iterable[int]] = None,
        resilient: bool = False,
        idle_hold_time: float = 5.0,
        idle_hold_max: float = 300.0,
        graceful_restart: bool = False,
        restart_time: int = 60,
    ) -> BGPRouter:
        """Attach and bring up real client-side BGP sessions.

        Returns the client-side router; announcing a prefix from it is
        delivered to the mux over the wire-format sessions, runs the
        safety gauntlet, and (if clean) reaches the Internet substrate.

        With ``resilient=True`` the sessions auto-reconnect after transport
        loss (exponential backoff from ``idle_hold_time``), pulling fresh
        channels from the mux via
        :meth:`~repro.core.server.PeeringServer.reconnect_endpoint` — so a
        mux crash/restart heals without operator action.
        """
        attachment = self.attach(
            server_name,
            mode=mode,
            peer_asns=peer_asns,
            client_asn=local_asn,
            graceful_restart=graceful_restart,
        )
        router = BGPRouter(
            self.testbed.engine,
            asn=local_asn,
            router_id=attachment.tunnel.address,
        )
        attachment.router = router
        server = attachment.server
        for key, endpoint in sorted(attachment.endpoints.items()):
            config = PeerConfig(
                peer_id=f"mux-{server_name}-{key}",
                remote_asn=self.testbed.asn,
                local_address=attachment.tunnel.address,
                add_path=(mode is MuxMode.BIRD),
                auto_reconnect=resilient,
                idle_hold_time=idle_hold_time,
                idle_hold_max=idle_hold_max,
                graceful_restart=graceful_restart,
                restart_time=restart_time,
                description=f"{self.client_id}->{server_name}[{key}]",
            )
            session = router.add_peer(config, endpoint)
            session.transport_factory = (
                lambda s=server, k=key: s.reconnect_endpoint(self.client_id, k)
            )
            self._watch_session(session, server_name, key)
            attachment.sessions[key] = session
            session.start()
        return router

    def _watch_session(self, session: BGPSession, server_name: str, key: int) -> None:
        """Report the session's up/down transitions on the testbed bus."""
        from ..bgp.fsm import State

        bus = self.testbed.events
        source = f"{self.client_id}->{server_name}"

        def observe(old: State, _event, new: State) -> None:
            if new is State.ESTABLISHED and old is not State.ESTABLISHED:
                bus.emit("session-established", source=source, key=key)
            elif old is State.ESTABLISHED and new is not State.ESTABLISHED:
                bus.emit("session-down", source=source, key=key)

        session.fsm.observers.append(observe)

    def detach(self, server_name: str) -> None:
        attachment = self.attachments.pop(server_name, None)
        if attachment is None:
            return
        # Stop our side first: an administrative detach must not leave
        # auto-reconnect timers chasing a mux we just left.
        for session in attachment.sessions.values():
            session.stop("client detached")
        attachment.server.disconnect_client(self.client_id)

    # -- failover -----------------------------------------------------------

    def failover(self, from_server: str, to_server: str) -> Optional[Attachment]:
        """Move this client from one mux to another (the manual recovery
        path when a site dies for good, or the action behind
        :meth:`enable_failover`).

        Carries over the announcement state: programmatic announcements
        are re-issued at the backup (peer restrictions that do not exist
        there fall back to all peers), and a BGP-attached router is
        re-created with its locally-originated prefixes.

        If the backup itself is down, the failover is aborted (alerted as
        ``failover-aborted``) and the primary attachment is kept: stale
        state at a mux that may restart beats no attachment at all."""
        if not self.testbed.server(to_server).alive:
            self.testbed.events.emit(
                "failover-aborted",
                source=self.client_id,
                from_server=from_server,
                to_server=to_server,
                reason="backup mux is down",
            )
            return None
        old = self._require(from_server)
        announcements = dict(old.server.announcements_for(self.client_id))
        had_router = old.router is not None
        local_asn = old.router.asn if old.router is not None else 64512
        local_prefixes = (
            old.router.local_prefixes() if old.router is not None else []
        )
        mode = old.mode
        self.detach(from_server)

        if had_router:
            router = self.attach_bgp(
                to_server, mode=mode, local_asn=local_asn, resilient=True
            )
            for prefix in local_prefixes:
                router.originate(prefix)
        else:
            self.attach(to_server, mode=mode)
        backup = self._require(to_server)
        for prefix, spec in announcements.items():
            try:
                backup.server.announce(self.client_id, prefix, spec)
            except ValueError:
                # Peer selection from the old site doesn't exist here:
                # announce to all of the backup's peers instead.
                backup.server.announce(self.client_id, prefix, AnnouncementSpec())
        self.testbed.events.emit(
            "client-failover",
            source=self.client_id,
            from_server=from_server,
            to_server=to_server,
        )
        return backup

    def enable_failover(self, primary: str, backup: str) -> None:
        """Fail over to ``backup`` automatically if ``primary`` crashes."""

        def on_event(event) -> None:
            if (
                event.kind == "mux-crash"
                and event.source == primary
                and primary in self.attachments
            ):
                self.failover(primary, backup)

        self.testbed.events.subscribe(on_event)

    def _require(self, server_name: str) -> Attachment:
        try:
            return self.attachments[server_name]
        except KeyError:
            raise ValueError(
                f"client {self.client_id!r} is not attached to {server_name!r}"
            ) from None

    # -- control plane ------------------------------------------------------------

    def announce(
        self,
        prefix: Prefix,
        servers: Optional[Sequence[str]] = None,
        peers: Optional[Sequence[int]] = None,
        prepend: int = 0,
        poison: Sequence[int] = (),
    ) -> Dict[str, SafetyDecision]:
        """Announce ``prefix`` from the given servers (default: all
        attached), optionally restricted to specific peers at each."""
        results: Dict[str, SafetyDecision] = {}
        with maybe_span(
            self.testbed.tracer,
            "client.announce",
            client=self.client_id,
            prefix=str(prefix),
        ):
            for server_name in servers or list(self.attachments):
                attachment = self._require(server_name)
                spec = AnnouncementSpec(
                    peers=tuple(peers) if peers is not None else None,
                    prepend=prepend,
                    poison=tuple(poison),
                )
                results[server_name] = attachment.server.announce(
                    self.client_id, prefix, spec
                )
        return results

    def withdraw(self, prefix: Prefix, servers: Optional[Sequence[str]] = None) -> None:
        with maybe_span(
            self.testbed.tracer,
            "client.withdraw",
            client=self.client_id,
            prefix=str(prefix),
        ):
            for server_name in servers or list(self.attachments):
                attachment = self._require(server_name)
                attachment.server.withdraw(self.client_id, prefix)

    def routes_toward(self, destination_asn: int) -> Dict[str, Dict[int, ASRoute]]:
        """Per-server, per-peer routes for a destination AS."""
        return {
            name: attachment.server.routes_toward(destination_asn)
            for name, attachment in self.attachments.items()
        }

    # -- data plane ------------------------------------------------------------------

    def send(self, packet: Packet, via: Optional[str] = None) -> None:
        """Send traffic through a tunnel (default: first attachment)."""
        if not self.attachments:
            raise ValueError("client is not attached to any server")
        server_name = via or next(iter(self.attachments))
        self._require(server_name).tunnel.send(packet)

    def _packet_in(self, packet: Packet) -> None:
        self.received_packets.append(packet)
        if self.on_packet is not None:
            self.on_packet(packet)

    def ping(self, dst: IPAddress, via: Optional[str] = None) -> Delivery:
        """Probe a destination through the testbed; returns the delivery."""
        if not self.prefixes:
            raise ValueError("experiment holds no prefixes to source from")
        src = self.prefixes[0].first_address() + 1
        server_name = via or next(iter(self.attachments))
        attachment = self._require(server_name)
        packet = Packet(src=src, dst=dst, proto="icmp-echo")
        return self.testbed.inject_packet(attachment.server, self.client_id, packet)
