"""A BGP session: FSM + timers + codec over a message channel.

:class:`BGPSession` drives one peering.  It encodes/decodes real message
bytes (via :mod:`repro.bgp.messages`), negotiates capabilities (4-octet AS
always; ADD-PATH and graceful restart when both sides configure them),
runs keepalive and hold timers on the discrete-event engine, and hands
decoded UPDATEs to its owner through the ``on_update`` callback.

Sessions come in pairs over a :class:`~repro.net.channel.ChannelPair`; the
convenience function :func:`connect` wires two sessions together and
starts them.

Self-healing: with ``auto_reconnect`` enabled, a session that loses its
transport (or its hold timer) arms an RFC 4271-style IdleHold timer with
exponential backoff and seeded jitter, then re-establishes automatically.
A ``transport_factory`` callback supplies fresh transports after the old
channel is severed (set by :class:`repro.faults.Link`, the mux failover
path in :mod:`repro.core`, or any other owner); returning ``None`` counts
a ConnectRetry failure and backs off further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..net.addr import IPAddress, Prefix
from ..net.channel import ChannelClosed, Endpoint
from ..sim.engine import Engine, Timer
from .attributes import PathAttributes
from .errors import BGPError, ErrorCode, OpenSub
from .fsm import BGPStateMachine, FsmEvent, State
from .messages import (
    _KEEPALIVE,
    _KEEPALIVE_WIRE,
    AddPathDirection,
    Capability,
    CapabilityCode,
    NotificationMessage,
    OpenMessage,
    RouteRefreshMessage,
    UpdateMessage,
    decode,
)

__all__ = ["SessionConfig", "BGPSession", "connect"]

DEFAULT_HOLD_TIME = 90
KEEPALIVE_FRACTION = 3  # keepalive = hold / 3, per convention
OPEN_HOLD_TIME = 240.0  # RFC 4271 suggested OpenSent hold when none configured
DEFAULT_IDLE_HOLD_TIME = 5.0
DEFAULT_IDLE_HOLD_MAX = 300.0
DEFAULT_RESTART_TIME = 120

# States in which the session is actively opening or open; a pending
# automatic restart is redundant (or harmful) once any of these is reached.
_IN_SESSION = (State.OPEN_SENT, State.OPEN_CONFIRM, State.ESTABLISHED)


@dataclass
class SessionConfig:
    """Static configuration for one side of a session."""

    local_asn: int
    peer_asn: int
    local_id: IPAddress
    hold_time: int = DEFAULT_HOLD_TIME
    add_path: bool = False
    passive: bool = False
    # Self-healing knobs.  ``auto_reconnect`` re-establishes after any
    # non-administrative teardown; IdleHold grows exponentially from
    # ``idle_hold_time`` up to ``idle_hold_max`` with 75-100% jitter.
    auto_reconnect: bool = False
    idle_hold_time: float = DEFAULT_IDLE_HOLD_TIME
    idle_hold_max: float = DEFAULT_IDLE_HOLD_MAX
    # RFC 4724-style graceful restart: advertise the capability and, when
    # both sides do, the peer retains our routes (stale-marked) for up to
    # ``restart_time`` seconds across a session bounce.
    graceful_restart: bool = False
    restart_time: int = DEFAULT_RESTART_TIME
    description: str = ""

    def capabilities(self) -> List[Capability]:
        caps = [
            Capability.multiprotocol(),
            Capability.four_octet_as(self.local_asn),
            Capability(CapabilityCode.ROUTE_REFRESH),
        ]
        if self.add_path:
            caps.append(Capability.add_path(AddPathDirection.BOTH))
        if self.graceful_restart:
            caps.append(Capability.graceful_restart(self.restart_time))
        return caps


class BGPSession:
    """One side of a BGP peering over a message channel.

    Callbacks (all optional):

    * ``on_update(session, UpdateMessage)`` — a decoded UPDATE arrived.
    * ``on_established(session)`` — the session reached ESTABLISHED.
    * ``on_down(session, reason)`` — the session left ESTABLISHED.
    * ``on_route_refresh(session)`` — peer asked for re-advertisement.

    ``transport_factory`` — optional callable returning a fresh connected
    :class:`Endpoint` (or ``None`` if none is available yet); consulted
    when (re)establishing after transport loss.
    """

    def __init__(
        self,
        engine: Engine,
        config: SessionConfig,
        endpoint: Optional[Endpoint] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.endpoint: Optional[Endpoint] = None
        self.fsm = BGPStateMachine()
        self._backlog: List[bytes] = []
        if endpoint is not None:
            self._bind(endpoint)

        self.on_update: Optional[Callable[["BGPSession", UpdateMessage], None]] = None
        self.on_established: Optional[Callable[["BGPSession"], None]] = None
        self.on_down: Optional[Callable[["BGPSession", str], None]] = None
        self.on_route_refresh: Optional[Callable[["BGPSession"], None]] = None
        self.transport_factory: Optional[Callable[[], Optional[Endpoint]]] = None
        # Passive monitoring taps (e.g. repro.telemetry's BMP-style route
        # monitor): called with ("established"|"down"|"update-received",
        # update-or-None) *before* the owner callbacks, so the wire view
        # is recorded even if a handler raises.  Taps observe; they must
        # not drive the session.
        self.taps: List[
            Callable[["BGPSession", str, Optional[UpdateMessage]], None]
        ] = []

        self.negotiated_hold_time = config.hold_time
        self.add_path_active = False
        self.gr_active = False
        self.peer_restart_time: Optional[int] = None

        self._hold_timer: Timer = engine.timer(
            max(1, config.hold_time), self._hold_expired, label=f"hold:{config.description}"
        )
        self._keepalive_timer: Timer = engine.timer(
            max(1, config.hold_time // KEEPALIVE_FRACTION),
            self._send_keepalive,
            label=f"keepalive:{config.description}",
        )
        self._idle_hold_timer: Timer = engine.timer(
            config.idle_hold_time,
            self._idle_hold_expired,
            label=f"idlehold:{config.description}",
        )
        self._rng = engine.rng(f"session:{config.description}")

        self.updates_sent = 0
        self.updates_received = 0
        self.established_count = 0
        self.reconnect_attempts = 0  # automatic restart attempts
        self.connect_retry_count = 0  # failed transport acquisitions
        self.backoff_level = 0
        self.reconnect_log: List[Tuple[float, float]] = []  # (scheduled at, delay)
        self.last_error: Optional[str] = None
        self.last_down_graceful = False

    # -- transport binding ---------------------------------------------------

    def _bind(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        endpoint.on_receive = self._on_bytes
        endpoint.on_close = self._on_channel_close
        # Messages that arrived before this session attached (e.g. the
        # remote side opened first) sit in the endpoint queue; take them.
        self._backlog = endpoint.drain()

    def rebind(self, endpoint: Endpoint) -> None:
        """Attach to a fresh transport (after the old one was severed).

        Only legal while not in session; anything the peer already sent on
        the new channel is replayed immediately, so a waiting peer's OPEN
        implicit-starts this side.
        """
        if self.fsm.state in _IN_SESSION:
            raise BGPError(
                f"cannot rebind session {self.config.description!r} "
                f"in state {self.fsm.state.name}"
            )
        old = self.endpoint
        if old is not None and old is not endpoint:
            old.on_receive = None
            old.on_close = None
        self._bind(endpoint)
        self._replay_backlog()

    def _replay_backlog(self) -> None:
        backlog, self._backlog = self._backlog, []
        for message in backlog:
            # Through the channel's run-to-completion context, so replies
            # we send mid-replay queue behind the replayed message instead
            # of re-entering the peer's handlers out of order.
            if self.endpoint is not None:
                self.endpoint.redeliver(message)
            else:  # pragma: no cover - backlog implies a bound endpoint
                self._on_bytes(message)

    def _acquire_transport(self) -> Optional[Endpoint]:
        """Current endpoint if usable, else ask the factory for a new one."""
        if self.endpoint is not None and self.endpoint.connected:
            return self.endpoint
        if self.transport_factory is None:
            return None
        endpoint = self.transport_factory()
        if endpoint is None or not endpoint.connected:
            return None
        self.rebind(endpoint)
        return endpoint

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin session establishment (send OPEN unless passive)."""
        # Replay anything the peer sent before we attached to the channel:
        # its OPEN lands while we are IDLE and triggers the implicit-start
        # path, preserving message ordering.
        self._replay_backlog()
        if self.fsm.state != State.IDLE:
            return  # already started (e.g. implicitly by the peer's OPEN)
        self.fsm.fire(FsmEvent.MANUAL_START)
        endpoint = self._acquire_transport()
        if self.fsm.state in _IN_SESSION:
            return  # the new transport's backlog completed the handshake
        if endpoint is None or not endpoint.connected:
            self.connect_retry_count += 1
            self.fsm.fire(FsmEvent.TRANSPORT_FAILED)
            if self.config.auto_reconnect:
                self._schedule_reconnect()
            return
        self.fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
        self._send_open()

    def stop(self, reason: str = "administrative shutdown") -> None:
        """Administratively stop; sends CEASE if the channel is up.

        An administrative stop cancels any pending automatic restart and
        closes the transport, so the peer observes the loss immediately
        instead of holding a half-open channel until its own hold timer.
        """
        self._idle_hold_timer.stop()
        if self.fsm.state == State.IDLE:
            if self.endpoint is not None:
                self.endpoint.close()
            return
        was_established = self.fsm.established
        try:
            self._send(NotificationMessage(ErrorCode.CEASE, 2).encode())
        except ChannelClosed:
            pass
        self.fsm.fire(FsmEvent.MANUAL_STOP)
        self._teardown(reason, was_established, graceful=False, reconnect=False)
        if self.endpoint is not None:
            self.endpoint.close()

    def drop(self, reason: str = "transport dropped") -> None:
        """Abruptly kill the transport — no CEASE, no courtesy.

        This is what a supervisor does to a session it no longer trusts
        (and what a crashing process does to all of them): the peer sees
        plain transport loss, so graceful-restart semantics apply on its
        side rather than the explicit-shutdown path of :meth:`stop`.
        """
        if self.endpoint is not None and not self.endpoint.closed:
            self.endpoint.close()  # on_close fires _transport_lost locally too
        elif self.fsm.state is not State.IDLE:
            self._transport_lost()

    @property
    def established(self) -> bool:
        return self.fsm.established

    def _notify_taps(
        self, event: str, update: Optional[UpdateMessage] = None
    ) -> None:
        for tap in self.taps:
            tap(self, event, update)

    # -- sending -----------------------------------------------------------

    def announce(
        self,
        prefixes: Sequence[Prefix],
        attributes: PathAttributes,
        path_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Send an UPDATE announcing ``prefixes`` with ``attributes``."""
        if path_ids is not None and not self.add_path_active:
            raise BGPError("path_ids supplied but ADD-PATH not negotiated")
        update = UpdateMessage.announce(prefixes, attributes, path_ids=path_ids)
        self.send_update(update)

    def withdraw(
        self, prefixes: Sequence[Prefix], path_ids: Optional[Sequence[int]] = None
    ) -> None:
        if path_ids is not None and not self.add_path_active:
            raise BGPError("path_ids supplied but ADD-PATH not negotiated")
        self.send_update(UpdateMessage.withdraw(prefixes, path_ids=path_ids))

    def send_update(self, update: UpdateMessage) -> None:
        if not self.fsm.established:
            raise BGPError(f"session {self.config.description!r} not established")
        self._send(update.encode())
        self.updates_sent += 1
        if self.negotiated_hold_time > 0:
            self._keepalive_timer.start()

    def send_end_of_rib(self) -> None:
        """Send the RFC 4724 End-of-RIB marker (an empty UPDATE)."""
        self.send_update(UpdateMessage.end_of_rib())

    def _send(self, data: bytes) -> None:
        if self.endpoint is None:
            raise ChannelClosed(
                f"session {self.config.description!r} has no transport"
            )
        self.endpoint.send(data)

    def _send_open(self) -> None:
        open_msg = OpenMessage(
            asn=self.config.local_asn,
            hold_time=self.config.hold_time,
            bgp_id=self.config.local_id,
            capabilities=tuple(self.config.capabilities()),
        )
        # RFC 4271 §8.2.2: entering OpenSent arms the hold timer with a
        # large value, so a lost OPEN (or a peer that never answers) trips
        # HOLD_TIMER_EXPIRED instead of wedging the session forever.  Armed
        # *before* sending: channel dispatch can complete the whole
        # handshake (which renegotiates or disarms the timer) inside the
        # send call.
        self._hold_timer.start(self.config.hold_time or OPEN_HOLD_TIME)
        self._send(open_msg.encode())

    def _send_keepalive(self) -> None:
        if self.fsm.state in (State.OPEN_CONFIRM, State.ESTABLISHED):
            try:
                self._send(_KEEPALIVE_WIRE)
            except ChannelClosed:
                self._transport_lost()
                return
            self._keepalive_timer.start()

    # -- receiving ---------------------------------------------------------

    def _on_bytes(self, data: bytes) -> None:
        try:
            message = decode(data, add_path=self.add_path_active)
        except BGPError as error:
            self._protocol_error(error)
            return
        try:
            self._dispatch(message)
        except BGPError as error:
            self._protocol_error(error)

    def _dispatch(self, message) -> None:
        # `decode` answers every keepalive with the one shared instance.
        if message is _KEEPALIVE:
            self._handle_keepalive()
        elif isinstance(message, OpenMessage):
            self._handle_open(message)
        elif isinstance(message, UpdateMessage):
            self._handle_update(message)
        elif isinstance(message, NotificationMessage):
            self._handle_notification(message)
        elif isinstance(message, RouteRefreshMessage):
            if self.fsm.established and self.on_route_refresh is not None:
                self.on_route_refresh(self)

    def _handle_open(self, message: OpenMessage) -> None:
        if self.fsm.state in (State.IDLE, State.CONNECT, State.ACTIVE):
            # Not yet actively opening (passive side, a restart awaiting
            # transport, or the other side of a simultaneous open): the
            # peer's OPEN triggers ours.
            if self.fsm.state == State.IDLE:
                self.fsm.fire(FsmEvent.MANUAL_START)
            self.fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
            self._send_open()
        if self.fsm.state != State.OPEN_SENT:
            raise BGPError("OPEN in unexpected state")
        if message.real_asn != self.config.peer_asn:
            self.fsm.fire(FsmEvent.OPEN_INVALID)
            notification = NotificationMessage(ErrorCode.OPEN_MESSAGE, OpenSub.BAD_PEER_AS)
            try:
                self._send(notification.encode())
            except ChannelClosed:
                pass
            self._teardown(f"bad peer AS {message.real_asn}", False, graceful=False)
            return
        self.negotiated_hold_time = min(self.config.hold_time, message.hold_time)
        self.add_path_active = self.config.add_path and message.supports_add_path
        self.gr_active = (
            self.config.graceful_restart and message.supports_graceful_restart
        )
        self.peer_restart_time = message.graceful_restart_time
        self.fsm.fire(FsmEvent.OPEN_RECEIVED)
        self._send(_KEEPALIVE_WIRE)
        # RFC 4271: a negotiated hold time of zero means no hold timer and
        # no periodic keepalives at all.
        if self.negotiated_hold_time > 0:
            self._hold_timer.start(self.negotiated_hold_time)
            self._keepalive_timer.start(max(1, self.negotiated_hold_time // KEEPALIVE_FRACTION))
        else:
            # Hold time negotiated to zero: disarm the OpenSent hold.
            self._hold_timer.stop()

    def _handle_keepalive(self) -> None:
        if self.fsm.state == State.OPEN_CONFIRM:
            self.fsm.fire(FsmEvent.KEEPALIVE_RECEIVED)
            self.established_count += 1
            self.backoff_level = 0  # healthy again: reset the backoff ladder
            if self.taps:
                self._notify_taps("established")
            if self.on_established is not None:
                self.on_established(self)
        elif self.fsm.state == State.ESTABLISHED:
            self.fsm.fire(FsmEvent.KEEPALIVE_RECEIVED)
        else:
            raise BGPError("KEEPALIVE in unexpected state")
        if self.negotiated_hold_time > 0:
            self._hold_timer.start(self.negotiated_hold_time)

    def _handle_update(self, message: UpdateMessage) -> None:
        if not self.fsm.established:
            raise BGPError("UPDATE before ESTABLISHED")
        self.fsm.fire(FsmEvent.UPDATE_RECEIVED)
        self.updates_received += 1
        if self.negotiated_hold_time > 0:
            self._hold_timer.start(self.negotiated_hold_time)
        if self.taps:
            self._notify_taps("update-received", message)
        if self.on_update is not None:
            self.on_update(self, message)

    def _handle_notification(self, message: NotificationMessage) -> None:
        was_established = self.fsm.established
        self.fsm.fire(FsmEvent.NOTIFICATION_RECEIVED)
        self._teardown(str(message), was_established, graceful=False)

    # -- failure paths -------------------------------------------------------

    def _hold_expired(self) -> None:
        was_established = self.fsm.established
        try:
            self._send(
                NotificationMessage(ErrorCode.HOLD_TIMER_EXPIRED).encode()
            )
        except ChannelClosed:
            pass
        self.fsm.fire(FsmEvent.HOLD_TIMER_EXPIRED)
        self._teardown("hold timer expired", was_established, graceful=True)

    def _protocol_error(self, error: BGPError) -> None:
        was_established = self.fsm.established
        try:
            self._send(NotificationMessage(error.code, error.subcode).encode())
        except ChannelClosed:
            pass
        if self.fsm.state != State.IDLE:
            self.fsm.fire(FsmEvent.MANUAL_STOP)
        self._teardown(f"protocol error: {error}", was_established, graceful=False)

    def _on_channel_close(self) -> None:
        self._transport_lost()

    def _transport_lost(self) -> None:
        if self.fsm.state == State.IDLE:
            # Between retries (or never started): the backoff timer, if
            # armed, already covers recovery.
            return
        was_established = self.fsm.established
        self.fsm.fire(FsmEvent.TRANSPORT_FAILED)
        self._teardown("transport lost", was_established, graceful=True)

    def _teardown(
        self,
        reason: str,
        was_established: bool,
        *,
        graceful: bool = False,
        reconnect: bool = True,
    ) -> None:
        self.last_error = reason
        # Graceful (RFC 4724) route retention applies to transport loss and
        # hold-timer expiry, not to administrative stops or protocol errors.
        self.last_down_graceful = graceful and self.gr_active
        self._hold_timer.stop()
        self._keepalive_timer.stop()
        if was_established and self.taps:
            self._notify_taps("down")
        if was_established and self.on_down is not None:
            self.on_down(self, reason)
        if reconnect and self.config.auto_reconnect:
            self._schedule_reconnect()

    # -- automatic restart ---------------------------------------------------

    def _schedule_reconnect(self) -> None:
        """Arm the IdleHold timer: exponential backoff with seeded jitter."""
        if self._idle_hold_timer.running:
            return
        delay = min(
            self.config.idle_hold_max,
            self.config.idle_hold_time * (2 ** self.backoff_level),
        )
        # RFC 4271 §10 jitter: use 75-100% of the configured interval so
        # peers that failed together do not retry in lockstep.
        delay *= 0.75 + 0.25 * self._rng.random()
        self.backoff_level += 1
        self.reconnect_log.append((self.engine.now, delay))
        self._idle_hold_timer.start(delay)

    def _idle_hold_expired(self) -> None:
        if self.fsm.state in _IN_SESSION:
            return  # re-established in the meantime (e.g. peer-initiated)
        self.reconnect_attempts += 1
        endpoint = self._acquire_transport()
        if self.fsm.state in _IN_SESSION:
            return  # the new transport's backlog completed the handshake
        if endpoint is None or not endpoint.connected:
            self.connect_retry_count += 1
            if self.fsm.state == State.IDLE:
                self.fsm.fire(FsmEvent.AUTOMATIC_START)
            self.fsm.fire(FsmEvent.TRANSPORT_FAILED)
            self._schedule_reconnect()
            return
        if self.fsm.state == State.IDLE:
            self.fsm.fire(FsmEvent.AUTOMATIC_START)
        if self.config.passive:
            return  # transport is up and we are listening for the peer's OPEN
        self.fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
        self._send_open()


def connect(
    engine: Engine,
    left: BGPSession,
    right: BGPSession,
) -> None:
    """Start both sessions (one should be passive for a clean handshake).

    With neither passive, both send OPEN simultaneously — also valid here
    since the message channel has no connection collision.
    """
    if left.config.passive and right.config.passive:
        raise BGPError("both sessions passive; nobody will send OPEN")
    if not left.config.passive:
        left.start()
    if not right.config.passive:
        right.start()
