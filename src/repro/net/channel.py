"""In-memory byte channels used as the transport under BGP sessions.

The BGP code is written against a tiny transport interface (``send`` /
``receive`` / ``close``) so the same session logic works over any conduit.
:class:`ChannelPair` provides the default: two connected FIFO endpoints with
optional propagation delay when driven by the discrete-event engine.

Two hooks exist for the fault-injection subsystem (:mod:`repro.faults`):

* ``Endpoint.transit`` — interposes on every ``send``; it receives the
  payload and a ``forward`` continuation, and may drop, mutate, duplicate,
  or defer the delivery (e.g. via the event engine).
* ``Endpoint.close`` — severing a channel notifies both ends, which is how
  sessions observe transport loss.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

__all__ = ["ChannelClosed", "Endpoint", "ChannelPair"]


class ChannelClosed(Exception):
    """Raised when sending on (or draining) a closed channel."""


class _DispatchContext:
    """Run-to-completion dispatch state, scoped to one connected pair.

    A message sent from inside a receive handler is queued and delivered
    only after the current handler returns, exactly like an event loop
    would.  Without this, two BGP speakers answering each other re-enter
    their handlers mid-transition.  The state is per-pair (not module
    global) so one pair's nested sends can never reorder an unrelated
    pair's traffic.
    """

    __slots__ = ("queue", "dispatching")

    def __init__(self) -> None:
        self.queue: Deque[Tuple["Endpoint", bytes]] = deque()
        self.dispatching = False

    def dispatch(self, target: "Endpoint", data: bytes) -> None:
        queue = self.queue
        if self.dispatching:
            queue.append((target, data))
            return
        self.dispatching = True
        try:
            # A handler that raised leaves its queued sends behind; this
            # message goes after them.  Otherwise it is the only one due
            # and is delivered without a trip through the queue.
            if queue:
                queue.append((target, data))
            elif not target.closed:
                target._deliver(data)
            while queue:
                endpoint, message = queue.popleft()
                if not endpoint.closed:
                    endpoint._deliver(message)
        finally:
            self.dispatching = False


class Endpoint:
    """One end of a byte-message channel.

    Messages are delivered whole (the channel is message-oriented, as TCP
    with a framing layer would provide).  An optional ``on_receive`` callback
    makes the endpoint push-driven, which is how the event engine wires
    sessions together.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._peer: Optional["Endpoint"] = None
        self._ctx = _DispatchContext()
        self._queue: Deque[bytes] = deque()
        self.closed = False
        self.on_receive: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        # Fault-injection interposer: transit(data, forward) decides when
        # (and whether, and in what shape) forward(payload) runs.
        self.transit: Optional[Callable[[bytes, Callable[[bytes], None]], None]] = None
        self.sent_count = 0
        self.received_count = 0

    def connect(self, peer: "Endpoint") -> None:
        self._peer = peer
        peer._peer = self
        # Both ends share one dispatch context so answers queued from
        # inside a handler preserve FIFO order across the pair.
        peer._ctx = self._ctx

    @property
    def connected(self) -> bool:
        return self._peer is not None and not self.closed

    def send(self, data: bytes) -> None:
        """Deliver ``data`` to the peer endpoint."""
        if self.closed:
            raise ChannelClosed(f"endpoint {self.name!r} is closed")
        peer = self._peer
        if peer is None:
            raise ChannelClosed(f"endpoint {self.name!r} is not connected")
        if peer.closed:
            raise ChannelClosed(f"peer of {self.name!r} is closed")
        self.sent_count += 1
        ctx = self._ctx
        transit = self.transit
        if transit is None:
            ctx.dispatch(peer, data)
            return

        def forward(payload: bytes) -> None:
            # A deferred delivery may arrive after the channel was severed.
            if not peer.closed:
                ctx.dispatch(peer, payload)

        transit(data, forward)

    def redeliver(self, data: bytes) -> None:
        """Feed ``data`` back into this endpoint through the pair's
        run-to-completion context.

        Used when replaying drained backlog: a handler that answers
        mid-replay must have its reply queued behind the replayed message,
        exactly as if the message had just arrived off the wire."""
        self._ctx.dispatch(self, data)

    def _deliver(self, data: bytes) -> None:
        self.received_count += 1
        if self.on_receive is not None:
            self.on_receive(data)
        else:
            self._queue.append(data)

    def receive(self) -> Optional[bytes]:
        """Pop the next queued message, or ``None`` when empty."""
        if self._queue:
            return self._queue.popleft()
        return None

    def drain(self) -> List[bytes]:
        """Pop and return all queued messages."""
        messages = list(self._queue)
        self._queue.clear()
        return messages

    def pending(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        """Close both directions; notifies the peer's ``on_close`` hook."""
        if self.closed:
            return
        self.closed = True
        if self._peer is not None and not self._peer.closed:
            self._peer.closed = True
            if self._peer.on_close is not None:
                self._peer.on_close()
        if self.on_close is not None:
            self.on_close()


class ChannelPair:
    """A connected pair of endpoints, like ``socketpair()``."""

    def __init__(self, name: str = "") -> None:
        self.a = Endpoint(f"{name}.a")
        self.b = Endpoint(f"{name}.b")
        self.a.connect(self.b)

    @property
    def closed(self) -> bool:
        return self.a.closed or self.b.closed

    def sever(self) -> None:
        """Cut the link (both directions), as a fault would."""
        self.a.close()

    def __iter__(self):
        return iter((self.a, self.b))
