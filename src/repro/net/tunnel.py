"""OpenVPN-style tunnels between PEERING clients and servers.

The real testbed forwards traffic between clients and servers over OpenVPN.
Here a :class:`Tunnel` is a bidirectional conduit that encapsulates packets
between two tunnel endpoints, tracks counters, and can enforce an MTU and a
rate limit (the paper notes PEERING only supports low traffic volumes).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from .addr import IPAddress
from .packet import Packet, PacketError

__all__ = ["TunnelError", "TunnelEndpoint", "Tunnel"]

# Outer headers a tunnel keeps for inspection: the most recent ones only,
# so a long-running flow does not grow the heap by a frame per packet.
_LOG_KEEP = 1024


class TunnelError(Exception):
    """Raised for tunnel misuse: down tunnels, oversize packets, rate caps."""


class TunnelEndpoint:
    """One side of a tunnel; delivers decapsulated packets to ``on_packet``."""

    def __init__(self, address: IPAddress, name: str = "") -> None:
        self.address = address
        self.name = name or str(address)
        self.on_packet: Optional[Callable[[Packet], None]] = None
        self.tx_packets = 0
        self.rx_packets = 0
        self._tunnel: Optional["Tunnel"] = None

    def send(self, packet: Packet) -> None:
        """Encapsulate ``packet`` and push it through the tunnel."""
        if self._tunnel is None:
            raise TunnelError(f"endpoint {self.name} is not attached to a tunnel")
        self._tunnel.transmit(self, packet)

    def _receive(self, packet: Packet) -> None:
        self.rx_packets += 1
        if self.on_packet is not None:
            self.on_packet(packet)


class Tunnel:
    """A point-to-point encapsulating tunnel with optional MTU/rate limits.

    ``rate_limit`` caps the number of packets accepted per simulated-time
    window; callers advance the window with :meth:`tick`.  PEERING servers
    use this to enforce the low-volume policy.
    """

    def __init__(
        self,
        left: TunnelEndpoint,
        right: TunnelEndpoint,
        mtu: Optional[int] = None,
        rate_limit: Optional[int] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.mtu = mtu
        self.rate_limit = rate_limit
        self.up = True
        self.dropped = 0
        self._window_count = 0
        left._tunnel = self
        right._tunnel = self
        self.log: Deque[Packet] = deque(maxlen=_LOG_KEEP)

    def other(self, endpoint: TunnelEndpoint) -> TunnelEndpoint:
        if endpoint is self.left:
            return self.right
        if endpoint is self.right:
            return self.left
        raise TunnelError("endpoint does not belong to this tunnel")

    def transmit(self, sender: TunnelEndpoint, packet: Packet) -> None:
        if not self.up:
            raise TunnelError("tunnel is down")
        if self.mtu is not None and _packet_size(packet) > self.mtu:
            self.dropped += 1
            raise TunnelError(f"packet exceeds tunnel MTU {self.mtu}")
        if self.rate_limit is not None:
            if self._window_count >= self.rate_limit:
                self.dropped += 1
                raise TunnelError("tunnel rate limit exceeded")
            self._window_count += 1
        receiver = self.other(sender)
        outer = packet.encapsulate(sender.address, receiver.address)
        sender.tx_packets += 1
        self.log.append(outer)
        try:
            inner = outer.decapsulate()
        except PacketError:  # pragma: no cover - encapsulate always wraps
            raise TunnelError("malformed tunnel frame")
        receiver._receive(inner)

    def tick(self) -> None:
        """Advance the rate-limit window (called once per simulated second)."""
        self._window_count = 0

    def take_down(self) -> None:
        self.up = False

    def bring_up(self) -> None:
        self.up = True


def _packet_size(packet: Packet) -> int:
    """Approximate on-wire size: 20-byte header per layer plus payload length."""
    size = 20
    payload = packet.payload
    if isinstance(payload, (bytes, str)):
        size += len(payload)
    elif payload is not None:
        size += 64
    if packet.inner is not None:
        size += _packet_size(packet.inner)
    return size
