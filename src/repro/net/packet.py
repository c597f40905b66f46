"""A minimal IPv4 packet model for the simulated data plane.

Packets carry source/destination addresses, a TTL, an opaque payload, and a
small set of metadata fields used by measurement tooling (probe identifiers,
record-route style path accumulation).  The model is deliberately simple:
enough for traceroute/ping-style probing, tunnel encapsulation, anycast
catchment measurement, and spoofing-control tests — the data-plane
experiments described in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Tuple

from .addr import IPAddress

__all__ = ["Packet", "icmp_ttl_exceeded", "icmp_echo_reply", "PacketError"]

_ident = itertools.count(1)

DEFAULT_TTL = 64


class PacketError(Exception):
    """Raised for invalid packet operations (e.g. decapsulating a non-tunnel packet)."""


@dataclass(frozen=True)
class Packet:
    """An immutable simulated IP packet.

    ``trace`` accumulates the ASNs traversed (record-route style) so the
    data-plane simulator can report the forward path a packet actually took;
    real measurements would recover this with traceroute.
    """

    src: IPAddress
    dst: IPAddress
    ttl: int = DEFAULT_TTL
    proto: str = "udp"
    payload: Any = None
    ident: int = field(default_factory=lambda: next(_ident))
    trace: Tuple[int, ...] = ()
    inner: Optional["Packet"] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    dscp: Optional[int] = None  # set by FlowSpec traffic-marking
    size: int = 64  # on-the-wire bytes, for volumetric accounting

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise PacketError(f"negative TTL {self.ttl}")
        if self.size < 0:
            raise PacketError(f"negative size {self.size}")

    def decrement_ttl(self) -> "Packet":
        """Return a copy with TTL decremented; PacketError if already zero."""
        if self.ttl == 0:
            raise PacketError("TTL already zero")
        return replace(self, ttl=self.ttl - 1)

    def hop(self, asn: int) -> "Packet":
        """Record traversal of ``asn`` and decrement the TTL."""
        return replace(self, ttl=self.ttl - 1, trace=self.trace + (asn,))

    @property
    def expired(self) -> bool:
        return self.ttl == 0

    def mark(self, dscp: int) -> "Packet":
        """Return a copy remarked with ``dscp`` (FlowSpec traffic-marking)."""
        return replace(self, dscp=dscp)

    def reply(self, payload: Any = None, proto: Optional[str] = None) -> "Packet":
        """Build a response packet with src/dst (and ports) swapped and a
        fresh TTL."""
        return Packet(
            src=self.dst,
            dst=self.src,
            ttl=DEFAULT_TTL,
            proto=proto if proto is not None else self.proto,
            payload=payload,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def encapsulate(self, src: IPAddress, dst: IPAddress, proto: str = "tunnel") -> "Packet":
        """Wrap this packet inside an outer header (tunnel ingress)."""
        return Packet(src=src, dst=dst, proto=proto, inner=self)

    def decapsulate(self) -> "Packet":
        """Unwrap one layer of encapsulation (tunnel egress)."""
        if self.inner is None:
            raise PacketError("packet is not encapsulated")
        return self.inner

    def __str__(self) -> str:
        core = f"{self.src} -> {self.dst} {self.proto} ttl={self.ttl}"
        if self.inner is not None:
            core += f" [{self.inner}]"
        return core


def icmp_ttl_exceeded(original: Packet, reporter: IPAddress) -> Packet:
    """The ICMP time-exceeded a router emits when ``original`` expires at it."""
    return Packet(
        src=reporter,
        dst=original.src,
        proto="icmp-ttl-exceeded",
        payload={"original_ident": original.ident, "trace": original.trace},
    )


def icmp_echo_reply(request: Packet, responder: IPAddress) -> Packet:
    """The echo reply a destination emits for a probe packet."""
    return Packet(
        src=responder,
        dst=request.src,
        proto="icmp-echo-reply",
        payload={"original_ident": request.ident, "trace": request.trace},
    )
