"""MRT-style export of BGP updates (RFC 6396 subset).

PEERING automatically collects control-plane measurements toward its
prefixes (§3 "Easing management").  The collectors in
:mod:`repro.core.measurements` persist what they see in MRT records so the
output can be processed like a RouteViews feed.

The one implemented record type is ``BGP4MP_MESSAGE_AS4`` (type 16,
subtype 4) wrapping a raw UPDATE.

The binary layout follows the RFC closely enough that records round-trip
through our own reader; interchange with external tooling is best-effort.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Tuple

from ..net.addr import IPAddress
from .messages import UpdateMessage

__all__ = [
    "MRT_BGP4MP",
    "MrtRecord",
    "write_update",
    "read_records",
]

MRT_BGP4MP = 16
BGP4MP_MESSAGE_AS4 = 4


@dataclass(frozen=True)
class MrtRecord:
    timestamp: int
    type: int
    subtype: int
    data: bytes

    def encode(self) -> bytes:
        return (
            struct.pack("!IHHI", self.timestamp, self.type, self.subtype, len(self.data))
            + self.data
        )


def write_update(
    out: BinaryIO,
    timestamp: float,
    local_asn: int,
    peer_asn: int,
    peer_address: IPAddress,
    local_address: IPAddress,
    update: UpdateMessage,
) -> None:
    """Append one BGP4MP_MESSAGE_AS4 record wrapping ``update``."""
    raw = update.encode()
    body = (
        struct.pack("!IIHH", peer_asn, local_asn, 0, 1)  # ifindex=0, AFI=1
        + peer_address.packed()
        + local_address.packed()
        + raw
    )
    record = MrtRecord(int(timestamp), MRT_BGP4MP, BGP4MP_MESSAGE_AS4, body)
    out.write(record.encode())


def read_records(data: bytes) -> Iterator[MrtRecord]:
    """Iterate the MRT records in ``data``."""
    i = 0
    while i < len(data):
        if i + 12 > len(data):
            raise ValueError("truncated MRT header")
        timestamp, rtype, subtype, length = struct.unpack_from("!IHHI", data, i)
        i += 12
        if i + length > len(data):
            raise ValueError("truncated MRT record body")
        yield MrtRecord(timestamp, rtype, subtype, data[i : i + length])
        i += length


def decode_update_record(record: MrtRecord) -> Tuple[int, int, UpdateMessage]:
    """Decode a BGP4MP_MESSAGE_AS4 record to (peer_asn, local_asn, update)."""
    if record.type != MRT_BGP4MP or record.subtype != BGP4MP_MESSAGE_AS4:
        raise ValueError("not a BGP4MP_MESSAGE_AS4 record")
    peer_asn, local_asn, _ifindex, afi = struct.unpack_from("!IIHH", record.data, 0)
    addr_len = 4 if afi == 1 else 16
    offset = 12 + 2 * addr_len
    from .messages import decode

    update = decode(record.data[offset:])
    if not isinstance(update, UpdateMessage):
        raise ValueError("MRT record does not wrap an UPDATE")
    return peer_asn, local_asn, update
