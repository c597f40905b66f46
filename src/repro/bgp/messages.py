"""BGP-4 wire-format message codec (RFC 4271, 4-byte ASNs per RFC 6793,
ADD-PATH per RFC 7911, communities per RFC 1997).

Messages round-trip through real bytes: ``encode()`` produces the on-wire
representation (16-byte marker, length, type, body) and :func:`decode`
parses it back, raising :class:`MessageDecodeError` / :class:`UpdateError`
with the NOTIFICATION (code, subcode) a conformant speaker would send.

Simplifications relative to a kernel-adjacent implementation:

* AS_PATH is always encoded with 4-byte ASNs (we always negotiate the
  4-octet-AS capability, as modern speakers do; there is no AS4_PATH shim).
* MP-BGP is limited to the capability advertisement (AFI/SAFI pairs); NLRI
  for IPv6 rides the same encoding with 16-byte prefixes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Set, Tuple

from ..net.addr import IPAddress, Prefix
from .attributes import (
    ASPath,
    ASPathSegment,
    Community,
    Origin,
    PathAttributes,
    SegmentType,
)
from .errors import (
    ErrorCode,
    HeaderSub,
    MessageDecodeError,
    OpenError,
    OpenSub,
    UpdateError,
    UpdateSub,
)

__all__ = [
    "MessageType",
    "Capability",
    "AddPathDirection",
    "OpenMessage",
    "UpdateMessage",
    "NotificationMessage",
    "KeepaliveMessage",
    "RouteRefreshMessage",
    "decode",
    "MARKER",
    "HEADER_LEN",
    "MAX_MESSAGE_LEN",
    "AS_TRANS",
]

MARKER = b"\xff" * 16
HEADER_LEN = 19
MAX_MESSAGE_LEN = 4096
AS_TRANS = 23456

AFI_IPV4 = 1
AFI_IPV6 = 2
SAFI_UNICAST = 1


class MessageType(IntEnum):
    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4
    ROUTE_REFRESH = 5


class CapabilityCode(IntEnum):
    MULTIPROTOCOL = 1
    ROUTE_REFRESH = 2
    GRACEFUL_RESTART = 64
    FOUR_OCTET_AS = 65
    ADD_PATH = 69


class AddPathDirection(IntEnum):
    RECEIVE = 1
    SEND = 2
    BOTH = 3


@dataclass(frozen=True)
class Capability:
    """A decoded capability TLV.  ``data`` holds the raw value bytes."""

    code: int
    data: bytes = b""

    @classmethod
    def multiprotocol(cls, afi: int = AFI_IPV4, safi: int = SAFI_UNICAST) -> "Capability":
        return cls(CapabilityCode.MULTIPROTOCOL, struct.pack("!HBB", afi, 0, safi))

    @classmethod
    def four_octet_as(cls, asn: int) -> "Capability":
        return cls(CapabilityCode.FOUR_OCTET_AS, struct.pack("!I", asn))

    @classmethod
    def add_path(
        cls,
        direction: AddPathDirection = AddPathDirection.BOTH,
        afi: int = AFI_IPV4,
        safi: int = SAFI_UNICAST,
    ) -> "Capability":
        return cls(CapabilityCode.ADD_PATH, struct.pack("!HBB", afi, safi, direction))

    @classmethod
    def graceful_restart(cls, restart_time: int, restarted: bool = False) -> "Capability":
        """RFC 4724 capability: 4 flag bits + 12-bit restart time (s).

        ``restarted`` sets the R bit (this speaker has just restarted and
        is re-establishing).  Per-AFI forwarding-state tuples are omitted:
        the helper-mode semantics we model do not need them.
        """
        if not 0 <= restart_time <= 0xFFF:
            raise ValueError(f"restart time {restart_time} outside 12-bit range")
        flags = 0x8 if restarted else 0
        return cls(CapabilityCode.GRACEFUL_RESTART, struct.pack("!H", (flags << 12) | restart_time))

    def graceful_restart_time(self) -> int:
        """The advertised restart time in seconds."""
        if self.code != CapabilityCode.GRACEFUL_RESTART or len(self.data) < 2:
            raise OpenError(
                "not a graceful-restart capability", OpenSub.UNSUPPORTED_CAPABILITY
            )
        return struct.unpack_from("!H", self.data, 0)[0] & 0xFFF

    def four_octet_asn(self) -> int:
        if self.code != CapabilityCode.FOUR_OCTET_AS or len(self.data) != 4:
            raise OpenError("not a 4-octet-AS capability", OpenSub.UNSUPPORTED_CAPABILITY)
        return struct.unpack("!I", self.data)[0]

    def add_path_tuples(self) -> List[Tuple[int, int, int]]:
        """Decode ADD-PATH (afi, safi, direction) triples."""
        if self.code != CapabilityCode.ADD_PATH or len(self.data) % 4:
            raise OpenError("malformed ADD-PATH capability", OpenSub.UNSUPPORTED_CAPABILITY)
        return [
            struct.unpack("!HBB", self.data[i : i + 4])
            for i in range(0, len(self.data), 4)
        ]


def _encode_header(kind: MessageType, body: bytes) -> bytes:
    length = HEADER_LEN + len(body)
    if length > MAX_MESSAGE_LEN:
        raise MessageDecodeError(
            f"message length {length} exceeds {MAX_MESSAGE_LEN}",
            HeaderSub.BAD_MESSAGE_LENGTH,
        )
    return MARKER + struct.pack("!HB", length, kind) + body


def _encode_prefix(prefix: Prefix, path_id: Optional[int] = None) -> bytes:
    nbytes = (prefix.length + 7) // 8
    packed = prefix.address.packed()[:nbytes]
    out = b"" if path_id is None else struct.pack("!I", path_id)
    return out + bytes([prefix.length]) + packed


def _decode_prefixes(
    data: bytes, version: int, add_path: bool
) -> List[Tuple[Optional[int], Prefix]]:
    bits = 32 if version == 4 else 128
    out: List[Tuple[Optional[int], Prefix]] = []
    i = 0
    while i < len(data):
        path_id: Optional[int] = None
        if add_path:
            if i + 4 >= len(data):
                raise UpdateError("truncated ADD-PATH path id", UpdateSub.INVALID_NETWORK_FIELD)
            path_id = struct.unpack_from("!I", data, i)[0]
            i += 4
        length = data[i]
        i += 1
        if length > bits:
            raise UpdateError(f"prefix length {length} > {bits}", UpdateSub.INVALID_NETWORK_FIELD)
        nbytes = (length + 7) // 8
        if i + nbytes > len(data):
            raise UpdateError("truncated NLRI", UpdateSub.INVALID_NETWORK_FIELD)
        raw = data[i : i + nbytes] + b"\x00" * (bits // 8 - nbytes)
        i += nbytes
        address = IPAddress(int.from_bytes(raw, "big"), version)
        out.append((path_id, Prefix(address, length, strict=False)))
    return out


@dataclass
class OpenMessage:
    """BGP OPEN: version, ASN, hold time, router id, capabilities."""

    asn: int
    hold_time: int
    bgp_id: IPAddress
    capabilities: Tuple[Capability, ...] = ()
    version: int = 4

    def capability(self, code: int) -> Optional[Capability]:
        for cap in self.capabilities:
            if cap.code == code:
                return cap
        return None

    @property
    def real_asn(self) -> int:
        """The 4-byte ASN if advertised, else the header ASN."""
        cap = self.capability(CapabilityCode.FOUR_OCTET_AS)
        return cap.four_octet_asn() if cap is not None else self.asn

    @property
    def supports_add_path(self) -> bool:
        return self.capability(CapabilityCode.ADD_PATH) is not None

    @property
    def supports_graceful_restart(self) -> bool:
        return self.capability(CapabilityCode.GRACEFUL_RESTART) is not None

    @property
    def graceful_restart_time(self) -> Optional[int]:
        """Peer's advertised restart time, or None if not advertised."""
        cap = self.capability(CapabilityCode.GRACEFUL_RESTART)
        if cap is None:
            return None
        return cap.graceful_restart_time()

    def encode(self) -> bytes:
        header_asn = self.asn if self.asn <= 0xFFFF else AS_TRANS
        caps = b""
        for cap in self.capabilities:
            caps += bytes([cap.code, len(cap.data)]) + cap.data
        params = b""
        if caps:
            params = bytes([2, len(caps)]) + caps  # parameter type 2 = capabilities
        body = (
            struct.pack("!BHH", self.version, header_asn, self.hold_time)
            + self.bgp_id.packed()
            + bytes([len(params)])
            + params
        )
        return _encode_header(MessageType.OPEN, body)

    @classmethod
    def decode_body(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise OpenError("OPEN too short", OpenSub.UNSUPPORTED_VERSION)
        version, asn, hold_time = struct.unpack_from("!BHH", body, 0)
        if version != 4:
            raise OpenError(f"unsupported BGP version {version}", OpenSub.UNSUPPORTED_VERSION)
        if hold_time in (1, 2):
            raise OpenError(f"unacceptable hold time {hold_time}", OpenSub.UNACCEPTABLE_HOLD_TIME)
        bgp_id = IPAddress.from_packed(body[5:9])
        params_len = body[9]
        params = body[10 : 10 + params_len]
        if len(params) != params_len:
            raise OpenError("truncated OPEN parameters", OpenSub.UNSUPPORTED_OPTIONAL_PARAMETER)
        capabilities: List[Capability] = []
        i = 0
        while i < len(params):
            if i + 2 > len(params):
                raise OpenError("truncated optional parameter", OpenSub.UNSUPPORTED_OPTIONAL_PARAMETER)
            ptype, plen = params[i], params[i + 1]
            value = params[i + 2 : i + 2 + plen]
            if len(value) != plen:
                raise OpenError("truncated optional parameter", OpenSub.UNSUPPORTED_OPTIONAL_PARAMETER)
            i += 2 + plen
            if ptype != 2:
                raise OpenError(
                    f"unsupported optional parameter {ptype}",
                    OpenSub.UNSUPPORTED_OPTIONAL_PARAMETER,
                )
            j = 0
            while j < len(value):
                if j + 2 > len(value):
                    raise OpenError("truncated capability", OpenSub.UNSUPPORTED_CAPABILITY)
                code, clen = value[j], value[j + 1]
                cdata = value[j + 2 : j + 2 + clen]
                if len(cdata) != clen:
                    raise OpenError("truncated capability", OpenSub.UNSUPPORTED_CAPABILITY)
                capabilities.append(Capability(code, cdata))
                j += 2 + clen
        msg = cls(
            asn=asn,
            hold_time=hold_time,
            bgp_id=bgp_id,
            capabilities=tuple(capabilities),
            version=version,
        )
        return msg


# --- Path attribute codes -------------------------------------------------

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_MED = 4
ATTR_LOCAL_PREF = 5
ATTR_ATOMIC_AGGREGATE = 6
ATTR_AGGREGATOR = 7
ATTR_COMMUNITIES = 8
ATTR_ORIGINATOR_ID = 9
ATTR_CLUSTER_LIST = 10

_FLAG_OPTIONAL = 0x80
_FLAG_TRANSITIVE = 0x40
_FLAG_EXTENDED = 0x10


def _encode_attr(code: int, flags: int, value: bytes) -> bytes:
    if len(value) > 255:
        return bytes([flags | _FLAG_EXTENDED, code]) + struct.pack("!H", len(value)) + value
    return bytes([flags, code, len(value)]) + value


def _encode_attributes(attrs: PathAttributes) -> bytes:
    out = _encode_attr(ATTR_ORIGIN, _FLAG_TRANSITIVE, bytes([attrs.origin]))
    path = b""
    for segment in attrs.as_path.segments:
        path += bytes([segment.kind, len(segment.asns)])
        for asn in segment.asns:
            path += struct.pack("!I", asn)
    out += _encode_attr(ATTR_AS_PATH, _FLAG_TRANSITIVE, path)
    if attrs.next_hop is not None:
        out += _encode_attr(ATTR_NEXT_HOP, _FLAG_TRANSITIVE, attrs.next_hop.packed())
    if attrs.med is not None:
        out += _encode_attr(ATTR_MED, _FLAG_OPTIONAL, struct.pack("!I", attrs.med))
    if attrs.local_pref is not None:
        out += _encode_attr(ATTR_LOCAL_PREF, _FLAG_TRANSITIVE, struct.pack("!I", attrs.local_pref))
    if attrs.atomic_aggregate:
        out += _encode_attr(ATTR_ATOMIC_AGGREGATE, _FLAG_TRANSITIVE, b"")
    if attrs.aggregator is not None:
        asn, addr = attrs.aggregator
        out += _encode_attr(
            ATTR_AGGREGATOR,
            _FLAG_OPTIONAL | _FLAG_TRANSITIVE,
            struct.pack("!I", asn) + addr.packed(),
        )
    if attrs.communities:
        packed = b"".join(
            struct.pack("!I", c.packed()) for c in sorted(attrs.communities)
        )
        out += _encode_attr(ATTR_COMMUNITIES, _FLAG_OPTIONAL | _FLAG_TRANSITIVE, packed)
    if attrs.originator_id is not None:
        out += _encode_attr(ATTR_ORIGINATOR_ID, _FLAG_OPTIONAL, attrs.originator_id.packed())
    if attrs.cluster_list:
        packed = b"".join(struct.pack("!I", c) for c in attrs.cluster_list)
        out += _encode_attr(ATTR_CLUSTER_LIST, _FLAG_OPTIONAL, packed)
    return out


def _decode_attributes(data: bytes) -> PathAttributes:
    origin: Optional[Origin] = None
    segments: List[ASPathSegment] = []
    saw_as_path = False
    next_hop: Optional[IPAddress] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None
    atomic = False
    aggregator: Optional[Tuple[int, IPAddress]] = None
    communities: Set[Community] = set()
    originator_id: Optional[IPAddress] = None
    cluster_list: Tuple[int, ...] = ()
    seen: Set[int] = set()

    i = 0
    while i < len(data):
        if i + 3 > len(data):
            raise UpdateError("truncated attribute header", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
        flags, code = data[i], data[i + 1]
        if flags & _FLAG_EXTENDED:
            if i + 4 > len(data):
                raise UpdateError("truncated extended attribute", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
            length = struct.unpack_from("!H", data, i + 2)[0]
            i += 4
        else:
            length = data[i + 2]
            i += 3
        value = data[i : i + length]
        if len(value) != length:
            raise UpdateError("truncated attribute value", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
        i += length
        if code in seen:
            raise UpdateError(f"duplicate attribute {code}", UpdateSub.MALFORMED_ATTRIBUTE_LIST)
        seen.add(code)

        if code == ATTR_ORIGIN:
            if length != 1 or value[0] > 2:
                raise UpdateError("invalid ORIGIN", UpdateSub.INVALID_ORIGIN)
            origin = Origin(value[0])
        elif code == ATTR_AS_PATH:
            saw_as_path = True
            j = 0
            while j < len(value):
                if j + 2 > len(value):
                    raise UpdateError("truncated AS_PATH segment", UpdateSub.MALFORMED_AS_PATH)
                kind, count = value[j], value[j + 1]
                j += 2
                if kind not in (SegmentType.AS_SET, SegmentType.AS_SEQUENCE):
                    raise UpdateError(f"bad segment type {kind}", UpdateSub.MALFORMED_AS_PATH)
                need = count * 4
                if j + need > len(value) or count == 0:
                    raise UpdateError("truncated AS_PATH asns", UpdateSub.MALFORMED_AS_PATH)
                asns = struct.unpack_from(f"!{count}I", value, j)
                j += need
                segments.append(ASPathSegment(SegmentType(kind), tuple(asns)))
        elif code == ATTR_NEXT_HOP:
            if length not in (4, 16):
                raise UpdateError("bad NEXT_HOP length", UpdateSub.INVALID_NEXT_HOP)
            next_hop = IPAddress.from_packed(value)
        elif code == ATTR_MED:
            if length != 4:
                raise UpdateError("bad MED length", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
            med = struct.unpack("!I", value)[0]
        elif code == ATTR_LOCAL_PREF:
            if length != 4:
                raise UpdateError("bad LOCAL_PREF length", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
            local_pref = struct.unpack("!I", value)[0]
        elif code == ATTR_ATOMIC_AGGREGATE:
            if length != 0:
                raise UpdateError("bad ATOMIC_AGGREGATE length", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
            atomic = True
        elif code == ATTR_AGGREGATOR:
            if length != 8:
                raise UpdateError("bad AGGREGATOR length", UpdateSub.ATTRIBUTE_LENGTH_ERROR)
            asn = struct.unpack("!I", value[:4])[0]
            aggregator = (asn, IPAddress.from_packed(value[4:]))
        elif code == ATTR_COMMUNITIES:
            if length % 4:
                raise UpdateError("bad COMMUNITIES length", UpdateSub.OPTIONAL_ATTRIBUTE_ERROR)
            for k in range(0, length, 4):
                communities.add(Community.from_packed(struct.unpack_from("!I", value, k)[0]))
        elif code == ATTR_ORIGINATOR_ID:
            if length != 4:
                raise UpdateError("bad ORIGINATOR_ID length", UpdateSub.OPTIONAL_ATTRIBUTE_ERROR)
            originator_id = IPAddress.from_packed(value)
        elif code == ATTR_CLUSTER_LIST:
            if length % 4:
                raise UpdateError("bad CLUSTER_LIST length", UpdateSub.OPTIONAL_ATTRIBUTE_ERROR)
            cluster_list = tuple(
                struct.unpack_from("!I", value, k)[0] for k in range(0, length, 4)
            )
        elif not flags & _FLAG_OPTIONAL:
            raise UpdateError(
                f"unrecognized well-known attribute {code}",
                UpdateSub.UNRECOGNIZED_WELLKNOWN_ATTRIBUTE,
            )
        # Unrecognized optional attributes are silently ignored (transitive
        # re-propagation is out of scope).

    if origin is None:
        raise UpdateError("missing ORIGIN", UpdateSub.MISSING_WELLKNOWN_ATTRIBUTE)
    if not saw_as_path:
        raise UpdateError("missing AS_PATH", UpdateSub.MISSING_WELLKNOWN_ATTRIBUTE)
    return PathAttributes(
        origin=origin,
        as_path=ASPath(tuple(segments)),
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
        communities=frozenset(communities),
        atomic_aggregate=atomic,
        aggregator=aggregator,
        originator_id=originator_id,
        cluster_list=cluster_list,
    )


@dataclass
class UpdateMessage:
    """BGP UPDATE: withdrawals + (attributes, NLRI) announcements.

    With ``add_path=True`` every NLRI entry carries a path identifier
    (RFC 7911); entries are then ``(path_id, prefix)`` pairs.
    """

    nlri: Tuple[Tuple[Optional[int], Prefix], ...] = ()
    withdrawn: Tuple[Tuple[Optional[int], Prefix], ...] = ()
    attributes: Optional[PathAttributes] = None
    add_path: bool = False

    @classmethod
    def announce(
        cls,
        prefixes: Sequence[Prefix],
        attributes: PathAttributes,
        path_ids: Optional[Sequence[int]] = None,
    ) -> "UpdateMessage":
        if path_ids is not None:
            if len(path_ids) != len(prefixes):
                raise ValueError("path_ids must align with prefixes")
            nlri = tuple(zip(path_ids, prefixes))
            return cls(nlri=nlri, attributes=attributes, add_path=True)
        return cls(nlri=tuple((None, p) for p in prefixes), attributes=attributes)

    @classmethod
    def withdraw(
        cls, prefixes: Sequence[Prefix], path_ids: Optional[Sequence[int]] = None
    ) -> "UpdateMessage":
        if path_ids is not None:
            if len(path_ids) != len(prefixes):
                raise ValueError("path_ids must align with prefixes")
            return cls(withdrawn=tuple(zip(path_ids, prefixes)), add_path=True)
        return cls(withdrawn=tuple((None, p) for p in prefixes))

    @classmethod
    def end_of_rib(cls) -> "UpdateMessage":
        """The RFC 4724 End-of-RIB marker: an empty UPDATE."""
        return cls()

    @property
    def is_end_of_rib(self) -> bool:
        return not self.nlri and not self.withdrawn and self.attributes is None

    def prefixes(self) -> List[Prefix]:
        return [p for _, p in self.nlri]

    def withdrawn_prefixes(self) -> List[Prefix]:
        return [p for _, p in self.withdrawn]

    def encode(self) -> bytes:
        withdrawn = b"".join(_encode_prefix(p, pid) for pid, p in self.withdrawn)
        attrs = b"" if self.attributes is None else _encode_attributes(self.attributes)
        nlri = b"".join(_encode_prefix(p, pid) for pid, p in self.nlri)
        if self.nlri and self.attributes is None:
            raise UpdateError("NLRI without attributes", UpdateSub.MISSING_WELLKNOWN_ATTRIBUTE)
        body = (
            struct.pack("!H", len(withdrawn))
            + withdrawn
            + struct.pack("!H", len(attrs))
            + attrs
            + nlri
        )
        return _encode_header(MessageType.UPDATE, body)

    @classmethod
    def decode_body(cls, body: bytes, add_path: bool = False, version: int = 4) -> "UpdateMessage":
        if len(body) < 4:
            raise UpdateError("UPDATE too short", UpdateSub.MALFORMED_ATTRIBUTE_LIST)
        withdrawn_len = struct.unpack_from("!H", body, 0)[0]
        if 2 + withdrawn_len + 2 > len(body):
            raise UpdateError("bad withdrawn length", UpdateSub.MALFORMED_ATTRIBUTE_LIST)
        withdrawn = _decode_prefixes(body[2 : 2 + withdrawn_len], version, add_path)
        i = 2 + withdrawn_len
        attrs_len = struct.unpack_from("!H", body, i)[0]
        i += 2
        if i + attrs_len > len(body):
            raise UpdateError("bad attribute length", UpdateSub.MALFORMED_ATTRIBUTE_LIST)
        attrs_data = body[i : i + attrs_len]
        i += attrs_len
        nlri = _decode_prefixes(body[i:], version, add_path)
        attributes = _decode_attributes(attrs_data) if attrs_data else None
        if nlri and attributes is None:
            raise UpdateError("NLRI without attributes", UpdateSub.MISSING_WELLKNOWN_ATTRIBUTE)
        return cls(
            nlri=tuple(nlri),
            withdrawn=tuple(withdrawn),
            attributes=attributes,
            add_path=add_path,
        )


@dataclass
class NotificationMessage:
    code: int
    subcode: int = 0
    data: bytes = b""

    def encode(self) -> bytes:
        return _encode_header(
            MessageType.NOTIFICATION, bytes([self.code, self.subcode]) + self.data
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise MessageDecodeError("NOTIFICATION too short", HeaderSub.BAD_MESSAGE_LENGTH)
        return cls(code=body[0], subcode=body[1], data=body[2:])

    def __str__(self) -> str:
        try:
            name = ErrorCode(self.code).name
        except ValueError:
            name = str(self.code)
        return f"NOTIFICATION {name}/{self.subcode}"


@dataclass(frozen=True)
class KeepaliveMessage:
    """A KEEPALIVE has no body, so every one is the same 19 bytes on the
    wire and :func:`decode` answers all of them with one shared, frozen
    instance."""

    def encode(self) -> bytes:
        return _KEEPALIVE_WIRE


_KEEPALIVE_WIRE = _encode_header(MessageType.KEEPALIVE, b"")
_KEEPALIVE = KeepaliveMessage()


@dataclass
class RouteRefreshMessage:
    afi: int = AFI_IPV4
    safi: int = SAFI_UNICAST

    def encode(self) -> bytes:
        return _encode_header(
            MessageType.ROUTE_REFRESH, struct.pack("!HBB", self.afi, 0, self.safi)
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "RouteRefreshMessage":
        if len(body) != 4:
            raise MessageDecodeError("bad ROUTE_REFRESH length", HeaderSub.BAD_MESSAGE_LENGTH)
        afi, _, safi = struct.unpack("!HBB", body)
        return cls(afi=afi, safi=safi)


def decode(data: bytes, add_path: bool = False, version: int = 4):
    """Decode one full message from ``data`` (which must be exactly one).

    ``add_path`` must reflect the session's negotiated ADD-PATH state since
    the path-id framing is not self-describing.
    """
    # An established session's traffic is mostly keepalives; a well-formed
    # one is exactly these bytes, anything else takes the full checks.
    if data == _KEEPALIVE_WIRE:
        return _KEEPALIVE
    if len(data) < HEADER_LEN:
        raise MessageDecodeError("short header", HeaderSub.BAD_MESSAGE_LENGTH)
    if data[:16] != MARKER:
        raise MessageDecodeError(
            "bad marker", HeaderSub.CONNECTION_NOT_SYNCHRONIZED
        )
    length, kind = struct.unpack_from("!HB", data, 16)
    if length != len(data) or length > MAX_MESSAGE_LEN:
        raise MessageDecodeError(f"bad length {length}", HeaderSub.BAD_MESSAGE_LENGTH)
    body = data[HEADER_LEN:]
    if kind == MessageType.OPEN:
        return OpenMessage.decode_body(body)
    if kind == MessageType.UPDATE:
        return UpdateMessage.decode_body(body, add_path=add_path, version=version)
    if kind == MessageType.NOTIFICATION:
        return NotificationMessage.decode_body(body)
    if kind == MessageType.KEEPALIVE:
        if body:
            raise MessageDecodeError("KEEPALIVE with body", HeaderSub.BAD_MESSAGE_LENGTH)
        return _KEEPALIVE
    if kind == MessageType.ROUTE_REFRESH:
        return RouteRefreshMessage.decode_body(body)
    raise MessageDecodeError(f"bad message type {kind}", HeaderSub.BAD_MESSAGE_TYPE)
