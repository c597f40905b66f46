"""IP addressing primitives: addresses and prefixes for IPv4 and IPv6.

These are implemented from scratch (rather than wrapping :mod:`ipaddress`)
because the rest of the library needs cheap integer math on addresses,
hashable immutable prefixes suitable for use as RIB keys, and helpers such
as subnetting iterators and supernet tests that match router semantics.

The two central types are :class:`IPAddress` and :class:`Prefix`.  Both are
immutable and ordered; prefixes order first by address then by length, which
gives the conventional "more specifics sort after their covering prefix"
ordering used throughout the RIB code.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Tuple, Union

__all__ = [
    "AddressError",
    "IPAddress",
    "Prefix",
    "parse_prefix",
    "parse_address",
]

_V4_BITS = 32
_V6_BITS = 128
_V4_MAX = (1 << _V4_BITS) - 1
_V6_MAX = (1 << _V6_BITS) - 1


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def _parse_v4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"invalid IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_v4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _parse_v6(text: str) -> int:
    """Parse an IPv6 address in RFC 4291 text form (including ``::``)."""
    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in {text!r}")
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - (len(head_groups) + len(tail_groups))
        if missing < 1:
            raise AddressError(f"'::' expands to nothing in {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise AddressError(f"invalid IPv6 address {text!r}")
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise AddressError(f"invalid IPv6 group {group!r} in {text!r}")
        try:
            word = int(group, 16)
        except ValueError:
            raise AddressError(f"invalid IPv6 group {group!r} in {text!r}") from None
        value = (value << 16) | word
    return value


def _format_v6(value: int) -> str:
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
    # Find the longest run of zero groups to compress with '::'.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


@total_ordering
class IPAddress:
    """An immutable IPv4 or IPv6 address backed by an integer.

    Supports integer arithmetic (``addr + 1``), ordering within the same
    family, and conversion to/from text and packed bytes.
    """

    __slots__ = ("_value", "_version")

    def __init__(self, value: Union[int, str, "IPAddress"], version: int = 4):
        if isinstance(value, IPAddress):
            self._value, self._version = value._value, value._version
            return
        if isinstance(value, str):
            if ":" in value:
                self._value, self._version = _parse_v6(value), 6
            else:
                self._value, self._version = _parse_v4(value), 4
            return
        if version not in (4, 6):
            raise AddressError(f"unknown IP version {version}")
        limit = _V4_MAX if version == 4 else _V6_MAX
        if not 0 <= value <= limit:
            raise AddressError(f"address {value} out of range for IPv{version}")
        self._value = int(value)
        self._version = version

    @property
    def value(self) -> int:
        return self._value

    @property
    def version(self) -> int:
        return self._version

    @property
    def bits(self) -> int:
        return _V4_BITS if self._version == 4 else _V6_BITS

    def packed(self) -> bytes:
        return self._value.to_bytes(self.bits // 8, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "IPAddress":
        if len(data) == 4:
            return cls(int.from_bytes(data, "big"), 4)
        if len(data) == 16:
            return cls(int.from_bytes(data, "big"), 6)
        raise AddressError(f"packed address must be 4 or 16 bytes, got {len(data)}")

    def __int__(self) -> int:
        return self._value

    def __add__(self, offset: int) -> "IPAddress":
        return IPAddress(self._value + offset, self._version)

    def __sub__(self, other: Union[int, "IPAddress"]) -> Union["IPAddress", int]:
        if isinstance(other, IPAddress):
            return self._value - other._value
        return IPAddress(self._value - other, self._version)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IPAddress)
            and self._value == other._value
            and self._version == other._version
        )

    def __lt__(self, other: "IPAddress") -> bool:
        if not isinstance(other, IPAddress):
            return NotImplemented
        return (self._version, self._value) < (other._version, other._value)

    def __hash__(self) -> int:
        return hash((self._version, self._value))

    def __str__(self) -> str:
        return _format_v4(self._value) if self._version == 4 else _format_v6(self._value)

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


@total_ordering
class Prefix:
    """An immutable IP prefix (network address + mask length).

    The host bits of the supplied address must be zero unless
    ``strict=False``, in which case they are masked off — matching the
    behaviour a router applies when installing a route.
    """

    __slots__ = ("_address", "_length")

    def __init__(
        self,
        address: Union[IPAddress, str, int],
        length: int = None,
        version: int = 4,
        strict: bool = True,
    ):
        if isinstance(address, str) and "/" in address:
            if length is not None:
                raise AddressError("length given twice")
            address, _, length_text = address.partition("/")
            if not length_text.isdigit():
                raise AddressError(f"invalid prefix length {length_text!r}")
            length = int(length_text)
        if isinstance(address, str):
            address = IPAddress(address)
        elif isinstance(address, int):
            address = IPAddress(address, version)
        if length is None:
            length = address.bits
        if not 0 <= length <= address.bits:
            raise AddressError(
                f"prefix length {length} out of range for IPv{address.version}"
            )
        mask = _mask(length, address.bits)
        masked = address.value & mask
        if strict and masked != address.value:
            raise AddressError(f"host bits set in {address}/{length}")
        self._address = IPAddress(masked, address.version)
        self._length = length

    @property
    def address(self) -> IPAddress:
        return self._address

    @property
    def length(self) -> int:
        return self._length

    @property
    def version(self) -> int:
        return self._address.version

    @property
    def bits(self) -> int:
        return self._address.bits

    @property
    def netmask(self) -> IPAddress:
        return IPAddress(_mask(self._length, self.bits), self.version)

    def num_addresses(self) -> int:
        return 1 << (self.bits - self._length)

    def first_address(self) -> IPAddress:
        return self._address

    def last_address(self) -> IPAddress:
        return IPAddress(self._address.value | ~_mask(self._length, self.bits) & _max(self.bits), self.version)

    def contains(self, other: Union["Prefix", IPAddress]) -> bool:
        """True if ``other`` (prefix or address) is within this prefix."""
        mine = self._address
        if isinstance(other, Prefix):
            if other._length < self._length:
                return False
            other = other._address
        if other._version != mine._version:
            return False
        host_bits = (_V4_BITS if mine._version == 4 else _V6_BITS) - self._length
        return other._value >> host_bits == mine._value >> host_bits

    def __contains__(self, other: Union["Prefix", IPAddress]) -> bool:
        return self.contains(other)

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other) or other.contains(self)

    def subnets(self, new_length: int = None) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at ``new_length``.

        Defaults to splitting one bit deeper (two halves).
        """
        if new_length is None:
            new_length = self._length + 1
        if new_length < self._length or new_length > self.bits:
            raise AddressError(f"cannot subnet /{self._length} into /{new_length}")
        step = 1 << (self.bits - new_length)
        base = self._address.value
        for i in range(1 << (new_length - self._length)):
            yield Prefix(IPAddress(base + i * step, self.version), new_length)

    def supernet(self, new_length: int = None) -> "Prefix":
        if new_length is None:
            new_length = self._length - 1
        if new_length > self._length or new_length < 0:
            raise AddressError(f"cannot supernet /{self._length} to /{new_length}")
        return Prefix(
            IPAddress(self._address.value & _mask(new_length, self.bits), self.version),
            new_length,
        )

    def key(self) -> Tuple[int, int, int]:
        """A cheap sortable/hashable key ``(version, address, length)``."""
        return (self.version, self._address.value, self._length)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Prefix) and self.key() == other.key()

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.key() < other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        return f"{self._address}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def _mask(length: int, bits: int) -> int:
    if length == 0:
        return 0
    return (_max(bits) >> (bits - length)) << (bits - length)


def _max(bits: int) -> int:
    return _V4_MAX if bits == _V4_BITS else _V6_MAX


def parse_address(text: str) -> IPAddress:
    """Parse an IPv4 or IPv6 address from text."""
    return IPAddress(text)


def parse_prefix(text: str, strict: bool = True) -> Prefix:
    """Parse a prefix in ``address/length`` form; bare addresses get a host mask."""
    if "/" not in text:
        address = IPAddress(text)
        return Prefix(address, address.bits)
    return Prefix(text, strict=strict)
