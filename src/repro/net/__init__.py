"""Addressing, prefix-trie, packet, tunnel, and channel substrate."""

from .addr import AddressError, IPAddress, Prefix, parse_prefix
from .channel import ChannelClosed, ChannelPair, Endpoint
from .packet import Packet, PacketError, icmp_echo_reply, icmp_ttl_exceeded
from .trie import PrefixTrie
from .tunnel import Tunnel, TunnelEndpoint, TunnelError

__all__ = [
    "AddressError",
    "IPAddress",
    "Prefix",
    "parse_prefix",
    "PrefixTrie",
    "Packet",
    "PacketError",
    "icmp_echo_reply",
    "icmp_ttl_exceeded",
    "Tunnel",
    "TunnelEndpoint",
    "TunnelError",
    "ChannelPair",
    "ChannelClosed",
    "Endpoint",
]
