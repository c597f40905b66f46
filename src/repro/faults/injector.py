"""Per-message fault injection on channel endpoints.

A :class:`FaultInjector` attaches to both endpoints of a
:class:`~repro.net.channel.ChannelPair` via their ``transit`` hook: every
``send`` flows through :meth:`FaultInjector._transit`, which may drop the
message, delay it through the event engine, deliver it twice, or flip a
bit before forwarding.  All randomness comes from one named engine stream
per injector label, so two runs with the same engine seed inject exactly
the same faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net.channel import ChannelPair, Endpoint
from ..sim.engine import Engine

__all__ = ["FaultConfig", "FaultStats", "FaultInjector"]


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities and delays for one injector.

    Rates are per message in [0, 1].  ``delay`` is a fixed propagation
    delay; ``jitter`` adds a uniform random extra on top.  A corrupted
    message has one random bit flipped — downstream, the BGP codec must
    reject it cleanly (a :class:`~repro.bgp.errors.BGPError`, never a
    crash), which the fuzz tests pin down.
    """

    drop_rate: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be >= 0")


@dataclass
class FaultStats:
    """What an injector actually did."""

    seen: int = 0
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    corrupted: int = 0


class FaultInjector:
    """Seeded per-message fault interposer for a channel pair."""

    def __init__(
        self,
        engine: Engine,
        config: Optional[FaultConfig] = None,
        label: str = "fault",
    ) -> None:
        self.engine = engine
        self.config = config or FaultConfig()
        self.label = label
        self.active = True
        self.stats = FaultStats()
        self._rng = engine.rng(f"fault:{label}")

    def attach(self, pair: ChannelPair) -> "FaultInjector":
        for endpoint in pair:
            self.attach_endpoint(endpoint)
        return self

    def attach_endpoint(self, endpoint: Endpoint) -> None:
        endpoint.transit = self._transit

    def detach(self, pair: ChannelPair) -> None:
        for endpoint in pair:
            # Bound-method equality, not identity: each `self._transit`
            # access creates a fresh method object.
            if endpoint.transit == self._transit:
                endpoint.transit = None

    def _transit(self, data: bytes, forward: Callable[[bytes], None]) -> None:
        if not self.active:
            forward(data)
            return
        config, rng = self.config, self._rng
        self.stats.seen += 1
        if config.drop_rate and rng.random() < config.drop_rate:
            self.stats.dropped += 1
            return
        payload = data
        if config.corrupt_rate and rng.random() < config.corrupt_rate:
            payload = self._corrupt(payload)
            self.stats.corrupted += 1
        copies = 1
        if config.duplicate_rate and rng.random() < config.duplicate_rate:
            copies = 2
            self.stats.duplicated += 1
        for _ in range(copies):
            delay = config.delay
            if config.jitter:
                delay += rng.random() * config.jitter
            if delay > 0:
                self.stats.delayed += 1
                self.engine.schedule(
                    delay,
                    lambda p=payload: forward(p),
                    label=f"fault:{self.label}:deliver",
                )
            else:
                forward(payload)

    def _corrupt(self, data: bytes) -> bytes:
        if not data:
            return data
        bit = self._rng.randrange(len(data) * 8)
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        return bytes(corrupted)
