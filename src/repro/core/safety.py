"""Safety enforcement at PEERING servers (§3 "Enforcing safety").

Because servers interpose between clients and the Internet on both
planes, they are where the testbed's guarantees live:

* **Prefix filters** — a client may only announce prefixes allocated to
  its experiment; anything else (a hijack, a leak of a learned route, a
  less-specific covering PEERING space) is rejected.
* **Origin filters** — the AS path of a client announcement must
  originate in the client's own (possibly private, emulated) AS or be
  empty; learned Internet routes re-announced by a client are leaks and
  are rejected.
* **Private-ASN stripping** — emulated domains behind a client use
  private ASNs; the mux strips them so the Internet sees only the
  PEERING ASN (§3 "Controlling interdomain topology").
* **Route-flap damping** — a misbehaving client cannot subject real
  peers to update storms.
* **Announcement rate limiting** — a per-client token bucket bounds
  control-plane load.
* **Spoofing control** — data-plane packets from a client must carry a
  source inside the client's prefixes unless the experiment has an
  explicit spoofing waiver (LIFEGUARD/Reverse-Traceroute-style studies
  get "carefully controlled" spoofing).

Every decision is recorded in an audit log entry with the rule that
fired, so operators (and tests) can see exactly why an action was
blocked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..bgp.attributes import ASPath, is_private_asn
from ..bgp.dampening import DampeningConfig, RouteFlapDamper
from ..net.addr import Prefix
from ..net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..secroute.rpki import RoaRegistry
    from ..telemetry.metrics import Counter, CounterChild, MetricsRegistry

__all__ = [
    "SafetyVerdict",
    "SafetyDecision",
    "SafetyConfig",
    "AuditEntry",
    "SafetyEnforcer",
]


class SafetyVerdict(Enum):
    ALLOWED = "allowed"
    PREFIX_NOT_ALLOCATED = "prefix-not-allocated"
    PREFIX_OUTSIDE_TESTBED = "prefix-outside-testbed"
    PREFIX_TOO_COARSE = "prefix-too-coarse"
    # A client announcing a more-specific of *another* client's
    # allocation: an intra-testbed sub-prefix hijack, not a mere typo.
    PREFIX_SQUAT = "prefix-squat"
    ROUTE_LEAK = "route-leak"
    BAD_ORIGIN = "bad-origin"
    # The announcement is RPKI-Invalid under the testbed's own ROAs
    # (announcing it would hijack space someone authorized differently).
    RPKI_INVALID = "rpki-invalid"
    DAMPED = "damped"
    RATE_LIMITED = "rate-limited"
    SPOOFED_SOURCE = "spoofed-source"
    # Supervision-layer refusals (repro.guard), logged here so the audit
    # trail stays the single chronology of everything a client was denied.
    QUARANTINED = "quarantined"
    BREAKER_OPEN = "breaker-open"


@dataclass(frozen=True)
class SafetyDecision:
    verdict: SafetyVerdict
    detail: str = ""
    stripped_path: Optional[ASPath] = None

    @property
    def allowed(self) -> bool:
        return self.verdict is SafetyVerdict.ALLOWED


@dataclass(frozen=True)
class SafetyConfig:
    max_announcements_per_window: int = 100
    window_seconds: float = 60.0
    dampening: DampeningConfig = field(default_factory=DampeningConfig)
    min_prefix_length: int = 21  # nothing coarser than the pool's blocks
    allow_spoofing_for: frozenset = frozenset()  # client ids with waivers


@dataclass(frozen=True)
class AuditEntry:
    """One audit-log line.  ``seq`` is monotonic; when the enforcer is
    supervised it draws from the control journal's sequence, so audit
    entries and journal records correlate on one shared timeline."""

    seq: int
    time: float
    client_id: str
    decision: SafetyDecision


class SafetyEnforcer:
    """Stateful safety checks shared by all sessions of one server."""

    def __init__(self, config: Optional[SafetyConfig] = None) -> None:
        self.config = config or SafetyConfig()
        self.damper = RouteFlapDamper(self.config.dampening)
        self._windows: Dict[str, Tuple[float, int]] = {}
        self.audit_log: List[AuditEntry] = []
        self._own_seq = itertools.count()
        # Supervisor wiring (repro.guard): a shared sequence source and a
        # violation callback; both optional — the enforcer is standalone
        # by default.
        self.seq_source: Optional[Callable[[], int]] = None
        self.on_violation: Optional[
            Callable[[str, SafetyDecision, float], None]
        ] = None
        self.violations: Dict[str, int] = {}
        # RPKI wiring (repro.secroute): vet announcements against the
        # shared ROA registry as :meth:`bind_roas` describes.  Optional.
        self._roas: Optional["RoaRegistry"] = None
        self._roa_origin: int = 0
        # Telemetry wiring (repro.telemetry): per-verdict decision counter,
        # bound by the owning server via :meth:`bind_metrics`.  Optional —
        # a standalone enforcer records audit entries only.
        self._decision_counter: Optional["Counter"] = None
        # Label children resolved once at bind time — log_decision sits on
        # the per-update hot path and the verdict set is closed.
        self._verdict_children: Dict[SafetyVerdict, "CounterChild"] = {}

    def bind_metrics(self, metrics: "MetricsRegistry", server: str) -> None:
        """Count every decision as
        ``peering_safety_decisions_total{server=,verdict=}``."""
        self._decision_counter = metrics.counter(
            "peering_safety_decisions_total",
            "Safety audit decisions by mux and verdict",
            ("server", "verdict"),
        )
        self._verdict_children = {
            verdict: self._decision_counter.labels(server, verdict.value)
            for verdict in SafetyVerdict
        }

    def bind_roas(self, registry: "RoaRegistry", origin_asn: int) -> None:
        """Vet client announcements against the ROA registry, as the
        Internet will see them: originated by ``origin_asn`` (the
        testbed's public ASN — private emulation ASNs are stripped before
        export).  An Invalid result is denied with
        :attr:`SafetyVerdict.RPKI_INVALID`."""
        self._roas = registry
        self._roa_origin = origin_asn

    # -- audit plumbing ----------------------------------------------------------

    def log_decision(
        self,
        client_id: str,
        decision: SafetyDecision,
        now: float,
        count_violation: bool = True,
    ) -> SafetyDecision:
        """Append one audit entry (and fire the violation hook for denials).

        ``count_violation=False`` records a denial without charging the
        client — used for supervision-layer refusals (quarantine/breaker),
        where the *cause* was already counted when the guard tripped.
        """
        seq = self.seq_source() if self.seq_source is not None else next(self._own_seq)
        self.audit_log.append(AuditEntry(seq, now, client_id, decision))
        child = self._verdict_children.get(decision.verdict)
        if child is not None:
            child.inc()
        if not decision.allowed and count_violation:
            self.violations[client_id] = self.violations.get(client_id, 0) + 1
            if self.on_violation is not None:
                self.on_violation(client_id, decision, now)
        return decision

    def violation_count(self, client_id: str) -> int:
        return self.violations.get(client_id, 0)

    def reset_client(self, client_id: str) -> None:
        """Wipe per-client safety state (quarantine release): rate-limit
        window, violation counter, and flap-damping penalties — a
        re-admitted client must not trip instantly on decayed history."""
        self._windows.pop(client_id, None)
        self.violations.pop(client_id, None)
        self.damper.reset_peer(client_id)

    # -- control plane -----------------------------------------------------------

    def check_announcement(
        self,
        client_id: str,
        prefix: Prefix,
        as_path: ASPath,
        allocated: Set[Prefix],
        testbed_space: bool,
        now: float,
        count_flap: bool = True,
        foreign_allocated: Optional[Set[Prefix]] = None,
    ) -> SafetyDecision:
        """Validate one client announcement.

        ``allocated``: the prefixes this client's experiment holds.
        ``testbed_space``: whether ``prefix`` is inside any PEERING pool
        supernet (computed by the caller against the pool).
        ``count_flap``: charge the rate limiter and flap damper.  The mux
        passes False when a client merely *extends* an existing
        announcement to more peers (Quagga-mode sends one UPDATE per peer
        session for the same prefix; that is one announcement, not many).
        ``foreign_allocated``: prefixes held by *other* clients, so a
        sub-prefix squat is distinguished from a plain bad prefix.
        """
        decision = self._check(
            client_id, prefix, as_path, allocated, testbed_space, now, count_flap,
            foreign_allocated,
        )
        return self.log_decision(client_id, decision, now)

    def _check(
        self,
        client_id: str,
        prefix: Prefix,
        as_path: ASPath,
        allocated: Set[Prefix],
        testbed_space: bool,
        now: float,
        count_flap: bool = True,
        foreign_allocated: Optional[Set[Prefix]] = None,
    ) -> SafetyDecision:
        if not testbed_space:
            return SafetyDecision(
                SafetyVerdict.PREFIX_OUTSIDE_TESTBED,
                f"{prefix} is not PEERING address space (hijack blocked)",
            )
        if prefix.length < self.config.min_prefix_length:
            return SafetyDecision(
                SafetyVerdict.PREFIX_TOO_COARSE,
                f"{prefix} is coarser than /{self.config.min_prefix_length}",
            )
        if not any(owned.contains(prefix) for owned in allocated):
            # Squatting another experiment's space (announcing it outright
            # or a more-specific of it) is an intra-testbed hijack and is
            # audited as such — it draws a violation like any other denial.
            if foreign_allocated and any(
                other.contains(prefix) for other in foreign_allocated
            ):
                return SafetyDecision(
                    SafetyVerdict.PREFIX_SQUAT,
                    f"{prefix} covers another client's allocation "
                    f"(sub-prefix squat by {client_id})",
                )
            return SafetyDecision(
                SafetyVerdict.PREFIX_NOT_ALLOCATED,
                f"{prefix} is not allocated to {client_id}",
            )
        if self._roas is not None:
            from ..secroute.rpki import ValidationState

            state = self._roas.validate(prefix, self._roa_origin)
            if state is ValidationState.INVALID:
                return SafetyDecision(
                    SafetyVerdict.RPKI_INVALID,
                    f"{prefix} from AS{self._roa_origin} is RPKI-Invalid "
                    "under the testbed's ROAs",
                )
        # Origin check: path must be empty (mux originates) or end in a
        # private ASN (an emulated domain behind the client).  A path
        # ending in a real public ASN means the client is re-announcing a
        # learned route: a leak.
        origin = as_path.origin_asn
        if origin is not None and not is_private_asn(origin):
            return SafetyDecision(
                SafetyVerdict.ROUTE_LEAK,
                f"origin AS{origin} is public: re-announcing learned routes is a leak",
            )
        if any(not is_private_asn(asn) for asn in as_path.asns()):
            return SafetyDecision(
                SafetyVerdict.BAD_ORIGIN,
                "client paths may contain only private (emulated) ASNs",
            )
        if count_flap and not self._consume_token(client_id, now):
            return SafetyDecision(
                SafetyVerdict.RATE_LIMITED,
                f"more than {self.config.max_announcements_per_window} announcements "
                f"in {self.config.window_seconds}s",
            )
        if count_flap and self.damper.record_announcement(client_id, prefix, now):
            return SafetyDecision(
                SafetyVerdict.DAMPED,
                f"{prefix} is suppressed by flap damping "
                f"(~{self.damper.reuse_time(client_id, prefix, now):.0f}s to reuse)",
            )
        return SafetyDecision(
            SafetyVerdict.ALLOWED, stripped_path=as_path.strip_private()
        )

    def check_withdrawal(self, client_id: str, prefix: Prefix, now: float) -> SafetyDecision:
        """Withdrawals are always propagated but feed the damper."""
        self.damper.record_withdrawal(client_id, prefix, now)
        return self.log_decision(client_id, SafetyDecision(SafetyVerdict.ALLOWED), now)

    def _consume_token(self, client_id: str, now: float) -> bool:
        window_start, used = self._windows.get(client_id, (now, 0))
        if now - window_start >= self.config.window_seconds:
            window_start, used = now, 0
        if used >= self.config.max_announcements_per_window:
            self._windows[client_id] = (window_start, used)
            return False
        self._windows[client_id] = (window_start, used + 1)
        return True

    # -- data plane -------------------------------------------------------------

    def check_packet(
        self, client_id: str, packet: Packet, allocated: Set[Prefix]
    ) -> SafetyDecision:
        """Source-address control for client traffic entering the mux."""
        if any(prefix.contains(packet.src) for prefix in allocated):
            return SafetyDecision(SafetyVerdict.ALLOWED)
        if client_id in self.config.allow_spoofing_for:
            return SafetyDecision(
                SafetyVerdict.ALLOWED, detail="spoofing waiver applied"
            )
        decision = SafetyDecision(
            SafetyVerdict.SPOOFED_SOURCE,
            f"source {packet.src} outside {client_id}'s prefixes and no waiver",
        )
        return self.log_decision(client_id, decision, 0.0)

    # -- reporting -----------------------------------------------------------------

    def blocked_count(self) -> int:
        return sum(1 for entry in self.audit_log if not entry.decision.allowed)

    def decisions_for(self, client_id: str) -> List[SafetyDecision]:
        return [e.decision for e in self.audit_log if e.client_id == client_id]
