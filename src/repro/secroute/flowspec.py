"""RFC 5575 FlowSpec: traffic-filtering rule distribution with validated
installation and graceful degradation.

RPKI and Peerlock (the rest of this package) defend the *control* plane;
FlowSpec is the mechanism an AS under DDoS uses to push *data-plane*
filters upstream: "drop/ratelimit/redirect traffic matching this flow
toward my prefix".  The subsystem models the three pieces real
deployments need and the two failure modes that make robustness the
headline:

* **Rule model** (:class:`FlowSpecRule`): match components — destination
  prefix (mandatory; validation keys on it), source prefix, protocol,
  destination/source port ranges — plus one action
  (:class:`FlowSpecAction`): ``traffic-rate`` (rate 0 = discard),
  ``redirect`` to a scrubbing AS, or ``traffic-marking``.  Rules carry a
  total, deterministic order (:meth:`FlowSpecRule.sort_key`) in the
  spirit of RFC 5575 §5.1: destination specificity dominates, then
  source, protocol, ports; a more-constrained rule precedes a
  less-constrained one.  Enforcement applies the first matching rule in
  this order, and eviction retains the most-specific head of it.

* **Validation** (RFC 5575 §6): an AS only installs a rule if the
  originator is the origin of its *best-match unicast route* for the
  rule's destination prefix — resolved against live routing state
  through a ``resolver`` callable (``(asn, prefix) -> (prefix, route)``;
  both :meth:`repro.secroute.campaign.AttackSurface.resolve` and
  :func:`resolver_from_outcomes` fit).  Rogue rules (originator does not
  own the traffic they filter) are rejected; :meth:`revalidate` re-runs
  the check after unicast route changes (withdrawal, hijack) so stale
  rules are evicted rather than silently enforced.

* **Graceful degradation**: each AS holds at most ``install_limit``
  rules — at capacity the §5.1 order decides, most-specific retained,
  least-specific evicted — and every originator is throttled by a
  :class:`repro.guard.CircuitBreaker` over a logical event clock: an
  originator exceeding its churn budget trips the breaker, its rules
  are purged everywhere, and further announcements are refused until
  the breaker's cooldown admits a re-probe (quarantine).  Counters for
  installed / rejected (by reason) / evicted rules and quarantines are
  exported via :meth:`bind_metrics` and surfaced by the looking glass.

Enforcement itself lives in :meth:`repro.inet.dataplane.DataPlane.send`:
attach a distributor with ``plane.attach_flowspec(dist)`` and every
forwarded packet is checked at each AS hop before forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..guard.breaker import BreakerConfig, BreakerState, CircuitBreaker
from ..net.addr import Prefix
from ..net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..inet.routing import ASRoute, RoutingOutcome
    from ..telemetry.metrics import CounterChild, MetricsRegistry

__all__ = [
    "FlowSpecActionKind",
    "FlowSpecAction",
    "FlowSpecRule",
    "EnforcementVerdict",
    "EnforcementDecision",
    "FlowSpecDistributor",
    "resolver_from_outcomes",
]

PortRanges = Tuple[Tuple[int, int], ...]

# The unicast view validation resolves against: best-match (prefix,
# route) for a destination prefix as seen from one AS, or None.
Resolver = Callable[[int, Prefix], "Optional[Tuple[Prefix, ASRoute]]"]


class FlowSpecActionKind(Enum):
    """The RFC 5575 §7 traffic-filtering actions this model supports."""

    RATE_LIMIT = "traffic-rate"  # rate 0 = discard
    REDIRECT = "redirect"  # divert to a scrubbing AS
    MARK = "traffic-marking"  # rewrite the DSCP field


@dataclass(frozen=True)
class FlowSpecAction:
    """One traffic-filtering action.

    ``rate`` is the per-epoch packet budget of a ``traffic-rate`` action
    (the simulator's deterministic stand-in for bytes/second): matched
    packets beyond the budget are dropped, and
    :meth:`FlowSpecDistributor.new_epoch` refills every bucket.  Rate 0
    is the RFC's encoding of *discard*.
    """

    kind: FlowSpecActionKind
    rate: int = 0
    scrubber: Optional[int] = None
    dscp: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is FlowSpecActionKind.RATE_LIMIT and self.rate < 0:
            raise ValueError(f"traffic-rate must be >= 0, got {self.rate}")
        if self.kind is FlowSpecActionKind.REDIRECT and self.scrubber is None:
            raise ValueError("redirect action needs a scrubber ASN")
        if self.kind is FlowSpecActionKind.MARK and self.dscp is None:
            raise ValueError("traffic-marking action needs a DSCP value")

    @classmethod
    def discard(cls) -> "FlowSpecAction":
        return cls(kind=FlowSpecActionKind.RATE_LIMIT, rate=0)

    @classmethod
    def rate_limit(cls, rate: int) -> "FlowSpecAction":
        return cls(kind=FlowSpecActionKind.RATE_LIMIT, rate=rate)

    @classmethod
    def redirect(cls, scrubber: int) -> "FlowSpecAction":
        return cls(kind=FlowSpecActionKind.REDIRECT, scrubber=scrubber)

    @classmethod
    def mark(cls, dscp: int) -> "FlowSpecAction":
        return cls(kind=FlowSpecActionKind.MARK, dscp=dscp)

    def __str__(self) -> str:
        if self.kind is FlowSpecActionKind.RATE_LIMIT:
            return "discard" if self.rate == 0 else f"rate-limit {self.rate}/epoch"
        if self.kind is FlowSpecActionKind.REDIRECT:
            return f"redirect AS{self.scrubber}"
        return f"mark dscp={self.dscp}"


def _check_ports(ranges: PortRanges, label: str) -> None:
    for lo, hi in ranges:
        if not (0 <= lo <= hi <= 65535):
            raise ValueError(f"invalid {label} port range ({lo}, {hi})")


@dataclass(frozen=True)
class FlowSpecRule:
    """One FlowSpec NLRI: match components plus an action.

    ``originator`` is the AS that announced the rule; RFC 5575 §6
    validation compares it against the origin of the best-match unicast
    route for ``dst_prefix``.  Empty ``protos``/``*_ports`` match
    everything (a component not present in the NLRI).
    """

    dst_prefix: Prefix
    originator: int
    action: FlowSpecAction
    src_prefix: Optional[Prefix] = None
    protos: Tuple[str, ...] = ()
    dst_ports: PortRanges = ()
    src_ports: PortRanges = ()

    def __post_init__(self) -> None:
        _check_ports(self.dst_ports, "dst")
        _check_ports(self.src_ports, "src")

    # -- matching --------------------------------------------------------------

    def matches(self, packet: Packet) -> bool:
        if not self.dst_prefix.contains(packet.dst):
            return False
        if self.src_prefix is not None and not self.src_prefix.contains(packet.src):
            return False
        if self.protos and packet.proto not in self.protos:
            return False
        if self.dst_ports and not _port_in(packet.dst_port, self.dst_ports):
            return False
        if self.src_ports and not _port_in(packet.src_port, self.src_ports):
            return False
        return True

    # -- deterministic ordering ------------------------------------------------

    def sort_key(self) -> Tuple[object, ...]:
        """RFC 5575 §5.1-spirit total order (lowest key = highest
        precedence): longest destination prefix first, ties broken by
        family then address (so rules sharing a destination prefix are
        always adjacent), then source-prefix specificity, protocol list,
        and port ranges — so a more-constrained rule always precedes a
        less-constrained one and any rule set has exactly one order."""
        src = self.src_prefix
        return (
            -self.dst_prefix.length,
            self.dst_prefix.version,
            self.dst_prefix.address.value,
            0 if src is not None else 1,
            -(src.length if src is not None else 0),
            src.address.value if src is not None else 0,
            0 if self.protos else 1,
            self.protos,
            0 if self.dst_ports else 1,
            self.dst_ports,
            0 if self.src_ports else 1,
            self.src_ports,
            self.originator,
            self.action.kind.value,
            self.action.rate,
            self.action.scrubber if self.action.scrubber is not None else -1,
            self.action.dscp if self.action.dscp is not None else -1,
        )

    def __str__(self) -> str:
        parts = [f"dst {self.dst_prefix}"]
        if self.src_prefix is not None:
            parts.append(f"src {self.src_prefix}")
        if self.protos:
            parts.append("proto " + ",".join(self.protos))
        if self.dst_ports:
            parts.append("dport " + _fmt_ports(self.dst_ports))
        if self.src_ports:
            parts.append("sport " + _fmt_ports(self.src_ports))
        return f"flow[{' '.join(parts)}] -> {self.action} (from AS{self.originator})"


def _port_in(port: Optional[int], ranges: PortRanges) -> bool:
    if port is not None:
        for lo, hi in ranges:
            if lo <= port <= hi:
                return True
    return False


def _fmt_ports(ranges: PortRanges) -> str:
    return ",".join(f"{lo}" if lo == hi else f"{lo}-{hi}" for lo, hi in ranges)


class EnforcementVerdict(Enum):
    """What an enforcing AS decided for one packet."""

    DROP = "drop"  # traffic-rate 0 (discard)
    RATE_EXCEEDED = "rate-exceeded"  # traffic-rate budget exhausted
    REDIRECT = "redirect"  # diverted to the scrubber
    MARK = "mark"  # remarked, forwarding continues


@dataclass(frozen=True)
class EnforcementDecision:
    verdict: EnforcementVerdict
    rule: FlowSpecRule

    @property
    def scrubber(self) -> Optional[int]:
        return self.rule.action.scrubber

    @property
    def dscp(self) -> Optional[int]:
        return self.rule.action.dscp


def resolver_from_outcomes(
    outcomes: "Mapping[Prefix, RoutingOutcome]",
) -> Resolver:
    """Adapt a static ``{prefix: RoutingOutcome}`` map into the resolver
    callable validation consumes (longest-prefix match across it)."""
    from ..inet.routing import resolve_lpm

    def resolve(asn: int, target: Prefix) -> "Optional[Tuple[Prefix, ASRoute]]":
        return resolve_lpm(outcomes, asn, target)

    return resolve


_REJECT_REASONS = ("validation", "limit", "quarantine", "stale")


class FlowSpecDistributor:
    """Distributes FlowSpec rules to deploying ASes with §6 validation,
    per-AS install limits, and originator flood quarantine.

    * ``deployers`` — the ASes that accept and enforce FlowSpec (partial
      deployment is the normal case; campaigns sweep this set).
    * ``resolver`` — the unicast view validation checks against.
    * ``install_limit`` — hard per-AS rule capacity; never exceeded
      (most-specific-first retention under the §5.1 order).
    * ``churn_budget`` / ``churn_window`` — originator announce+withdraw
      events admitted per window of the logical event clock (one tick
      per rule event) before the flood breaker trips and quarantines
      the originator.
    """

    def __init__(
        self,
        deployers: Iterable[int],
        resolver: Resolver,
        install_limit: int = 64,
        churn_budget: int = 50,
        churn_window: float = 100.0,
        quarantine_cooldown: float = 1000.0,
    ) -> None:
        if install_limit < 1:
            raise ValueError("install_limit must be >= 1")
        self.deployers: Tuple[int, ...] = tuple(sorted(set(deployers)))
        self.resolver = resolver
        self.install_limit = install_limit
        self._breaker_config = BreakerConfig(
            window_seconds=churn_window,
            max_updates_per_window=churn_budget,
            cooldown=quarantine_cooldown,
        )
        # asn -> rules, kept sorted by sort_key (most specific first).
        # Written only through _set_rules.
        self._installed: Dict[int, List[FlowSpecRule]] = {}
        # asn -> _compile(rules), built by decide() on first use and
        # dropped by _set_rules whenever that AS's list changes.
        self._compiled: Dict[int, List[_Run]] = {}
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._clock = 0.0  # logical event clock driving the breakers
        # (asn, rule) -> packets admitted this epoch, for traffic-rate.
        self._buckets: Dict[Tuple[int, FlowSpecRule], int] = {}
        self.counts: Dict[str, int] = {
            "installed": 0,
            "evicted": 0,
            "quarantines": 0,
            **{f"rejected_{reason}": 0 for reason in _REJECT_REASONS},
        }
        self._metric_children: Dict[str, "CounterChild"] = {}
        # rule -> [packets, bytes] matched by enforcement (any verdict,
        # including in-budget rate-limit forwards): the "is my filter
        # actually catching the attack" signal operators watch.
        self._rule_traffic: Dict[FlowSpecRule, List[int]] = {}
        self._traffic_children: Dict[str, "CounterChild"] = {}

    # -- telemetry -------------------------------------------------------------

    def bind_metrics(self, metrics: "MetricsRegistry", mux: str = "") -> None:
        """Export rule lifecycle counters:
        ``peering_flowspec_rules_{installed,evicted}_total``,
        ``peering_flowspec_rules_rejected_total{reason=...}``,
        ``peering_flowspec_originator_quarantines_total``, and matched
        traffic volume ``peering_flowspec_matched_{packets,bytes}_total``
        labelled by ``mux`` (the vantage this distributor enforces at;
        one registry can aggregate several muxes' distributors)."""
        installed = metrics.counter(
            "peering_flowspec_rules_installed_total",
            "FlowSpec rules accepted and installed at deploying ASes",
        )
        evicted = metrics.counter(
            "peering_flowspec_rules_evicted_total",
            "FlowSpec rules evicted by per-AS install limits",
        )
        rejected = metrics.counter(
            "peering_flowspec_rules_rejected_total",
            "FlowSpec rules refused, by reason",
            ("reason",),
        )
        quarantines = metrics.counter(
            "peering_flowspec_originator_quarantines_total",
            "Originators quarantined by the rule-flood breaker",
        )
        self._metric_children = {
            "installed": installed.labels(),
            "evicted": evicted.labels(),
            "quarantines": quarantines.labels(),
            **{
                f"rejected_{reason}": rejected.labels(reason)
                for reason in _REJECT_REASONS
            },
        }
        matched_packets = metrics.counter(
            "peering_flowspec_matched_packets_total",
            "Packets matched by installed FlowSpec rules",
            ("mux",),
        )
        matched_bytes = metrics.counter(
            "peering_flowspec_matched_bytes_total",
            "Bytes matched by installed FlowSpec rules",
            ("mux",),
        )
        self._traffic_children = {
            "packets": matched_packets.labels(mux),
            "bytes": matched_bytes.labels(mux),
        }

    def _count(self, key: str, amount: int = 1) -> None:
        if amount <= 0:
            return
        self.counts[key] += amount
        child = self._metric_children.get(key)
        if child is not None:
            child.inc(amount)

    def _account(self, rule: FlowSpecRule, packet: Packet) -> None:
        traffic = self._rule_traffic.setdefault(rule, [0, 0])
        traffic[0] += 1
        traffic[1] += packet.size
        packets = self._traffic_children.get("packets")
        if packets is not None:
            packets.inc()
        matched_bytes = self._traffic_children.get("bytes")
        if matched_bytes is not None and packet.size:
            matched_bytes.inc(packet.size)

    # -- originator flood breaker ----------------------------------------------

    def _breaker(self, originator: int) -> CircuitBreaker:
        breaker = self._breakers.get(originator)
        if breaker is None:
            breaker = self._breakers[originator] = CircuitBreaker(
                self._breaker_config, label=f"flowspec-AS{originator}"
            )
        return breaker

    def _admit_churn(self, originator: int) -> bool:
        """One rule event on the logical clock; False = quarantined."""
        self._clock += 1.0
        breaker = self._breaker(originator)
        if breaker.state is BreakerState.OPEN:
            if self._clock >= breaker.half_open_at:
                breaker.half_open(self._clock)
            else:
                return False
        tripped_before = breaker.trips
        if not breaker.admit_update(self._clock):
            if breaker.trips > tripped_before:
                # Fresh trip: purge everything the flooder installed.
                self._count("quarantines")
                self._purge_originator(originator)
            return False
        return True

    def quarantined_originators(self) -> Tuple[int, ...]:
        return tuple(
            sorted(
                asn
                for asn, breaker in self._breakers.items()
                if breaker.state is BreakerState.OPEN
            )
        )

    def release(self, originator: int) -> None:
        """Administrative re-admission of a quarantined originator."""
        self._breaker(originator).reset(self._clock)

    def _purge_originator(self, originator: int) -> None:
        for asn, rules in list(self._installed.items()):
            kept = [r for r in rules if r.originator != originator]
            if len(kept) != len(rules):
                self._set_rules(asn, kept)
        self._drop_buckets(lambda rule: rule.originator == originator)

    # -- validation ------------------------------------------------------------

    def _valid_at(self, asn: int, rule: FlowSpecRule) -> bool:
        """RFC 5575 §6: the rule's originator must be the origin of the
        best-match unicast route for the embedded destination prefix."""
        hit = self.resolver(asn, rule.dst_prefix)
        if hit is None:
            return False
        _prefix, route = hit
        origin = route.path[-1] if route.path else asn
        return origin == rule.originator

    # -- rule lifecycle --------------------------------------------------------

    def _set_rules(self, asn: int, rules: List[FlowSpecRule]) -> None:
        """The one place an AS's rule list changes (announce, eviction,
        withdraw, purge and revalidate all land here), hence the one
        place its compiled classifier is invalidated."""
        self._installed[asn] = rules
        self._compiled.pop(asn, None)

    def announce(self, rule: FlowSpecRule) -> int:
        """Offer ``rule`` to every deploying AS.  Returns the number of
        ASes that installed it (0 if quarantined or rejected everywhere).
        """
        if not self._admit_churn(rule.originator):
            self._count("rejected_quarantine")
            return 0
        installed = 0
        for asn in self.deployers:
            rules = self._installed.get(asn, ())
            if rule in rules:
                continue
            if not self._valid_at(asn, rule):
                self._count("rejected_validation")
                continue
            rules = list(rules)
            if len(rules) >= self.install_limit:
                # At capacity the §5.1 order decides: the worst (least
                # specific) of incumbents+candidate is the one refused.
                worst = max(rules, key=FlowSpecRule.sort_key)
                if rule.sort_key() >= worst.sort_key():
                    self._count("rejected_limit")
                    continue
                rules.remove(worst)
                self._drop_buckets(lambda r, w=worst: r == w)
                self._count("evicted")
            _insort(rules, rule)
            self._set_rules(asn, rules)
            installed += 1
        self._count("installed", installed)
        return installed

    def withdraw(self, originator: int, dst_prefix: Optional[Prefix] = None) -> int:
        """Withdraw ``originator``'s rules (optionally only those for
        ``dst_prefix``).  Withdrawals count toward the churn budget too —
        announce/withdraw flapping is exactly what the breaker guards.
        Returns the number of (AS, rule) installations removed."""
        if not self._admit_churn(originator):
            self._count("rejected_quarantine")
            return 0
        removed = 0
        for asn, rules in list(self._installed.items()):
            kept = [
                r
                for r in rules
                if r.originator != originator
                or (dst_prefix is not None and r.dst_prefix != dst_prefix)
            ]
            if len(kept) != len(rules):
                removed += len(rules) - len(kept)
                self._set_rules(asn, kept)
        self._drop_buckets(
            lambda rule: rule.originator == originator
            and (dst_prefix is None or rule.dst_prefix == dst_prefix)
        )
        return removed

    def revalidate(self) -> int:
        """Re-run §6 validation of every installed rule against the
        current unicast view; rules whose originator lost the best-match
        route are evicted.  Call after any unicast route change
        (withdrawal, hijack, steering).  Returns evictions."""
        stale = 0
        for asn, rules in list(self._installed.items()):
            dead = {r for r in rules if not self._valid_at(asn, r)}
            if dead:
                self._set_rules(asn, [r for r in rules if r not in dead])
                self._drop_buckets(dead.__contains__)
                stale += len(dead)
        self._count("rejected_stale", stale)
        return stale

    # -- enforcement -----------------------------------------------------------

    def rules_at(self, asn: int) -> Tuple[FlowSpecRule, ...]:
        """Installed rules at one AS, in §5.1 enforcement order."""
        return tuple(self._installed.get(asn, ()))

    def installed_counts(self) -> Dict[int, int]:
        """``{asn: installed-rule count}`` for every AS holding rules."""
        return {asn: len(rules) for asn, rules in self._installed.items() if rules}

    def new_epoch(self) -> None:
        """Refill every traffic-rate bucket (start of a rate interval)."""
        self._buckets.clear()

    def _drop_buckets(self, predicate: Callable[[FlowSpecRule], bool]) -> None:
        for key in [k for k in self._buckets if predicate(k[1])]:
            del self._buckets[key]

    def decide(self, asn: int, packet: Packet) -> Optional[EnforcementDecision]:
        """What ``asn`` does with ``packet``: the first installed rule
        (§5.1 order) that matches decides; None = forward normally."""
        rules = self._installed.get(asn)
        if not rules:
            return None
        runs = self._compiled.get(asn)
        if runs is None:
            runs = self._compiled[asn] = _compile(rules)
        dst = packet.dst
        version, value = dst.version, dst.value
        for run_version, mask, net, entries in runs:
            if value & mask != net or run_version != version:
                continue
            for rule, src, protos, dports, sports in entries:
                if src is not None and not src.contains(packet.src):
                    continue
                if protos and packet.proto not in protos:
                    continue
                if dports and not _port_in(packet.dst_port, dports):
                    continue
                if sports and not _port_in(packet.src_port, sports):
                    continue
                return self._enforce(asn, rule, packet)
        return None

    def _enforce(
        self, asn: int, rule: FlowSpecRule, packet: Packet
    ) -> Optional[EnforcementDecision]:
        """Apply the first-matching ``rule``'s action at ``asn``."""
        self._account(rule, packet)
        action = rule.action
        if action.kind is FlowSpecActionKind.RATE_LIMIT:
            if action.rate == 0:
                return EnforcementDecision(EnforcementVerdict.DROP, rule)
            key = (asn, rule)
            used = self._buckets.get(key, 0)
            if used >= action.rate:
                return EnforcementDecision(EnforcementVerdict.RATE_EXCEEDED, rule)
            self._buckets[key] = used + 1
            return None  # within budget: forward
        if action.kind is FlowSpecActionKind.REDIRECT:
            return EnforcementDecision(EnforcementVerdict.REDIRECT, rule)
        return EnforcementDecision(EnforcementVerdict.MARK, rule)

    # -- reporting -------------------------------------------------------------

    def rule_counters(self) -> Dict[FlowSpecRule, Tuple[int, int]]:
        """Lifetime ``{rule: (packets, bytes)}`` matched by enforcement —
        survives withdrawal (a withdrawn filter's tally still tells the
        operator what it caught)."""
        return {
            rule: (packets, volume)
            for rule, (packets, volume) in self._rule_traffic.items()
        }

    def stats(self) -> Dict[str, object]:
        """Lifecycle counters plus current install state — the payload
        the looking glass renders."""
        installed_now = self.installed_counts()
        return {
            **self.counts,
            "deployers": len(self.deployers),
            "installed_now": sum(installed_now.values()),
            "max_installed_at_one_as": max(installed_now.values(), default=0),
            "install_limit": self.install_limit,
            "quarantined": list(self.quarantined_originators()),
            "matched_packets": sum(t[0] for t in self._rule_traffic.values()),
            "matched_bytes": sum(t[1] for t in self._rule_traffic.values()),
        }


# (family, netmask, network, [(rule, src_prefix, protos, dst_ports, src_ports)])
_Run = Tuple[
    int, int, int,
    List[Tuple[FlowSpecRule, Optional[Prefix], Tuple[str, ...], PortRanges, PortRanges]],
]


def _compile(rules: List[FlowSpecRule]) -> List[_Run]:
    """Group a §5.1-sorted rule list into runs of adjacent rules sharing
    a destination prefix (the order makes them adjacent), so ``decide``
    tests each distinct destination once, as one integer mask compare,
    and scans the other components only inside a matching run —
    first-match order is the list's own."""
    runs: List[_Run] = []
    last: Optional[Prefix] = None
    for rule in rules:
        dst = rule.dst_prefix
        if dst != last:
            runs.append((dst.version, int(dst.netmask), dst.address.value, []))
            last = dst
        runs[-1][3].append(
            (rule, rule.src_prefix, rule.protos, rule.dst_ports, rule.src_ports)
        )
    return runs


def _insort(rules: List[FlowSpecRule], rule: FlowSpecRule) -> None:
    key = rule.sort_key()
    for i, existing in enumerate(rules):
        if key < existing.sort_key():
            rules.insert(i, rule)
            return
    rules.append(rule)
