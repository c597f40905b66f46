"""Substrate security policy: per-AS ROV deployment and Peerlock.

A :class:`SecurityPolicy` describes which ASes on the simulated Internet
deploy which defense:

* **ROV** (RFC 6811 + RFC 8481): an AS in ``rov`` validates the origin of
  every candidate route against the shared :class:`~.rpki.RoaRegistry`.
  ``RovMode.DROP_INVALID`` refuses Invalid routes outright;
  ``RovMode.DEPREFER_INVALID`` accepts them only when no non-Invalid
  alternative exists (see :func:`repro.secroute.campaign.secure_propagate`
  for the two-pass evaluation).
* **Peerlock** (NANOG 67 / the Flexsealing measurement study): a locker AS
  lists *protected* ASNs — typically the other tier-1s — and refuses any
  route whose AS path contains a protected ASN **behind** the first hop.
  A route learned directly from the protected AS is fine; a path that
  transits it via a third party is a leak and is dropped.
* **Peerlock-lite**: an AS in ``peerlock_lite`` refuses customer-learned
  routes whose path (again, behind the first hop) contains any tier-1
  ASN — customers do not legitimately provide transit to the clique.

``compile_for(announcement)`` freezes the policy against one announcement
into a :class:`CompiledSecurity`: origin verdicts resolved, per-origin
drop sets materialized, and protected/tier-1 ASNs assigned bit positions
so both propagation paths can track "does this path contain a locked
ASN?" as a single int mask.  The compiled form also carries a hashable
``fingerprint`` (ROA registry version included) so the propagation
engine's outcome cache distinguishes security configurations.

This module deliberately never imports :mod:`repro.inet` — the
propagation engines consume :class:`CompiledSecurity` by duck type, which
keeps ``repro.bgp -> repro.secroute`` import chains acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .rpki import RoaRegistry, ValidationState

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..net.addr import Prefix

__all__ = ["RovMode", "SecurityPolicy", "CompiledSecurity"]


class RovMode(Enum):
    """What a deploying AS does with an RPKI-Invalid route."""

    DROP_INVALID = "drop-invalid"
    DEPREFER_INVALID = "deprefer-invalid"

    def __str__(self) -> str:
        return self.value


# The duck type CompiledSecurity expects of an announcement: ``prefix``
# (Optional[Prefix]) and ``origins`` with ``.export_path()`` per spec.
# Annotated loosely to avoid importing repro.inet.
SpecsLike = Sequence[object]


@dataclass
class SecurityPolicy:
    """Deployment state of the substrate's route-security defenses.

    * ``roas`` — the shared ROA payload set (None = RPKI dark, everything
      NotFound).
    * ``rov`` — ASN → :class:`RovMode` for deploying ASes.
    * ``peerlock`` — locker ASN → the ASNs it protects.
    * ``peerlock_lite`` — ASes applying the tier-1-in-customer-path filter.
    * ``tier1`` — the clique the lite filter matches against; defaults to
      the union of all protected sets when left empty.
    """

    roas: Optional[RoaRegistry] = None
    rov: Dict[int, RovMode] = field(default_factory=dict)
    peerlock: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    peerlock_lite: FrozenSet[int] = frozenset()
    tier1: FrozenSet[int] = frozenset()

    # -- construction helpers --------------------------------------------------

    def deploy_rov(self, asns: Iterable[int], mode: RovMode = RovMode.DROP_INVALID) -> "SecurityPolicy":
        for asn in asns:
            self.rov[asn] = mode
        return self

    def lock(self, locker: int, protected: Iterable[int]) -> "SecurityPolicy":
        """Add a Peerlock protected-ASN list at ``locker`` (self-protection
        is meaningless and stripped)."""
        current = self.peerlock.get(locker, frozenset())
        self.peerlock[locker] = current | (frozenset(protected) - {locker})
        return self

    def lock_clique(self, clique: Iterable[int]) -> "SecurityPolicy":
        """Full Peerlock among a tier-1 clique: everyone protects everyone."""
        members = frozenset(clique)
        for member in members:
            self.lock(member, members)
        self.tier1 = self.tier1 | members
        return self

    def effective_tier1(self) -> FrozenSet[int]:
        if self.tier1:
            return self.tier1
        merged: FrozenSet[int] = frozenset()
        for protected in self.peerlock.values():
            merged = merged | protected
        return merged

    # -- validation ------------------------------------------------------------

    def validate_origin(self, prefix: "Optional[Prefix]", origin_asn: int) -> ValidationState:
        if self.roas is None or prefix is None:
            return ValidationState.NOT_FOUND
        return self.roas.validate(prefix, origin_asn)

    # -- compilation -----------------------------------------------------------

    def compile_for(
        self, announcement: object, deprefer_as_drop: bool = False
    ) -> "CompiledSecurity":
        """Freeze this policy against one announcement.

        ``deprefer_as_drop`` folds DEPREFER_INVALID deployers into the
        drop set — the strict first pass of the two-pass deprefer
        evaluation in :func:`repro.secroute.campaign.secure_propagate`.
        """
        prefix = getattr(announcement, "prefix", None)
        origins = getattr(announcement, "origins", ())
        verdicts: Dict[int, ValidationState] = {}
        for spec in origins:
            epath = spec.export_path()  # type: ignore[attr-defined]
            origin_asn = int(epath[-1])
            if origin_asn not in verdicts:
                verdicts[origin_asn] = self.validate_origin(prefix, origin_asn)

        modes = (
            (RovMode.DROP_INVALID, RovMode.DEPREFER_INVALID)
            if deprefer_as_drop
            else (RovMode.DROP_INVALID,)
        )
        droppers = frozenset(asn for asn, mode in self.rov.items() if mode in modes)
        drops = {
            origin: droppers
            for origin, verdict in verdicts.items()
            if verdict is ValidationState.INVALID
        }

        tier1 = self.effective_tier1()
        protected_union = frozenset(
            asn for protected in self.peerlock.values() for asn in protected
        )
        bits = {asn: 1 << i for i, asn in enumerate(sorted(tier1 | protected_union))}
        pmask = {
            locker: sum(bits[p] for p in protected if p in bits)
            for locker, protected in self.peerlock.items()
            if protected
        }
        t1mask = sum(bits[asn] for asn in tier1)

        roa_fp = None if self.roas is None else self.roas.fingerprint()
        prefix_key = None if prefix is None else (str(prefix),)
        fingerprint = (
            roa_fp,
            prefix_key,
            tuple(sorted((a, m.value) for a, m in self.rov.items())),
            tuple(sorted((a, tuple(sorted(p))) for a, p in self.peerlock.items())),
            tuple(sorted(self.peerlock_lite)),
            tuple(sorted(tier1)),
            deprefer_as_drop,
        )
        return CompiledSecurity(
            drops=drops,
            bits=bits,
            pmask=pmask,
            lite=self.peerlock_lite,
            t1mask=t1mask,
            fingerprint=fingerprint,
        )

    def has_deprefer(self) -> bool:
        return any(mode is RovMode.DEPREFER_INVALID for mode in self.rov.values())


@dataclass(frozen=True)
class CompiledSecurity:
    """A :class:`SecurityPolicy` frozen against one announcement.

    The propagation paths consult exactly one predicate:
    :meth:`rejects`.  ``bits``/``pmask``/``t1mask`` expose the same
    decisions as bitmask arithmetic for the compiled engine, whose
    ``_converge`` evaluates it as an accept hook wherever it settles a
    slot, carrying each path's mask along the parent pointers.
    """

    drops: Mapping[int, FrozenSet[int]]  # origin ASN -> ASes refusing it
    bits: Mapping[int, int]  # tracked (protected/tier-1) ASN -> bit
    pmask: Mapping[int, int]  # locker ASN -> protected bitmask
    lite: FrozenSet[int]  # ASes applying Peerlock-lite
    t1mask: int
    fingerprint: Tuple[object, ...]

    def path_mask(self, asns: Iterable[int]) -> int:
        bits = self.bits
        mask = 0
        for asn in asns:
            mask |= bits.get(asn, 0)
        return mask

    def rejects(self, target_asn: int, path: Sequence[int], from_customer: bool) -> bool:
        """Would ``target_asn`` refuse a candidate route with AS path
        ``path`` (first hop first, origin last)?

        Mirrors the compiled engine bit-for-bit: the ROV drop set keys on
        the path origin; the Peerlock masks test the path *behind* the
        first hop (direct announcements from a protected AS pass).
        """
        droppers = self.drops.get(path[-1])
        if droppers is not None and target_asn in droppers:
            return True
        pm = self.pmask.get(target_asn, 0)
        lm = self.t1mask if (from_customer and target_asn in self.lite) else 0
        if pm | lm:
            tail = self.path_mask(path[1:])
            if tail & (pm | lm):
                return True
        return False

    @property
    def active(self) -> bool:
        """False when the compiled form can never reject anything —
        callers may skip the secure propagation path entirely."""
        return bool(self.drops) or bool(self.pmask) or bool(self.lite and self.t1mask)
