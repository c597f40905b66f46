"""The two steering workloads: ``workflow_default`` and ``workflow_scale``.

Both drive the paper's section-3 loop through public API only - steer a
prefix (over real BGP sessions or the programmatic path), read the
converged outcome back, probe it from the Internet and ping out - and
check every answer.  Safety, damping and the breakers keep their default
configuration: the driver advances the sim clock 600 s before each op so
a correct run is never refused, and a refusal is a failed op.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.attributes import Community
from repro.bgp.router import BGPRouter, PeerConfig
from repro.core import MuxMode, Testbed
from repro.inet.dataplane import DeliveryStatus
from repro.inet.gen import AmsIxConfig, InternetConfig, build_amsix, build_caida_like, build_internet
from repro.inet.routing import Announcement, OriginSpec, RoutingOutcome, propagate
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet

from .harness import OpResult, OpTimer, engine_counters

CLIENT = "e2e"
CLIENT_ASN = 64512
PREFIXES = 8
SIM_GAP_S = 600.0  # sim seconds between ops: lets damping penalties decay
WIRE_SETTLE_S = 5.0  # sim seconds for an UPDATE to cross a session
TARGET_PREFIX = Prefix("198.51.100.0/24")
PROBES = 4
# The generated 50k graph numbers its ASes 1..50000, which covers the
# testbed's usual 47065; PEERING takes a free 16-bit public ASN there.
SCALE_ASN = 60_000

# (peers or None for "all at this mux", prepend, poison)
Spec = Tuple[Optional[Tuple[int, ...]], int, Tuple[int, ...]]


def probe_source(asn: int) -> IPAddress:
    return IPAddress((10 << 24) | (asn & 0xFFFFFF), 4)


class Workflow:
    """What both steering workloads share: the client, the probes, the
    inline checks and the deep oracle."""

    block = 1
    muxes: Tuple[str, ...] = ()

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke

    # -- set-up ------------------------------------------------------------------

    def _finish_build(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.client = testbed.register_client(CLIENT, "bench", prefix_count=PREFIXES)
        self.prefixes = self.client.prefixes
        self.all_asns = sorted(a for a in testbed.graph.asns() if a != testbed.asn)
        neighbors = set()
        for name in self.muxes:
            neighbors |= testbed.server(name).neighbor_asns
        # Poisoning a mux neighbour would fight the peer selection.
        self.poison_pool = [a for a in self.all_asns if a not in neighbors]
        # An external destination for the outbound ping, installed once.
        self.target_asn = self.poison_pool[-1]
        testbed.dataplane.install(
            TARGET_PREFIX, testbed.outcome_for_origin(self.target_asn),
            owner=self.target_asn,
        )
        self.target = TARGET_PREFIX.first_address() + 1
        self.current: Dict[Prefix, Optional[Spec]] = {p: None for p in self.prefixes}
        self.last_prefix = self.prefixes[0]
        self.used_poison = set()
        self.totals = {"pkts": 0, "hops": 0, "delivered": 0}

    def reseed(self, seed: int) -> None:
        self.rng = random.Random(seed)

    # -- op pieces ---------------------------------------------------------------

    def _fresh_poison(self) -> Tuple[int, ...]:
        """One poisoned AS never used before in this run, so the spec (and
        the engine's cache key) never repeats."""
        while True:
            asn = self.rng.choice(self.poison_pool)
            if asn not in self.used_poison:
                self.used_poison.add(asn)
                return (asn,)

    def _announce(self, prefix: Prefix, servers: Sequence[str], spec: Spec) -> bool:
        peers, prepend, poison = spec
        decisions = self.client.announce(
            prefix, servers=list(servers), peers=peers, prepend=prepend, poison=poison
        )
        self.current[prefix] = spec
        return all(decisions[name].allowed for name in servers)

    def _read_back_and_probe(
        self, prefix: Prefix, spec: Spec, via: str
    ) -> Tuple[bool, Tuple[object, ...]]:
        """Outcome read-back, four inbound probes, one outbound ping."""
        testbed, rng = self.testbed, self.rng
        outcome = testbed.outcome_for(prefix)
        if outcome is None or prefix not in testbed.announced_prefixes():
            return False, ("unannounced",)
        ok = all(outcome.route(asn) is None for asn in spec[2])
        sources: List[int] = []
        for _ in range(2 * PROBES):
            asn = rng.choice(self.all_asns)
            if outcome.reaches(asn):
                sources.append(asn)
                if len(sources) == PROBES:
                    break
        if len(sources) < PROBES:  # narrow reach: the peers announced to have it
            fallback = spec[0] or sorted(testbed.server(via).neighbor_asns)
            while len(sources) < PROBES:
                sources.append(fallback[len(sources) % len(fallback)])
        received = len(self.client.received_packets)
        dst = prefix.first_address() + 1
        deliveries = [
            testbed.send_from(asn, Packet(src=probe_source(asn), dst=dst, dst_port=33434))
            for asn in sources
        ]
        ok = ok and all(
            d.status is DeliveryStatus.DELIVERED and d.final_asn == testbed.asn
            for d in deliveries
        )
        ok = ok and len(self.client.received_packets) == received + PROBES
        ping = self.client.ping(self.target, via=via)
        ok = ok and (
            ping.status is DeliveryStatus.DELIVERED and ping.final_asn == self.target_asn
        )
        deliveries.append(ping)
        totals = self.totals
        totals["pkts"] += len(deliveries)
        totals["hops"] += sum(d.hops for d in deliveries)
        totals["delivered"] += sum(
            d.status is DeliveryStatus.DELIVERED for d in deliveries
        )
        return ok, (len(outcome), tuple(d.status.value for d in deliveries))

    # -- deep oracle ---------------------------------------------------------------

    def _announcement_of(self, prefix: Prefix) -> Announcement:
        """The substrate announcement the muxes' recorded specs add up to,
        rebuilt from their public read-backs."""
        origins = []
        for name in sorted(self.client.attachments):
            server = self.testbed.server(name)
            spec = server.announcements_for(CLIENT).get(prefix)
            if spec is None:
                continue
            peers = server.neighbor_asns if spec.peers is None else spec.peers
            origins.append(OriginSpec(
                asn=self.testbed.asn, prepend=spec.prepend, poison=spec.poison,
                announce_to=tuple(sorted(set(peers))),
            ))
        return Announcement(origins=tuple(origins), prefix=prefix)

    def _reference(self, announcement: Announcement) -> Tuple[RoutingOutcome, Sequence[int]]:
        raise NotImplementedError

    def deep_check(self) -> bool:
        """The last op's outcome against an independent convergence."""
        prefix = self.last_prefix
        outcome = self.testbed.outcome_for(prefix)
        if outcome is None:
            return False
        reference, sample = self._reference(self._announcement_of(prefix))
        return len(reference) == len(outcome) and all(
            reference.route(asn) == outcome.route(asn) for asn in sample
        )

    # -- counters ------------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        testbed = self.testbed
        stats = testbed.propagation.stats()
        out = {**engine_counters(stats), **self.totals}
        out["sim.events"] = testbed.engine.processed
        out["guard.journal_records"] = len(testbed.journal) if testbed.journal else 0
        out["core.safety.refused"] = sum(
            server.safety.blocked_count() for server in testbed.servers.values()
        )
        return out


class WorkflowDefault(Workflow):
    """Paper scale: 4000 ASes, nine muxes, supervised, real sessions.

    Per-peer (Quagga-mode) sessions run to ``gatech01``, ``ufmg01`` and
    ``phoenix01``; ``amsterdam01`` is attached in BIRD mode, one session.
    Over-the-wire steering goes through that one session, from a plain
    BGP speaker the client brings itself (no ADD-PATH), because that is
    the only arrangement in which a wire withdrawal takes back a
    community-selected announcement and is not refused for it - README,
    "Findings", has the three refusals that rule the others out.
    """

    name = "workflow_default"
    fixed_ops = 240
    muxes = ("amsterdam01", "gatech01", "ufmg01", "phoenix01")
    wire_mux = "amsterdam01"
    # prefix index -> (mux, over the wire?), visited round-robin
    channels = (
        ("amsterdam01", True), ("gatech01", False),
        ("amsterdam01", True), ("ufmg01", False),
        ("amsterdam01", True), ("phoenix01", False),
        ("amsterdam01", True), ("amsterdam01", False),
    )

    def build(self) -> None:
        if self.smoke:
            config = InternetConfig(n_ases=400, total_prefixes=20_000, seed=11)
        else:
            config = InternetConfig()
        testbed = Testbed.build_default(config)
        testbed.supervise()
        self._finish_build(testbed)
        self.peers_of = {
            name: sorted(testbed.server(name).neighbor_asns) for name in self.muxes
        }
        for name in self.muxes:
            if name != self.wire_mux:
                self.client.attach_bgp(name, mode=MuxMode.QUAGGA)
        attachment = self.client.attach(self.wire_mux, mode=MuxMode.BIRD)
        self.router = BGPRouter(
            testbed.engine, asn=CLIENT_ASN, router_id=attachment.tunnel.address
        )
        self.router.add_peer(
            PeerConfig(
                peer_id=f"mux-{self.wire_mux}", remote_asn=testbed.asn,
                local_address=attachment.tunnel.address,
            ),
            attachment.endpoints[0],
        ).start()
        testbed.engine.run_for(10.0)
        self.history: Dict[Tuple[str, bool], List[Spec]] = {}
        self.reseed(0)
        for i in range(2):  # one wire op, one programmatic; compiles the topology
            if not self.op(i, OpTimer(None)).ok:
                raise RuntimeError("warm-up op failed")

    def _fresh_spec(self, mux: str, wire: bool) -> Spec:
        """Peers picked at the mux; off the wire also prepending and one
        never-used poisoned AS, so the spec cannot repeat."""
        rng, pool = self.rng, self.peers_of[mux]
        peers = tuple(sorted(rng.sample(pool, rng.randint(1, min(8, len(pool))))))
        if wire:
            return (peers, 0, ())
        return (peers, rng.randrange(4), self._fresh_poison())

    def op(self, i: int, timer: OpTimer) -> OpResult:
        rng, testbed = self.rng, self.testbed
        testbed.engine.run_for(SIM_GAP_S)
        prefix = self.last_prefix = self.prefixes[i % PREFIXES]
        mux, wire = self.channels[i % PREFIXES]
        past = self.history.setdefault((mux, wire), [])
        draw = rng.random()
        if draw >= 0.85 and self.current[prefix] is not None:
            kind, spec = "flap", self.current[prefix]
        elif draw >= 0.70 and past:
            kind, spec = "revisit", rng.choice(past)
        else:
            kind, spec = "fresh", self._fresh_spec(mux, wire)
            past.append(spec)

        timer.start(i)
        if wire:
            ok = self._steer_wire(prefix, mux, spec, kind)
        else:
            ok = True
            if kind == "flap":
                self.client.withdraw(prefix, servers=[mux])
                ok = prefix not in testbed.announced_prefixes()
            ok = self._announce(prefix, [mux], spec) and ok
        probed, seen = self._read_back_and_probe(prefix, spec, mux)
        latency = timer.stop()
        return OpResult(latency, ok and probed, (kind, mux, wire) + seen)

    def _steer_wire(self, prefix: Prefix, mux: str, spec: Spec, kind: str) -> bool:
        """Steer over the client's BGP session with PEERING:peer
        communities.  The mux *adds* community-selected peers to what it
        already holds, so a new selection starts from a withdrawal."""
        testbed, router = self.testbed, self.router
        ok = True
        if self.current[prefix] is not None:
            router.withdraw_local(prefix)
            testbed.engine.run_for(WIRE_SETTLE_S)
            if kind == "flap":
                ok = prefix not in testbed.announced_prefixes()
        router.originate(
            prefix, communities=[Community(testbed.asn, asn) for asn in spec[0]]
        )
        testbed.engine.run_for(WIRE_SETTLE_S)
        self.current[prefix] = spec
        held = testbed.server(mux).announcements_for(CLIENT).get(prefix)
        return ok and held is not None and held.peers == spec[0]

    def _reference(self, announcement: Announcement) -> Tuple[RoutingOutcome, Sequence[int]]:
        return propagate(self.testbed.graph, announcement), self.all_asns


class WorkflowScale(Workflow):
    """50k ASes, three muxes, programmatic path, never-repeating specs."""

    name = "workflow_scale"
    fixed_ops = 60
    muxes = ("amsterdam01", "gatech01", "ufmg01")

    def build(self) -> None:
        if self.smoke:
            internet = build_internet(
                InternetConfig(n_ases=2000, total_prefixes=100_000, seed=12)
            )
            build_amsix(internet, AmsIxConfig.scaled(200))
        else:
            internet = build_caida_like(50_000)
            build_amsix(internet, AmsIxConfig())
        testbed = Testbed(internet, asn=SCALE_ASN)
        testbed.deploy_default_sites()
        self._finish_build(testbed)
        for name in self.muxes:
            self.client.attach(name)
        self.reseed(0)
        warm = self.op(0, OpTimer(None))  # compiles the topology
        if not warm.ok:
            raise RuntimeError("warm-up op failed")

    def op(self, i: int, timer: OpTimer) -> OpResult:
        self.testbed.engine.run_for(SIM_GAP_S)
        prefix = self.last_prefix = self.prefixes[i % PREFIXES]
        spec: Spec = (None, self.rng.randrange(4), self._fresh_poison())
        timer.start(i)
        ok = self._announce(prefix, self.muxes, spec)
        probed, seen = self._read_back_and_probe(prefix, spec, self.muxes[0])
        latency = timer.stop()
        return OpResult(latency, ok and probed, seen)

    def _reference(self, announcement: Announcement) -> Tuple[RoutingOutcome, Sequence[int]]:
        reference = self.testbed.propagation.propagate(announcement, use_cache=False)
        return reference, random.Random(len(reference)).sample(self.all_asns, 200)
