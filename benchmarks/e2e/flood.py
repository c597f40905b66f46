"""``traffic_flood``: the data plane under FlowSpec, the engine idle.

Four prefixes are converged once; a ``FlowSpecDistributor`` on a quarter
of the ASes holds 21 rules, one of which matches the attack.  An op is a
64-packet burst from one Zipf-drawn source AS - 16 attack packets
(udp/53 to the victim prefix, dropped at the first deploying AS on the
path) and 48 legitimate ones (tcp/443, scanned against the rules at every
deploying hop, delivered to PEERING and tunnelled to the client).  Every
50th op is a route change instead - re-steer, reconverge, install,
``revalidate()`` - so a design that precomputes forwarding state pays for
rebuilding it in the same figure.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core import Testbed
from repro.inet.dataplane import Delivery, DeliveryStatus
from repro.inet.gen import InternetConfig
from repro.inet.routing import ASRoute, RoutingOutcome, resolve_lpm
from repro.net.addr import Prefix
from repro.net.packet import Packet
from repro.secroute.flowspec import FlowSpecAction, FlowSpecDistributor, FlowSpecRule
from repro.workloads import zipf_attack_sources

from .harness import OpResult, OpTimer, engine_counters
from .workflow import CLIENT, SIM_GAP_S, probe_source

PREFIXES = 4
ATTACK, LEGIT = 16, 48
WRITE_EVERY = 50
DEPLOY_SHARE = 0.25
SCAN_RULES_PER_PREFIX = 5
SOURCES = 200
WORLD_SEED = 31  # deployers and source population; the op stream has --seed
UNIVERSITIES = ("gatech01", "ufmg01", "usc01", "cornell01")
IXP = "amsterdam01"


class TrafficFlood:
    name = "traffic_flood"
    fixed_ops = 1000
    block = WRITE_EVERY

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke

    def build(self) -> None:
        if self.smoke:
            config = InternetConfig(n_ases=400, total_prefixes=20_000, seed=14)
        else:
            config = InternetConfig()
        testbed = self.testbed = Testbed.build_default(config)
        self.client = testbed.register_client(CLIENT, "bench", prefix_count=PREFIXES)
        self.prefixes = self.client.prefixes
        for name in UNIVERSITIES + (IXP,):
            self.client.attach(name)
        for k, prefix in enumerate(self.prefixes):
            decisions = self.client.announce(prefix, servers=[UNIVERSITIES[k], IXP])
            if not all(d.allowed for d in decisions.values()):
                raise RuntimeError(f"set-up announcement of {prefix} refused")
        self._refresh_view()

        graph = testbed.graph
        world = random.Random(WORLD_SEED)
        others = sorted(a for a in graph.asns() if a != testbed.asn)
        deployers = world.sample(others, int(DEPLOY_SHARE * len(others)))
        self.distributor = FlowSpecDistributor(deployers, self._resolve)
        victim = self.prefixes[0]
        self.attack_rule = FlowSpecRule(
            dst_prefix=victim, originator=testbed.asn,
            action=FlowSpecAction.discard(), protos=("udp",), dst_ports=((53, 53),),
        )
        rules = [self.attack_rule] + [
            FlowSpecRule(
                dst_prefix=prefix, originator=testbed.asn,
                action=FlowSpecAction.discard(), protos=("tcp",),
                dst_ports=((8000 + j, 8000 + j),),
            )
            for prefix in self.prefixes
            for j in range(SCAN_RULES_PER_PREFIX)
        ]
        for rule in rules:
            if not self.distributor.announce(rule):
                raise RuntimeError(f"no deployer installed {rule}")
        testbed.dataplane.attach_flowspec(self.distributor)

        neighbors = set()
        for server in testbed.servers.values():
            neighbors |= server.neighbor_asns
        drawn = zipf_attack_sources(
            graph, count=min(SOURCES, len(others) // 4), total_packets=100_000,
            seed=WORLD_SEED, exclude=[testbed.asn],
        )
        drawn = [
            (asn, weight) for asn, weight in drawn
            if all(view.reaches(asn) for view in self.view.values())
        ]
        self.sources = [asn for asn, _ in drawn]
        self.weights = [weight for _, weight in drawn]
        # Poisoning one of these on a route change costs exactly one AS its
        # route: no source, no deployer and no mux neighbour loses anything.
        barred = set(self.sources) | set(deployers) | neighbors
        self.stubs = [a for a in sorted(graph.stub_asns()) if a not in barred]
        self.totals = {"pkts": 0, "hops": 0, "delivered": 0, "decides": 0}
        self.last_burst: Tuple[int, List[Delivery]] = (0, [])
        self.reseed(0)
        warm = self._burst(0, OpTimer(None))
        if not warm.ok:
            raise RuntimeError("warm-up burst failed")

    def reseed(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.stub_order = self.rng.sample(self.stubs, len(self.stubs))

    # -- the unicast view FlowSpec validation resolves against -----------------

    def _refresh_view(self) -> None:
        self.view: Dict[Prefix, RoutingOutcome] = {
            prefix: self.testbed.outcome_for(prefix) for prefix in self.prefixes
        }

    def _resolve(self, asn: int, target: Prefix) -> Optional[Tuple[Prefix, ASRoute]]:
        return resolve_lpm(self.view, asn, target)

    # -- ops -------------------------------------------------------------------

    def op(self, i: int, timer: OpTimer) -> OpResult:
        if i % WRITE_EVERY == WRITE_EVERY - 1:
            return self._route_change(i, timer)
        return self._burst(i, timer)

    def _burst(self, i: int, timer: OpTimer) -> OpResult:
        testbed, rng = self.testbed, self.rng
        source = rng.choices(self.sources, self.weights)[0]
        src = probe_source(source)
        victim = self.prefixes[0].first_address() + 1 + rng.randrange(200)
        packets = [
            Packet(src=src, dst=victim, proto="udp", dst_port=53) for _ in range(ATTACK)
        ] + [
            Packet(
                src=src, dst=self.prefixes[k % PREFIXES].first_address() + 1 + k,
                proto="tcp", src_port=40_000 + k, dst_port=443,
            )
            for k in range(LEGIT)
        ]
        received = len(self.client.received_packets)
        timer.start(i)
        deliveries = [testbed.send_from(source, packet) for packet in packets]
        latency = timer.stop()

        # Where the attack must die: the first AS on the forwarding chain
        # that holds the discard rule; nowhere means it gets through.
        chain = self.view[self.prefixes[0]].forwarding_chain(source)
        dropper = next(
            (a for a in chain if self.attack_rule in self.distributor.rules_at(a)), None
        )
        delivered = 0
        ok = True
        for index, delivery in enumerate(deliveries):
            landed = (
                delivery.status is DeliveryStatus.DELIVERED
                and delivery.final_asn == testbed.asn
            )
            delivered += landed
            if index < ATTACK and dropper is not None:
                ok = ok and (
                    delivery.status is DeliveryStatus.FLOWSPEC_DROPPED
                    and delivery.final_asn == dropper
                )
            else:
                ok = ok and landed
        ok = ok and len(self.client.received_packets) == received + delivered
        self.last_burst = (source, deliveries)
        totals = self.totals
        totals["pkts"] += len(deliveries)
        totals["hops"] += sum(d.hops for d in deliveries)
        totals["decides"] += sum(len(d.path) for d in deliveries)
        totals["delivered"] += delivered
        return OpResult(latency, ok, ("burst", source, dropper, delivered))

    def _route_change(self, i: int, timer: OpTimer) -> OpResult:
        testbed = self.testbed
        # No sessions tick here; the gap only lets damping penalties decay.
        testbed.engine.run_for(PREFIXES * SIM_GAP_S)
        k = (i // WRITE_EVERY) % PREFIXES
        prefix = self.prefixes[k]
        prepend, poison = self.rng.randrange(4), (self.stub_order.pop(),)
        timer.start(i)
        decisions = self.client.announce(
            prefix, servers=[UNIVERSITIES[k]], prepend=prepend, poison=poison
        )
        outcome = testbed.outcome_for(prefix)
        self._refresh_view()
        evicted = self.distributor.revalidate()
        latency = timer.stop()
        ok = (
            all(d.allowed for d in decisions.values())
            and outcome is not None
            and all(outcome.reaches(asn) for asn in self.sources)
        )
        return OpResult(latency, ok, ("route-change", k, len(outcome or ()), evicted))

    def deep_check(self) -> bool:
        """Data follows control: every packet of the last burst that got
        through took exactly its prefix's forwarding chain."""
        source, deliveries = self.last_burst
        for delivery in deliveries:
            if delivery.status is not DeliveryStatus.DELIVERED:
                continue
            hit = resolve_lpm(self.view, source, delivery.packet.dst)
            if hit is None:
                return False
            if tuple(self.view[hit[0]].forwarding_chain(source)) != delivery.path:
                return False
        return True

    def counters(self) -> Dict[str, float]:
        flowspec = self.distributor.stats()
        return {
            **engine_counters(self.testbed.propagation.stats()),
            **self.totals,
            "matched": flowspec["matched_packets"],
            "secroute.flowspec.rules_installed": flowspec["installed_now"],
            "core.safety.refused": sum(
                server.safety.blocked_count() for server in self.testbed.servers.values()
            ),
        }
