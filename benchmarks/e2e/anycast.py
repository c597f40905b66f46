"""``anycast_sweep``: the engine used the other way round.

Where the steering workloads ask for one convergence at a time, an
anycast operator asks for batches: "what would the catchments be under
these four steerings?" (``CatchmentMap.compute_many`` over one
``propagate_many`` sweep, delta-chained, fanned over the library's pool)
and, when a site fails, a whole ``TrafficEngineer.rebalance``.  Ops come
in blocks of four sweeps and one rebalance, so ``op_ms_p50`` tracks the
sweeps and ``op_ms_p90`` the rebalances by construction.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.anycast import (
    AnycastService,
    AnycastSite,
    CatchmentMap,
    EngineerConfig,
    SiteSteering,
    TrafficEngineer,
)
from repro.inet.engine import default_parallelism
from repro.inet.gen import InternetConfig, build_caida_like, build_internet
from repro.inet.topology import ASKind
from repro.workloads import zipf_clients

from .harness import OpResult, OpTimer, engine_counters

N_SITES = 3
UPLINKS_PER_SITE = 3
VARIANTS = 4
SWEEPS_PER_BLOCK = 4
POPULATION_SEED = 5
ENGINEER_SEED = 7


class AnycastSweep:
    name = "anycast_sweep"
    fixed_ops = 20
    block = SWEEPS_PER_BLOCK + 1

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke

    def build(self) -> None:
        if self.smoke:
            internet = build_internet(
                InternetConfig(n_ases=2000, total_prefixes=100_000, seed=13)
            )
            ases, clients = 400, 120_000
        else:
            internet = build_caida_like(50_000)
            ases, clients = 20_000, 1_200_000
        graph = internet.graph
        transits = sorted(
            (n for n in graph.nodes() if n.kind == ASKind.TRANSIT),
            key=lambda n: (-n.prefix_count, n.asn),
        )
        uplinks = [n.asn for n in transits[: N_SITES * UPLINKS_PER_SITE]]
        sites = [
            AnycastSite(
                name=f"site{k:02d}",
                transits=tuple(uplinks[k * UPLINKS_PER_SITE:(k + 1) * UPLINKS_PER_SITE]),
            )
            for k in range(N_SITES)
        ]
        self.service = AnycastService.deploy(graph, sites)
        self.names = [site.name for site in self.service.sites]
        self.population = zipf_clients(
            graph, ases=ases, clients=clients, seed=POPULATION_SEED
        )
        self.parallel = default_parallelism()
        # Poisoning a stub changes one AS's answer and nothing else, so
        # every variant costs what its site's cone costs, whichever stub
        # the seed draws.
        barred = set(uplinks) | {self.service.asn}
        self.stubs = [a for a in sorted(graph.stub_asns()) if a not in barred]
        self.base = CatchmentMap.compute(self.service, self.population)  # compiles
        self.totals = {"rebalances": 0, "iterations": 0, "shift_iterations": 0}
        self.reseed(0)

    def reseed(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.stub_order = self.rng.sample(self.stubs, len(self.stubs))

    def _steering(self, prepend: int) -> SiteSteering:
        """A steering no earlier op used: the poisoned stub is fresh.  The
        seed picks the stub; the prepend depth follows the slot, so every
        seed asks the engine for the same mix of delta regimes."""
        return SiteSteering(prepend=prepend % 3, poison=(self.stub_order.pop(),))

    def op(self, i: int, timer: OpTimer) -> OpResult:
        slot = i % self.block
        if slot < SWEEPS_PER_BLOCK:
            return self._sweep(i, slot, timer)
        return self._rebalance(i, timer)

    def _sweep(self, i: int, slot: int, timer: OpTimer) -> OpResult:
        service = self.service
        site = self.names[slot % N_SITES]
        steering = self._steering(slot)
        overrides = [
            {self.names[(slot + k) % N_SITES]: self._steering(slot + k)}
            for k in range(VARIANTS)
        ]
        timer.start(i)
        service.steer(site, steering)
        variants = [service.announcement(o) for o in overrides]
        maps = CatchmentMap.compute_many(
            service, self.population, variants, parallel=self.parallel
        )
        shift = self.base.diff(maps[0])
        shares = [m.volume_shares() for m in maps]
        latency = timer.stop()
        ok = all(
            abs(sum(s.values()) + m.unserved_fraction - 1.0) < 1e-9
            for s, m in zip(shares, maps)
        )
        self.last = (variants[-1], maps[-1])
        seen = tuple(
            tuple(round(s[name], 9) for name in m.sites) for s, m in zip(shares, maps)
        )
        return OpResult(latency, ok, ("sweep", shift.flipped_ases) + seen)

    def _rebalance(self, i: int, timer: OpTimer) -> OpResult:
        service = self.service
        # Always the same site: what a rebalance costs depends on which
        # site is lost, and with a handful of rebalances per run a rotation
        # would leave ``op_ms_p90`` hopping between three price classes.
        down = self.names[0]
        timer.start(i)
        service.fail_site(down)
        live = service.active_site_names()
        engineer = TrafficEngineer(
            service, self.population, {name: 1.0 for name in live},
            EngineerConfig(max_iterations=6, seed=ENGINEER_SEED, parallel=self.parallel),
        )
        report = engineer.rebalance()
        service.restore_site(down)
        latency = timer.stop()
        self.totals["rebalances"] += 1
        self.totals["iterations"] += len(report.iterations)
        self.totals["shift_iterations"] += report.shift_iterations
        ok = (
            report.imbalance_after <= report.imbalance_before + 1e-9
            and sum(report.final_shares.values()) <= 1.0 + 1e-9
            and service.down_sites() == ()
        )
        return OpResult(latency, ok, ("rebalance", down, report.to_json()))

    def deep_check(self) -> bool:
        """The batched sweep's last variant against a serial, uncached
        convergence of the same announcement."""
        variant, swept = self.last
        outcome = self.service.engine.propagate(variant, use_cache=False)
        serial = CatchmentMap.compute(
            self.service, self.population, outcome=outcome, observe=False
        )
        return (
            serial.volume_by_site == swept.volume_by_site
            and serial.unserved_volume == swept.unserved_volume
        )

    def counters(self) -> Dict[str, float]:
        return {**engine_counters(self.service.engine.stats()), **self.totals}
