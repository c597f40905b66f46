"""The PEERING testbed controller.

``Testbed`` owns everything the operators run: the PEERING AS on the
simulated Internet, the servers at each site, the prefix pool, experiment
vetting, the shared data plane, and the announcement registry that turns
per-client/per-server/per-peer announcement state into substrate
propagation.

:meth:`Testbed.build_default` reproduces the deployment described in the
paper: nine servers on three continents — universities with transit
upstreams plus the AMS-IX server (route server + bilateral peers) and the
Phoenix-IX server added in September 2014.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..inet.dataplane import DataPlane, Delivery, DeliveryStatus
from ..inet.engine import PropagationEngine
from ..inet.gen import AmsIxConfig, Internet, InternetConfig, build_amsix, build_internet
from ..inet.ixp import IXP
from ..inet.routing import Announcement, OriginSpec, RoutingOutcome
from ..inet.topology import ASGraph, ASKind, ASNode
from ..net.addr import IPAddress, Prefix
from ..net.packet import Packet
from ..sim.engine import Engine
from ..telemetry.metrics import CounterChild, MetricsRegistry
from ..telemetry.tracing import SpanContext, Tracer, maybe_span
from .alerts import EventBus
from .allocation import PrefixPool
from .experiment import AdvisoryBoard, Experiment, ExperimentError, ExperimentStatus
from .server import AnnouncementSpec, PeeringServer, SiteConfig, SiteKind, spec_to_tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..guard.breaker import BreakerConfig
    from ..guard.journal import ControlJournal
    from ..guard.quarantine import QuarantineConfig
    from ..guard.supervisor import Supervisor
    from ..guard.watchdog import WatchdogConfig
    from ..telemetry.collector import Collector

__all__ = ["Testbed", "PEERING_ASN", "PEERING_SUPERNET"]

PEERING_ASN = 47065
PEERING_SUPERNET = Prefix("184.164.224.0/19")


class Testbed:
    """The operator-side controller for the whole testbed."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        internet: Internet,
        asn: int = PEERING_ASN,
        supernet: Prefix = PEERING_SUPERNET,
        engine: Optional[Engine] = None,
        tunnel_rate_limit: Optional[int] = None,
    ) -> None:
        self.internet = internet
        self.graph: ASGraph = internet.graph
        self.asn = asn
        self.engine = engine or Engine()
        self.pool = PrefixPool([supernet])
        self.dataplane = DataPlane(self.graph)
        self.dataplane.prepare = self._flush_dirty
        self.events = EventBus(self.engine)
        self.board = AdvisoryBoard()
        self.tunnel_rate_limit = tunnel_rate_limit
        self.servers: Dict[str, PeeringServer] = {}
        self.experiments: Dict[str, Experiment] = {}
        self._client_experiment: Dict[str, str] = {}
        self._client_server: Dict[str, List[str]] = {}
        # prefix -> server name -> (client id, spec)
        self._announced: Dict[Prefix, Dict[str, Tuple[str, AnnouncementSpec]]] = {}
        self._dirty: Set[Prefix] = set()
        # Telemetry: the registry always exists (subsystems register into
        # it unconditionally — metric increments are cheap); the tracer
        # and collector are wired by :meth:`observe`.
        self.metrics = MetricsRegistry()
        self.telemetry: Optional["Collector"] = None
        self.tracer: Optional[Tracer] = None
        # Deferred-propagation trace linkage: the span context active when
        # a prefix was marked dirty, consumed as the parent of the later
        # convergence span (a follows-from link).
        self._dirty_ctx: Dict[Prefix, SpanContext] = {}
        # Compiled propagation engine: recompiles on graph mutation (the
        # graph version counter) and LRU-caches converged outcomes, so
        # per-destination route computation and announcement sweeps share
        # work automatically.
        self.propagation = PropagationEngine(
            self.graph, cache_size=4096, metrics=self.metrics
        )
        self._ann_counter = self.metrics.counter(
            "peering_announcements_total",
            "Announcements accepted into the substrate per mux",
            ("server",),
        )
        self._wdr_counter = self.metrics.counter(
            "peering_withdrawals_total",
            "Announcements removed from the substrate per mux",
            ("server",),
        )
        self._announced_gauge = self.metrics.gauge(
            "peering_announced_prefixes",
            "Prefixes currently announced by the testbed",
        )
        self._announced_child = self._announced_gauge.labels()
        # Per-mux counter children resolved once when the server deploys —
        # announce/retract are hot paths and the label value is fixed.
        self._mux_children: Dict[str, Tuple["CounterChild", "CounterChild"]] = {}
        self._next_server_addr = 1
        # Supervision layer (repro.guard), wired by :meth:`supervise`.
        self.guard: Optional["Supervisor"] = None
        self.journal: Optional["ControlJournal"] = None

        if asn not in self.graph:
            self.graph.add_as(
                ASNode(asn=asn, name="PEERING", kind=ASKind.TESTBED, country="US",
                       prefix_count=0)
            )

    # -- construction -----------------------------------------------------------

    @classmethod
    def build_default(
        cls,
        config: Optional[InternetConfig] = None,
        seed: int = 20141027,
        with_phoenix: bool = True,
        amsix: Optional[AmsIxConfig] = None,
    ) -> "Testbed":
        """The paper's deployment on a freshly generated Internet.

        For small test internets the AMS-IX membership is scaled down
        (preserving the paper's proportions) unless ``amsix`` is given.
        """
        config = config or InternetConfig()
        internet = build_internet(config)
        if amsix is None:
            if config.n_ases >= 2500:
                amsix = AmsIxConfig()
            else:
                amsix = AmsIxConfig.scaled(max(20, config.n_ases // 5))
        build_amsix(internet, amsix)
        testbed = cls(internet)
        testbed.deploy_default_sites(seed=seed, with_phoenix=with_phoenix)
        return testbed

    def deploy_default_sites(self, seed: int = 20141027, with_phoenix: bool = True) -> None:
        """Nine servers on three continents (§3): seven universities with
        transit upstreams, AMS-IX, and Phoenix-IX."""
        rng = random.Random(seed)
        transit_asns = [
            node.asn for node in self.graph.nodes() if node.kind is ASKind.TRANSIT
        ]
        universities = [
            ("gatech01", "US"),
            ("usc01", "US"),
            ("washington01", "US"),
            ("wisconsin01", "US"),
            ("cornell01", "US"),
            ("ufmg01", "BR"),
            ("tsinghua01", "CN"),
        ]
        for name, country in universities:
            upstreams = tuple(sorted(rng.sample(transit_asns, 2)))
            self.add_server(
                SiteConfig(
                    name=name,
                    kind=SiteKind.UNIVERSITY,
                    country=country,
                    upstream_asns=upstreams,
                )
            )
        self.add_server(
            SiteConfig(name="amsterdam01", kind=SiteKind.IXP, country="NL", ixp="AMS-IX")
        )
        if with_phoenix:
            if "Phoenix-IX" not in self.internet.ixps:
                self._build_phoenix_ix(rng)
            self.add_server(
                SiteConfig(name="phoenix01", kind=SiteKind.IXP, country="US", ixp="Phoenix-IX")
            )

    def _build_phoenix_ix(self, rng: random.Random) -> None:
        """A small US IXP (the September 2014 expansion site)."""
        ixp = IXP("Phoenix-IX", self.graph, country="US", seed=rng.randrange(2**16))
        candidates = [
            node.asn
            for node in self.graph.nodes()
            if node.kind in (ASKind.CONTENT, ASKind.TRANSIT, ASKind.ACCESS)
            and node.country in ("US", "CA", "MX")
            and node.asn != self.asn
        ]
        members = rng.sample(candidates, min(60, len(candidates)))
        for asn in members:
            use_rs = rng.random() < 0.7
            ixp.add_member(asn, use_route_server=use_rs)
        self.internet.ixps["Phoenix-IX"] = ixp

    def add_server(self, site: SiteConfig) -> PeeringServer:
        if site.name in self.servers:
            raise ValueError(f"server {site.name!r} already deployed")
        address = IPAddress("100.65.0.0") + self._next_server_addr
        self._next_server_addr += 1
        server = PeeringServer(self, site, address)
        if site.kind is SiteKind.UNIVERSITY:
            server.attach_university_upstreams()
        else:
            server.join_ixp()
        self.servers[site.name] = server
        server.safety.bind_metrics(self.metrics, site.name)
        self._mux_children[site.name] = (
            self._ann_counter.labels(site.name),
            self._wdr_counter.labels(site.name),
        )
        if self.guard is not None:
            self.guard.adopt_server(server)
        if self.telemetry is not None:
            self.telemetry.adopt_server(server)
        return server

    def server(self, name: str) -> PeeringServer:
        return self.servers[name]

    def supervise(
        self,
        breaker: Optional["BreakerConfig"] = None,
        quarantine: Optional["QuarantineConfig"] = None,
        watchdog: Optional["WatchdogConfig"] = None,
        journal: Optional["ControlJournal"] = None,
    ) -> "Supervisor":
        """Wire up and start the supervision layer (repro.guard): circuit
        breakers on every client session, testbed-wide quarantine, the
        server watchdog, and crash-consistent control journaling.

        Idempotent: returns the existing supervisor if already wired."""
        if self.guard is not None:
            return self.guard
        from ..guard.supervisor import Supervisor

        return Supervisor(
            self,
            breaker=breaker,
            quarantine=quarantine,
            watchdog=watchdog,
            journal=journal,
        ).start()

    def observe(self) -> "Collector":
        """Wire up and start the telemetry layer (repro.telemetry):
        control-path tracing, BMP-style route monitoring on every mux,
        and EventBus severity counters — all exporting through
        ``self.metrics``.

        Idempotent: returns the existing collector if already wired."""
        if self.telemetry is not None:
            return self.telemetry
        from ..telemetry.collector import Collector

        return Collector(self).start()

    # -- experiments & clients ------------------------------------------------------

    def propose_experiment(
        self,
        name: str,
        researcher: str,
        description: str = "",
        needs_spoofing: bool = False,
    ) -> Experiment:
        if name in self.experiments:
            raise ExperimentError(f"experiment {name!r} already exists")
        experiment = Experiment(
            name=name,
            researcher=researcher,
            description=description,
            needs_spoofing=needs_spoofing,
        )
        self.experiments[name] = experiment
        return experiment

    def approve_and_provision(self, name: str, prefix_count: int = 1) -> Experiment:
        """Advisory-board review, then prefix allocation."""
        experiment = self.experiments[name]
        status = self.board.review(experiment)
        if status is not ExperimentStatus.APPROVED:
            raise ExperimentError(f"experiment {name!r} was rejected by the board")
        for _ in range(prefix_count):
            allocation = self.pool.allocate(owner=name)
            experiment.prefixes.append(allocation.prefix)
        experiment.status = ExperimentStatus.ACTIVE
        if experiment.needs_spoofing:
            for server in self.servers.values():
                waivers = set(server.safety.config.allow_spoofing_for)
                # config is frozen; rebuild with the waiver added
                from dataclasses import replace

                server.safety.config = replace(
                    server.safety.config,
                    allow_spoofing_for=frozenset(waivers | {name}),
                )
        return experiment

    def register_client(
        self,
        name: str,
        researcher: str = "researcher",
        prefix_count: int = 1,
        description: str = "experiment",
        needs_spoofing: bool = False,
    ) -> "PeeringClient":
        """One-call setup: propose, vet, provision, build a client handle.

        The returned :class:`~repro.core.client.PeeringClient` uses the
        experiment name as its client id.
        """
        from .client import PeeringClient

        self.propose_experiment(
            name, researcher, description=description, needs_spoofing=needs_spoofing
        )
        experiment = self.approve_and_provision(name, prefix_count=prefix_count)
        experiment.clients.add(name)
        self._client_experiment[name] = name
        return PeeringClient(self, client_id=name, experiment=experiment)

    def retire_experiment(self, name: str) -> None:
        experiment = self.experiments[name]
        for prefix in list(self._announced):
            for server_name, (client_id, _spec) in list(self._announced[prefix].items()):
                if self._client_experiment.get(client_id) == name:
                    self.retract(self.servers[server_name], client_id, prefix)
        self.pool.release_owner(name)
        experiment.prefixes.clear()
        experiment.status = ExperimentStatus.RETIRED

    def experiment_of(self, client_id: str) -> Experiment:
        try:
            return self.experiments[self._client_experiment[client_id]]
        except KeyError:
            raise ExperimentError(f"unknown client {client_id!r}") from None

    def allocated_prefixes(self, client_id: str) -> List[Prefix]:
        try:
            return list(self.experiment_of(client_id).prefixes)
        except ExperimentError:
            return []

    def foreign_allocated_prefixes(self, client_id: str) -> Set[Prefix]:
        """Prefixes allocated to every experiment *except* the one
        ``client_id`` belongs to — the safety layer uses these to call
        out intra-testbed sub-prefix squats by name."""
        try:
            own = self._client_experiment[client_id]
        except KeyError:
            own = None
        foreign: Set[Prefix] = set()
        for name, experiment in self.experiments.items():
            if name != own:
                foreign.update(experiment.prefixes)
        return foreign

    # -- announcement registry ---------------------------------------------------------

    def announce(
        self,
        server: PeeringServer,
        client_id: str,
        prefix: Prefix,
        spec: AnnouncementSpec,
        record: bool = True,
    ) -> None:
        """Record (and propagate) that ``client_id`` announces ``prefix``
        from ``server`` with ``spec``.  Isolation: a prefix may only be
        announced by the experiment that owns it.

        ``record=False`` skips the control journal: used when *restoring*
        journaled intent (mux restart / watchdog repair), which must not
        journal itself as a fresh client action.
        """
        experiment = self.experiment_of(client_id)
        experiment.require_active()
        if not experiment.owns(prefix):
            raise ExperimentError(
                f"{prefix} is not allocated to experiment {experiment.name!r}"
            )
        holders = self._announced.setdefault(prefix, {})
        for other_server, (other_client, _spec) in holders.items():
            if other_client != client_id:
                raise ExperimentError(
                    f"{prefix} is already announced by {other_client!r} via {other_server}"
                )
        # Write-ahead: validated, journaled, then applied.
        if record and self.journal is not None:
            self.journal.append(
                self.engine.now,
                "announce",
                server=server.site.name,
                client=client_id,
                prefix=str(prefix),
                spec=spec_to_tuple(spec),
            )
        with maybe_span(
            self.tracer,
            "testbed.announce",
            prefix=str(prefix),
            server=server.site.name,
            client=client_id,
        ):
            holders[server.site.name] = (client_id, spec)
            self._repropagate(prefix)
        self._mux_children[server.site.name][0].inc()
        self._announced_child.set(len(self._announced))
        if self.telemetry is not None:
            self.telemetry.monitor.post_policy_announce(
                server.site.name, server.address, client_id, prefix, spec
            )

    def retract(
        self,
        server: PeeringServer,
        client_id: str,
        prefix: Prefix,
        record: bool = True,
    ) -> None:
        """Remove one server's announcement of ``prefix``.

        ``record=False`` keeps the control journal untouched: crashes and
        quarantine containment retract *infrastructure* state, not client
        intent — the journal must still say "client X wants P announced"
        so recovery can restore it (or the quarantine record can void it).
        """
        holders = self._announced.get(prefix)
        if not holders:
            return
        if server.site.name not in holders:
            return
        if record and self.journal is not None:
            self.journal.append(
                self.engine.now,
                "withdraw",
                server=server.site.name,
                client=client_id,
                prefix=str(prefix),
            )
        with maybe_span(
            self.tracer,
            "testbed.retract",
            prefix=str(prefix),
            server=server.site.name,
            client=client_id,
        ):
            holders.pop(server.site.name, None)
            if holders:
                self._repropagate(prefix)
            else:
                del self._announced[prefix]
                self._dirty.discard(prefix)
                self._dirty_ctx.pop(prefix, None)
                self.dataplane.uninstall(prefix)
        self._mux_children[server.site.name][1].inc()
        self._announced_child.set(len(self._announced))
        if self.telemetry is not None:
            self.telemetry.monitor.post_policy_withdraw(
                server.site.name, server.address, client_id, prefix
            )

    def _repropagate(self, prefix: Prefix) -> None:
        """Mark ``prefix`` for reconvergence.  Propagation is deferred to
        the next read (outcome lookup or data-plane use): a client that
        extends the same announcement across hundreds of per-peer sessions
        triggers one convergence, not hundreds."""
        self._dirty.add(prefix)
        if self.tracer is not None:
            # Remember who dirtied the prefix so the deferred convergence
            # span joins the same trace (last writer wins, matching the
            # last-write-wins registry semantics).
            context = self.tracer.current_context()
            if context is not None:
                self._dirty_ctx[prefix] = context

    def _flush_dirty(self) -> None:
        for prefix in sorted(self._dirty):
            if prefix in self._announced:
                self._propagate_now(prefix)
        self._dirty.clear()

    def _propagate_now(self, prefix: Prefix) -> None:
        """Reconverge ``prefix`` and install the outcome, chained from the
        outcome installed for it now (the one :meth:`outcome_for` returns)
        when there is one, so a prepend change or a poison swap can reuse
        its route table.  A first announcement is a plain propagation."""
        holders = self._announced[prefix]
        origins: List[OriginSpec] = []
        for server_name, (_client, spec) in sorted(holders.items()):
            server = self.servers[server_name]
            peers = (
                tuple(sorted(server.neighbor_asns))
                if spec.peers is None
                else tuple(sorted(set(spec.peers)))
            )
            origins.append(
                OriginSpec(
                    asn=self.asn,
                    prepend=spec.prepend,
                    poison=spec.poison,
                    announce_to=peers,
                )
            )
        parent = self._dirty_ctx.pop(prefix, None)
        with maybe_span(
            self.tracer,
            "propagation.converge",
            parent=parent,
            prefix=str(prefix),
            origins=len(origins),
        ) as converge:
            announcement = Announcement(origins=tuple(origins), prefix=prefix)
            installed = self.dataplane._outcomes.get(prefix)
            outcome = (
                self.propagation.propagate(announcement)
                if installed is None
                else self.propagation.propagate_delta(installed, announcement)
            )
            if self.tracer is not None:
                self.tracer.event("outcome.install")
            self.dataplane.install(prefix, outcome, owner=self.asn)
            if converge is not None:
                converge.set(reached=len(outcome))

    def announced_prefixes(self) -> List[Prefix]:
        return list(self._announced)

    def outcome_for(self, prefix: Prefix) -> Optional[RoutingOutcome]:
        self._flush_dirty()
        return self.dataplane._outcomes.get(prefix)

    # -- route computation toward external destinations -----------------------------------

    def outcome_for_origin(self, origin_asn: int) -> RoutingOutcome:
        """Converged routes for a (full) announcement by ``origin_asn`` —
        served from the propagation engine's LRU cache, since every
        server slices the same outcome (and the cache self-invalidates
        when the graph mutates)."""
        return self.propagation.propagate(Announcement.single(origin_asn))

    # -- data plane glue ---------------------------------------------------------------------

    def attach_client_server(self, client_id: str, server_name: str) -> None:
        self._client_server.setdefault(client_id, []).append(server_name)

    def inject_packet(
        self, server: PeeringServer, client_id: str, packet: Packet
    ) -> Delivery:
        """Client traffic enters the Internet at the PEERING AS."""
        allocated = set(self.allocated_prefixes(client_id))
        delivery = self.dataplane.send(self.asn, packet, legitimate_sources=allocated)
        if (
            delivery.status is DeliveryStatus.DELIVERED
            and delivery.final_asn == self.asn
        ):
            # Destined to another PEERING prefix: hand to the owning client.
            self.deliver_inbound(packet)
        return delivery

    def send_from(self, source_asn: int, packet: Packet) -> Delivery:
        """Traffic originated somewhere on the Internet (e.g. a user of a
        deployed service).  If it lands at PEERING, tunnel it onward."""
        delivery = self.dataplane.send(source_asn, packet)
        if (
            delivery.status is DeliveryStatus.DELIVERED
            and delivery.final_asn == self.asn
        ):
            self.deliver_inbound(packet)
        return delivery

    def deliver_inbound(self, packet: Packet) -> bool:
        """Find the client owning the destination prefix and tunnel the
        packet to it through one of its attached servers."""
        owner = self.pool.owner_of(packet.dst)
        if owner is None:
            return False
        for client_id in sorted(self.experiments[owner].clients):
            for server_name in self._client_server.get(client_id, []):
                if self.servers[server_name].deliver_to_client(client_id, packet):
                    return True
        return False

    # -- reporting -------------------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "asn": self.asn,
            "servers": len(self.servers),
            "sites": sorted(self.servers),
            "experiments": len(self.experiments),
            "announced_prefixes": len(self._announced),
            "pool_free_slash24": self.pool.free_count(),
            "propagation": self.propagation.stats(),
        }
        if self.telemetry is not None:
            summary["telemetry"] = self.telemetry.stats()
        return summary
