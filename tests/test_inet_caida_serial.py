"""CAIDA AS-relationship serial ingester: deterministic loading of the
public ``<a>|<b>|<rel>`` snapshot format, every edge of the file kept,
structural kind inference, strict rejection of malformed input — and
the delta-propagation identity property on an ingested (rather than
generated) topology.
"""

import gzip
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.inet.engine import PropagationEngine
from repro.inet.gen import (
    build_caida_like,
    degree_stats,
    load_caida_serial,
)
from repro.inet.routing import Announcement, OriginSpec, propagate
from repro.inet.topology import ASKind, Relationship

FIXTURE = pathlib.Path(__file__).parent / "data" / "caida-as-rel-150.txt"


@pytest.fixture(scope="module")
def world():
    return load_caida_serial(FIXTURE)


class TestFixtureIngest:
    def test_loads_and_validates(self, world):
        assert len(world.graph) == 150
        world.graph.validate()

    def test_single_graph_version(self, world):
        # The whole ingest runs under batch(): one version bump.
        assert world.graph.version == 1

    def test_deterministic_across_runs(self, world):
        again = load_caida_serial(FIXTURE)
        assert again.graph.version == world.graph.version
        assert degree_stats(again.graph) == degree_stats(world.graph)
        assert sorted(again.graph.asns()) == sorted(world.graph.asns())
        assert list(again.graph.relationship_edges()) == list(
            world.graph.relationship_edges()
        )

    def test_every_fixture_edge_loaded(self, world):
        # The fixture lists provider-customer lines, then peer lines, each
        # in ASN order: the order relationship_edges() yields them in.
        fixture_edges = [
            line for line in FIXTURE.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        loaded_edges = [
            f"{b}|{a}|-1" if rel is Relationship.CUSTOMER_PROVIDER else f"{a}|{b}|0"
            for a, b, rel in world.graph.relationship_edges()
        ]
        assert loaded_edges == fixture_edges

    def test_kinds_inferred_from_structure(self, world):
        graph = world.graph
        clique = graph.tier1_clique()
        assert clique  # the fixture has a provider-free core
        for asn in graph.asns():
            kind = graph.get(asn).kind
            if asn in clique:
                assert kind is ASKind.TIER1
            elif graph.customers(asn):
                assert kind is ASKind.TRANSIT
            else:
                assert kind is ASKind.ACCESS

    def test_stats_comparable_with_generator(self, world):
        # The fixture was produced from build_caida_like(150); ingesting
        # its serial dump must reproduce the generator's shape exactly.
        generated = build_caida_like(150).graph
        assert degree_stats(world.graph) == degree_stats(generated)
        assert set(world.graph.tier1_clique()) == set(generated.tier1_clique())


class TestSerialFormat:
    def test_iterable_input_and_source_field(self):
        world = load_caida_serial(
            ["# header", "", "1|2|-1|bgp", "2|3|0|mlp"]
        )
        assert world.graph.providers(2) == frozenset({1})
        assert world.graph.peers(2) == frozenset({3})

    def test_exact_duplicates_tolerated(self):
        world = load_caida_serial(["1|2|-1", "1|2|-1", "2|3|0", "3|2|0"])
        assert world.graph.edge_count() == 2

    def test_conflicting_relationship_rejected(self):
        with pytest.raises(ValueError, match="line 2.*conflicting"):
            load_caida_serial(["1|2|-1", "2|1|-1"])
        with pytest.raises(ValueError, match="line 2.*conflicting"):
            load_caida_serial(["1|2|-1", "1|2|0"])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="line 1.*self-loop"):
            load_caida_serial(["7|7|0"])

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="line 1.*unknown relationship"):
            load_caida_serial(["1|2|2"])

    def test_malformed_lines_rejected(self):
        with pytest.raises(ValueError, match="line 1.*expected"):
            load_caida_serial(["1|2"])
        with pytest.raises(ValueError, match="line 2.*non-integer"):
            load_caida_serial(["# ok", "one|2|-1"])

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "snap.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# tiny\n5|6|-1\n6|7|0\n")
        world = load_caida_serial(path)
        assert world.graph.providers(6) == frozenset({5})
        assert world.graph.peers(6) == frozenset({7})


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_delta_chain_on_ingested_topology(seed):
    """The seeded delta identity property holds on a topology that came
    through the serial ingester (kinds and relationships inferred from
    the file, not the generator): chained deltas == reference."""
    rng = random.Random(seed)
    graph = load_caida_serial(FIXTURE).graph
    asns = sorted(graph.asns())
    origin = rng.choice(asns)
    other = rng.choice([a for a in asns if a != origin])
    engine = PropagationEngine(graph)
    prev = engine.propagate(Announcement.single(origin), use_cache=False)
    for step in range(4):
        announcement = Announcement(
            origins=(
                OriginSpec(asn=origin, prepend=rng.randint(0, 3)),
                OriginSpec(asn=other, poison=tuple(rng.sample(asns, step % 2))),
            )
        )
        prev = engine.propagate_delta(prev, announcement, use_cache=False)
        assert dict(propagate(graph, announcement).items()) == dict(prev.items())
    modes = engine.stats()["delta"]
    assert sum(modes.values()) == 4
