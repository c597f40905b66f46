"""Tests for measurement collectors and MRT export."""

import pytest

from repro.bgp import mrt
from repro.core import (
    ControlPlaneCollector,
    DataPlaneCollector,
    Testbed,
)
from repro.inet.gen import InternetConfig
from repro.inet.topology import ASKind


@pytest.fixture()
def world():
    testbed = Testbed.build_default(
        InternetConfig(n_ases=300, total_prefixes=20_000, seed=44)
    )
    client = testbed.register_client("exp1", "alice")
    client.attach("amsterdam01")
    # Transit too: peer-only announcements are invisible to the parts of
    # the Internet that must descend from tier-1s (valley-free), which is
    # exactly why the real testbed keeps university upstreams.
    client.attach("gatech01")
    client.announce(client.prefixes[0])
    vantages = [
        node.asn for node in testbed.graph.nodes() if node.kind is ASKind.ACCESS
    ][:10]
    return testbed, client, vantages


class TestControlPlaneCollector:
    def test_collect_observes_all_vantages(self, world):
        testbed, client, vantages = world
        collector = ControlPlaneCollector(testbed, vantages)
        observations = collector.collect()
        assert len(observations) == len(vantages)
        assert all(o.prefix == client.prefixes[0] for o in observations)
        assert sum(o.reachable for o in observations) >= len(vantages) - 1  # nearly all see it

    def test_scheduled_rounds(self, world):
        testbed, _client, vantages = world
        collector = ControlPlaneCollector(testbed, vantages)
        collector.schedule_rounds(interval=60.0, rounds=3)
        testbed.engine.run(until=200.0)
        assert len(collector.observations) == 3 * len(vantages)

    def test_withdrawal_visible(self, world):
        testbed, client, vantages = world
        collector = ControlPlaneCollector(testbed, vantages)
        client.withdraw(client.prefixes[0])
        assert collector.collect() == []

    def test_mrt_export_roundtrip(self, world):
        testbed, client, vantages = world
        collector = ControlPlaneCollector(testbed, vantages)
        collector.collect()
        blob = collector.export_mrt()
        records = list(mrt.read_records(blob))
        assert len(records) == len(collector.observations)
        peer_asn, local_asn, update = mrt.decode_update_record(records[0])
        assert local_asn == testbed.asn
        assert update.prefixes() or update.withdrawn_prefixes()


class TestDataPlaneCollector:
    def test_probes_delivered(self, world):
        testbed, client, vantages = world
        collector = DataPlaneCollector(testbed, vantages)
        observations = collector.collect()
        assert observations
        assert sum(o.delivered for o in observations) > 0.8 * len(observations)

    def test_probe_records_path(self, world):
        testbed, _client, vantages = world
        collector = DataPlaneCollector(testbed, vantages)
        observations = collector.collect()
        delivered = [o for o in observations if o.delivered]
        assert delivered
        assert all(o.path[-1] == testbed.asn for o in delivered)

    def test_blackhole_after_withdraw(self, world):
        testbed, client, vantages = world
        collector = DataPlaneCollector(testbed, vantages)
        client.withdraw(client.prefixes[0])
        client.announce(client.prefixes[0], peers=[])  # announce to nobody
        observations = collector.collect()
        assert all(not o.delivered for o in observations)
