"""Unit tests for MRT record export/import."""

import io

import pytest

from repro.bgp import mrt
from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.net.addr import IPAddress, Prefix


def sample_update():
    return UpdateMessage.announce(
        [Prefix("184.164.224.0/24")],
        PathAttributes(
            as_path=ASPath.from_asns([3356, 47065]),
            next_hop=IPAddress("10.0.0.1"),
        ),
    )


class TestUpdateRecords:
    def test_roundtrip(self):
        out = io.BytesIO()
        mrt.write_update(
            out,
            timestamp=1414368000,
            local_asn=47065,
            peer_asn=3356,
            peer_address=IPAddress("192.0.2.1"),
            local_address=IPAddress("192.0.2.2"),
            update=sample_update(),
        )
        records = list(mrt.read_records(out.getvalue()))
        assert len(records) == 1
        record = records[0]
        assert record.timestamp == 1414368000
        assert record.type == mrt.MRT_BGP4MP
        peer_asn, local_asn, update = mrt.decode_update_record(record)
        assert (peer_asn, local_asn) == (3356, 47065)
        assert update.prefixes() == [Prefix("184.164.224.0/24")]
        assert update.attributes.as_path.asns() == (3356, 47065)

    def test_multiple_records_stream(self):
        out = io.BytesIO()
        for i in range(5):
            mrt.write_update(
                out,
                timestamp=i,
                local_asn=47065,
                peer_asn=100 + i,
                peer_address=IPAddress("192.0.2.1"),
                local_address=IPAddress("192.0.2.2"),
                update=sample_update(),
            )
        records = list(mrt.read_records(out.getvalue()))
        assert [r.timestamp for r in records] == list(range(5))

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            list(mrt.read_records(b"\x00\x01\x02"))

    def test_truncated_body_rejected(self):
        out = io.BytesIO()
        mrt.write_update(
            out,
            timestamp=0,
            local_asn=1,
            peer_asn=2,
            peer_address=IPAddress("192.0.2.1"),
            local_address=IPAddress("192.0.2.2"),
            update=sample_update(),
        )
        with pytest.raises(ValueError):
            list(mrt.read_records(out.getvalue()[:-3]))

    def test_decode_wrong_type_rejected(self):
        record = mrt.MrtRecord(0, 99, 0, b"")
        with pytest.raises(ValueError):
            mrt.decode_update_record(record)
