"""The online analyses: core column reducers fed incrementally.

The counts are pinned to the values recorded for this capture (scale
0.04, seed 11) when the streaming plane still had its own copy of every
reducer and both copies agreed; any split of the rows into feeds must
land on the state of one feed.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.offnet import OffnetReducer
from repro.core.packet_mix import PacketMixReducer
from repro.core.scid_entropy import nybble_matrix
from repro.core.scid_stats import ScidReducer, ScidStats
from repro.core.versions import VersionReducer
from repro.obs.metrics import MetricsRegistry
from repro.stream import StreamAnalyses

#: side -> (sessions, sessions per Table 2 bucket).
SESSIONS = {
    "clients": (
        244,
        {"Facebook mvfst 2": 51, "QUICv1": 188, "draft-29": 3, "others": 2},
    ),
    "servers": (134, {"Facebook mvfst 2": 44, "QUICv1": 77, "others": 13}),
}

#: origin -> Table 3 datagram categories over every row.
PACKET_MIX = {
    "Cloudflare": {"Coalesced Initial & Handshake": 6, "Handshake": 7, "Initial": 7},
    "Facebook": {"Handshake": 332, "Initial": 332},
    "Google": {
        "0-RTT": 2,
        "Coalesced Initial & Handshake": 259,
        "Handshake": 98,
        "Initial": 98,
    },
    "Remaining": {
        "Coalesced Initial & Handshake": 25,
        "Handshake": 215,
        "Initial": 457,
    },
}

#: origin -> (unique SCIDs, sha256 of the sorted SCIDs joined, sha256 of
#: the JSON [freq, sample_size, position_totals] nybble matrix).
SCIDS = {
    "Cloudflare": (
        2,
        "d696e82203d99faeb19a91215843edd758607ea8e2b0fc37a76e7bed0a46ef69",
        "d89e856d3fa0b5e1568b207fb85a2a46973000a1adfc0e445950a1d8b6bf6f80",
    ),
    "Facebook": (
        37,
        "2b554fe717b617e1eaa2c0195fde173853dff388727f66fa612ddb300d06d60c",
        "ddc5e76d02e351e69ea3fe62a242e7c539183ed606dc28bd7551b8560fe49139",
    ),
    "Google": (
        61,
        "c30de11b3d2f62d8b48f022e677db29adb332d51f639068461f0593732f67ae1",
        "b3d6baafeaca4c1acbbf910f8abee5e12f97ccecbf3006628839fc19461af377",
    ),
    "Remaining": (
        32,
        "03af439f76ae4fc9850fe80aad6420a5fb89640302099f99e83d9b3dfde8ccd9",
        "fe02863a38e6b4e91a4879f5cdc84018d4bfc377d23497fe47f6d119be7866fe",
    ),
}

#: (off-net candidate servers, those passing the low-host-ID test).
OFFNET = (26, 15)

REDUCERS = {
    "versions": VersionReducer,
    "packet_mix": PacketMixReducer,
    "packet_mix_backscatter": lambda: PacketMixReducer(backscatter_only=True),
    "scids": ScidReducer,
    "offnet": OffnetReducer,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _comparable(result):
    """Reducer results as plain values (``ScidStats`` has no ``__eq__``)."""
    if isinstance(result, dict) and all(
        isinstance(v, ScidStats) for v in result.values()
    ):
        return {
            origin: (stats.unique_scids, stats.length_counts, stats.matrix())
            for origin, stats in result.items()
        }
    return result


def _fed(factory, table, bounds):
    reducer = factory()
    for start, end in zip(bounds, bounds[1:]):
        reducer.feed(table, start, end)
    return reducer


def feed_unevenly(table):
    """One StreamAnalyses fed the full table in ragged batch sizes."""
    analyses = StreamAnalyses()
    sizes = [1, 7, 50, 3, 211, 19]
    start = 0
    step = 0
    while start < table.num_rows:
        end = min(start + sizes[step % len(sizes)], table.num_rows)
        analyses.feed(table, start, end)
        start = end
        step += 1
    return analyses


@pytest.fixture(scope="module")
def analyses(batch_view):
    return feed_unevenly(batch_view.table)


class TestScidAccumulator:
    def test_matrix_matches_batch_nybble_matrix(self):
        scids = [b"\x12\x34", b"\xab\xcd", b"\x12\x34", b"\x00\xff\x10"]
        stats = ScidStats("x")
        for scid in scids:
            stats.add(scid)
        assert stats.unique_count == 3
        assert stats.matrix() == nybble_matrix(set(scids))

    def test_dominant_length(self):
        stats = ScidStats("x")
        assert stats.dominant_length is None
        for scid in (b"\x01" * 8, b"\x02" * 8, b"\x03" * 4):
            stats.add(scid)
        assert stats.dominant_length == 8

    def test_dominant_length_tie_ignores_arrival_order(self):
        scids = (b"\x01" * 8, b"\x02" * 20)
        assert ScidStats("x", scids).dominant_length == 8
        assert ScidStats("x", scids[::-1]).dominant_length == 8


class TestBatchParity:
    def test_rows_per_class(self, analyses, batch_view):
        assert dict(analyses.rows) == {"backscatter": 1596, "scan": 244}
        assert analyses.rows_fed == batch_view.table.num_rows == 1840

    def test_version_mix_equals_table2(self, analyses):
        shares = analyses.versions.result()
        for side, (total, buckets) in SESSIONS.items():
            assert shares[side].total == total
            assert shares[side].counts == buckets

    def test_packet_mix_equals_table3(self, analyses):
        counts = analyses.packet_mix.result().counts
        assert {o: dict(c) for o, c in counts.items()} == PACKET_MIX

    def test_scids_equal_table4_populations(self, analyses):
        stats = analyses.scids.result()
        assert set(stats) == set(SCIDS)
        for origin, (unique, scids_digest, matrix_digest) in SCIDS.items():
            entry = stats[origin]
            matrix = entry.matrix()
            assert entry.unique_count == unique
            assert _sha256(b"".join(sorted(entry.unique_scids))) == scids_digest
            assert (
                _sha256(
                    json.dumps(
                        [matrix.freq, matrix.sample_size, matrix.position_totals]
                    ).encode()
                )
                == matrix_digest
            )

    def test_offnet_counts_equal_extract_features(self, analyses):
        assert analyses.offnet.result() == OFFNET

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_batching_is_irrelevant(self, batch_view, data):
        table = batch_view.table
        cuts = data.draw(
            st.lists(st.integers(0, table.num_rows), max_size=12), label="cuts"
        )
        bounds = [0] + sorted(cuts) + [table.num_rows]
        for name, factory in REDUCERS.items():
            split = _fed(factory, table, bounds).result()
            whole = _fed(factory, table, [0, table.num_rows]).result()
            assert _comparable(split) == _comparable(whole), name
        live = _fed(StreamAnalyses, table, bounds)
        whole = _fed(StreamAnalyses, table, [0, table.num_rows])
        assert live.snapshot() == whole.snapshot()

    def test_span_covers_the_capture(self, analyses, batch_view):
        ts = batch_view.table.ts
        assert analyses.span_seconds == pytest.approx(max(ts) - min(ts))


class TestSnapshotAndPublish:
    def test_empty_reducers_are_safe(self):
        analyses = StreamAnalyses()
        snap = analyses.snapshot()
        assert snap["rows_fed"] == 0
        assert snap["sessions"]["clients"]["total"] == 0
        assert snap["span_seconds"] == 0.0
        analyses.publish(MetricsRegistry())  # no instruments needed: no-op
        analyses.publish(None)

    def test_snapshot_shape(self, analyses):
        snap = analyses.snapshot()
        assert set(snap) == {
            "rows",
            "rows_fed",
            "sessions",
            "packet_mix",
            "scids",
            "offnet",
            "span_seconds",
            "rows_per_sec",
        }
        for origin, entry in snap["scids"].items():
            assert set(entry) == {
                "unique",
                "lengths",
                "dominant_length",
                "structured",
                "max_chi2",
            }
            assert entry["unique"] == sum(entry["lengths"].values())

    def test_publish_mirrors_state_into_gauges(self, analyses):
        registry = MetricsRegistry()
        analyses.publish(registry)
        rows = registry.gauge("stream.rows", ("klass",))
        assert rows.value(klass="backscatter") == 1596
        assert rows.value(klass="scan") == 244
        sessions = registry.gauge("stream.sessions", ("side", "bucket"))
        assert sessions.value(side="clients", bucket="total") == 244
        assert sessions.value(side="servers", bucket="QUICv1") == 77
        assert registry.gauge("stream.offnet_servers").value() == OFFNET[0]
        assert registry.gauge("stream.offnet_low_host_id").value() == OFFNET[1]
        assert registry.gauge("stream.rows_fed").value() == analyses.rows_fed

    def test_republish_is_idempotent(self, analyses):
        registry = MetricsRegistry()
        analyses.publish(registry)
        first = registry.snapshot()["gauges"]
        analyses.publish(registry)
        assert registry.snapshot()["gauges"] == first
