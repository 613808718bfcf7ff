"""The columnar store renders the recorded analyze output, and its row
views reproduce the classifier's packets.

The render digests (scale 0.05, seed 42) were recorded when the legacy
object pipeline still existed and rendered every table byte-identically
to the columnar store.
"""

import hashlib

import pytest

from repro.capstore import (
    CapturedRowView,
    default_acknowledged,
    default_asdb,
    load_or_build,
)
from repro.cli import VALID_TABLES, render_analysis
from repro.netstack.pcap import read_pcap
from repro.telescope.classify import classify_record

ALL_TABLES = set(VALID_TABLES)

#: ``--tables`` selector -> sha256 of its render.
RENDER_PINS = {
    "1": "f3e8b25b41f3e3aa7ee50ff0a86501aca9f6201b803128acdd921c51c99b2811",
    "2": "428414987bdf44ee4fdbe3d372600ac047589107c42cebb913896dafb4a603fe",
    "3": "1571ab5a5109f2f2708cf597be7f213986cd733994dbea52fea178dd7fb547af",
    "4": "12d9c2755f5c6eac16e25a0d1cdd0f884896365039f15023c74c79e42bd55959",
    "lengths": "5a0ee5413bbe8afda93003833aef11faab173968a00e18fde7c04f0c8e03e626",
    "rto": "d8dce1851e315c9906869c24e86a9ed36fd227b0edcca0ac39c8910ed0bce52c",
}
ALL_TABLES_PIN = "2db13caf70340c8c3560d8d07bea2b63f6962ebbc3bb494d78fbf3b7748185af"

#: Sanitized rows of the capture (2018 backscatter + 306 scans).
ROWS = 2324


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def kept_packets(month_pcap):
    """The classifier's kept packets, record by record, in capture order."""
    asdb = default_asdb()
    acknowledged = default_acknowledged()
    out = []
    for record in read_pcap(month_pcap):
        captured, _reason = classify_record(
            record, asdb=asdb, acknowledged=acknowledged
        )
        if captured is not None:
            out.append(captured)
    return out


@pytest.fixture(scope="module")
def columnar(month_pcap):
    view, _hit = load_or_build(month_pcap, use_cache=False)
    return view


class TestRenderEquivalence:
    @pytest.mark.parametrize("table", sorted(ALL_TABLES))
    def test_each_table_renders_identically(self, columnar, table):
        assert _sha256(render_analysis(columnar, {table})) == RENDER_PINS[table]

    def test_all_tables_at_once(self, columnar):
        assert _sha256(render_analysis(columnar, ALL_TABLES)) == ALL_TABLES_PIN

    def test_parallel_build_renders_identically(self, month_pcap):
        view, _hit = load_or_build(month_pcap, workers=4, use_cache=False)
        assert _sha256(render_analysis(view, ALL_TABLES)) == ALL_TABLES_PIN


class TestRowView:
    def test_views_mirror_captured_packets(self, kept_packets, columnar):
        views = columnar.backscatter + columnar.scans
        assert len(views) == len(kept_packets)
        by_key = {
            (p.timestamp, p.src_ip, p.dst_ip, p.src_port): p for p in kept_packets
        }
        sample = views[:: max(1, len(views) // 40)]
        for view in sample:
            assert isinstance(view, CapturedRowView)
            packet = by_key[
                (view.timestamp, view.src_ip, view.dst_ip, view.src_port)
            ]
            assert view.to_packet() == packet
            assert view.klass is packet.klass
            assert view.origin == packet.origin
            assert view.coalesced == packet.coalesced
            assert view.remote_ip == packet.remote_ip
            assert list(view.packets) == list(packet.packets)

    def test_packets_property_is_cached(self, columnar):
        view = (columnar.backscatter + columnar.scans)[0]
        assert view.packets is view.packets

    def test_len_matches_legacy(self, columnar):
        assert len(columnar) == ROWS
        assert columnar.stats.backscatter + columnar.stats.scans == ROWS
