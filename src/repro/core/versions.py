"""QUIC version adoption analysis (paper Table 2).

Counts each session once (same SCID, DCID, source and destination) and
buckets its version the way the paper's table does: QUICv1, Facebook
mvfst 2, draft-29, and others.  Client behaviour comes from sanitized scan
traffic, server behaviour from backscatter — which reveals the version the
two sides *agreed on*, not merely offered.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.capstore.table import BACKSCATTER, SCAN
from repro.quic.version import table2_bucket

TABLE2_ROWS = ("QUICv1", "Facebook mvfst 2", "draft-29", "others")


@dataclass
class VersionShares:
    """Session shares per Table 2 bucket, for one side of the traffic."""

    counts: Counter
    total: int

    def share(self, bucket: str) -> float:
        if not self.total:
            return 0.0
        return 100.0 * self.counts.get(bucket, 0) / self.total


class VersionReducer:
    """Table 2 over table columns: sessions per version bucket and side.

    A session is keyed by its first datagram's addresses and first packet's
    connection IDs, and bucketed by that packet's version.
    """

    def __init__(self) -> None:
        # Indexed by klass code: backscatter = servers, scans = clients.
        self._sessions = (set(), set())
        self._counts = (Counter(), Counter())

    def feed(self, table, start: int, end: int) -> None:
        klass = table.klass
        src_ip = table.src_ip
        dst_ip = table.dst_ip
        pkt_start = table.pkt_start
        pkt_version = table.pkt_version
        bytes_start = table.bytes_start
        dcid_len = table.dcid_len
        scid_len = table.scid_len
        blob = table.blob
        for row in range(start, end):
            j = pkt_start[row]
            cursor = bytes_start[j]
            # DCID then SCID are adjacent in the blob; with the DCID length
            # the one slice identifies the (SCID, DCID) pair.
            cids = bytes(blob[cursor : cursor + dcid_len[j] + scid_len[j]])
            key = (src_ip[row], dst_ip[row], dcid_len[j], cids)
            sessions = self._sessions[klass[row]]
            if key not in sessions:
                sessions.add(key)
                self._counts[klass[row]][table2_bucket(pkt_version[j])] += 1

    def result(self) -> dict[str, VersionShares]:
        """Client (scans) and server (backscatter) version shares."""
        return {
            side: VersionShares(self._counts[code], len(self._sessions[code]))
            for side, code in (("clients", SCAN), ("servers", BACKSCATTER))
        }


def table2(view) -> dict[str, VersionShares]:
    """Table 2 for a classified capture: one feed over its table."""
    return view.reduce(VersionReducer())


def table2_rows(
    captures: dict,
) -> list[tuple[str, dict[int, float], dict[int, float]]]:
    """Rows of the full Table 2: (bucket, clients-by-year, servers-by-year)."""
    shares = {year: table2(capture) for year, capture in captures.items()}
    rows = []
    for bucket in TABLE2_ROWS:
        clients = {y: s["clients"].share(bucket) for y, s in shares.items()}
        servers = {y: s["servers"].share(bucket) for y, s in shares.items()}
        rows.append((bucket, clients, servers))
    return rows
