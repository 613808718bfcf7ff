"""SCID length statistics per origin AS (paper Table 4).

:class:`ScidReducer` collects the unique server connection IDs of every
origin from the backscatter columns of a
:class:`~repro.capstore.CaptureTable`; each origin's
:class:`ScidStats` keeps its length histogram and nybble counts (Figure
5) up to date as SCIDs arrive, so reading them never rescans the set.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.capstore.table import BACKSCATTER
from repro.core.scid_entropy import NybbleCounts, NybbleMatrix
from repro.quic.packet import PacketType

#: Packet types whose SCID is the server's chosen connection ID.
_SERVER_SCID_TYPES = frozenset(
    t.value for t in (PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.RETRY)
)


class ScidStats:
    """Unique SCIDs of one origin network, with running length/nybble counts."""

    __slots__ = ("origin", "unique_scids", "length_counts", "nybbles")

    def __init__(self, origin: str, unique_scids: Iterable[bytes] = ()) -> None:
        self.origin = origin
        self.unique_scids: set[bytes] = set()
        self.length_counts: Counter = Counter()
        self.nybbles = NybbleCounts()
        for scid in unique_scids:
            self.add(scid)

    def add(self, scid: bytes) -> None:
        if scid not in self.unique_scids:
            self.unique_scids.add(scid)
            self.length_counts[len(scid)] += 1
            self.nybbles.add(scid)

    @property
    def unique_count(self) -> int:
        return len(self.unique_scids)

    @property
    def dominant_length(self) -> int | None:
        """The most common length; the shortest one on a tie, whatever
        the order the SCIDs arrived in."""
        counts = self.length_counts
        return min(counts, key=lambda l: (-counts[l], l)) if counts else None

    def matrix(self) -> NybbleMatrix:
        """The Figure 5 nybble-frequency matrix of the unique SCIDs."""
        return self.nybbles.matrix()

    def length_summary(self) -> str:
        """Paper-style cell: dominant length, rare others in parentheses."""
        dominant = self.dominant_length
        if dominant is None:
            return "-"
        others = sorted(l for l in self.length_counts if l != dominant)
        if not others:
            return str(dominant)
        return "%d (%s)" % (dominant, ", ".join(str(l) for l in others))


class ScidReducer:
    """Table 4 over table columns: server SCIDs of backscatter, per origin."""

    def __init__(self) -> None:
        self.stats: dict[str, ScidStats] = {}

    def feed(self, table, start: int, end: int) -> None:
        klass = table.klass
        origin_id = table.origin_id
        origins = table.origins
        pkt_start = table.pkt_start
        pkt_type = table.pkt_type
        bytes_start = table.bytes_start
        dcid_len = table.dcid_len
        scid_len = table.scid_len
        blob = table.blob
        stats = self.stats
        for row in range(start, end):
            if klass[row] != BACKSCATTER:
                continue
            entry = None
            for j in range(pkt_start[row], pkt_start[row + 1]):
                length = scid_len[j]
                if length and pkt_type[j] in _SERVER_SCID_TYPES:
                    if entry is None:
                        origin = origins[origin_id[row]]
                        entry = stats.get(origin)
                        if entry is None:
                            entry = stats[origin] = ScidStats(origin)
                    cursor = bytes_start[j] + dcid_len[j]
                    entry.add(bytes(blob[cursor : cursor + length]))

    def result(self) -> dict[str, ScidStats]:
        return self.stats


def table4(view) -> dict[str, ScidStats]:
    """Table 4 for a classified capture: one feed over its table."""
    return view.reduce(ScidReducer())
