"""The live analyses: ``repro.core``'s column reducers, fed incrementally.

:class:`StreamAnalyses` consumes :class:`~repro.capstore.CaptureTable`
row batches as they are appended by a live follower and keeps the
paper's headline numbers continuously up to date.  The counts are the
same reducers ``repro analyze`` and ``repro sweep`` run in one feed:

* session-deduplicated version mix per side (Table 2,
  :class:`~repro.core.versions.VersionReducer`),
* datagram-category mix per origin (Table 3,
  :class:`~repro.core.packet_mix.PacketMixReducer`),
* unique SCIDs, length distribution and nybble structure per origin
  (Table 4 / Figure 5, :class:`~repro.core.scid_stats.ScidReducer`),
* off-net candidate servers and the low-host-ID share (Table 6,
  :class:`~repro.core.offnet.OffnetReducer`).

What is live-only lives here: row counters, the observed capture span
and per-origin row rates, :meth:`StreamAnalyses.snapshot` for the
dashboard and :meth:`StreamAnalyses.publish`, which mirrors the state
into ``stream.*`` gauges so ``--prom-file`` / ``--prom-port`` export
the live numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional, Tuple

from repro.capstore.table import BACKSCATTER, SCAN, CaptureTable
from repro.core.offnet import OffnetReducer
from repro.core.packet_mix import PacketMixReducer
from repro.core.scid_entropy import chi_square_uniformity, is_structured
from repro.core.scid_stats import ScidReducer, ScidStats
from repro.core.versions import TABLE2_ROWS, VersionReducer

_KLASS_NAMES = {BACKSCATTER: "backscatter", SCAN: "scan"}


class StreamAnalyses:
    """Online reducers over capture rows; feed batches, read anytime."""

    def __init__(self) -> None:
        #: Rows per packet class ("backscatter" / "scan").
        self.rows: Counter = Counter()
        self.rows_by_origin: Counter = Counter()
        self.rows_fed = 0
        self.versions = VersionReducer()
        self.packet_mix = PacketMixReducer()
        self.scids = ScidReducer()
        self.offnet = OffnetReducer()
        self.ts_min: Optional[float] = None
        self.ts_max: Optional[float] = None

    # -- ingestion -------------------------------------------------------

    def feed(self, table: CaptureTable, start: int, end: int) -> int:
        """Absorb rows ``[start, end)`` of ``table``; returns rows fed.

        Rows must be fed exactly once (the follower's append-only cursor
        guarantees it); any split into batches then gives the state one
        feed of all the rows gives.  Successive batches may come from
        different tables (one per followed shard).
        """
        if end <= start:
            return 0
        for code, count in Counter(table.klass[start:end]).items():
            self.rows[_KLASS_NAMES[code]] += count
        origins = table.origins
        for index, count in Counter(table.origin_id[start:end]).items():
            self.rows_by_origin[origins[index]] += count
        stamps = table.ts[start:end]
        low, high = min(stamps), max(stamps)
        if self.ts_min is None or low < self.ts_min:
            self.ts_min = low
        if self.ts_max is None or high > self.ts_max:
            self.ts_max = high
        for reducer in (self.versions, self.packet_mix, self.scids, self.offnet):
            reducer.feed(table, start, end)
        self.rows_fed += end - start
        return end - start

    # -- reading ---------------------------------------------------------

    @property
    def span_seconds(self) -> float:
        if self.ts_min is None or self.ts_max is None:
            return 0.0
        return self.ts_max - self.ts_min

    def _scid_structure(self) -> Iterator[Tuple[str, ScidStats, bool, float]]:
        """(origin, stats, structured, max chi-square) per origin.

        O(origins × positions): the nybble counts are kept up to date as
        SCIDs arrive, and each origin's chi-square vector is built once.
        """
        for origin, stats in self.scids.result().items():
            matrix = stats.matrix()
            chi2 = max(chi_square_uniformity(matrix), default=0.0)
            yield origin, stats, is_structured(matrix, max_chi2=chi2), chi2

    def snapshot(self) -> dict:
        """Plain-data view of every reducer (dashboard and test surface)."""
        span = self.span_seconds
        versions = self.versions.result()
        servers, low = self.offnet.result()
        return {
            "rows": dict(self.rows),
            "rows_fed": self.rows_fed,
            "sessions": {
                side: {"total": shares.total, "buckets": dict(shares.counts)}
                for side, shares in versions.items()
            },
            "packet_mix": {
                origin: dict(counter)
                for origin, counter in self.packet_mix.result().counts.items()
            },
            "scids": {
                origin: {
                    "unique": stats.unique_count,
                    "lengths": dict(stats.length_counts),
                    "dominant_length": stats.dominant_length,
                    "structured": structured,
                    "max_chi2": chi2,
                }
                for origin, stats, structured, chi2 in self._scid_structure()
            },
            "offnet": {"servers": servers, "low_host_id": low},
            "span_seconds": span,
            "rows_per_sec": {
                origin: count / span if span > 0 else 0.0
                for origin, count in self.rows_by_origin.items()
            },
        }

    def publish(self, metrics) -> None:
        """Mirror the current state into ``stream.*`` gauges.

        Gauges (not counters) because reducers hold absolute running
        values; re-publishing after every batch keeps the Prometheus
        view exactly in step with the dashboard.
        """
        if metrics is None:
            return
        rows = metrics.gauge("stream.rows", ("klass",))
        for name, value in self.rows.items():
            rows.set_key((name,), value)
        metrics.gauge("stream.rows_fed").set_key((), self.rows_fed)
        sessions = metrics.gauge("stream.sessions", ("side", "bucket"))
        for side, shares in self.versions.result().items():
            sessions.set_key((side, "total"), shares.total)
            for bucket in TABLE2_ROWS:
                count = shares.counts.get(bucket, 0)
                if count:
                    sessions.set_key((side, bucket), count)
        mix = metrics.gauge("stream.packet_mix", ("origin", "category"))
        for origin, counter in self.packet_mix.result().counts.items():
            for category, count in counter.items():
                mix.set_key((origin, category), count)
        unique = metrics.gauge("stream.scid_unique", ("origin",))
        dominant = metrics.gauge("stream.scid_dominant_len", ("origin",))
        structured_gauge = metrics.gauge("stream.scid_structured", ("origin",))
        chi2_gauge = metrics.gauge("stream.scid_max_chi2", ("origin",))
        for origin, stats, structured, chi2 in self._scid_structure():
            unique.set_key((origin,), stats.unique_count)
            dominant.set_key((origin,), stats.dominant_length or 0)
            structured_gauge.set_key((origin,), 1 if structured else 0)
            chi2_gauge.set_key((origin,), chi2)
        servers, low = self.offnet.result()
        metrics.gauge("stream.offnet_servers").set_key((), servers)
        metrics.gauge("stream.offnet_low_host_id").set_key((), low)
        span = self.span_seconds
        metrics.gauge("stream.span_seconds").set_key((), span)
        rate = metrics.gauge("stream.rows_per_sec", ("origin",))
        for origin, count in self.rows_by_origin.items():
            rate.set_key((origin,), count / span if span > 0 else 0.0)
