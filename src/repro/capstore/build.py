"""Build :class:`CaptureTable` from pcaps: streaming, parallel, sharded.

Three entry points, all producing bit-identical tables for the same
record multiset:

* :func:`build_from_records` — one streaming dissection pass over any
  record iterable (the serial path, and the per-worker inner loop);
* :func:`build_capture_table` — row-group parallelism over one pcap: a
  cheap header-only offset scan splits the file into contiguous groups,
  a worker pool dissects each group, and the parent concatenates the
  partial tables in file order.  Classification is stateless per record
  (:func:`~repro.telescope.classify.classify_record`), so concatenation
  *is* the serial result;
* :func:`build_from_shards` — per-shard pcaps (as written by
  ``repro simulate --workers N`` before its merge): each shard is
  dissected in parallel, then rows are interleaved by streaming a k-way
  merge over the shard *record* streams with the same
  :func:`~repro.netstack.pcap.record_sort_key` discipline the simulator
  uses, so the result equals indexing the merged pcap.

Workers are handed *factory* callables for the AS database and the
acknowledged-scanner registry (must be module-level, hence picklable);
each worker builds its own instances instead of serializing them.
"""

from __future__ import annotations

import heapq
import multiprocessing
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.inetdata.asdb import AsDatabase, AsEntry
from repro.netstack.pcap import (
    PcapRecord,
    iter_pcap,
    iter_pcap_range,
    record_sort_key,
    scan_pcap_offsets,
)
from repro.obs import NULL_OBS, Observability
from repro.obs.progress import HeartbeatWriter
from repro.capstore.table import CaptureTable
from repro.telescope.acknowledged import AcknowledgedScanners
from repro.telescope.classify import (
    DROP_REASONS,
    PacketClass,
    SanitizationStats,
    SanitizeEmitter,
    classify_record,
)


def default_asdb() -> AsDatabase:
    """The CLI's AS database: hypergiants plus the scenario ISP networks."""
    from repro.workloads.scenario import ISP_NETWORKS

    asdb = AsDatabase.with_hypergiants()
    for asn, name, prefix in ISP_NETWORKS:
        asdb.register(prefix, AsEntry(asn, name, category="isp"))
    return asdb


def default_acknowledged() -> AcknowledgedScanners:
    """The CLI's acknowledged-scanner registry (paper's research scanners)."""
    from repro.workloads.scenario import RESEARCH_NETWORKS

    scanners = AcknowledgedScanners()
    for prefix, name in RESEARCH_NETWORKS:
        scanners.register(prefix, name)
    return scanners


def build_from_records(
    records: Iterable[PcapRecord],
    asdb: Optional[AsDatabase] = None,
    acknowledged: Optional[AcknowledgedScanners] = None,
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
    kept_flags: Optional[bytearray] = None,
    progress: Optional[Callable[[int], None]] = None,
    table: Optional[CaptureTable] = None,
    stats: Optional[SanitizationStats] = None,
) -> Tuple[CaptureTable, SanitizationStats]:
    """One streaming dissection pass: records in, columnar table out.

    The one sanitization loop: every record is classified by
    :func:`~repro.telescope.classify.classify_record` and reported to a
    :class:`~repro.telescope.classify.SanitizeEmitter` (``sanitize.packets``
    counters, ``sanitize:drop`` trace events).  ``kept_flags``, if given, receives one byte per input record (1 =
    kept as a row) — the alignment data :func:`build_from_shards` needs
    to interleave rows during its record-stream merge.  ``progress`` is
    called with the running record count every ~2048 records (heartbeat
    writers hook in here); with a profiler attached, each dissection is
    an ``index.record`` leaf stage.

    ``table``/``stats`` make the pass *append into* existing state
    instead of starting fresh — the streaming plane's extension path:
    feeding the tail records of a grown pcap into the table built from
    its prefix yields exactly the table a full pass would build, because
    rows are append-only and classification is stateless per record.
    """
    emitter = SanitizeEmitter(obs)
    prof = obs.prof if obs is not None else None
    if table is None:
        table = CaptureTable()
    if stats is None:
        stats = SanitizationStats()
    for record in records:
        stats.total_records += 1
        if progress is not None and not stats.total_records & 2047:
            progress(stats.total_records)
        if prof is None:
            captured, reason = classify_record(
                record,
                asdb=asdb,
                acknowledged=acknowledged,
                validate_crypto_scans=validate_crypto_scans,
            )
        else:
            node, start = prof.leaf_begin("index.record")
            captured, reason = classify_record(
                record,
                asdb=asdb,
                acknowledged=acknowledged,
                validate_crypto_scans=validate_crypto_scans,
            )
            prof.leaf_end(node, start, packets=1)
        if captured is None:
            setattr(stats, reason, getattr(stats, reason) + 1)
            emitter.drop(record, reason)
            if kept_flags is not None:
                kept_flags.append(0)
            continue
        table.append(captured)
        if captured.klass is PacketClass.BACKSCATTER:
            stats.backscatter += 1
        else:
            stats.scans += 1
        emitter.kept(captured.klass)
        if kept_flags is not None:
            kept_flags.append(1)
    return table, stats


def _merge_stats(parts: Sequence[SanitizationStats]) -> SanitizationStats:
    total = SanitizationStats()
    for part in parts:
        total.total_records += part.total_records
        for reason in DROP_REASONS:
            setattr(total, reason, getattr(total, reason) + getattr(part, reason))
        total.backscatter += part.backscatter
        total.scans += part.scans
    return total


def emit_stats_counters(stats: SanitizationStats, obs: Optional[Observability]) -> None:
    """Re-emit ``sanitize.packets`` counter values from stored stats.

    Parallel workers and cache hits skip the per-record pipeline, but the
    counter values are a pure function of the stats, so observability
    output stays identical to a serial in-process run (per-drop trace
    events are the one thing only the serial path produces).
    """
    obs = obs or NULL_OBS
    if obs.metrics is None:
        return
    counter = obs.metrics.counter("sanitize.packets", ("stage",))
    for reason in DROP_REASONS:
        value = getattr(stats, reason)
        if value:
            counter.inc_key((reason,), value)
    if stats.backscatter:
        counter.inc_key(("kept_backscatter",), stats.backscatter)
    if stats.scans:
        counter.inc_key(("kept_scan",), stats.scans)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the loaded modules); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context("spawn")


def _worker_build(payload: tuple):
    """Pool target: dissect one row group of one pcap into a partial table.

    With a ``progress_dir`` in the payload, the worker heartbeats its
    dissection progress there (stage ``index``) exactly like simulate's
    shard workers, so ``repro progress`` covers index builds too.
    """
    (
        path,
        offset,
        count,
        validate_crypto_scans,
        asdb_factory,
        ack_factory,
        want_flags,
        progress_dir,
        group_index,
    ) = payload
    kept_flags = bytearray() if want_flags else None
    heartbeat = (
        HeartbeatWriter(progress_dir, worker=group_index, total=count)
        if progress_dir
        else None
    )
    progress = None
    if heartbeat is not None:
        progress = lambda done: heartbeat.update("index", done=done, records=done)
        heartbeat.update("index")
    try:
        table, stats = build_from_records(
            iter_pcap_range(path, offset, count),
            asdb=asdb_factory() if asdb_factory else None,
            acknowledged=ack_factory() if ack_factory else None,
            validate_crypto_scans=validate_crypto_scans,
            kept_flags=kept_flags,
            progress=progress,
        )
        if heartbeat is not None:
            heartbeat.update(
                "done",
                done=stats.total_records,
                records=stats.total_records,
                final=True,
            )
    finally:
        if heartbeat is not None:
            heartbeat.close()
    return table, stats, kept_flags


def _row_groups(offsets: Sequence[int], workers: int) -> List[Tuple[int, int]]:
    """Split record offsets into ≤ ``workers`` contiguous (offset, count) groups."""
    total = len(offsets)
    groups: List[Tuple[int, int]] = []
    workers = max(1, min(workers, total))
    base, extra = divmod(total, workers)
    start = 0
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        if count == 0:
            break
        groups.append((offsets[start], count))
        start += count
    return groups


def build_capture_table(
    pcap_path: str,
    workers: int = 1,
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
    asdb_factory: Callable[[], AsDatabase] = default_asdb,
    ack_factory: Callable[[], AcknowledgedScanners] = default_acknowledged,
    progress_dir: Optional[str] = None,
    offsets: Optional[Sequence[int]] = None,
) -> Tuple[CaptureTable, SanitizationStats]:
    """Build the columnar table for one pcap, optionally in parallel.

    ``workers > 1`` splits the file into contiguous row groups and
    dissects them in a process pool; the concatenated result is exactly
    the serial table.  Factories must be module-level callables so they
    pickle into workers by reference.  ``progress_dir`` makes each
    row-group worker write live heartbeats there.

    ``offsets``, if given, is a precomputed record-offset list (e.g. the
    complete-record prefix of a still-growing capture from
    :func:`~repro.netstack.pcap.scan_pcap_tail`); only those records are
    dissected, and the strict whole-file scan is skipped.
    """
    obs = obs or NULL_OBS
    if workers <= 1:
        if offsets is None:
            records = iter_pcap(pcap_path)
        elif offsets:
            records = iter_pcap_range(pcap_path, offsets[0], len(offsets))
        else:
            records = iter(())
        return build_from_records(
            records,
            asdb=asdb_factory() if asdb_factory else None,
            acknowledged=ack_factory() if ack_factory else None,
            validate_crypto_scans=validate_crypto_scans,
            obs=obs,
        )
    if offsets is None:
        offsets = scan_pcap_offsets(pcap_path)
    groups = _row_groups(offsets, workers)
    if len(groups) <= 1:
        return build_capture_table(
            pcap_path,
            workers=1,
            validate_crypto_scans=validate_crypto_scans,
            obs=obs,
            asdb_factory=asdb_factory,
            ack_factory=ack_factory,
            offsets=offsets,
        )
    payloads = [
        (
            pcap_path,
            offset,
            count,
            validate_crypto_scans,
            asdb_factory,
            ack_factory,
            False,
            progress_dir,
            group_index,
        )
        for group_index, (offset, count) in enumerate(groups)
    ]
    ctx = _pool_context()
    with ctx.Pool(processes=len(groups)) as pool:
        parts = pool.map(_worker_build, payloads)
    table = CaptureTable()
    for part_table, _stats, _flags in parts:
        table.extend(part_table)
    stats = _merge_stats([part_stats for _t, part_stats, _f in parts])
    emit_stats_counters(stats, obs)
    return table, stats


def build_from_shards(
    shard_paths: Sequence[str],
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
    asdb_factory: Callable[[], AsDatabase] = default_asdb,
    ack_factory: Callable[[], AcknowledgedScanners] = default_acknowledged,
    progress_dir: Optional[str] = None,
) -> Tuple[CaptureTable, SanitizationStats]:
    """Index per-shard pcaps in parallel; equals indexing their merge.

    Each shard is dissected by its own worker.  Rows are then interleaved
    by k-way-merging the shard *record* streams under
    :func:`record_sort_key` — the identical discipline
    :func:`repro.netstack.pcap.merge_pcap_files` applies when ``simulate
    --workers`` merges shard captures — while per-record kept flags keep
    the row cursors aligned with the record cursors.
    """
    obs = obs or NULL_OBS
    payloads = []
    for shard_index, path in enumerate(shard_paths):
        offsets = scan_pcap_offsets(path)
        payloads.append(
            (
                path,
                offsets[0] if offsets else 0,
                len(offsets),
                validate_crypto_scans,
                asdb_factory,
                ack_factory,
                True,
                progress_dir,
                shard_index,
            )
        )
    if len(payloads) == 1:
        parts = [_worker_build(payloads[0])]
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=len(payloads)) as pool:
            parts = pool.map(_worker_build, payloads)

    def shard_stream(shard_index: int):
        for record_index, record in enumerate(iter_pcap(shard_paths[shard_index])):
            yield record_sort_key(record), shard_index, record_index

    merged = heapq.merge(*(shard_stream(i) for i in range(len(shard_paths))))
    table = CaptureTable()
    row_cursors = [0] * len(shard_paths)
    for _key, shard_index, record_index in merged:
        if parts[shard_index][2][record_index]:
            table.append_row_from(parts[shard_index][0], row_cursors[shard_index])
            row_cursors[shard_index] += 1
    stats = _merge_stats([part_stats for _t, part_stats, _f in parts])
    emit_stats_counters(stats, obs)
    return table, stats
