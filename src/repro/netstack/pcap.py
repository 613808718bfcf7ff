"""Classic libpcap file format reader/writer (raw-IP link type).

Telescope captures are stored as standard pcap so they can be inspected
with external tooling, and so the analysis pipeline can equally consume
real-world raw-IP captures.  :func:`merge_pcap_files` k-way-merges
time-sorted per-worker captures (``repro simulate --workers N``) into one
time-ordered file while holding only one record per input in memory.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence, Union

MAGIC = 0xA1B2C3D4
MAGIC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_RAW = 101  # packets start with the IPv4/IPv6 header

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Size of the pcap global header — the first record boundary.  Streaming
#: readers treat a file shorter than this as "not started yet".
GLOBAL_HEADER_SIZE = _GLOBAL_HEADER.size


class PcapError(ValueError):
    """Raised on malformed pcap files."""


@dataclass(frozen=True)
class PcapRecord:
    """One captured packet: timestamp (float seconds) and raw bytes."""

    timestamp: float
    data: bytes

    @property
    def ts_sec(self) -> int:
        return int(self.timestamp)

    @property
    def ts_usec(self) -> int:
        return int(round((self.timestamp - int(self.timestamp)) * 1_000_000))


class PcapWriter:
    """Writes classic pcap; use as a context manager."""

    def __init__(self, fileobj: BinaryIO, linktype: int = LINKTYPE_RAW, snaplen: int = 65535) -> None:
        self._file = fileobj
        self._file.write(
            _GLOBAL_HEADER.pack(
                MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, snaplen, linktype
            )
        )
        self._snaplen = snaplen

    def write(self, record: PcapRecord) -> None:
        data = record.data[: self._snaplen]
        self._file.write(
            _RECORD_HEADER.pack(
                record.ts_sec, record.ts_usec, len(data), len(record.data)
            )
        )
        self._file.write(data)

    def write_all(self, records: Iterable[PcapRecord]) -> None:
        for record in records:
            self.write(record)

    def write_raw(self, ts_sec: int, ts_usec: int, data) -> None:
        """Write one record from pre-split timestamp parts and a buffer.

        ``data`` may be any bytes-like object (the columnar capture
        buffer passes ``memoryview`` slices, avoiding per-record copies).
        """
        length = len(data)
        included = data[: self._snaplen] if length > self._snaplen else data
        self._file.write(
            _RECORD_HEADER.pack(ts_sec, ts_usec, len(included), length)
        )
        self._file.write(included)

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.flush()


def _parse_global_header(head: bytes) -> tuple[struct.Struct, int]:
    """The record-header struct and snaplen of a complete global header.

    The one place a pcap's magic number, byte order and link type are
    read.  Only ``LINKTYPE_RAW`` is accepted: the dissector expects every
    record to start at the IPv4 header, so a link-layer framed capture
    (Ethernet is type 1) would otherwise index as zero rows, silently.
    """
    magic = struct.unpack("<I", head[:4])[0]
    if magic == MAGIC:
        endian = "<"
    elif magic == MAGIC_SWAPPED:
        endian = ">"
    else:
        raise PcapError("bad pcap magic 0x%08x" % magic)
    fields = struct.unpack(endian + "IHHiIII", head)
    linktype = fields[6]
    if linktype != LINKTYPE_RAW:
        raise PcapError(
            "unsupported pcap link type %d (only raw IP, %d)" % (linktype, LINKTYPE_RAW)
        )
    return struct.Struct(endian + "IIII"), fields[5]


class PcapReader:
    """Iterates :class:`PcapRecord` objects from a classic pcap file."""

    linktype = LINKTYPE_RAW

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        header = fileobj.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        self._record_struct, self.snaplen = _parse_global_header(header)

    def __iter__(self) -> Iterator[PcapRecord]:
        while True:
            header = self._file.read(self._record_struct.size)
            if not header:
                return
            if len(header) < self._record_struct.size:
                raise PcapError("truncated pcap record header")
            ts_sec, ts_usec, incl_len, _orig_len = self._record_struct.unpack(header)
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record body")
            yield PcapRecord(timestamp=ts_sec + ts_usec / 1_000_000, data=data)


def write_pcap(path: str, records: Iterable[PcapRecord]) -> None:
    """Convenience: write ``records`` to ``path``."""
    with open(path, "wb") as fileobj:
        PcapWriter(fileobj).write_all(records)


def iter_pcap(path: str) -> Iterator[PcapRecord]:
    """Stream records from ``path`` without materializing the file.

    This is the hot-path reader: the analysis pipeline dissects records
    as they stream by (``repro.capstore``), so a multi-GB capture never
    has to fit in memory as a Python list.
    """
    with open(path, "rb") as fileobj:
        yield from PcapReader(fileobj)


def iter_pcap_range(path: str, offset: int, count: int) -> Iterator[PcapRecord]:
    """Stream ``count`` records starting at byte ``offset``.

    ``offset`` must point at a record header (use
    :func:`scan_pcap_offsets`); this is how parallel index builders hand
    each worker its own contiguous row group of one pcap.
    """
    with open(path, "rb") as fileobj:
        reader = PcapReader(fileobj)  # validates magic, fixes endianness
        fileobj.seek(offset)
        records = iter(reader)
        for _ in range(count):
            try:
                yield next(records)
            except StopIteration:
                raise PcapError(
                    "row group at offset %d ends before %d records" % (offset, count)
                ) from None


def read_pcap(path: str) -> list[PcapRecord]:
    """Convenience: read all records from ``path``.

    Prefer :func:`iter_pcap` in hot paths — this helper exists for small
    captures and tests where a list is genuinely wanted.
    """
    return list(iter_pcap(path))


def scan_pcap_offsets(path: str) -> list[int]:
    """Byte offset of every record header in ``path``.

    Seeks over the payloads, so the scan costs one header read per record
    — cheap enough to plan row-group splits before a parallel dissection
    pass.  Raises :class:`PcapError` on truncated files.
    """
    return _scan_records(path, _GLOBAL_HEADER.size, strict=True)[0]


def scan_pcap_tail(path: str, start: int = _GLOBAL_HEADER.size) -> tuple[list[int], int]:
    """Offsets of the *complete* records from byte ``start`` to EOF.

    The streaming twin of :func:`scan_pcap_offsets`: instead of raising on
    a truncated record it stops in front of it, returning ``(offsets,
    end)`` where ``end`` is the byte offset one past the last complete
    record.  A live capture being appended to by another process always
    has a well-defined complete prefix — a reader that only consumes up to
    ``end`` can never observe a torn packet record, and the next poll
    resumes at ``end`` once the writer has finished the record.

    ``start`` must point at a record boundary (typically the ``end`` of a
    previous scan, or the position after the global header).
    """
    return _scan_records(path, start, strict=False)


def _scan_records(path: str, start: int, strict: bool) -> tuple[list[int], int]:
    """Walk record headers from ``start``; a torn record raises if ``strict``.

    Non-strict, a global header still being written yields ``([],
    start)`` and a torn record ends the walk in front of it.
    """
    offsets: list[int] = []
    with open(path, "rb") as fileobj:
        head = fileobj.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
            if strict:
                raise PcapError("truncated pcap global header")
            return [], start
        record_struct, _snaplen = _parse_global_header(head)
        fileobj.seek(0, 2)
        file_end = fileobj.tell()
        pos = max(start, _GLOBAL_HEADER.size)
        torn = ""
        while pos < file_end:
            fileobj.seek(pos)
            header = fileobj.read(record_struct.size)
            if len(header) < record_struct.size:
                torn = "truncated pcap record header"  # writer mid-append
                break
            _sec, _usec, incl_len, _orig = record_struct.unpack(header)
            if pos + record_struct.size + incl_len > file_end:
                torn = "truncated pcap record body"
                break
            offsets.append(pos)
            pos += record_struct.size + incl_len
    if torn and strict:
        raise PcapError(torn)
    return offsets, pos


def record_sort_key(record: PcapRecord) -> tuple:
    """The canonical capture order: quantized timestamp, then raw bytes.

    Comparing the *quantized* (second, microsecond) pair rather than the
    float timestamp guarantees that the order of records is preserved by
    a write/read round-trip, and the ``data`` tie-break makes the order a
    property of the record multiset alone — independent of how records
    were partitioned across shard files.
    """
    return (record.ts_sec, record.ts_usec, record.data)


def merge_pcap_files(
    paths: Sequence[str], output: Union[str, BinaryIO]
) -> int:
    """K-way merge time-sorted pcap files into one time-ordered pcap.

    Each input must already be sorted by :func:`record_sort_key` (shard
    workers sort before writing); the merge then streams with one pending
    record per input.  Returns the number of records written.
    """
    files = [open(path, "rb") for path in paths]
    count = 0
    try:
        merged = heapq.merge(
            *(iter(PcapReader(fileobj)) for fileobj in files), key=record_sort_key
        )
        if isinstance(output, str):
            with open(output, "wb") as fileobj:
                writer = PcapWriter(fileobj)
                for record in merged:
                    writer.write(record)
                    count += 1
        else:
            writer = PcapWriter(output)
            for record in merged:
                writer.write(record)
                count += 1
    finally:
        for fileobj in files:
            fileobj.close()
    return count
