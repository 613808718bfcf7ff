"""Classification and sanitization of raw telescope captures (paper §3.2).

Pipeline, mirroring the paper:

1. decode IPv4+UDP; everything else is non-QUIC noise;
2. source port 443 → candidate *backscatter* (server responses to spoofed
   traffic), destination port 443 → candidate *scan* (client requests);
3. false-positive removal with the QUIC dissector (Wireshark-equivalent);
4. removal of acknowledged research scanners (requests only — their
   documented behaviour would bias version statistics).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.dissector import DissectError, dissect_datagram
from repro.inetdata.asdb import AsDatabase
from repro.netstack.pcap import PcapRecord
from repro.netstack.udp import QUIC_PORT, UdpParseError, decode_udp
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_SANITIZE
from repro.quic.packet import ParsedLongHeader
from repro.telescope.acknowledged import AcknowledgedScanners

if TYPE_CHECKING:  # capstore builds on this module
    from repro.capstore.table import ClassifiedView


class PacketClass(enum.Enum):
    BACKSCATTER = "backscatter"
    SCAN = "scan"


@dataclass
class CapturedPacket:
    """One sanitized QUIC datagram seen by the telescope."""

    timestamp: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    udp_payload_length: int
    packets: list[ParsedLongHeader]
    klass: PacketClass
    #: Paper-style origin label of the *remote* side: hypergiant name or
    #: "Remaining" (the spoofed telescope side carries no information).
    origin: str = "Remaining"

    @property
    def coalesced(self) -> bool:
        return len(self.packets) > 1

    @property
    def remote_ip(self) -> int:
        """The non-telescope endpoint (source for backscatter and scans)."""
        return self.src_ip


@dataclass
class SanitizationStats:
    total_records: int = 0
    non_udp: int = 0
    non_port_443: int = 0
    failed_dissection: int = 0
    acknowledged_scanner: int = 0
    backscatter: int = 0
    scans: int = 0

    @property
    def removed(self) -> int:
        return (
            self.non_udp
            + self.non_port_443
            + self.failed_dissection
            + self.acknowledged_scanner
        )

    @property
    def removed_share(self) -> float:
        return self.removed / self.total_records if self.total_records else 0.0


#: Drop reasons in pipeline order.  Each name doubles as the matching
#: :class:`SanitizationStats` field and the ``sanitize.packets`` counter
#: stage label, which is what lets the columnar cache rebuild the counter
#: values from stored stats without replaying the pipeline.
DROP_REASONS = (
    "non_udp",
    "non_port_443",
    "failed_dissection",
    "acknowledged_scanner",
)


class SanitizeEmitter:
    """Observability of the sanitization loop.

    The columnar builder (:func:`repro.capstore.build.build_from_records`)
    reports each record's verdict here: drops increment the
    ``sanitize.packets`` counter under their stage label and emit a
    ``sanitize:drop`` trace event; kept records count under
    ``kept_backscatter`` / ``kept_scan``.
    """

    def __init__(self, obs: Observability | None) -> None:
        obs = obs or NULL_OBS
        self._tracer = obs.tracer
        self._counter = (
            obs.metrics.counter("sanitize.packets", ("stage",))
            if obs.metrics is not None
            else None
        )

    def drop(self, record: PcapRecord, reason: str) -> None:
        if self._counter is not None:
            self._counter.inc_key((reason,))
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_SANITIZE,
                "drop",
                time=record.timestamp,
                reason=reason,
                bytes=len(record.data),
            )

    def kept(self, klass: PacketClass) -> None:
        if self._counter is not None:
            label = (
                "kept_backscatter"
                if klass is PacketClass.BACKSCATTER
                else "kept_scan"
            )
            self._counter.inc_key((label,))


def classify_record(
    record: PcapRecord,
    asdb: AsDatabase | None = None,
    acknowledged: AcknowledgedScanners | None = None,
    validate_crypto_scans: bool = True,
) -> tuple[CapturedPacket | None, str | None]:
    """Classify a single capture record.

    Returns ``(captured, None)`` for kept records and ``(None, reason)``
    for dropped ones, with ``reason`` one of :data:`DROP_REASONS`.  The
    pipeline is stateless per record, which is what makes row-group
    parallel index builds exactly equivalent to a serial pass.
    """
    try:
        datagram = decode_udp(record.data)
    except (UdpParseError, ValueError):
        return None, "non_udp"
    if datagram.src_port == QUIC_PORT:
        klass = PacketClass.BACKSCATTER
    elif datagram.dst_port == QUIC_PORT:
        klass = PacketClass.SCAN
    else:
        return None, "non_port_443"
    try:
        dissected = dissect_datagram(
            datagram.payload,
            validate_crypto=(validate_crypto_scans and klass is PacketClass.SCAN),
        )
    except DissectError:
        return None, "failed_dissection"
    if (
        klass is PacketClass.SCAN
        and acknowledged is not None
        and acknowledged.is_acknowledged(datagram.src_ip)
    ):
        return None, "acknowledged_scanner"
    return (
        CapturedPacket(
            timestamp=record.timestamp,
            src_ip=datagram.src_ip,
            dst_ip=datagram.dst_ip,
            src_port=datagram.src_port,
            dst_port=datagram.dst_port,
            udp_payload_length=len(datagram.payload),
            packets=dissected.packets,
            klass=klass,
            origin=asdb.origin_name(datagram.src_ip) if asdb else "Remaining",
        ),
        None,
    )


def classify_capture(
    records: Iterable[PcapRecord],
    asdb: AsDatabase | None = None,
    acknowledged: AcknowledgedScanners | None = None,
    validate_crypto_scans: bool = True,
    obs: Observability | None = None,
) -> ClassifiedView:
    """Run the full sanitization pipeline over raw capture records.

    ``records`` may be any iterable, including the streaming
    :func:`repro.netstack.pcap.iter_pcap` generator.

    ``validate_crypto_scans`` additionally AEAD-validates client Initials in
    scan traffic (possible passively because Initial keys derive from the
    DCID); backscatter is validated structurally, as in Wireshark.

    The records are dissected into a columnar table by
    :func:`repro.capstore.build.build_from_records`, the one sanitization
    loop, which also emits the ``obs`` counters and drop events.
    """
    from repro.capstore.build import build_from_records
    from repro.capstore.table import ClassifiedView

    return ClassifiedView(
        *build_from_records(
            records,
            asdb=asdb,
            acknowledged=acknowledged,
            validate_crypto_scans=validate_crypto_scans,
            obs=obs,
        )
    )
