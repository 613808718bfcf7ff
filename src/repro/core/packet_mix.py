"""Packet-type mix and packet-length patterns (paper Table 3 and Figure 7).

Table 3 classifies every long-header datagram from each source network:
Initial, Handshake, 0-RTT, Retry, or a coalesced Initial & Handshake
datagram.  Figure 7 looks at the lengths of the QUIC packets inside each
datagram — comma-joined when coalesced — whose per-provider patterns stem
from distinct padding policies.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence
from dataclasses import dataclass, field

from repro.capstore.table import BACKSCATTER
from repro.quic.packet import PacketType
from repro.telescope.classify import CapturedPacket

TABLE3_ROWS = (
    "Initial",
    "Handshake",
    "0-RTT",
    "Retry",
    "Coalesced Initial & Handshake",
)

#: Category of a single-packet datagram by packet-type code; any other
#: type counts as "1-RTT".  Version Negotiation maps to None: the paper's
#: table covers the four flight types, so those datagrams are skipped.
_SINGLE_CATEGORY = {
    PacketType.INITIAL.value: "Initial",
    PacketType.HANDSHAKE.value: "Handshake",
    PacketType.ZERO_RTT.value: "0-RTT",
    PacketType.RETRY.value: "Retry",
    PacketType.VERSION_NEGOTIATION.value: None,
}
_COALESCABLE = frozenset((PacketType.INITIAL.value, PacketType.HANDSHAKE.value))


@dataclass
class PacketMix:
    """Per-origin datagram category shares."""

    counts: dict[str, Counter] = field(default_factory=dict)

    def origins(self) -> list[str]:
        return sorted(self.counts)

    def share(self, origin: str, category: str) -> float:
        counter = self.counts.get(origin)
        if not counter:
            return 0.0
        total = sum(counter.values())
        return 100.0 * counter.get(category, 0) / total if total else 0.0

    def coalescence_share(self, origin: str) -> float:
        return self.share(origin, "Coalesced Initial & Handshake")

    def uses_coalescence(self, origin: str, threshold: float = 1.0) -> bool:
        """Table 1's coalescence checkmark: more than ``threshold`` percent."""
        return self.coalescence_share(origin) > threshold


class PacketMixReducer:
    """Table 3 over table columns: datagram categories per origin."""

    def __init__(self, backscatter_only: bool = False) -> None:
        self.backscatter_only = backscatter_only
        self.mix = PacketMix()

    def feed(self, table, start: int, end: int) -> None:
        klass = table.klass
        origin_id = table.origin_id
        origins = table.origins
        pkt_start = table.pkt_start
        pkt_type = table.pkt_type
        counts = self.mix.counts
        backscatter_only = self.backscatter_only
        for row in range(start, end):
            if backscatter_only and klass[row] != BACKSCATTER:
                continue
            j0 = pkt_start[row]
            j1 = pkt_start[row + 1]
            if j1 - j0 > 1:
                if {pkt_type[j] for j in range(j0, j1)} <= _COALESCABLE:
                    category = "Coalesced Initial & Handshake"
                else:
                    category = "Coalesced other"
            else:
                category = _SINGLE_CATEGORY.get(pkt_type[j0], "1-RTT")
                if category is None:
                    continue
            origin = origins[origin_id[row]]
            counter = counts.get(origin)
            if counter is None:
                counter = counts[origin] = Counter()
            counter[category] += 1

    def result(self) -> PacketMix:
        return self.mix


def packet_mix(view, backscatter_only: bool = False) -> PacketMix:
    """Table 3 for a classified capture: one feed over its table."""
    return view.reduce(PacketMixReducer(backscatter_only))


def length_signature(packet: CapturedPacket) -> str:
    """Figure 7 label: comma-joined QUIC packet lengths inside the datagram."""
    return ",".join(str(p.packet_length) for p in packet.packets)


def top_length_signatures(
    packets: Sequence[CapturedPacket], top: int = 7
) -> dict[str, list[tuple[str, int]]]:
    """Per-origin top-N packet-length combinations (Figure 7)."""
    per_origin: dict[str, Counter] = defaultdict(Counter)
    for packet in packets:
        if packet.packets[0].packet_type is PacketType.VERSION_NEGOTIATION:
            continue
        per_origin[packet.origin][length_signature(packet)] += 1
    return {
        origin: counter.most_common(top) for origin, counter in per_origin.items()
    }
