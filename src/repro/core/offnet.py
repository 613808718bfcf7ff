"""Off-net deployment detection from backscatter (paper §4.2, Table 6).

For every backscatter-emitting server in a *non-hypergiant* AS we build a
feature vector — SCID structure, retransmission inter-arrival time,
coalescence, packet lengths — and test Facebook-likeness with the nine
feature combinations of the paper's Table 6.  Ground truth comes from the
certificate store (subjectAltName suffix match), mirroring the paper's
QScanner verification.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence
from dataclasses import dataclass, field

from repro.capstore.table import BACKSCATTER
from repro.core.session import SessionStore
from repro.core.timing import session_gaps
from repro.inetdata.certs import CertificateStore
from repro.inetdata.hypergiants import FACEBOOK, Hypergiant
from repro.quic.cid import mvfst
from repro.quic.packet import PacketType
from repro.telescope.classify import CapturedPacket

_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value

#: Facebook's characteristic first-resend gap and tolerance (seconds).
FACEBOOK_RTO = 0.4
RTO_TOLERANCE = 0.07

#: Facebook's characteristic datagram lengths (profile padding targets).
FACEBOOK_LENGTHS = frozenset({1200, 1232})

#: The improved predictor: off-net caches use low host IDs — the paper
#: keys on the first 9 bits of the 16-bit host ID being zero.
LOW_HOST_ID_LIMIT = 1 << 7

#: Hypergiant origins excluded from off-net detection: their own ASes are
#: the on-net deployments the off-net caches are measured against.
OFFNET_EXCLUDED = frozenset(("Facebook", "Google", "Cloudflare"))


def is_low_host_id(scid: bytes) -> bool:
    """Does one SCID parse as mvfst v1 with a low host ID?"""
    decoded = mvfst.try_decode(scid)
    return (
        decoded is not None
        and decoded.version == 1
        and decoded.host_id < LOW_HOST_ID_LIMIT
    )


@dataclass
class ServerFeatures:
    """Passive observables of one backscatter-emitting server IP."""

    address: int
    origin: str
    scids: set[bytes] = field(default_factory=set)
    first_gaps: list[float] = field(default_factory=list)
    coalesced_seen: bool = False
    datagram_lengths: set[int] = field(default_factory=set)

    # -- individual features (paper Appendix C) -----------------------------
    def scid_structured_like_facebook(self) -> bool:
        """All SCIDs are 8 bytes and parse as mvfst v1 structured IDs."""
        if not self.scids:
            return False
        for scid in self.scids:
            decoded = mvfst.try_decode(scid)
            if decoded is None or decoded.version != 1:
                return False
        return True

    def low_host_id(self) -> bool:
        """SCIDs parse as mvfst v1 *and* every host ID is low."""
        return bool(self.scids) and all(is_low_host_id(s) for s in self.scids)

    def inter_arrival_like_facebook(self) -> bool:
        """Median first-resend gap within tolerance of Facebook's 0.4 s."""
        if not self.first_gaps:
            return False
        ordered = sorted(self.first_gaps)
        median = ordered[len(ordered) // 2]
        return abs(median - FACEBOOK_RTO) <= RTO_TOLERANCE

    def coalescence_like_facebook(self) -> bool:
        """Facebook never coalesces; feature = no coalescence observed."""
        return not self.coalesced_seen

    def lengths_like_facebook(self) -> bool:
        """All observed datagram lengths within Facebook's fingerprint set."""
        return bool(self.datagram_lengths) and self.datagram_lengths <= FACEBOOK_LENGTHS


#: Table 6 rows: name → predicate combination over ServerFeatures.
CLASSIFIERS = {
    "Inter arrival time": lambda f: f.inter_arrival_like_facebook(),
    "SCID & Inter arrival time": lambda f: f.scid_structured_like_facebook()
    and f.inter_arrival_like_facebook(),
    "SCID & coalescence & Inter arrival time": lambda f: (
        f.scid_structured_like_facebook()
        and f.coalescence_like_facebook()
        and f.inter_arrival_like_facebook()
    ),
    "QUIC packet length": lambda f: f.lengths_like_facebook(),
    "SCID & coalescence & QUIC packet length": lambda f: (
        f.scid_structured_like_facebook()
        and f.coalescence_like_facebook()
        and f.lengths_like_facebook()
    ),
    "Coalescence": lambda f: f.coalescence_like_facebook(),
    "SCID": lambda f: f.scid_structured_like_facebook(),
    "SCID & coalescence": lambda f: f.scid_structured_like_facebook()
    and f.coalescence_like_facebook(),
    "SCID off-net (low host ID)": lambda f: f.low_host_id(),
}


@dataclass
class ClassifierMetrics:
    """The six columns of Table 6."""

    name: str
    tp: int
    fp: int
    tn: int
    fn: int

    @staticmethod
    def _ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    @property
    def tpr(self) -> float:
        return self._ratio(self.tp, self.tp + self.fn)

    @property
    def fpr(self) -> float:
        return self._ratio(self.fp, self.fp + self.tn)

    @property
    def tnr(self) -> float:
        return self._ratio(self.tn, self.tn + self.fp)

    @property
    def fnr(self) -> float:
        return self._ratio(self.fn, self.fn + self.tp)

    @property
    def precision(self) -> float:
        return self._ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return self.tpr


def extract_features(
    packets: Sequence[CapturedPacket],
    exclude_origins: frozenset[str] = OFFNET_EXCLUDED,
) -> dict[int, ServerFeatures]:
    """Per-server features from backscatter outside hypergiant ASes."""
    features: dict[int, ServerFeatures] = {}
    store = SessionStore.from_packets(packets)
    for packet in packets:
        if packet.origin in exclude_origins:
            continue
        if packet.packets[0].packet_type is PacketType.VERSION_NEGOTIATION:
            # VN SCIDs echo the *client's* DCID — they say nothing about the
            # server's CID scheme, so they must not pollute the features.
            continue
        record = features.get(packet.src_ip)
        if record is None:
            record = ServerFeatures(address=packet.src_ip, origin=packet.origin)
            features[packet.src_ip] = record
        for parsed in packet.packets:
            if parsed.scid:
                record.scids.add(parsed.scid)
        if packet.coalesced:
            record.coalesced_seen = True
        record.datagram_lengths.add(packet.udp_payload_length)
    for session in store.sessions():
        if session.origin in exclude_origins:
            continue
        record = features.get(session.src_ip)
        if record is None:
            continue
        gaps = session_gaps(session)
        if gaps:
            record.first_gaps.append(gaps[0])
    return features


class OffnetReducer:
    """Table 6's candidate count over table columns.

    Counts the backscatter-emitting servers outside the hypergiant ASes
    and those whose every SCID passes :func:`is_low_host_id` — what
    :func:`extract_features` and :meth:`ServerFeatures.low_host_id` give,
    without building the feature records.
    """

    def __init__(self) -> None:
        #: source IP -> None (no SCID yet) or AND of its SCID verdicts.
        self._servers: dict[int, bool | None] = {}
        self._verdicts: dict[bytes, bool] = {}

    def feed(self, table, start: int, end: int) -> None:
        klass = table.klass
        origin_id = table.origin_id
        origins = table.origins
        src_ip = table.src_ip
        pkt_start = table.pkt_start
        pkt_type = table.pkt_type
        bytes_start = table.bytes_start
        dcid_len = table.dcid_len
        scid_len = table.scid_len
        blob = table.blob
        servers = self._servers
        verdicts = self._verdicts
        for row in range(start, end):
            j0 = pkt_start[row]
            if (
                klass[row] != BACKSCATTER
                or origins[origin_id[row]] in OFFNET_EXCLUDED
                # VN SCIDs echo the client's DCID (see extract_features).
                or pkt_type[j0] == _VERSION_NEGOTIATION
            ):
                continue
            address = src_ip[row]
            low = servers.setdefault(address, None)
            for j in range(j0, pkt_start[row + 1]):
                if scid_len[j] and low is not False:
                    cursor = bytes_start[j] + dcid_len[j]
                    scid = bytes(blob[cursor : cursor + scid_len[j]])
                    verdict = verdicts.get(scid)
                    if verdict is None:
                        verdict = verdicts[scid] = is_low_host_id(scid)
                    low = verdict
            servers[address] = low

    def result(self) -> tuple[int, int]:
        """(candidate servers, servers passing the low-host-ID test)."""
        return len(self._servers), sum(1 for low in self._servers.values() if low)


def offnet_counts(view) -> tuple[int, int]:
    """Table 6's off-net counts for a classified capture: one feed."""
    return view.reduce(OffnetReducer())


def evaluate_classifiers(
    features: dict[int, ServerFeatures],
    certstore: CertificateStore,
    hypergiant: Hypergiant = FACEBOOK,
) -> list[ClassifierMetrics]:
    """Score every Table 6 classifier against certificate ground truth.

    Servers without a certificate do not admit verification (like the
    paper's Cloudflare candidates) and are excluded from scoring.
    """
    verifiable = {
        addr: f for addr, f in features.items() if addr in certstore
    }
    results = []
    for name, predicate in CLASSIFIERS.items():
        tp = fp = tn = fn = 0
        for addr, feats in verifiable.items():
            truth = certstore.operated_by(addr, hypergiant)
            predicted = predicate(feats)
            if truth and predicted:
                tp += 1
            elif truth:
                fn += 1
            elif predicted:
                fp += 1
            else:
                tn += 1
        results.append(ClassifierMetrics(name=name, tp=tp, fp=fp, tn=tn, fn=fn))
    return results
