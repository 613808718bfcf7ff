"""Flow-template encapsulation pins and the columnar capture buffer."""

import hashlib
import io
import random

import pytest

from repro.netstack.capbuf import CaptureBuffer
from repro.netstack.checksum import internet_checksum, verify_checksum
from repro.netstack.pcap import PcapRecord, PcapWriter, read_pcap
from repro.netstack.udp import (
    FlowTemplate,
    UdpDatagram,
    decode_udp,
    encode_udp,
    encode_udp_into,
)

#: payload size -> sha256 of ``encode_udp`` for ``_datagram(payload)``.
#: Recorded while a Writer-based rebuild encoder still existed and
#: produced the same bytes.
ENCODE_PINS = {
    0: "4b45d714d0604c95d0188ab0365ba6759d80aee118ffad2acd586322f006b3ca",
    1: "aab072b790c71316d92a62f2a38ad3cde86e1e0854af510370c34389ca6680d5",
    2: "e9b586f8f13a17784495623a02fcc4d538c9479c8f7f8b65df0b042dfb58e183",
    63: "0aed0d55fbe6a16400230b4a17fea29cc3a7171fa8a344f4d2801923cff90f9b",
    64: "d467aa2258726e23f916859da0c29c37e572e6cd2a48c11ac677f9e4d7bacfaf",
    65: "253df99e0d791eb5367bfb41a5d7b3aa9332937dd18dd008d6ccf3932b2e74e0",
    1199: "4cb79a4fdc0789f1235b778b11d9b37eef4b190d2b0c0697e14670eb23ecb0d3",
    1200: "6396887212d246f1c4436e0b86db15b230b231cebf4f193e1923b2141d012970",
    1472: "c95d1e1a7bf989efed135f2844efc574eb758ab0d34a4ec5e33415240a895d51",
}

#: The first two-byte payload (from 0) whose UDP checksum computes to
#: zero for ``_datagram``'s flow, and the pinned packet carrying it.
ZERO_CHECKSUM_FILLER = 8674
ZERO_CHECKSUM_PIN = "7579f4de5f9b6a6b95fb5df401597a938f42e70e815f129d8ea7083e09a9a14f"


def _datagram(payload, ttl=64, src_port=4242):
    return UdpDatagram(
        src_ip=0x0A000001,
        dst_ip=0xC0A80102,
        src_port=src_port,
        dst_port=443,
        payload=payload,
        ttl=ttl,
    )


def _udp_pseudo_segment(packet: bytes) -> bytes:
    """RFC 768 pseudo-header (addresses, protocol, length) + UDP segment."""
    return packet[12:20] + b"\x00\x11" + packet[24:26] + packet[20:]


def _assert_roundtrip(datagram: UdpDatagram) -> bytes:
    """Encode, then check both checksums and decode back to ``datagram``."""
    packet = encode_udp(datagram)
    assert verify_checksum(packet[:20]), "IPv4 header checksum"
    assert verify_checksum(_udp_pseudo_segment(packet)), "UDP checksum"
    assert decode_udp(packet) == datagram
    return packet


class TestFlowTemplateParity:
    @pytest.mark.parametrize("size", sorted(ENCODE_PINS))
    def test_encode_matches_rebuild(self, size):
        """Odd and even payload lengths exercise checksum padding."""
        rng = random.Random(size)
        payload = rng.getrandbits(8 * size).to_bytes(size, "big") if size else b""
        packet = _assert_roundtrip(_datagram(payload))
        assert len(packet) == 28 + size
        assert hashlib.sha256(packet).hexdigest() == ENCODE_PINS[size]

    def test_random_flows_match_rebuild(self):
        rng = random.Random(42)
        for _ in range(200):
            datagram = UdpDatagram(
                src_ip=rng.getrandbits(32),
                dst_ip=rng.getrandbits(32),
                src_port=rng.randrange(1024, 65536),
                dst_port=rng.choice([443, 80, rng.randrange(1, 65536)]),
                payload=rng.randbytes(rng.randrange(0, 300)),
                ttl=rng.choice([1, 32, 64, 128, 255]),
            )
            _assert_roundtrip(datagram)

    def test_encode_into_appends_identical_bytes(self):
        out = bytearray(b"prefix")
        datagram = _datagram(b"payload-bytes")
        encode_udp_into(out, datagram)
        assert bytes(out) == b"prefix" + encode_udp(datagram)

    def test_template_rejects_oversized_payload(self):
        template = FlowTemplate(1, 2, 3, 4, 64)
        with pytest.raises(Exception):
            template.encode(b"\x00" * 70000)

    def test_zero_udp_checksum_becomes_ffff(self):
        """RFC 768: a computed zero checksum is transmitted as 0xFFFF."""
        datagram = _datagram(ZERO_CHECKSUM_FILLER.to_bytes(2, "big"))
        packet = _assert_roundtrip(datagram)
        assert packet[26:28] == b"\xff\xff"
        # With the field zeroed the segment sums to a checksum of zero, so
        # 0xFFFF is the substitute, not a value the sum produced.
        zeroed = packet[:26] + b"\x00\x00" + packet[28:]
        assert internet_checksum(_udp_pseudo_segment(zeroed)) == 0
        assert hashlib.sha256(packet).hexdigest() == ZERO_CHECKSUM_PIN


class TestCaptureBuffer:
    def test_append_and_materialize(self):
        buffer = CaptureBuffer()
        buffer.append(1.5, b"aaa")
        buffer.append(2.25, b"bbbb")
        assert len(buffer) == 2
        assert buffer.record(0) == PcapRecord(timestamp=1.5, data=b"aaa")
        assert buffer.record(-1) == PcapRecord(timestamp=2.25, data=b"bbbb")
        with pytest.raises(IndexError):
            buffer.record(2)

    def test_commit_after_in_place_encode(self):
        buffer = CaptureBuffer()
        start = len(buffer.data)
        encode_udp_into(buffer.data, _datagram(b"direct"))
        buffer.commit(3.0, start)
        assert buffer.record(0).data == encode_udp(_datagram(b"direct"))
        assert buffer.record(0).timestamp == 3.0

    def test_records_view_sequence_protocol(self):
        buffer = CaptureBuffer()
        for i in range(5):
            buffer.append(float(i), bytes([i]) * (i + 1))
        records = buffer.records
        assert len(records) == 5
        assert records[1].data == b"\x01\x01"
        assert [r.timestamp for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [r.data for r in records[1:3]] == [b"\x01\x01", b"\x02\x02\x02"]
        records.append(PcapRecord(timestamp=9.0, data=b"late"))
        assert len(buffer) == 6
        assert buffer.record(5).data == b"late"

    def test_sorted_records_orders_by_time(self):
        buffer = CaptureBuffer()
        buffer.append(2.0, b"second")
        buffer.append(1.0, b"first")
        assert [r.data for r in buffer.sorted_records()] == [b"first", b"second"]

    def test_write_to_matches_record_writer(self):
        buffer = CaptureBuffer()
        rng = random.Random(3)
        for i in range(20):
            buffer.append(i * 0.125, rng.randbytes(rng.randrange(1, 100)))

        columnar = io.BytesIO()
        buffer.write_to(PcapWriter(columnar))

        reference = io.BytesIO()
        PcapWriter(reference).write_all(iter(buffer))

        assert columnar.getvalue() == reference.getvalue()

    def test_write_to_roundtrips_through_reader(self, tmp_path):
        buffer = CaptureBuffer()
        buffer.append(1.000001, b"\x01\x02\x03")
        buffer.append(2.5, b"\x04")
        path = tmp_path / "capbuf.pcap"
        with open(path, "wb") as fh:
            buffer.write_to(PcapWriter(fh))
        records = read_pcap(str(path))
        assert [r.data for r in records] == [b"\x01\x02\x03", b"\x04"]
        assert records[0].ts_usec == 1
