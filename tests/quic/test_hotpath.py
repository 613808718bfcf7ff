"""Write-side template/memo plane: pinned bytes for every encoder shape.

The crypto memos, packet templates and fused ``FastProtection.protect``
are the only write path.  Each ``*_matches_rebuild`` case pins the sha256
of the bytes it emits.  The pins were recorded while a field-by-field
rebuild encoder still existed and produced the same bytes, so they hold
the templates to that encoder's output without keeping it alive.
"""

import hashlib
import random

import pytest

from repro.quic.crypto.aes import AES128
from repro.quic.crypto.gcm import AesGcm
from repro.quic.crypto.initial import derive_initial_keys
from repro.quic.crypto.memo import (
    cached_aes,
    cached_gcm,
    cached_initial_keys,
    clear_crypto_memos,
    memo_stats,
)
from repro.quic.crypto.suites import (
    FastProtection,
    NullProtection,
    PacketProtection,
    Rfc9001Protection,
)
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    ShortHeaderPacket,
    encode_datagram,
    encode_packet,
    encode_short_packet,
)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_crypto_memos()
    yield
    clear_crypto_memos()


class TestLruCache:
    def test_get_or_build_caches(self):
        from repro.hotpath import LruCache

        cache = LruCache(4)
        built = []

        def factory():
            built.append(1)
            return len(built)

        assert cache.get_or_build("a", factory) == 1
        assert cache.get_or_build("a", factory) == 1
        assert built == [1]
        assert cache.hits == 1
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        from repro.hotpath import LruCache

        cache = LruCache(2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a; b is now oldest
        cache.get_or_build("c", lambda: "C")  # evicts b
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or "B2")
        assert rebuilt == [1]


class TestCryptoMemoParity:
    def test_initial_keys_identical_across_1000_dcids(self):
        rng = random.Random(20260807)
        dcids = [rng.getrandbits(64).to_bytes(8, "big") for _ in range(1000)]
        for dcid in dcids:
            cached = cached_initial_keys(1, dcid)
            fresh = derive_initial_keys(1, dcid)
            assert cached.client == fresh.client
            assert cached.server == fresh.server

    def test_initial_keys_cache_hit_returns_same_object(self):
        dcid = b"\x42" * 8
        assert cached_initial_keys(1, dcid) is cached_initial_keys(1, dcid)

    def test_initial_keys_keyed_by_version(self):
        dcid = b"\x42" * 8
        v1 = cached_initial_keys(1, dcid)
        draft = cached_initial_keys(0xFF00001D, dcid)
        assert v1 != draft

    def test_aes_schedule_identical_across_keys(self):
        rng = random.Random(7)
        block = b"\x5a" * 16
        for _ in range(50):
            key = rng.getrandbits(128).to_bytes(16, "big")
            assert cached_aes(key).encrypt_block(block) == AES128(
                key
            ).encrypt_block(block)

    def test_ghash_schedule_identical_across_keys(self):
        rng = random.Random(8)
        nonce = b"\x01" * 12
        for _ in range(25):
            key = rng.getrandbits(128).to_bytes(16, "big")
            sealed = cached_gcm(key).seal(nonce, b"payload", b"aad")
            assert sealed == AesGcm(key).seal(nonce, b"payload", b"aad")

    def test_memo_stats_counts(self):
        cached_initial_keys(1, b"\x02" * 8)
        cached_initial_keys(1, b"\x02" * 8)
        stats = memo_stats()
        assert stats["initial_keys"] == {"hits": 1, "misses": 1}


def _flight_packets(version=1, pn=3, token=b""):
    initial = LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=version,
        dcid=b"\x11" * 8,
        scid=b"\x22" * 8,
        packet_number=pn,
        payload=b"\xaa" * 620,
        pn_length=1,
        token=token,
    )
    handshake = LongHeaderPacket(
        packet_type=PacketType.HANDSHAKE,
        version=version,
        dcid=b"\x11" * 8,
        scid=b"\x22" * 8,
        packet_number=pn + 1,
        payload=b"\xbb" * 660,
        pn_length=1,
    )
    return initial, handshake


SUITES = (FastProtection, NullProtection, Rfc9001Protection)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: suite -> (Initial, Handshake) packet digests from ``encode_packet``.
PACKET_PINS = {
    "fast": (
        "9e8b6f525d4ca23ef7c7cbf94d36734dbdc985562c37bd78db289ab5ef7fef1b",
        "e959dbdbafb77a51bc62a4a003d8f30dbbbaaede7bed84f6e147f19f1e73ead8",
    ),
    "null": (
        "0381644456ccdcca4ee4523d27ef411fb6a479e9e4a52e774ad362fe769dfc0a",
        "17fc4cab1b9ab13683cf684cbd1cc20cc467f970a7772134f42f55e6184c0ad4",
    ),
    "rfc9001": (
        "41434c77f70a72bb06e18ca4ce1d000ef7e596d771d8d253fe06e42206fb479d",
        "a28b7b733ccf373782bbee33c4c251b3d9dba8847bcdd340f71308504414d229",
    ),
}

#: (suite, pad_to) -> coalesced datagram digest.  The flight is 1365
#: bytes, so only the 1452 target pads it (the padded tail of a
#: coalesced datagram).
DATAGRAM_PINS = {
    ("fast", 0): "a577d94012ed9f8747a873f8fba69acb8fa2b93f8cefc1f13bcd24fa7d83e2c9",
    ("fast", 1200): "a577d94012ed9f8747a873f8fba69acb8fa2b93f8cefc1f13bcd24fa7d83e2c9",
    ("fast", 1357): "a577d94012ed9f8747a873f8fba69acb8fa2b93f8cefc1f13bcd24fa7d83e2c9",
    ("null", 0): "5cfd37bb523c912414ae95ec10e3fe7a42acf9cbc1f86bb0a6ae5c6b5f4abe93",
    ("null", 1200): "5cfd37bb523c912414ae95ec10e3fe7a42acf9cbc1f86bb0a6ae5c6b5f4abe93",
    ("null", 1357): "5cfd37bb523c912414ae95ec10e3fe7a42acf9cbc1f86bb0a6ae5c6b5f4abe93",
    ("rfc9001", 0): "8f9c957ab1ddfd53524b3d7666572687548ea3a136f27e8dd3b5d8f786b09b56",
    ("rfc9001", 1200): "8f9c957ab1ddfd53524b3d7666572687548ea3a136f27e8dd3b5d8f786b09b56",
    ("rfc9001", 1357): "8f9c957ab1ddfd53524b3d7666572687548ea3a136f27e8dd3b5d8f786b09b56",
    ("fast", 1452): "6c636284c5a9bbda84e9cad33d0a1d419c5a9378753119106ec602d23ff1f460",
    ("null", 1452): "7df60de43ae0150a08beb70b44b54a7799a92859ff086c235d401d1aeef8b847",
    ("rfc9001", 1452): "156e28c470201bf1091d4a904c78ba416d6f334abf0bc524d7d8a24090f4d624",
}

#: Padded client Initial carrying a 16-byte token.
TOKEN_DATAGRAM_PIN = "d841f850b0fb9a93aef3f40fba2cd110cf5a07ed66340ee43f20322e0d98e917"

#: pn_length -> 1-RTT packet digest.
SHORT_PACKET_PINS = {
    1: "aa2c4f7f967edde327afa457c2b7bf7b11e381583765bff9d89d7c0fb9a27293",
    2: "57ce925787ffb36283525f5e027400220b9773ff0d97c0161561da6f6e3a0819",
    3: "bbc4784c526fefe6b75455dc2e7dc0efe059836a82b920d2f176d1462b15125f",
    4: "7dac27d6ce721d9ad5853336a64e41457d69b2119182a57f88dabc07d49b7a49",
}

FUSED_PROTECT_PIN = "ae1fd796ac454e22f21fcbc1d94eaf8055071423d70ef922532d622a8307b887"


class TestTemplateParity:
    @pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
    def test_encode_packet_matches_rebuild(self, suite):
        protection = suite(1, b"\x11" * 8)
        digests = tuple(
            _sha256(encode_packet(packet, protection, is_server=True))
            for packet in _flight_packets()
        )
        assert digests == PACKET_PINS[suite.name]

    @pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
    @pytest.mark.parametrize("pad_to", (0, 1200, 1357, 1452))
    def test_encode_datagram_matches_rebuild(self, suite, pad_to):
        protection = suite(1, b"\x11" * 8)
        initial, handshake = _flight_packets()
        datagram = encode_datagram(
            [initial, handshake], protection, is_server=True, pad_to=pad_to
        )
        assert len(datagram) == max(pad_to, 1365)
        assert _sha256(datagram) == DATAGRAM_PINS[suite.name, pad_to]

    def test_encode_datagram_with_token_matches_rebuild(self):
        protection = FastProtection(1, b"\x11" * 8)
        initial, _ = _flight_packets(token=b"\xf0\x0d" * 8)
        datagram = encode_datagram([initial], protection, is_server=False, pad_to=1200)
        assert len(datagram) == 1200
        assert _sha256(datagram) == TOKEN_DATAGRAM_PIN

    @pytest.mark.parametrize("pn_length", (1, 2, 3, 4))
    def test_short_packet_matches_rebuild(self, pn_length):
        protection = FastProtection(1, b"\x11" * 8)
        packet = ShortHeaderPacket(
            dcid=b"\x33" * 8,
            packet_number=0x1234,
            payload=b"\xcc" * 64,
            pn_length=pn_length,
            spin_bit=bool(pn_length % 2),
        )
        encoded = encode_short_packet(packet, protection, is_server=True)
        assert _sha256(encoded) == SHORT_PACKET_PINS[pn_length]

    def test_fused_fast_protect_matches_driver(self):
        protection = FastProtection(1, b"\x77" * 8)
        header = b"\xc0\x00\x00\x00\x01\x08" + b"\x11" * 8 + b"\x00\x41\x00\x07"
        fused = protection.protect(True, header, 7, b"\x55" * 200)
        driver = PacketProtection.protect(protection, True, header, 7, b"\x55" * 200)
        assert fused == driver
        assert _sha256(fused) == FUSED_PROTECT_PIN
