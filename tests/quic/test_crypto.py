"""Cryptographic primitives against published test vectors."""

import hmac
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto.aes import AES128, SBOX
from repro.quic.crypto.gcm import AesGcm, AuthenticationError, _gf_mult
from repro.quic.crypto.hkdf import hkdf_expand, hkdf_expand_label, hkdf_extract
from repro.quic.crypto.initial import INITIAL_SALTS, derive_initial_keys, initial_salt
from repro.quic.version import DRAFT_29, MVFST_2, QUIC_V1


class TestAes:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_fips197_appendix_b(self):
        aes = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = aes.encrypt_block(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_fips197_appendix_c(self):
        aes = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ct = aes.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            AES128(b"\x00" * 15)

    def test_rejects_bad_block_length(self):
        with pytest.raises(ValueError):
            AES128(b"\x00" * 16).encrypt_block(b"\x00" * 15)

    def test_ctr_keystream_deterministic(self):
        aes = AES128(b"\x01" * 16)
        a = aes.ctr_keystream(b"\x02" * 12, 100)
        b = aes.ctr_keystream(b"\x02" * 12, 100)
        assert a == b
        assert len(a) == 100

    def test_ctr_keystream_counter_progression(self):
        aes = AES128(b"\x01" * 16)
        long = aes.ctr_keystream(b"\x02" * 12, 48)
        assert long[:16] == aes.encrypt_block(b"\x02" * 12 + b"\x00\x00\x00\x01")
        assert long[16:32] == aes.encrypt_block(b"\x02" * 12 + b"\x00\x00\x00\x02")


class TestGcm:
    # NIST GCM spec test case 3 (AES-128).
    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV = bytes.fromhex("cafebabefacedbaddecaf888")
    PT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    )

    def test_nist_case_3_no_aad(self):
        sealed = AesGcm(self.KEY).seal(self.IV, self.PT, b"")
        assert sealed[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"
        assert sealed[:16].hex() == "42831ec2217774244b7221b784d0d49c"

    def test_nist_case_4_with_aad(self):
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = AesGcm(self.KEY).seal(self.IV, self.PT[:60], aad)
        assert sealed[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_empty_everything(self):
        # NIST test case 1: empty plaintext and AAD.
        gcm = AesGcm(b"\x00" * 16)
        sealed = gcm.seal(b"\x00" * 12, b"", b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_roundtrip(self):
        gcm = AesGcm(self.KEY)
        sealed = gcm.seal(self.IV, b"hello quic", b"aad")
        assert gcm.open(self.IV, sealed, b"aad") == b"hello quic"

    def test_tamper_detection_ciphertext(self):
        gcm = AesGcm(self.KEY)
        sealed = bytearray(gcm.seal(self.IV, b"hello quic", b"aad"))
        sealed[0] ^= 1
        with pytest.raises(AuthenticationError):
            gcm.open(self.IV, bytes(sealed), b"aad")

    def test_tamper_detection_aad(self):
        gcm = AesGcm(self.KEY)
        sealed = gcm.seal(self.IV, b"hello quic", b"aad")
        with pytest.raises(AuthenticationError):
            gcm.open(self.IV, sealed, b"bad")

    def test_too_short_ciphertext(self):
        with pytest.raises(AuthenticationError):
            AesGcm(self.KEY).open(self.IV, b"\x00" * 10, b"")

    def test_gf_mult_identity(self):
        # x^0 (the GCM "1") is 0x80 followed by zeros in this representation.
        one = 0x80 << 120
        x = 0x123456789ABCDEF0 << 64
        assert _gf_mult(x, one) == x

    @settings(max_examples=25, deadline=None)
    @given(
        st.binary(min_size=0, max_size=80),
        st.binary(min_size=0, max_size=40),
    )
    def test_roundtrip_property(self, plaintext, aad):
        gcm = AesGcm(b"\x37" * 16)
        sealed = gcm.seal(b"\x11" * 12, plaintext, aad)
        assert gcm.open(b"\x11" * 12, sealed, aad) == plaintext


class TestHkdf:
    def test_rfc5869_case_1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_rfc5869_case_2_long_inputs(self):
        # An 80-byte salt is longer than the SHA-256 block, so HMAC must
        # hash the key first; 82 bytes of output take three blocks.
        prk = hkdf_extract(bytes(range(0x60, 0xB0)), bytes(range(0x50)))
        assert prk.hex() == (
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        )
        okm = hkdf_expand(prk, bytes(range(0xB0, 0x100)), 82)
        assert okm.hex() == (
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87"
        )

    def test_rfc5869_case_3_empty_salt_and_info(self):
        prk = hkdf_extract(b"", b"\x0b" * 22)
        assert prk.hex() == (
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        )
        assert hkdf_expand(prk, b"", 42).hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        # Salts past the 64-byte block take HMAC's key-hashing branch.
        st.one_of(st.binary(max_size=64), st.binary(min_size=65, max_size=130)),
        st.binary(max_size=100),
        st.binary(max_size=40),
        st.integers(min_value=1, max_value=100),
    )
    def test_matches_stdlib_hmac(self, salt, ikm, info, length):
        prk = hmac.digest(salt or bytes(32), ikm, "sha256")
        assert hkdf_extract(salt, ikm) == prk
        okm = block = b""
        for counter in range(1, 5):
            block = hmac.digest(prk, block + info + bytes((counter,)), "sha256")
            okm += block
        assert hkdf_expand(prk, info, length) == okm[:length]

    def test_expand_rejects_excessive_length(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 256 * 32)

    def test_expand_label_structure(self):
        # Same secret/label/length must be deterministic and label-sensitive.
        secret = b"\x42" * 32
        a = hkdf_expand_label(secret, "quic key", b"", 16)
        b = hkdf_expand_label(secret, "quic iv", b"", 16)
        assert a != b
        assert len(a) == 16


class TestInitialKeys:
    DCID = bytes.fromhex("8394c8f03e515708")

    def test_rfc9001_appendix_a1_client(self):
        keys = derive_initial_keys(0x00000001, self.DCID)
        assert keys.client.key.hex() == "1f369613dd76d5467730efcbe3b1a22d"
        assert keys.client.iv.hex() == "fa044b2f42a3fd3b46fb255c"
        assert keys.client.hp.hex() == "9f50449e04a0e810283a1e9933adedd2"

    def test_rfc9001_appendix_a1_server(self):
        keys = derive_initial_keys(0x00000001, self.DCID)
        assert keys.server.key.hex() == "cf3a5331653c364c88f0f379b6067e37"
        assert keys.server.iv.hex() == "0ac1493ca1905853b0bba03e"
        assert keys.server.hp.hex() == "c206b8d9b9f0f37644430b490eeaa314"

    def test_nonce_xor(self):
        keys = derive_initial_keys(1, self.DCID)
        nonce0 = keys.client.nonce(0)
        nonce1 = keys.client.nonce(1)
        assert nonce0 == keys.client.iv
        assert nonce1[-1] == keys.client.iv[-1] ^ 1

    def test_salt_selection(self):
        assert initial_salt(0x00000001) != initial_salt(0xFF00001D)
        # mvfst falls back to the draft-29 salt.
        assert initial_salt(0xFACEB002) == initial_salt(0xFF00001D)
        # Unknown versions fall back to the v1 salt.
        assert initial_salt(0x12345678) == initial_salt(0x00000001)

    def test_different_dcid_different_keys(self):
        a = derive_initial_keys(1, b"\x01" * 8)
        b = derive_initial_keys(1, b"\x02" * 8)
        assert a.client.key != b.client.key


class TestInitialKeysOracle:
    """``derive_initial_keys`` against the ``cryptography`` package's HKDF."""

    UNKNOWN = 0x1A2A3A4A

    @staticmethod
    def _label(label: bytes, length: int) -> bytes:
        full = b"tls13 " + label
        return struct.pack(">HB", length, len(full)) + full + b"\x00"

    def _oracle(self, salt: bytes, dcid: bytes) -> dict:
        hashes = pytest.importorskip("cryptography.hazmat.primitives.hashes")
        kdf = pytest.importorskip("cryptography.hazmat.primitives.kdf.hkdf")
        sha256 = hashes.SHA256()
        keys = {}
        for side in ("client", "server"):
            info = self._label(side.encode() + b" in", 32)
            secret = kdf.HKDF(sha256, 32, salt, info).derive(dcid)
            for name, length in (("key", 16), ("iv", 12), ("hp", 16)):
                info = self._label(b"quic " + name.encode(), length)
                keys[side, name] = kdf.HKDFExpand(sha256, length, info).derive(secret)
        return keys

    @pytest.mark.parametrize(
        "version, salt",
        [(version, salt) for version, salt in sorted(INITIAL_SALTS.items())]
        + [
            (MVFST_2.value, INITIAL_SALTS[DRAFT_29.value]),
            (UNKNOWN, INITIAL_SALTS[QUIC_V1.value]),
        ],
        ids=lambda value: "%08x" % value if isinstance(value, int) else "salt",
    )
    def test_every_dcid_length(self, version, salt):
        for length in range(21):
            dcid = bytes((version + 7 * i) & 0xFF for i in range(length))
            keys = derive_initial_keys(version, dcid)
            got = {
                (side, name): getattr(getattr(keys, side), name)
                for side in ("client", "server")
                for name in ("key", "iv", "hp")
            }
            assert got == self._oracle(salt, dcid), (hex(version), length)
