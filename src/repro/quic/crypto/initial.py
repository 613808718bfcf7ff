"""RFC 9001 §5.2 Initial secret derivation.

Initial packets are protected with keys derived solely from the client's
first Destination Connection ID and a version-specific salt.  Any observer
of the first flight — which includes a network telescope — can therefore
decrypt Initial packets; this is exactly what Wireshark's dissector does and
what our sanitization pipeline relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quic import version as quic_version
from repro.quic.crypto.hkdf import expand_label_info, hkdf_expand, hkdf_extract

#: Version-specific Initial salts (RFC 9001 §5.2 and predecessors).
INITIAL_SALTS: dict[int, bytes] = {
    quic_version.QUIC_V1.value: bytes.fromhex(
        "38762cf7f55934b34d179ae6a4c80cadccbb7f0a"
    ),
    quic_version.QUIC_V2.value: bytes.fromhex(
        "0dede3def700a6db819381be6e269dcbf9bd2ed9"
    ),
    quic_version.DRAFT_29.value: bytes.fromhex(
        "afbfec289993d24c9e9786f19c6111e04390a899"
    ),
    quic_version.DRAFT_28.value: bytes.fromhex(
        "c3eef712c72ebb5a11a7d2432bb46365bef9f502"
    ),
    quic_version.DRAFT_27.value: bytes.fromhex(
        "c3eef712c72ebb5a11a7d2432bb46365bef9f502"
    ),
}


def initial_salt(version: int) -> bytes:
    """Return the Initial salt for ``version``.

    mvfst versions reuse the draft-29 salt and unknown versions fall back
    to v1's; this mirrors how dissectors try a small set of salts when
    classifying traffic.
    """
    if version in INITIAL_SALTS:
        return INITIAL_SALTS[version]
    if (version >> 8) == 0xFACEB0:
        return INITIAL_SALTS[quic_version.DRAFT_29.value]
    return INITIAL_SALTS[quic_version.QUIC_V1.value]


@dataclass(frozen=True)
class DirectionKeys:
    """AEAD key material for one direction of an Initial exchange."""

    key: bytes  # 16 bytes (AES-128)
    iv: bytes  # 12 bytes
    hp: bytes  # 16 bytes, header protection key

    def __post_init__(self) -> None:
        # The IV as a 96-bit integer; derived state on a frozen dataclass
        # needs object.__setattr__.  Memoized key objects are shared
        # across every packet of a connection, so the conversion happens
        # once per key instead of once per nonce.
        object.__setattr__(self, "iv_int", int.from_bytes(self.iv, "big"))

    def nonce(self, packet_number: int) -> bytes:
        """Per-packet nonce: IV XORed with the packet number (RFC 9001 §5.3).

        Bytewise XOR against the zero-extended packet number equals one
        96-bit integer XOR, which is a single C-level operation instead
        of a 12-step generator on this per-packet path.
        """
        return (self.iv_int ^ packet_number).to_bytes(12, "big")


@dataclass(frozen=True)
class InitialKeys:
    """Both directions of Initial key material for one connection."""

    client: DirectionKeys
    server: DirectionKeys

    def for_sender(self, is_server: bool) -> DirectionKeys:
        return self.server if is_server else self.client


#: The schedule's fixed ``HkdfLabel`` infos, built once at import.
_CLIENT_IN = expand_label_info("client in", b"", 32)
_SERVER_IN = expand_label_info("server in", b"", 32)
_QUIC_KEY = expand_label_info("quic key", b"", 16)
_QUIC_IV = expand_label_info("quic iv", b"", 12)
_QUIC_HP = expand_label_info("quic hp", b"", 16)


def _derive_direction(secret: bytes) -> DirectionKeys:
    return DirectionKeys(
        key=hkdf_expand(secret, _QUIC_KEY, 16),
        iv=hkdf_expand(secret, _QUIC_IV, 12),
        hp=hkdf_expand(secret, _QUIC_HP, 16),
    )


def derive_initial_keys(version: int, client_dcid: bytes) -> InitialKeys:
    """Derive client and server Initial keys per RFC 9001 §5.2."""
    initial_secret = hkdf_extract(initial_salt(version), client_dcid)
    client_secret = hkdf_expand(initial_secret, _CLIENT_IN, 32)
    server_secret = hkdf_expand(initial_secret, _SERVER_IN, 32)
    return InitialKeys(
        client=_derive_direction(client_secret),
        server=_derive_direction(server_secret),
    )
