"""HKDF-SHA256 (RFC 5869) and the TLS 1.3 HKDF-Expand-Label (RFC 8446 §7.1).

QUIC derives its Initial keys from the client's Destination Connection ID
through HKDF-Extract with a version-specific salt followed by
HKDF-Expand-Label with the labels "client in" / "server in" / "quic key" /
"quic iv" / "quic hp" (RFC 9001 §5).  Every HMAC is two one-shot
``hashlib.sha256`` calls, a third cheaper than ``hmac.digest`` on OpenSSL 3.
Fixed labels build their info once with :func:`expand_label_info`.
"""

from __future__ import annotations

import struct
from hashlib import sha256

_HASH_LEN = 32  # SHA-256
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


def _hmac(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104): the key is hashed or zero-padded to one block."""
    key = (sha256(key).digest() if len(key) > 64 else key).ljust(64, b"\x00")
    inner = sha256(key.translate(_IPAD) + msg).digest()
    return sha256(key.translate(_OPAD) + inner).digest()


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract(salt, IKM) with SHA-256."""
    return _hmac(salt or bytes(_HASH_LEN), ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand(PRK, info, L) with SHA-256."""
    if length > 255 * _HASH_LEN:
        raise ValueError("HKDF-Expand length too large: %d" % length)
    okm = block = _hmac(prk, info + b"\x01")  # T(1); T(0) is empty
    for counter in range(2, -(-length // _HASH_LEN) + 1):
        block = _hmac(prk, block + info + bytes((counter,)))
        okm += block
    return okm[:length]


def expand_label_info(label: str, context: bytes, length: int) -> bytes:
    """The ``HkdfLabel`` info for ``label``: prefixed with "tls13 "."""
    full_label = b"tls13 " + label.encode("ascii")
    head = struct.pack(">HB", length, len(full_label))
    return head + full_label + bytes((len(context),)) + context


def hkdf_expand_label(secret: bytes, label: str, context: bytes, length: int) -> bytes:
    """TLS 1.3 HKDF-Expand-Label."""
    return hkdf_expand(secret, expand_label_info(label, context, length), length)
