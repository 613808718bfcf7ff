"""RFC 1071 Internet checksum (ones-complement sum of 16-bit words).

Stdlib only.  The whole buffer is read as one big-endian integer: since
2**16 ≡ 1 (mod 0xFFFF), that integer (shifted left 8 bits when the length
is odd, the zero pad byte) is congruent to the sum of the 16-bit words,
and one C-level conversion plus one modulo replace the per-word loop.
"""

from __future__ import annotations


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """Compute the 16-bit Internet checksum over ``data``.

    The end-around-carry fold of a positive sum is the one value in
    [1, 0xFFFF] congruent to it mod 0xFFFF, so a non-zero multiple of
    0xFFFF folds to 0xFFFF; only an all-zero sum folds to 0.
    """
    total = initial + (int.from_bytes(data, "big") << 8 * (len(data) & 1))
    folded = (total - 1) % 0xFFFF + 1 if total else 0
    return ~folded & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (checksum field included) sums to 0xFFFF."""
    return internet_checksum(data) == 0
