"""The deterministic LRU behind the write side's templates and memos.

Every cache on the write path — Initial key schedules, AES/GHASH
schedules (:mod:`repro.quic.crypto.memo`), long/short header templates
(:mod:`repro.quic.packet`) and IPv4+UDP flow templates
(:mod:`repro.netstack.udp`) — holds values that are pure functions of
their keys, so a hit returns exactly the bytes a fresh build would.
There is one write path; its output is pinned by sha256 in the template
tests and by the golden pcap digests.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_T = TypeVar("_T")
_MISSING = object()


class LruCache:
    """Small deterministic LRU: insertion-ordered dict, oldest-out.

    Eviction order is a pure function of the get/put sequence (no
    clocks, no hashing randomness — keys are bytes/int tuples), so two
    processes replaying the same packet stream hold identical caches.
    Hit/miss counters feed the hot-path bench and the memo stats.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("LruCache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: dict = {}

    def __len__(self) -> int:
        return len(self._data)

    def get_or_build(self, key, factory: Callable[[], _T]) -> _T:
        """Return the cached value for ``key``, building it on a miss."""
        data = self._data
        value = data.pop(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            data[key] = value  # re-insert: most recently used sits last
            return value
        self.misses += 1
        value = factory()
        data[key] = value
        if len(data) > self.maxsize:
            del data[next(iter(data))]
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
