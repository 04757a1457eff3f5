"""Thread-safe LRU result cache keyed on quantized RSS vectors.

Real fleets see the same few RSS patterns over and over (a target standing
still, repeated polling from the same spot), so the engine can answer a
repeat query without touching the matcher.  Exact float equality would
almost never hit — RSS readings carry sensor noise — so keys quantize the
measurement to a configurable dB step: two vectors that round to the same
quantized pattern share an answer.  Keys also carry the site, matcher
identity and database generation, so a hot-swap naturally invalidates every
cached answer of the retired generation (old entries simply age out of the
LRU).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

import numpy as np

__all__ = ["CacheStats", "ResultCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's lifetime."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (NaN before any lookup)."""
        total = self.hits + self.misses
        return float("nan") if total == 0 else self.hits / total


class ResultCache:
    """Bounded LRU mapping quantized query keys to per-query answers.

    A capacity of 0 disables the cache entirely (every lookup misses and
    nothing is stored), which is the engine's exact-by-default mode.
    """

    def __init__(self, capacity: int, quantum_db: float = 0.25) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if not (math.isfinite(quantum_db) and quantum_db > 0):
            raise ValueError("quantum_db must be positive and finite")
        self.capacity = int(capacity)
        self.quantum_db = float(quantum_db)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self.capacity > 0

    def keys(
        self,
        site: str,
        generation: int,
        matcher: str,
        measurements: np.ndarray,
    ) -> List[Tuple]:
        """Cache keys of a ``(B, M)`` batch, one per row: identity fields +
        the row's quantized vector.  The batch is quantized in one pass and
        each key slices its row out of the quantized array's bytes."""
        quantized = np.rint(
            np.asarray(measurements, dtype=float) / self.quantum_db
        ).astype(np.int64)
        data = quantized.tobytes()
        width = quantized.itemsize * quantized.shape[1]
        generation = int(generation)
        return [
            (site, generation, matcher, data[row * width : (row + 1) * width])
            for row in range(quantized.shape[0])
        ]

    def key(
        self,
        site: str,
        generation: int,
        matcher: str,
        measurement: np.ndarray,
    ) -> Tuple:
        """Cache key of one query: :meth:`keys` of a one-row batch."""
        return self.keys(site, generation, matcher, np.reshape(measurement, (1, -1)))[0]

    def get(self, key: Hashable) -> Optional[object]:
        """Look up a key, refreshing its LRU position on a hit (stored values
        are never ``None``, so ``None`` means a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail over capacity."""
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
