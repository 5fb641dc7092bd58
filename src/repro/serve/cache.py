"""LRU mask cache for run-time reconfiguration, with a byte budget.

Serving traffic switches back to pattern sets it installed before far
more often than it meets new ones, and deriving every layer's pattern
mask is an ``einsum`` over all tiles.  This module caches
the derived masks keyed by ``(layer, pattern_set, owner)`` so a
reconfiguration swap back to a previously seen operating point costs a
dictionary lookup instead of a recomputation — the software analogue of
the paper's claim that a pattern switch moves only kilobytes.

Because the cache stands in for *device-resident memory*, it is bounded
by **bytes**, not entries: every stored mask is charged its real
footprint (the bit-packed mask plus its tile pattern ids) and the
least-recently-used masks are evicted until the total fits the budget.
A 1-bit-per-position packed mask therefore costs the cache 64x less than
the float mask it reconstructs, exactly the paper's storage-format
argument.

Cached masks assume the underlying weights are frozen (the deployment
regime after Level-1 training); call
:meth:`~repro.core.patterns.MaskManager.invalidate_cache` after any
weight update.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.core.patterns import PackedMask

MaskArtifact = Tuple[PackedMask, np.ndarray]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions, self.invalidations)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ArtifactCache:
    """Byte-budgeted LRU cache of ``(PackedMask, pattern_ids)`` masks.

    The masks are derived by :func:`repro.core.patterns.pattern_mask_for_matrix`
    and bit-packed by the :class:`~repro.core.patterns.MaskManager`.
    ``budget_bytes`` (default 8 MiB) is the slice of device memory the
    deployment reserves for resident reconfiguration artifacts; each mask
    is charged ``packed.nbytes + ids.nbytes``.  A budget of 0 disables
    caching (every lookup misses, nothing is stored), which lets callers
    keep one code path.  A mask larger than the whole budget is never
    stored — caching it would evict everything else for a single entry.
    A hit refreshes the mask's recency.
    """

    def __init__(self, budget_bytes: int = 8 << 20) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes cannot be negative")
        self.budget_bytes = budget_bytes
        self.stats = CacheStats()
        self.bytes_in_use = 0
        # key -> (artifact, accounted bytes), least recently used first
        self._entries: "OrderedDict[tuple, Tuple[MaskArtifact, int]]" = OrderedDict()

    def get_mask(self, layer: str, set_digest: str,
                 compute: Callable[[], MaskArtifact],
                 owner: str = "") -> MaskArtifact:
        """The cached mask of ``layer`` under a pattern set, or ``compute()``.

        ``owner`` isolates entries of distinct mask managers: masks are
        derived from weights, so managers over different models must
        never share entries even when layer names and set digests
        coincide.
        """
        key = (layer, set_digest, owner)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry[0]
        self.stats.misses += 1
        artifact = compute()
        packed, ids = artifact
        size = packed.nbytes + ids.nbytes
        if self.budget_bytes and size <= self.budget_bytes:
            self._entries[key] = (artifact, size)
            self.bytes_in_use += size
            while self.bytes_in_use > self.budget_bytes:
                _, (_, lru_size) = self._entries.popitem(last=False)
                self.bytes_in_use -= lru_size
                self.stats.evictions += 1
        return artifact

    def invalidate(self, owner: str) -> int:
        """Drop one mask manager's entries (its weights changed); returns
        how many were removed."""
        doomed = [k for k in self._entries if k[2] == owner]
        for key in doomed:
            self.bytes_in_use -= self._entries.pop(key)[1]
        self.stats.invalidations += len(doomed)
        return len(doomed)
