"""Process-safe memoised caches for expensive, recomputed intermediates.

The CVCP grid evaluates every candidate parameter value on every fold, and
each density-based task (FOSC-OPTICSDend, the density hierarchy, silhouette
evaluation) starts by computing the full O(n²) pairwise-distance
matrix of the *same* data matrix.  The matrix only depends on ``(X, metric)``,
so a small memo turns |values| × n_folds recomputations into one.

Design notes
------------
* **Keying.**  Arrays are keyed by a content fingerprint (shape, dtype and a
  BLAKE2 digest of the raw bytes), not by ``id()``: the executor may hand a
  pickled copy of ``X`` to every worker task, and copies must still hit.
* **Thread safety.**  A single re-entrant lock guards lookup *and* compute,
  so concurrent thread-backend tasks compute a missing matrix exactly once.
* **Process safety.**  The cache is plain per-process module state — worker
  processes each hold their own memo and never share mutable state, so there
  is nothing to corrupt across processes.  On fork-based platforms a cache
  warmed in the parent (see :meth:`repro.core.cvcp.CVCP.fit`) is inherited
  by the children for free.
* **Immutability.**  Cached matrices are returned with ``writeable=False``;
  callers that need to mutate must copy.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.validation import is_sparse

#: Default maximum number of distance matrices kept per process.
DEFAULT_MAX_ITEMS = 8

#: Width of a distance matrix's memoised core-distance table: it serves every
#: MinPts up to this (the paper's grid is 3..24); a larger one rebuilds it wider.
CORE_TABLE_WIDTH = 32


def array_fingerprint(array: np.ndarray) -> str:
    """Content fingerprint of an array: shape, dtype and a digest of the bytes.

    Contiguous arrays are hashed straight from their buffer; non-contiguous
    views are staged through small row blocks instead of one hidden
    full-size contiguous copy, so fingerprinting (and therefore every cache
    lookup) never doubles the input's memory footprint.  The digest is the
    C-order byte stream either way, so a view and its contiguous copy share
    a fingerprint.
    """
    if is_sparse(array):
        matrix = array.tocsr()
        digest = hashlib.blake2b(digest_size=16)
        for part in (matrix.data, matrix.indices, matrix.indptr):
            part = np.ascontiguousarray(part)
            digest.update(part.view(np.uint8).data)
        return f"csr:{matrix.shape}:{matrix.dtype.str}:{digest.hexdigest()}"
    array = np.asarray(array)
    digest = hashlib.blake2b(digest_size=16)
    if array.flags.c_contiguous:
        digest.update(array.view(np.uint8).data)
    else:
        row_bytes = max(int(array[0:1].nbytes), 1)
        block = max(1, (4 << 20) // row_bytes)  # ~4 MiB staging buffer
        for start in range(0, array.shape[0], block):
            digest.update(array[start:start + block].tobytes())
    return f"{array.shape}:{array.dtype.str}:{digest.hexdigest()}"


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache (per process)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


def _value_nbytes(value: object) -> int:
    return int(getattr(value, "nbytes", 0))


class MemoCache:
    """A bounded, thread-safe LRU memo with hit/miss accounting.

    Bounded by entry count (``max_items``) and, optionally, by the total
    ``nbytes`` of the cached values (``max_bytes``) — the bound that matters
    when the values are O(n²) matrices.  ``max_items=0`` disables caching
    entirely (every request computes and nothing is retained).
    """

    def __init__(
        self, max_items: int = DEFAULT_MAX_ITEMS, max_bytes: int | None = None
    ) -> None:
        if max_items < 0:
            raise ValueError(f"max_items must be >= 0, got {max_items}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_items = max_items
        self.max_bytes = max_bytes
        self._entries: OrderedDict[object, object] = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.RLock()
        self._stats = CacheStats()

    def _evict_over_bounds(self) -> None:
        def over() -> bool:
            if len(self._entries) > self.max_items:
                return True
            return (
                self.max_bytes is not None
                and self._total_bytes > self.max_bytes
                and len(self._entries) > 1  # keep at least the newest entry
            )

        while over():
            _, evicted = self._entries.popitem(last=False)
            self._total_bytes -= _value_nbytes(evicted)
            self._stats.evictions += 1

    def get_or_compute(self, key: object, compute: Callable[[], object]) -> object:
        """Return the cached value for ``key``, computing it on first use.

        The lock is held across the compute so concurrent threads asking for
        the same key run it exactly once.
        """
        return self.get_or_compute_many([key], lambda missing: [compute()])[0]

    def get_or_compute_many(self, keys: list, compute: Callable[[list], list]) -> list:
        """The values of distinct ``keys``; the missing ones come from one ``compute(missing)`` call.

        Counts a hit or a miss per key and holds the lock across the
        compute, so a key is computed once however many threads ask.
        """
        if self.max_items == 0:
            return compute(list(keys))
        with self._lock:
            values = {}
            for key in keys:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._stats.hits += 1
                    values[key] = self._entries[key]
            missing = [key for key in keys if key not in values]
            if missing:
                for key, value in zip(missing, compute(missing)):
                    self._stats.misses += 1
                    self._entries[key] = values[key] = value
                    self._total_bytes += _value_nbytes(value)
                self._evict_over_bounds()
                self._stats.size = len(self._entries)
            return [values[key] for key in keys]

    def get_or_compute_derived(
        self, base_key: object, tag: str, compute: Callable[[], object], usable: Callable[[object], bool]
    ) -> object:
        """A value derived from the entry ``base_key``, memoised under ``(base_key, tag)``.

        Recomputed when ``usable(value)`` fails.  Kept just below its base in
        LRU order (evicted first) and left out of the hit/miss statistics.
        """
        if self.max_items == 0:
            return compute()
        key = (base_key, tag)
        with self._lock:
            value = self._entries.get(key)
            if value is None or not usable(value):
                value = compute()
                self._total_bytes += _value_nbytes(value) - _value_nbytes(self._entries.pop(key, None))
                self._entries[key] = value
            self._entries.move_to_end(key)
            if base_key in self._entries:
                self._entries.move_to_end(base_key)
            self._evict_over_bounds()
            self._stats.size = len(self._entries)
            return value

    def peek(self, key: object) -> object | None:
        """Return the cached value for ``key`` without computing, or ``None``.

        A present key counts as a hit (and refreshes its LRU recency);
        absence is *not* counted as a miss — the caller decides whether to
        compute, so the eventual :meth:`get_or_compute` records it.
        """
        if self.max_items == 0:
            return None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return self._entries[key]
            return None

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0
            self._stats = CacheStats()

    def stats(self) -> CacheStats:
        """A snapshot of the current accounting."""
        with self._lock:
            return CacheStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                size=len(self._entries),
                bytes=self._total_bytes,
            )


#: The per-process pairwise-distance memo.
_distance_cache = MemoCache()


def cached_pairwise_distances(
    X: np.ndarray, metric: str = "euclidean", *, distance_backend: str | None = None
) -> np.ndarray:
    """Full ``(n, n)`` distance matrix for ``X``, memoised per process.

    Drop-in replacement for
    :func:`repro.clustering.distances.pairwise_distances`; the returned
    matrix is read-only because it is shared between callers.

    ``distance_backend`` selects the storage tier (see
    :mod:`repro.core.distance_backend`; ``None`` consults
    ``REPRO_DISTANCE_BACKEND``).  The resolved backend is part of the memo
    key, so every tier sees the same hit/miss pattern for the same request
    sequence; all tiers return bit-identical values.  The input is
    fingerprinted as-is — a cache hit never converts or copies ``X``.
    """
    return _cached_matrix(X, metric, distance_backend)[0]


def _cached_matrix(X: np.ndarray, metric: str, distance_backend: str | None) -> tuple[np.ndarray, tuple]:
    """The memoised distance matrix of ``X`` and its memo key."""
    from repro.core.distance_backend import resolve_distance_backend, tier_pairwise_distances

    backend = resolve_distance_backend(distance_backend)
    if not is_sparse(X):
        X = np.asarray(X)
    key = (array_fingerprint(X), metric, backend)

    def compute() -> np.ndarray:
        matrix = tier_pairwise_distances(X, metric, backend)
        matrix.setflags(write=False)
        return matrix

    return _distance_cache.get_or_compute(key, compute), key


def cached_core_table(
    X: np.ndarray, width: int, metric: str = "euclidean", *, distance_backend: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(distances, table)``: the memoised matrix and a core-distance table at least ``width`` wide.

    Column ``k - 1`` of the table holds the MinPts = k core distances.  The
    table is memoised under the matrix's key plus a tag: one partition per
    matrix, at ``CORE_TABLE_WIDTH`` or the widest MinPts asked for so far.
    A CVCP grid asks at its widest MinPts first, so it partitions once.
    """
    from repro.clustering.distances import core_distance_table

    distances, key = _cached_matrix(X, metric, distance_backend)
    n_samples = distances.shape[0]
    if not 1 <= width <= n_samples:
        raise ValueError(f"min_pts must be in [1, {n_samples}], got {width}")

    def compute() -> np.ndarray:
        table = core_distance_table(distances, min(n_samples, max(width, CORE_TABLE_WIDTH)))
        table.setflags(write=False)
        return table

    table = _distance_cache.get_or_compute_derived(
        key, "core-table", compute, lambda table: table.shape[1] >= width
    )
    return distances, table


def distance_cache_stats() -> CacheStats:
    """Hit/miss accounting of the per-process distance cache."""
    return _distance_cache.stats()


def clear_distance_cache() -> None:
    """Drop all memoised distance matrices and their core-distance tables.

    Also drops the neighbour-graph memo of the ``neighbors`` tier and the
    tree-structure memo built on top of the distances, so one call resets
    every per-process distance-derived cache.
    """
    _distance_cache.clear()
    # Imported lazily: both modules import this one at top level.  The
    # neighbour-graph memo can only be non-empty once its module has been
    # loaded, so an unloaded ``neighbors`` tier (and the scipy.sparse /
    # csgraph / spatial stack behind it) is never imported just to clear it.
    from repro.clustering.hierarchy import clear_structure_cache

    neighbor_graph = sys.modules.get("repro.core.neighbor_graph")
    if neighbor_graph is not None:
        neighbor_graph.clear_neighbor_graph_cache()
    clear_structure_cache()
