"""Tests for the memoised distance cache."""

import threading

import numpy as np
import pytest

from repro.clustering import FOSCOpticsDend
from repro.clustering.distances import pairwise_distances
from repro.constraints import sample_labeled_objects
from repro.core import CVCP
from repro.utils.cache import (
    MemoCache,
    array_fingerprint,
    cached_pairwise_distances,
    clear_distance_cache,
    distance_cache_stats,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_distance_cache()
    yield
    clear_distance_cache()


class TestArrayFingerprint:
    def test_copies_share_a_fingerprint(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        assert array_fingerprint(X) == array_fingerprint(X.copy())

    def test_content_changes_the_fingerprint(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        Y = X.copy()
        Y[0, 0] += 1.0
        assert array_fingerprint(X) != array_fingerprint(Y)

    def test_shape_distinguishes_reshapes(self):
        X = np.arange(12, dtype=np.float64)
        assert array_fingerprint(X.reshape(3, 4)) != array_fingerprint(X.reshape(4, 3))


class TestMemoCache:
    def test_hit_and_miss_accounting(self):
        cache = MemoCache(max_items=4)
        calls = []
        for key in ["a", "b", "a", "a", "b"]:
            cache.get_or_compute(key, lambda key=key: calls.append(key))
        stats = cache.stats()
        assert stats.misses == 2
        assert stats.hits == 3
        assert stats.requests == 5
        assert stats.hit_rate == pytest.approx(0.6)
        assert calls == ["a", "b"]

    def test_lru_eviction(self):
        cache = MemoCache(max_items=2)
        for key in ["a", "b", "c"]:
            cache.get_or_compute(key, lambda key=key: key.upper())
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2
        # "a" was evicted; asking again recomputes.
        cache.get_or_compute("a", lambda: "A")
        assert cache.stats().misses == 4

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            MemoCache(max_items=-1)
        with pytest.raises(ValueError):
            MemoCache(max_bytes=-1)

    def test_zero_items_disables_caching(self):
        cache = MemoCache(max_items=0)
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1))
        assert len(calls) == 3
        assert cache.stats().size == 0

    def test_byte_bound_evicts_oldest(self):
        cache = MemoCache(max_items=10, max_bytes=100)
        a = np.zeros(8)   # 64 bytes
        b = np.zeros(8)   # 64 bytes -> total 128 > 100, evict "a"
        cache.get_or_compute("a", lambda: a)
        cache.get_or_compute("b", lambda: b)
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 1
        assert stats.bytes == 64

    def test_byte_bound_keeps_a_single_oversized_entry(self):
        cache = MemoCache(max_items=10, max_bytes=10)
        big = np.zeros(100)
        assert cache.get_or_compute("big", lambda: big) is big
        assert cache.stats().size == 1

    def test_derived_entry_is_reused_refreshed_and_uncounted(self):
        cache = MemoCache(max_items=4)
        cache.get_or_compute("base", lambda: "matrix")
        calls = []

        def compute(width):
            calls.append(width)
            return np.zeros(width)

        for width in (3, 2, 5, 4):
            table = cache.get_or_compute_derived(
                "base", "table", lambda width=width: compute(max(width, 3)),
                lambda table, width=width: table.shape[0] >= width,
            )
            assert table.shape[0] >= width
        assert calls == [3, 5]  # widened once, reused otherwise
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.size, stats.bytes) == (1, 0, 2, 40)

    def test_derived_entry_is_evicted_before_its_base(self):
        cache = MemoCache(max_items=1)
        cache.get_or_compute("base", lambda: "matrix")
        cache.get_or_compute_derived("base", "table", lambda: "table", lambda _: True)
        assert cache.peek("base") == "matrix"
        assert cache.stats().size == 1

    def test_concurrent_access_computes_once(self):
        cache = MemoCache()
        computed = []

        def compute():
            computed.append(1)
            return "value"

        def worker():
            cache.get_or_compute("key", compute)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(computed) == 1
        assert cache.stats().hits == 7


class TestCachedPairwiseDistances:
    def test_matches_uncached_computation(self):
        X = np.random.default_rng(1).normal(size=(40, 3))
        for metric in ("euclidean", "manhattan", "cosine"):
            assert np.array_equal(
                cached_pairwise_distances(X, metric), pairwise_distances(X, metric=metric)
            )

    def test_copy_of_the_data_hits(self):
        X = np.random.default_rng(1).normal(size=(40, 3))
        first = cached_pairwise_distances(X)
        second = cached_pairwise_distances(X.copy())
        assert first is second
        stats = distance_cache_stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_returned_matrix_is_read_only(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        matrix = cached_pairwise_distances(X)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_metrics_are_cached_separately(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        cached_pairwise_distances(X, "euclidean")
        cached_pairwise_distances(X, "manhattan")
        assert distance_cache_stats().misses == 2


class TestCVCPGridCacheReuse:
    def test_grid_computes_the_matrix_once(self, blobs_dataset):
        """Every (value × fold) cell of a density sweep shares one matrix."""
        from repro.clustering.hierarchy import structure_cache_stats

        side = sample_labeled_objects(blobs_dataset.y, 0.20, random_state=3)
        search = CVCP(FOSCOpticsDend(), parameter_values=[3, 5, 8], n_folds=4,
                      random_state=0, refit=True)
        search.fit(blobs_dataset.X, labeled_objects=side)
        stats = distance_cache_stats()
        assert stats.misses == 1, "the O(n²) matrix should be computed exactly once"
        # The structure memo absorbs the fits: one grid build makes the
        # structure of every parameter value from a single read of the
        # shared distance matrix, then each value's 4 folds re-extract
        # through one lookup (3 hits) and the refit's warm-up and fit hit
        # once each.
        structure = structure_cache_stats()
        assert structure.misses == 3
        assert structure.hits == 5
        assert stats.hits == 0
