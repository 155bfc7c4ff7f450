"""Small shared utilities (validation, RNG handling, disjoint sets, caches)."""

from repro.utils.cache import (
    CacheStats,
    MemoCache,
    array_fingerprint,
    cached_pairwise_distances,
    clear_distance_cache,
    distance_cache_stats,
)
from repro.utils.disjoint_set import DisjointSet
from repro.utils.rng import check_random_state
from repro.utils.validation import (
    check_array_2d,
    check_labels,
    check_fraction,
    check_positive_int,
)

__all__ = [
    "CacheStats",
    "MemoCache",
    "array_fingerprint",
    "cached_pairwise_distances",
    "clear_distance_cache",
    "distance_cache_stats",
    "DisjointSet",
    "check_random_state",
    "check_array_2d",
    "check_labels",
    "check_fraction",
    "check_positive_int",
]
