"""Small shared utilities (validation, RNG handling, disjoint sets, caches, lazy exports)."""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "CacheStats": ".cache",
        "MemoCache": ".cache",
        "array_fingerprint": ".cache",
        "cached_pairwise_distances": ".cache",
        "clear_distance_cache": ".cache",
        "distance_cache_stats": ".cache",
        "DisjointSet": ".disjoint_set",
        "check_random_state": ".rng",
        "check_array_2d": ".validation",
        "check_labels": ".validation",
        "check_fraction": ".validation",
        "check_positive_int": ".validation",
    },
)
