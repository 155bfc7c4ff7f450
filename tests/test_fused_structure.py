"""The fused structure phase against the materialised one it replaced.

The structure phase (``build_tree_structure``) never builds an ``(n, n)``
mutual-reachability matrix: the core distances of every MinPts are columns of one memoised
core-distance table per distance matrix, and Prim applies
``max(D[c], core[c], core)`` row by row.  ``tests/tier_oracle.py`` keeps the
whole-matrix path (one full-matrix partition per MinPts, the materialised
mutual-reachability matrix handed to Prim), and every fused fit must
reproduce it bit for bit: core distances, MST edges, merge records and
every array of the condensed tree — on both exact tiers, for every metric,
for duplicate-heavy inputs, for precomputed matrices with unreachable
``+inf`` pairs, at ``min_pts == n`` and for MinPts sequences fitted in any
order (table reuse, and widening past the default table width).
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.clustering.distances as distances_module
from repro.clustering.distances import (
    DEFAULT_BLOCK_ROWS,
    core_distance_table,
    k_nearest_distances,
    pairwise_distances,
)
from repro.clustering.fosc import FOSCOpticsDend
import repro.clustering.hierarchy as hierarchy_module
from repro.clustering.hierarchy import build_tree_structure, mutual_reachability
from repro.clustering.kernels import condense_tree, minimum_spanning_tree, single_linkage_tree
from repro.constraints import sample_labeled_objects
from repro.core import CVCP
from repro.core.distance_backend import EXACT_DISTANCE_BACKENDS
from repro.datasets import make_blobs
from repro.utils.cache import (
    CORE_TABLE_WIDTH,
    cached_core_table,
    cached_pairwise_distances,
    clear_distance_cache,
    distance_cache_stats,
)

import tier_oracle as oracle

METRICS = ("euclidean", "manhattan", "cosine", "precomputed")

parity = settings(max_examples=15, deadline=None)


@st.composite
def data_matrices(draw, min_samples=2, max_samples=48):
    """Gaussian data or duplicate-heavy data drawn from a small integer pool.

    Now and then the size straddles the 512-row panel width, so the core
    table is built from more than one panel.
    """
    n_samples = draw(
        st.one_of(
            st.integers(min_samples, max_samples),
            st.sampled_from([DEFAULT_BLOCK_ROWS - 1, DEFAULT_BLOCK_ROWS + 1]),
        )
    )
    n_features = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.integers(-3, 4, size=(max(2, n_samples // 8), n_features))
        return pool[rng.integers(0, pool.shape[0], size=n_samples)].astype(np.float64)
    return rng.normal(scale=4.0, size=(n_samples, n_features))


def precomputed(X: np.ndarray) -> np.ndarray:
    """A valid (symmetric) precomputed distance matrix of ``X``."""
    matrix = pairwise_distances(X)
    return np.maximum(matrix, matrix.T)


@st.composite
def precomputed_with_inf(draw):
    """A valid precomputed distance matrix with some pairs at ``+inf``."""
    matrix = precomputed(draw(data_matrices()))
    n_samples = matrix.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_unreachable = draw(st.integers(1, max(1, n_samples)))
    rows = rng.integers(0, n_samples, size=n_unreachable)
    cols = rng.integers(0, n_samples, size=n_unreachable)
    off_diagonal = rows != cols
    matrix[rows[off_diagonal], cols[off_diagonal]] = np.inf
    matrix[cols[off_diagonal], rows[off_diagonal]] = np.inf
    return matrix


def fit_input(X: np.ndarray, metric: str) -> np.ndarray:
    return precomputed(X) if metric == "precomputed" else X


def assert_condensed_equal(left, right) -> None:
    for field in dataclasses.fields(left):
        observed, expected = getattr(left, field.name), getattr(right, field.name)
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(observed, expected, err_msg=field.name)
        else:
            assert observed == expected, field.name


def assert_matches_oracle(fitted, reference) -> None:
    np.testing.assert_array_equal(fitted.core_distances, reference.core_distances_)
    np.testing.assert_array_equal(fitted.mst_edges, reference.mst_edges_)
    np.testing.assert_array_equal(fitted.single_linkage_tree, reference.single_linkage_tree_)
    assert_condensed_equal(fitted.condensed_tree.arrays, reference.condensed_tree_.arrays)


@pytest.mark.parametrize("tier", EXACT_DISTANCE_BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
class TestFusedFit:
    @parity
    @given(data_matrices(), st.integers(1, 8))
    def test_fit_reproduces_the_materialised_path(self, tier, metric, X, min_pts):
        min_pts = min(min_pts, X.shape[0])
        data = fit_input(X, metric)
        clear_distance_cache()
        fitted = build_tree_structure(data, min_pts, metric=metric, distance_backend=tier)
        reference = oracle.DenseHierarchy(min_pts, metric=metric).fit(data)
        assert_matches_oracle(fitted, reference)
        # Mutual reachability over the tier's matrix is the oracle's materialised one.
        stored = cached_pairwise_distances(data, metric, distance_backend=tier)
        np.testing.assert_array_equal(
            mutual_reachability(stored, fitted.core_distances), reference.mutual_reachability_
        )

    @parity
    @given(data_matrices(max_samples=12))
    def test_min_pts_equal_to_n(self, tier, metric, X):
        n_samples = X.shape[0]
        data = fit_input(X, metric)
        clear_distance_cache()
        fitted = build_tree_structure(data, n_samples, metric=metric, distance_backend=tier)
        reference = oracle.DenseHierarchy(n_samples, metric=metric).fit(data)
        assert_matches_oracle(fitted, reference)


@st.composite
def min_pts_sequences(draw):
    """Data with ``n >= 33`` and a MinPts sequence in some order, past 32 too."""
    X = draw(data_matrices(min_samples=CORE_TABLE_WIDTH + 1, max_samples=70))
    n_samples = X.shape[0]
    values = draw(
        st.lists(
            st.one_of(st.integers(1, CORE_TABLE_WIDTH), st.integers(1, min(n_samples, 80))),
            min_size=2, max_size=6, unique=True,
        )
    )
    order = draw(st.sampled_from(["ascending", "descending", "random"]))
    if order == "random":
        values = draw(st.permutations(values))
    else:
        values = sorted(values, reverse=order == "descending")
    return X, list(values)


@pytest.mark.parametrize("tier", EXACT_DISTANCE_BACKENDS)
class TestMinPtsSequences:
    @parity
    @given(min_pts_sequences())
    def test_every_order_reproduces_the_materialised_path(self, tier, case):
        X, sequence = case
        clear_distance_cache()
        for min_pts in sequence:
            fitted = build_tree_structure(X, min_pts, distance_backend=tier)
            assert_matches_oracle(fitted, oracle.DenseHierarchy(min_pts).fit(X))


@parity
@given(precomputed_with_inf(), st.integers(1, 6), st.sampled_from(EXACT_DISTANCE_BACKENDS))
def test_unreachable_pairs_reproduce_the_materialised_passes(matrix, min_pts, tier):
    # The estimators reject non-finite input, so +inf matrices go through
    # the fit's passes one by one: the memoised core distances, the fused
    # Prim, then the kernels downstream.
    n_samples = matrix.shape[0]
    min_pts = min(min_pts, n_samples)
    clear_distance_cache()
    stored, table = cached_core_table(matrix, min_pts, "precomputed", distance_backend=tier)
    core = table[:, min_pts - 1]
    expected_core = oracle.k_nearest_distances(matrix, min_pts)
    np.testing.assert_array_equal(core, expected_core)

    edges = minimum_spanning_tree(stored, core)
    expected_edges = minimum_spanning_tree(oracle.mutual_reachability(matrix, expected_core))
    np.testing.assert_array_equal(edges, expected_edges)
    merges = single_linkage_tree(edges, n_samples)
    np.testing.assert_array_equal(merges, single_linkage_tree(expected_edges, n_samples))
    min_cluster_size = max(2, min_pts)
    assert_condensed_equal(
        condense_tree(merges, n_samples, min_cluster_size),
        condense_tree(single_linkage_tree(expected_edges, n_samples), n_samples, min_cluster_size),
    )


class TestFusedPrimKernel:
    @parity
    @given(data_matrices(), st.integers(1, 6))
    def test_fused_rows_equal_the_materialised_matrix(self, X, min_pts):
        distances = pairwise_distances(X)
        core = k_nearest_distances(distances, min(min_pts, X.shape[0]))
        np.testing.assert_array_equal(
            minimum_spanning_tree(distances, core),
            minimum_spanning_tree(mutual_reachability(distances, core)),
        )

    def test_disconnected_graph_joins_through_inf_edges(self):
        inf = np.inf
        distances = np.array([[0.0, inf, 2.0], [inf, 0.0, inf], [2.0, inf, 0.0]])
        core = np.array([0.0, 0.0, 0.0])
        fused = minimum_spanning_tree(distances, core)
        np.testing.assert_array_equal(
            fused, minimum_spanning_tree(mutual_reachability(distances, core))
        )
        np.testing.assert_array_equal(fused, np.array([[0.0, 2.0, 2.0], [0.0, 1.0, inf]]))


class TestCoreDistanceTable:
    @parity
    @given(data_matrices(), st.integers(1, 40))
    def test_columns_are_the_whole_matrix_order_statistics(self, X, width):
        distances = pairwise_distances(X)
        width = min(width, X.shape[0])
        table = core_distance_table(distances, width)
        for k in range(1, width + 1):
            np.testing.assert_array_equal(table[:, k - 1], oracle.k_nearest_distances(distances, k))
            np.testing.assert_array_equal(table[:, k - 1], k_nearest_distances(distances, k))

    def test_one_partition_per_matrix_for_the_paper_grid(self, monkeypatch):
        builds = []

        def counting(distance_matrix, width, **kwargs):
            builds.append(width)
            return core_distance_table(distance_matrix, width, **kwargs)

        monkeypatch.setattr(distances_module, "core_distance_table", counting)
        X = np.random.default_rng(3).normal(size=(100, 2))
        clear_distance_cache()
        for min_pts in (3, 6, 9, 12, 15, 18, 21, 24):
            build_tree_structure(X, min_pts)
            FOSCOpticsDend(min_pts=min_pts).fit(X)
        assert builds == [CORE_TABLE_WIDTH]
        # A larger MinPts widens the table once; narrower ones reuse it.
        for min_pts in (40, 35, 3):
            build_tree_structure(X, min_pts)
        assert builds == [CORE_TABLE_WIDTH, 40]

    def test_one_partition_for_a_grid_past_the_table_width(self, monkeypatch):
        builds = []

        def counting(distance_matrix, width, **kwargs):
            builds.append(width)
            return core_distance_table(distance_matrix, width, **kwargs)

        monkeypatch.setattr(distances_module, "core_distance_table", counting)
        data = make_blobs([34, 33, 33], 2, center_spread=6.0, random_state=3)
        side = sample_labeled_objects(data.y, 0.2, random_state=4)
        clear_distance_cache()
        # The grid reads the table at its widest MinPts first, so the
        # values past 32 never widen it one by one.
        CVCP(FOSCOpticsDend(), range(3, 41), n_folds=2, random_state=0).fit(
            data.X, labeled_objects=side
        )
        assert builds == [40]

    def test_the_structure_phase_reads_the_shared_table(self):
        X = np.random.default_rng(4).normal(size=(60, 3))
        clear_distance_cache()
        distances = pairwise_distances(X)
        for min_pts in (24, 3, 12):
            fitted = build_tree_structure(X, min_pts)
            np.testing.assert_array_equal(
                fitted.core_distances, k_nearest_distances(distances, min_pts)
            )


class TestMemoLifetime:
    def test_clear_drops_the_matrix_and_its_core_table(self):
        X = np.random.default_rng(5).normal(size=(80, 2))
        clear_distance_cache()
        build_tree_structure(X, 5)
        matrix = cached_pairwise_distances(X)
        assert distance_cache_stats().size == 2  # the matrix and its core table
        reference = weakref.ref(matrix)
        del matrix
        clear_distance_cache()
        gc.collect()
        assert reference() is None
        assert distance_cache_stats().size == 0

    def test_fitted_core_distances_do_not_alias_the_table(self):
        X = np.random.default_rng(6).normal(size=(40, 2))
        clear_distance_cache()
        core = build_tree_structure(X, 4).core_distances
        _, table = cached_core_table(X, 4)
        assert not np.shares_memory(core, table) and core.flags.writeable

    def test_structure_build_never_materialises_mutual_reachability(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the structure phase materialised mutual reachability")

        monkeypatch.setattr(hierarchy_module, "mutual_reachability", forbidden)
        X = np.random.default_rng(7).normal(size=(50, 2))
        clear_distance_cache()
        for tier in EXACT_DISTANCE_BACKENDS:
            build_tree_structure(X, 4, distance_backend=tier)
