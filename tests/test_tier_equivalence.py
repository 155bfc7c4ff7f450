"""The one in-RAM exact tier against the whole-matrix ``dense`` tier it absorbed.

``tests/tier_oracle.py`` keeps the former ``dense`` path: core distances
by one full-matrix partition, mutual reachability by full-matrix
temporaries.  Every exact tier — ``blockwise`` and ``memmap`` — must
reproduce it bit for bit: core distances, the mutual-reachability matrix,
MST edges, merge records and every array of the condensed tree.  The inputs straddle the 512-row panel
width, include duplicate-heavy data (zero distances, tied distances) and
precomputed matrices with ``+inf`` entries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.distances import (
    DEFAULT_BLOCK_ROWS,
    k_nearest_distances,
    pairwise_distances,
)
from repro.clustering.hierarchy import build_tree_structure, mutual_reachability
from repro.clustering.kernels import condense_tree, minimum_spanning_tree, single_linkage_tree
from repro.core.distance_backend import tier_pairwise_distances
from repro.utils.cache import cached_pairwise_distances, clear_distance_cache

import tier_oracle as oracle

settings.register_profile("repro-tier-oracle", max_examples=20, deadline=None)
settings.load_profile("repro-tier-oracle")

#: Every exact tier.
TIERS = ("blockwise", "memmap")


@st.composite
def sizes(draw):
    """Below, at and just above the panel width, plus small sizes."""
    return draw(
        st.one_of(
            st.integers(2, 48),
            st.sampled_from(
                [DEFAULT_BLOCK_ROWS - 1, DEFAULT_BLOCK_ROWS, DEFAULT_BLOCK_ROWS + 1, 600]
            ),
        )
    )


@st.composite
def data_matrices(draw):
    """Gaussian data or duplicate-heavy data drawn from a small integer pool."""
    n_samples = draw(sizes())
    n_features = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.integers(-3, 4, size=(max(2, n_samples // 8), n_features))
        return pool[rng.integers(0, pool.shape[0], size=n_samples)].astype(np.float64)
    return rng.normal(scale=4.0, size=(n_samples, n_features))


def precomputed(X: np.ndarray) -> np.ndarray:
    """A valid precomputed matrix of ``X``.

    Past one panel the GEMM rounding differs between the two triangles, so
    the matrix is symmetrised (a precomputed matrix must be symmetric).
    """
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


def assert_structures_equal(X, min_pts, reference, *, tier, metric="euclidean") -> None:
    """The tier's structure phase and mutual reachability against the dense path."""
    fitted = build_tree_structure(X, min_pts, metric=metric, distance_backend=tier)
    stored = cached_pairwise_distances(X, metric, distance_backend=tier)
    np.testing.assert_array_equal(fitted.core_distances, reference.core_distances_)
    np.testing.assert_array_equal(
        np.asarray(mutual_reachability(stored, fitted.core_distances)), reference.mutual_reachability_
    )
    np.testing.assert_array_equal(fitted.mst_edges, reference.mst_edges_)
    np.testing.assert_array_equal(fitted.single_linkage_tree, reference.single_linkage_tree_)
    assert_condensed_equal(fitted.condensed_tree.arrays, reference.condensed_tree_.arrays)


def assert_condensed_equal(left, right) -> None:
    for field in dataclasses.fields(left):
        observed, expected = getattr(left, field.name), getattr(right, field.name)
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(observed, expected, err_msg=field.name)
        else:
            assert observed == expected, field.name


@pytest.mark.parametrize("tier", TIERS)
class TestStructurePhase:
    @given(data_matrices(), st.integers(1, 6))
    def test_every_exact_tier_reproduces_the_dense_path(self, tier, X, min_pts):
        min_pts = min(min_pts, X.shape[0])
        clear_distance_cache()
        assert_structures_equal(X, min_pts, oracle.DenseHierarchy(min_pts).fit(X), tier=tier)

    @given(data_matrices(), st.integers(1, 6))
    def test_precomputed_matrices_reproduce_the_dense_path(self, tier, X, min_pts):
        min_pts = min(min_pts, X.shape[0])
        matrix = precomputed(X)
        clear_distance_cache()
        reference = oracle.DenseHierarchy(min_pts, metric="precomputed").fit(matrix)
        assert_structures_equal(matrix, min_pts, reference, tier=tier, metric="precomputed")

    @given(precomputed_with_inf(), st.integers(1, 6), st.sampled_from([1, 7, 97, None]))
    def test_unreachable_pairs_reproduce_the_dense_passes(self, tier, matrix, min_pts, block):
        # The estimators reject non-finite input, so +inf matrices are
        # checked pass by pass: the tier's storage, then the panel passes
        # at several panel widths, then the kernels downstream.
        n_samples = matrix.shape[0]
        min_pts = min(min_pts, n_samples)
        clear_distance_cache()
        stored = tier_pairwise_distances(matrix, "precomputed", tier)
        widths = {} if block is None else {"block_rows": block}
        core = k_nearest_distances(stored, min_pts, **widths)
        mreach = mutual_reachability(stored, core)

        expected_core = oracle.k_nearest_distances(matrix, min_pts)
        expected_mreach = oracle.mutual_reachability(matrix, expected_core)
        np.testing.assert_array_equal(core, expected_core)
        np.testing.assert_array_equal(mreach, expected_mreach)

        # The structure phase's Prim applies mutual reachability row by row.
        edges = minimum_spanning_tree(stored, core)
        expected_edges = minimum_spanning_tree(expected_mreach)
        np.testing.assert_array_equal(edges, expected_edges)
        merges = single_linkage_tree(edges, n_samples)
        expected_merges = single_linkage_tree(expected_edges, n_samples)
        np.testing.assert_array_equal(merges, expected_merges)
        # A row left with no finite mutual reachability disconnects the
        # graph; Prim joins it through an inf edge, so the condensed stage
        # must succeed on both paths with the same arrays.
        min_cluster_size = max(2, min_pts)
        assert_condensed_equal(
            condense_tree(merges, n_samples, min_cluster_size),
            condense_tree(expected_merges, n_samples, min_cluster_size),
        )

