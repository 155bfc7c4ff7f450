"""The row-blocked silhouette against the per-object loop it replaced.

``silhouette_samples`` now reduces each row block against a C-contiguous
gather of every cluster's columns instead of looping over objects.
``tests/silhouette_oracle.py`` keeps the loop, and on finite input the
blocked widths must match it byte for byte, and ``silhouette_score`` to the
exact float: with noise, singleton clusters, a single cluster, duplicate
points, more rows than one block (clusters spanning blocks), the euclidean
and manhattan metrics, and on the ``blockwise``, ``memmap`` and
``precomputed`` paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.clustering.distances as distances_module
from repro.clustering.distances import DEFAULT_BLOCK_ROWS, pairwise_distances
from repro.core.distance_backend import EXACT_DISTANCE_BACKENDS
from repro.evaluation.internal import silhouette_samples, silhouette_score

from silhouette_oracle import oracle_silhouette_samples, oracle_silhouette_score

parity = settings(max_examples=60, deadline=None)


def precomputed(X: np.ndarray) -> np.ndarray:
    """A valid (symmetric) precomputed distance matrix of ``X``."""
    matrix = pairwise_distances(X)
    return np.maximum(matrix, matrix.T)


def assert_parity(X, labels, **kwargs) -> None:
    observed = silhouette_samples(X, labels, **kwargs)
    expected = oracle_silhouette_samples(X, labels, **kwargs)
    assert observed.dtype == expected.dtype
    assert observed.tobytes() == expected.tobytes()
    score = silhouette_score(X, labels, **kwargs)
    assert score.hex() == oracle_silhouette_score(X, labels, **kwargs).hex()


@st.composite
def labelled_data(draw, max_samples=64):
    """Gaussian or duplicate-heavy data with labels that may include noise.

    Scales span six orders of magnitude (finite sums throughout), and the
    duplicate-heavy draws put exact ties in every distance row.
    """
    n_samples = draw(st.integers(2, max_samples))
    n_features = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.integers(-3, 4, size=(max(2, n_samples // 6), n_features))
        X = pool[rng.integers(0, pool.shape[0], size=n_samples)].astype(np.float64)
    else:
        X = rng.normal(scale=10.0 ** draw(st.integers(-3, 3)), size=(n_samples, n_features))
    n_clusters = draw(st.integers(1, 8))
    lowest = -1 if draw(st.booleans()) else 0
    labels = rng.integers(lowest, n_clusters, size=n_samples)
    return X, labels


@parity
@given(labelled_data(), st.sampled_from(["euclidean", "manhattan"]))
def test_matches_oracle_on_random_input(case, metric):
    X, labels = case
    assert_parity(X, labels, metric=metric)


@parity
@given(labelled_data())
def test_matches_oracle_on_precomputed_input(case):
    X, labels = case
    assert_parity(precomputed(X), labels, metric="precomputed")


@pytest.mark.parametrize("tier", EXACT_DISTANCE_BACKENDS)
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize(
    "n_samples", [DEFAULT_BLOCK_ROWS - 1, DEFAULT_BLOCK_ROWS + 1, 2 * DEFAULT_BLOCK_ROWS + 75]
)
def test_matches_oracle_across_row_blocks(tier, metric, n_samples):
    rng = np.random.default_rng(n_samples)
    X = rng.normal(size=(n_samples, 3))
    labels = rng.integers(-1, 6, size=n_samples)
    labels[-1] = 6  # a singleton in the last block
    assert_parity(X, labels, metric=metric, distance_backend=tier)


def test_matches_oracle_on_precomputed_across_row_blocks():
    rng = np.random.default_rng(1)
    X = np.round(rng.normal(size=(DEFAULT_BLOCK_ROWS + 200, 2)), 1)
    labels = rng.integers(-1, 4, size=X.shape[0])
    matrix = precomputed(X)
    assert_parity(matrix, labels, metric="precomputed")
    assert_parity(np.asfortranarray(matrix), labels, metric="precomputed")


@pytest.mark.parametrize(
    "labels",
    [
        [0, 0, 0, 0, 0, 0],  # one cluster
        [-1, -1, -1, -1, -1, -1],  # only noise
        [0, 0, 0, 1, 1, 2],  # a singleton
        [0, 1, 2, 3, 4, 5],  # only singletons
        [0, -1, 0, 1, -1, 1],  # noise between clusters
        [-1, 0, 0, 0, 0, 0],  # one cluster plus noise
        [3, 3, 7, 7, 7, 3],  # sparse, non-contiguous cluster ids
    ],
)
def test_matches_oracle_on_edge_partitions(labels):
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [5.0, 5.0], [6.0, 5.0]])
    assert_parity(X, np.asarray(labels))


def test_matches_oracle_on_identical_points():
    X = np.ones((8, 3))
    assert_parity(X, np.array([0, 0, 0, 1, 1, 1, 2, 2]))


def test_score_validates_a_precomputed_matrix_once(monkeypatch):
    calls = []
    validate = distances_module.validate_precomputed_distances

    def counting(matrix, **kwargs):
        calls.append(1)
        return validate(matrix, **kwargs)

    monkeypatch.setattr(distances_module, "validate_precomputed_distances", counting)
    matrix = precomputed(np.random.default_rng(0).normal(size=(10, 2)))
    silhouette_score(matrix, np.repeat([0, 1], 5), metric="precomputed")
    assert len(calls) == 1
