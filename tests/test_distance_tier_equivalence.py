"""The distance tier function against the tier classes it replaced.

``tests/distance_backend_oracle.py`` is the class-based module
(``DistanceBackend`` and one subclass per tier) kept verbatim.  These tests
check that :func:`repro.core.distance_backend.tier_pairwise_distances`
returns the same bytes as the oracle's ``pairwise`` on both exact tiers, for
every metric and for CSR input, on one panel and on several; that both name
the same spill file and share finished spills; and that both reject the
``neighbors`` tier and unknown names with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.distance_backend as distance_backend
from repro.clustering.distances import DEFAULT_BLOCK_ROWS, pairwise_distances
from repro.core.distance_backend import (
    DISTANCE_BACKEND_ENV_VAR,
    EXACT_DISTANCE_BACKENDS,
    SPILL_DIR_ENV_VAR,
    spill_path,
    tier_pairwise_distances,
)

import distance_backend_oracle as oracle

#: One panel, and two panels with a ragged last one.
SIZES = (DEFAULT_BLOCK_ROWS // 4, DEFAULT_BLOCK_ROWS + 88)

#: ``(metric, input kind)``: dense rows for every metric, a symmetric matrix
#: for ``precomputed``, and CSR rows for the two sparse-capable metrics.
CASES = (
    ("euclidean", "dense"),
    ("sqeuclidean", "dense"),
    ("manhattan", "dense"),
    ("cosine", "dense"),
    ("precomputed", "dense"),
    ("euclidean", "csr"),
    ("cosine", "csr"),
)


def make_input(n: int, metric: str, kind: str):
    rng = np.random.default_rng(n)
    if kind == "csr":
        from scipy import sparse

        return sparse.random(n, 40, density=0.1, format="csr", random_state=rng) + sparse.eye(
            n, 40, format="csr"
        )
    X = rng.normal(size=(n, 6))
    if metric == "precomputed":
        # Panelled distances are not exactly symmetric past one panel, so
        # symmetrise to hand the tiers a valid distance matrix.
        D = pairwise_distances(X)
        return np.maximum(D, D.T)
    return X


def case_id(case) -> str:
    metric, kind = case
    return metric if kind == "dense" else f"{kind}-{metric}"


@pytest.fixture()
def spill_root(tmp_path, monkeypatch):
    """Point the spill directory at ``tmp_path / name`` for each call."""

    def use(name: str):
        monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(tmp_path / name))
        return tmp_path / name

    return use


@pytest.mark.parametrize("tier", EXACT_DISTANCE_BACKENDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_matrices_are_byte_equal(spill_root, tier, n, case):
    metric, kind = case
    X = make_input(n, metric, kind)
    # Separate spill directories: each side writes its own file.
    spill_root("oracle")
    expected = oracle.get_distance_backend(tier).pairwise(X, metric=metric)
    spill_root("function")
    observed = tier_pairwise_distances(X, metric, tier)
    assert type(observed) is type(expected)
    assert observed.dtype == expected.dtype and observed.shape == expected.shape == (n, n)
    assert np.asarray(observed).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_spill_paths_are_equal(spill_root, n, case):
    metric, kind = case
    X = make_input(n, metric, kind)
    spill_root("spill")
    assert spill_path(X, metric) == oracle.get_distance_backend("memmap").spill_path(X, metric)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_an_oracle_spill_is_mapped_without_a_fill(spill_root, monkeypatch, n, case):
    metric, kind = case
    X = make_input(n, metric, kind)
    spill_root("shared")
    written = oracle.get_distance_backend("memmap").pairwise(X, metric=metric)
    fills = []
    monkeypatch.setattr(distance_backend, "_fill_spill", lambda *args: fills.append(args))
    mapped = tier_pairwise_distances(X, metric, "memmap")
    assert fills == []
    assert np.asarray(mapped).tobytes() == np.asarray(written).tobytes()


def error_text(call) -> str:
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


def test_neighbors_rejection_has_the_same_text():
    X = np.zeros((4, 2))
    assert error_text(lambda: tier_pairwise_distances(X, "euclidean", "neighbors")) == error_text(
        lambda: oracle.get_distance_backend("neighbors").pairwise(X)
    )


def test_unknown_argument_has_the_same_text():
    X = np.zeros((4, 2))
    assert error_text(lambda: tier_pairwise_distances(X, "euclidean", "ram-disk")) == error_text(
        lambda: oracle.get_distance_backend("ram-disk").pairwise(X)
    )


def test_unknown_environment_value_has_the_same_text(monkeypatch):
    monkeypatch.setenv(DISTANCE_BACKEND_ENV_VAR, "ram-disk")
    X = np.zeros((4, 2))
    observed = error_text(lambda: tier_pairwise_distances(X, "euclidean", None))
    assert observed == error_text(lambda: oracle.get_distance_backend(None).pairwise(X))
    assert DISTANCE_BACKEND_ENV_VAR in observed
