"""In-place distance panels against the panel code they replaced.

``repro.clustering.distances`` now computes every canonical row panel
straight into ``out`` (GEMM or sparse Gram panel into the slice, then the
elementwise steps in place, row chunk by row chunk).
``tests/distance_oracle.py`` keeps the code that built each panel as fresh
temporaries, and the new code must match it byte for byte (``tobytes()``,
so ``-0.0`` and ``0.0`` differ): at sizes on both sides of the 512-row
panel, for every metric, for float32 and non-contiguous inputs, for
``Y != X`` (kmeans++'s one-center shape included), for CSR input, into
C-ordered, F-ordered, strided and memmap outputs with the same
``panel_done`` stream, and for ``core_distance_table`` over in-RAM and
memmap matrices.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.clustering.distances import (
    core_distance_table,
    euclidean_distances,
    pairwise_distances,
)

from distance_oracle import (
    oracle_core_distance_table,
    oracle_euclidean_distances,
    oracle_pairwise_distances,
)

SIZES = (1, 2, 511, 512, 513, 1025)
METRICS = ("euclidean", "sqeuclidean", "manhattan", "cosine")
SPARSE = ("euclidean", "sqeuclidean", "cosine")


def points(n: int, d: int = 6, seed: int = 0) -> np.ndarray:
    """Gaussian points with exact duplicates (distance-0 pairs off the diagonal)."""
    X = np.random.default_rng(seed + n).normal(size=(n, d))
    X[1::7] = X[0]
    return X


def layouts(X: np.ndarray) -> dict[str, np.ndarray]:
    """``X`` as C float64, float32, F-ordered and a strided view of equal content."""
    wide = np.repeat(X, 2, axis=1)
    return {
        "c": X,
        "float32": X.astype(np.float32),
        "fortran": np.asfortranarray(X),
        "strided": wide[:, ::2],
    }


def assert_same_bytes(observed: np.ndarray, expected: np.ndarray) -> None:
    assert observed.dtype == expected.dtype == np.float64
    assert observed.shape == expected.shape
    assert observed.tobytes() == expected.tobytes()


def out_array(layout: str, n: int, tmp_path) -> np.ndarray:
    if layout == "c":
        return np.empty((n, n))
    if layout == "fortran":
        return np.empty((n, n), order="F")
    if layout == "strided":
        return np.empty((2 * n, 2 * n))[::2, 1::2]
    return np.memmap(tmp_path / "out.bin", dtype=np.float64, mode="w+", shape=(n, n))


class TestDensePanels:
    @pytest.mark.parametrize("layout", ["c", "float32", "fortran", "strided"])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("n", SIZES)
    def test_every_input_layout_matches_oracle(self, n, metric, layout):
        X = layouts(points(n))[layout]
        assert_same_bytes(
            pairwise_distances(X, metric=metric), oracle_pairwise_distances(X, metric=metric)
        )

    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("n", SIZES)
    def test_other_operand_matches_oracle(self, n, squared):
        X = points(n)
        for m in (1, 3, n // 3 + 1, 600):
            Y = points(m, seed=1)
            assert_same_bytes(
                euclidean_distances(X, Y, squared=squared),
                oracle_euclidean_distances(X, Y, squared=squared),
            )
        # Equal content but another object: the non-self path, no zeroed diagonal.
        copy = X.copy()
        assert_same_bytes(
            euclidean_distances(X, copy, squared=squared),
            oracle_euclidean_distances(X, copy, squared=squared),
        )

    def test_kmeans_plus_plus_shape_matches_oracle(self):
        """One (1, d) center against every point, as k-means++ seeding asks."""
        X = points(1025)
        for index in (0, 7, 1024):
            center = X[index:index + 1]
            assert_same_bytes(
                euclidean_distances(X, center, squared=True),
                oracle_euclidean_distances(X, center, squared=True),
            )


class TestSparsePanels:
    @pytest.mark.parametrize("metric", SPARSE)
    @pytest.mark.parametrize("n", SIZES)
    def test_csr_matches_oracle(self, n, metric):
        X = sparse.random(n, 40, density=0.15, random_state=n, format="csr")
        X = X.tolil()
        X[1::5] = 0.0  # empty rows: zero norms in the cosine path
        X = X.tocsr()
        assert_same_bytes(
            pairwise_distances(X, metric=metric), oracle_pairwise_distances(X, metric=metric)
        )


class TestOutputs:
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "memmap"])
    @pytest.mark.parametrize("metric", METRICS + ("precomputed",))
    def test_every_out_layout_matches_oracle(self, layout, metric, tmp_path):
        n = 1025
        X = points(n)
        if metric == "precomputed":
            X = oracle_pairwise_distances(X)
            X = np.maximum(X, X.T)
        expected_calls: list[tuple[int, int]] = []
        expected = oracle_pairwise_distances(
            X, metric=metric, out=np.empty((n, n)),
            panel_done=lambda a, b: expected_calls.append((a, b)),
        )
        out = out_array(layout, n, tmp_path)
        calls: list[tuple[int, int]] = []
        result = pairwise_distances(
            X, metric=metric, out=out, panel_done=lambda a, b: calls.append((a, b))
        )
        assert result is out
        assert calls == expected_calls == [(0, 512), (512, 1024), (1024, 1025)]
        assert_same_bytes(np.array(result), expected)

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "memmap"])
    def test_sparse_into_every_out_layout(self, layout, tmp_path):
        n = 600
        X = sparse.random(n, 30, density=0.2, random_state=3, format="csr")
        for metric in SPARSE:
            expected_calls: list[tuple[int, int]] = []
            expected = oracle_pairwise_distances(
                X, metric=metric, panel_done=lambda a, b: expected_calls.append((a, b))
            )
            calls: list[tuple[int, int]] = []
            out = out_array(layout, n, tmp_path)
            pairwise_distances(X, metric=metric, out=out, panel_done=lambda a, b: calls.append((a, b)))
            assert calls == expected_calls
            assert_same_bytes(np.array(out), expected)

    def test_panel_done_sees_the_panel_already_written(self, tmp_path):
        """Each callback fires after its rows are final, also through the copy buffer."""
        n = 700
        X = points(n)
        expected = oracle_pairwise_distances(X)
        for layout in ("c", "fortran", "memmap"):
            out = out_array(layout, n, tmp_path)

            def check(start, stop, out=out):
                assert np.array(out[start:stop]).tobytes() == expected[start:stop].tobytes()

            pairwise_distances(X, out=out, panel_done=check)

    def test_euclidean_other_operand_into_fortran_out(self):
        X, Y = points(600), points(40, seed=2)
        out = np.empty((600, 40), order="F")
        euclidean_distances(X, Y, out=out)
        assert_same_bytes(np.array(out), oracle_euclidean_distances(X, Y))


class TestCoreDistanceTable:
    @pytest.mark.parametrize("n", SIZES)
    def test_in_ram_and_memmap_match_oracle(self, n, tmp_path):
        D = oracle_pairwise_distances(points(n))
        spilled = np.memmap(tmp_path / "d.bin", dtype=np.float64, mode="w+", shape=D.shape)
        spilled[:] = D
        spilled.flush()
        readonly = np.memmap(tmp_path / "d.bin", dtype=np.float64, mode="r", shape=D.shape)
        for width in sorted({min(width, n) for width in (1, 3, 32, n)}):
            expected = oracle_core_distance_table(D, width)
            assert_same_bytes(core_distance_table(D, width), expected)
            assert_same_bytes(core_distance_table(readonly, width), expected)
            assert_same_bytes(core_distance_table(D, width, block_rows=50), expected)
