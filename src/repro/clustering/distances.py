"""Distance computations shared by the clustering algorithms.

Distances are computed in fixed-width **row panels** (:data:`DEFAULT_BLOCK_ROWS`
rows per panel).  The panel partition — not the storage tier — defines the
canonical floating-point result: every exact distance backend (in-RAM
blockwise, out-of-core memmap; see
:mod:`repro.core.distance_backend`) performs the identical per-panel NumPy
operations and therefore produces **bit-identical** matrices by construction.
For ``n <= DEFAULT_BLOCK_ROWS`` (every paper-scale data set) a single panel
covers all rows and the operation sequence is exactly the historical
full-matrix formulation, so small-``n`` results are bit-compatible with
earlier releases; for larger ``n`` the BLAS cross-product runs per panel,
which can differ from a whole-matrix GEMM in the last ulp (see
``docs/determinism.md`` for this one-time break and its precedents).

Inputs are accepted as they come: C-contiguous ``float64`` matrices are used
in place (no hidden copy — regression-tested), non-contiguous views are
consumed without materialising a contiguous copy, and other dtypes are
converted to ``float64`` exactly once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import sparse

from repro.utils.validation import check_array_2d

#: Canonical row-panel width.  All distance backends compute pairwise
#: matrices in panels of this many rows, which is what makes the tiers
#: bit-identical: the BLAS cross-product is always invoked on the same
#: operand blocks regardless of how (or where) the output is stored.
DEFAULT_BLOCK_ROWS = 512


def _check_block_rows(block_rows: int) -> int:
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    return int(block_rows)


def _as_float64(array: np.ndarray) -> np.ndarray:
    """``float64`` view when possible, one explicit conversion otherwise."""
    array = np.asarray(array)
    if array.dtype == np.float64:
        return array
    return array.astype(np.float64)


def euclidean_distances(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    *,
    squared: bool = False,
    out: np.ndarray | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    panel_done: Callable[[int, int], None] | None = None,
) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of ``X`` and ``Y``.

    Parameters
    ----------
    X:
        ``(n, d)`` array.
    Y:
        ``(m, d)`` array; defaults to ``X``.
    squared:
        If true, return squared distances (saves the square root).
    out:
        Optional ``(n, m)`` float64 output to fill (an in-RAM array or a
        writable ``np.memmap``); allocated when omitted.
    block_rows:
        Row-panel width; defaults to :data:`DEFAULT_BLOCK_ROWS`.  The panel
        partition defines the canonical float result — pass the default to
        stay bit-compatible with every distance backend.
    panel_done:
        Optional callback invoked as ``panel_done(start, stop)`` after each
        panel is written to ``out`` (the memmap backend uses it to flush
        and drop dirty pages incrementally).

    Returns
    -------
    ndarray
        ``(n, m)`` distance matrix.
    """
    X = _as_float64(X)
    self_distances = Y is None or Y is X
    Y = X if self_distances else _as_float64(Y)
    block = _check_block_rows(block_rows)
    n, m = X.shape[0], Y.shape[0]
    if out is None:
        out = np.empty((n, m), dtype=np.float64)
    y_sq = np.einsum("ij,ij->i", Y, Y)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = X[start:stop]
        x_sq = y_sq[start:stop] if self_distances else np.einsum("ij,ij->i", rows, rows)
        cross = rows @ Y.T
        panel = x_sq[:, None] + y_sq[None, :] - 2.0 * cross
        # Numerical noise can push tiny distances slightly negative.
        np.maximum(panel, 0.0, out=panel)
        if self_distances:
            panel[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if not squared:
            np.sqrt(panel, out=panel)
        out[start:stop] = panel
        if panel_done is not None:
            panel_done(start, stop)
    return out


def _manhattan_panel(rows: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.abs(rows[:, None, :] - Y[None, :, :]).sum(axis=2)


def _sparse_squared_norms(X: "sparse.spmatrix") -> np.ndarray:
    return np.asarray(X.multiply(X).sum(axis=1), dtype=np.float64).ravel()


def _sparse_euclidean(
    X: "sparse.csr_matrix",
    out: np.ndarray,
    *,
    squared: bool,
    block: int,
    panel_done: Callable[[int, int], None] | None,
) -> np.ndarray:
    """Blocked Euclidean distances over CSR rows — sparse dots, no densify.

    The only dense temporaries are the ``(block, n)`` output panels; the
    ``(n, d)`` operand stays sparse throughout.
    """
    n = X.shape[0]
    sq = _sparse_squared_norms(X)
    for start in range(0, n, block):
        stop = min(start + block, n)
        cross = (X[start:stop] @ X.T).toarray()
        panel = sq[start:stop][:, None] + sq[None, :] - 2.0 * cross
        np.maximum(panel, 0.0, out=panel)
        panel[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if not squared:
            np.sqrt(panel, out=panel)
        out[start:stop] = panel
        if panel_done is not None:
            panel_done(start, stop)
    return out


def _sparse_cosine(
    X: "sparse.csr_matrix",
    out: np.ndarray,
    *,
    block: int,
    panel_done: Callable[[int, int], None] | None,
) -> np.ndarray:
    """Blocked cosine distances over CSR rows — normalise-then-dot, sparse."""
    n = X.shape[0]
    norms = np.sqrt(_sparse_squared_norms(X))
    norms = np.where(norms == 0.0, 1.0, norms)
    # Row scaling keeps the CSR structure: D^-1 @ X with a sparse diagonal.
    normalised = sparse.diags(1.0 / norms).dot(X).tocsr()
    for start in range(0, n, block):
        stop = min(start + block, n)
        similarity = np.clip(
            (normalised[start:stop] @ normalised.T).toarray(), -1.0, 1.0
        )
        panel = 1.0 - similarity
        panel[np.arange(stop - start), np.arange(start, stop)] = 0.0
        out[start:stop] = panel
        if panel_done is not None:
            panel_done(start, stop)
    return out


def precomputed_distance_problems(matrix: object, *, name: str = "X") -> list[str]:
    """Validation problems of a user-supplied precomputed distance matrix.

    Returns human-readable problem strings (empty list when valid) so the
    config/serve layers can surface every defect at once; the kernel entry
    point (:func:`pairwise_distances`) raises on the joined list instead.
    A diagonal holding the global *maximum* is flagged as a
    similarity-matrix orientation mistake with a pointer to
    :func:`similarity_to_distance`.
    """
    if sparse.issparse(matrix):
        return [
            f"{name} must be a dense distance matrix for metric='precomputed'; "
            "convert sparse similarities with similarity_to_distance() first"
        ]
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        return [f"{name} must be a square (n, n) matrix, got shape {array.shape}"]
    if array.shape[0] == 0:
        return [f"{name} must not be empty, got shape {array.shape}"]
    problems: list[str] = []
    if np.isnan(array).any():
        problems.append(f"{name} contains NaN entries")
        return problems
    if (array < 0.0).any():
        problems.append(f"{name} contains negative entries (distances must be >= 0)")
    if not np.array_equal(array, array.T):
        problems.append(f"{name} is not symmetric")
    diagonal = np.diagonal(array)
    if (diagonal != 0.0).any():
        finite = array[np.isfinite(array)]
        if finite.size and np.all(diagonal == finite.max()) and diagonal[0] > 0.0:
            problems.append(
                f"{name} looks like a *similarity* matrix (the diagonal holds the "
                "global maximum); convert it with similarity_to_distance() or set "
                "form = 'similarity'"
            )
        else:
            problems.append(f"{name} has a non-zero diagonal (self-distance must be 0)")
    return problems


def validate_precomputed_distances(matrix: object, *, name: str = "X") -> np.ndarray:
    """Validate and return a precomputed ``(n, n)`` float64 distance matrix."""
    problems = precomputed_distance_problems(matrix, name=name)
    if problems:
        raise ValueError("; ".join(problems))
    return np.asarray(matrix, dtype=np.float64)


def similarity_to_distance(similarity: np.ndarray) -> np.ndarray:
    """Convert a symmetric similarity matrix to a distance matrix.

    Uses ``D = max(S) - S`` (the standard affinity flip), then zeroes the
    diagonal so self-distance is exactly 0 regardless of per-row maxima.
    """
    S = np.asarray(similarity, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity must be a square (n, n) matrix, got shape {S.shape}")
    if np.isnan(S).any():
        raise ValueError("similarity contains NaN entries")
    if not np.array_equal(S, S.T):
        raise ValueError("similarity is not symmetric")
    distance = S.max() - S
    np.fill_diagonal(distance, 0.0)
    return distance


def pairwise_distances(
    X: np.ndarray,
    metric: str = "euclidean",
    *,
    out: np.ndarray | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    panel_done: Callable[[int, int], None] | None = None,
) -> np.ndarray:
    """Full ``(n, n)`` distance matrix for the rows of ``X``.

    Parameters
    ----------
    X:
        ``(n, d)`` data matrix — dense, or scipy CSR for the sparse metrics
        (:data:`SPARSE_METRICS`; the operand is never densified, only the
        ``(block, n)`` output panels are dense).  Dense input is accepted
        as-is: C-contiguous ``float64`` input is never copied,
        non-contiguous views are consumed without a hidden contiguous copy,
        and other dtypes (e.g. ``float32``) are upcast exactly once.  For
        ``metric="precomputed"`` ``X`` *is* the ``(n, n)`` distance matrix
        (validated, see :func:`validate_precomputed_distances`).
    metric:
        ``"euclidean"`` (default), ``"sqeuclidean"``, ``"manhattan"``,
        ``"cosine"`` or ``"precomputed"``.
    out:
        Optional ``(n, n)`` float64 output to fill (RAM or ``np.memmap``).
    block_rows:
        Row-panel width (see :data:`DEFAULT_BLOCK_ROWS`); panelling also
        bounds the per-metric temporaries — notably Manhattan's former
        ``(n, n, d)`` broadcast intermediate is now ``(block, n, d)``.
    panel_done:
        Optional per-panel callback ``panel_done(start, stop)`` (see
        :func:`euclidean_distances`).
    """
    block = _check_block_rows(block_rows)
    if metric == "precomputed":
        # Validated directly (not via check_array_2d): a precomputed matrix
        # may legitimately contain +inf for unreachable pairs.
        matrix = validate_precomputed_distances(X)
        n = matrix.shape[0]
        if out is None:
            return matrix
        if out.shape != (n, n):
            raise ValueError(f"out must have shape {(n, n)}, got {out.shape}")
        # Panel-copy so out-of-core consumers (memmap spill fill) see the
        # same incremental panel_done stream as the computed metrics.
        for start in range(0, n, block):
            stop = min(start + block, n)
            out[start:stop] = matrix[start:stop]
            if panel_done is not None:
                panel_done(start, stop)
        return out
    is_sparse = sparse.issparse(X)
    if is_sparse and metric not in ("euclidean", "sqeuclidean", "cosine"):
        raise ValueError(
            f"sparse input supports metric 'euclidean', 'sqeuclidean' or "
            f"'cosine', got {metric!r}"
        )
    X = check_array_2d(X)
    n = X.shape[0]
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    elif out.shape != (n, n):
        raise ValueError(f"out must have shape {(n, n)}, got {out.shape}")

    if metric in ("euclidean", "sqeuclidean"):
        if is_sparse:
            return _sparse_euclidean(
                X, out, squared=metric == "sqeuclidean", block=block,
                panel_done=panel_done,
            )
        return euclidean_distances(
            X, squared=metric == "sqeuclidean", out=out, block_rows=block,
            panel_done=panel_done,
        )
    if metric == "cosine" and is_sparse:
        return _sparse_cosine(X, out, block=block, panel_done=panel_done)
    if metric == "manhattan":
        for start in range(0, n, block):
            stop = min(start + block, n)
            out[start:stop] = _manhattan_panel(X[start:stop], X)
            if panel_done is not None:
                panel_done(start, stop)
        return out
    if metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        norms = np.where(norms == 0.0, 1.0, norms)
        normalised = X / norms[:, None]
        for start in range(0, n, block):
            stop = min(start + block, n)
            similarity = np.clip(normalised[start:stop] @ normalised.T, -1.0, 1.0)
            panel = 1.0 - similarity
            panel[np.arange(stop - start), np.arange(start, stop)] = 0.0
            out[start:stop] = panel
            if panel_done is not None:
                panel_done(start, stop)
        return out
    raise ValueError(f"unknown metric {metric!r}")

#: Metrics accepted by :func:`pairwise_distances`.
PAIRWISE_METRICS = ("euclidean", "sqeuclidean", "manhattan", "cosine", "precomputed")

#: Metrics accepted by the scipy CSR fast path (sparse dots, no densify).
SPARSE_METRICS = ("euclidean", "sqeuclidean", "cosine")

#: Metrics a ``[dataset]`` config table may select (the experiment surface;
#: ``sqeuclidean``/``manhattan`` stay kernel-internal).
DATASET_METRICS = ("euclidean", "cosine", "precomputed")


def diagonal_mahalanobis_distances(
    X: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    *,
    squared: bool = True,
) -> np.ndarray:
    """Distances of every point to every center under per-center diagonal metrics.

    MPCK-Means learns one diagonal metric ``A_h = diag(weights[h])`` per
    cluster ``h``; the (squared) distance of point ``x`` to center ``m_h``
    is ``(x - m_h)^T A_h (x - m_h)``.

    Parameters
    ----------
    X:
        ``(n, d)`` data matrix.
    centers:
        ``(k, d)`` cluster centers.
    weights:
        ``(k, d)`` positive diagonal metric weights, one row per cluster.
    squared:
        Return squared distances (default, as used in the MPCK objective).

    Returns
    -------
    ndarray
        ``(n, k)`` distance matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if centers.shape != weights.shape:
        raise ValueError(
            f"centers and weights must have the same shape, got {centers.shape} and {weights.shape}"
        )
    # Batched over all centers at once: one (n, k, d) broadcast difference
    # contracted in a single einsum instead of a Python loop over clusters.
    diff = X[:, None, :] - centers[None, :, :]
    distances = np.einsum("nkd,kd,nkd->nk", diff, weights, diff)
    np.maximum(distances, 0.0, out=distances)
    if squared:
        return distances
    return np.sqrt(distances, out=distances)


def weighted_squared_distance(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Squared distance between two vectors under a diagonal metric."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.dot(diff * np.asarray(weights, dtype=np.float64), diff))


def k_nearest_distances(
    distance_matrix: np.ndarray, k: int, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """Distance to the ``k``-th nearest neighbour for every object.

    The object itself is counted as its own 1st neighbour (distance 0), so
    ``k_nearest_distances(D, min_pts)`` yields exactly the OPTICS/HDBSCAN
    core distance for ``MinPts = k``.

    Parameters
    ----------
    distance_matrix:
        ``(n, n)`` distance matrix (an in-RAM array or a read-only
        ``np.memmap``).
    k:
        Neighbour rank, ``1 <= k <= n``.
    block_rows:
        Row-panel width (default :data:`DEFAULT_BLOCK_ROWS`).  The row-wise
        partition runs panel by panel, so the peak temporary is
        ``(block_rows, n)`` instead of a full-matrix copy; the selection is
        independent per row, so every width gives the same bits.
    """
    # Plain asarray: zero-copy for any ndarray/memmap, converts array-likes.
    distance_matrix = np.asarray(distance_matrix)
    n = distance_matrix.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    block = _check_block_rows(block_rows)
    core = np.empty(n, dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.asarray(distance_matrix[start:stop], dtype=np.float64)
        core[start:stop] = np.partition(rows, k - 1, axis=1)[:, k - 1]
    return core
