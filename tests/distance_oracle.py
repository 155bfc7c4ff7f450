"""Per-panel distance code kept as a test oracle.

This module preserves the panel code of :mod:`repro.clustering.distances`
as it was before panels were written in place: each 512-row panel built
``rows @ Y.T``, ``x_sq + y_sq``, ``2.0 * cross`` and their difference as
fresh ``(block, m)`` arrays and then copied the result into ``out``;
Manhattan broadcast a whole ``(block, m, d)`` difference; the sparse paths
densified each Gram panel with ``toarray()``; ``core_distance_table``
partitioned a copy of each whole 512-row panel.  The library must
reproduce its results byte for byte.  Only this docstring, the imports and
the ``oracle_`` prefix of the public names were changed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.clustering.distances import DEFAULT_BLOCK_ROWS, validate_precomputed_distances
from repro.utils.validation import check_array_2d, is_sparse

if TYPE_CHECKING:
    from scipy import sparse


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


def oracle_euclidean_distances(
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
    from scipy import sparse

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


def oracle_pairwise_distances(
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
    sparse_input = is_sparse(X)
    if sparse_input and metric not in ("euclidean", "sqeuclidean", "cosine"):
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
        if sparse_input:
            return _sparse_euclidean(
                X, out, squared=metric == "sqeuclidean", block=block,
                panel_done=panel_done,
            )
        return oracle_euclidean_distances(
            X, squared=metric == "sqeuclidean", out=out, block_rows=block,
            panel_done=panel_done,
        )
    if metric == "cosine" and sparse_input:
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



def oracle_core_distance_table(
    distance_matrix: np.ndarray, width: int, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """The ``width`` smallest distances of every row, sorted ascending.

    The object itself counts as its own 1st neighbour (distance 0), so
    column ``k - 1`` is the OPTICS/HDBSCAN core distance for ``MinPts = k``,
    ``k <= width``: one partition serves a whole MinPts grid, and as order
    statistics are exact values, every width gives the same bits.
    ``distance_matrix`` may be an in-RAM array or a read-only ``np.memmap``;
    it is partitioned per row panel, so the peak temporary is
    ``(block_rows, n)``, and the result holds no reference to it.
    """
    # Plain asarray: zero-copy for any ndarray/memmap, converts array-likes.
    distance_matrix = np.asarray(distance_matrix)
    n = distance_matrix.shape[0]
    if not 1 <= width <= n:
        raise ValueError(f"width must be in [1, {n}], got {width}")
    block = _check_block_rows(block_rows)
    table = np.empty((n, width), dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.asarray(distance_matrix[start:stop], dtype=np.float64)
        table[start:stop] = np.sort(np.partition(rows, width - 1, axis=1)[:, :width], axis=1)
    return table
