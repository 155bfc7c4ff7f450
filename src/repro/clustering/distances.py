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

Each panel is computed **in place** in ``out[start:stop]``: the GEMM (or
the sparse Gram panel) writes straight into it, and the elementwise steps
that follow run in place, one row chunk at a time through one reused
scratch of about :data:`_CHUNK_BYTES`.  So besides ``out`` itself a panel
costs no ``(block, m)`` temporary, and Manhattan's ``(rows, m, d)``
broadcast is bounded by the same chunk.  Only an ``out`` whose row panels
are not C-contiguous ``float64`` (F-ordered, strided, another dtype) gets
one reused panel-sized buffer that is copied into it.

Inputs are accepted as they come: C-contiguous ``float64`` matrices are used
in place (no hidden copy — regression-tested), non-contiguous views are
consumed without materialising a contiguous copy, and other dtypes are
converted to ``float64`` exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.utils.validation import check_array_2d, is_sparse

if TYPE_CHECKING:
    from scipy import sparse

#: Canonical row-panel width.  All distance backends compute pairwise
#: matrices in panels of this many rows, which is what makes the tiers
#: bit-identical: the BLAS cross-product is always invoked on the same
#: operand blocks regardless of how (or where) the output is stored.
DEFAULT_BLOCK_ROWS = 512

#: Size of the reused row-chunk scratch: the ``x_sq + y_sq`` sums of a
#: Euclidean panel, Manhattan's broadcast differences and the rows
#: ``core_distance_table`` partitions at once.  Chunking changes no bit:
#: every chunked step is elementwise, or a per-row order statistic.
_CHUNK_BYTES = 1 << 20


def _chunk_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that fit in :data:`_CHUNK_BYTES` (at least 1)."""
    return max(1, _CHUNK_BYTES // row_bytes)


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


def _panels(
    out: np.ndarray, block: int, panel_done: Callable[[int, int], None] | None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, panel)`` for each canonical row panel of ``out``.

    ``panel`` is ``out[start:stop]`` itself whenever that slice is a
    C-contiguous ``float64`` array (a fresh output, any C-ordered array or
    memmap), so the caller computes straight into ``out``.  Otherwise it is
    one reused C-contiguous buffer that is copied into ``out`` when the
    caller is done with it: the GEMM writes the same C layout either way,
    which keeps the bits canonical.  ``panel_done(start, stop)`` fires once
    the panel is in ``out``.
    """
    n, m = out.shape
    buffer = None
    for start in range(0, n, block):
        stop = min(start + block, n)
        panel = out[start:stop]
        direct = panel.dtype == np.float64 and panel.flags.c_contiguous
        if not direct:
            if buffer is None:
                buffer = np.empty((min(block, n), m), dtype=np.float64)
            panel = buffer[: stop - start]
        yield start, stop, panel
        if not direct:
            out[start:stop] = panel
        if panel_done is not None:
            panel_done(start, stop)


def _squared_from_cross(panel: np.ndarray, x_sq: np.ndarray, y_sq: np.ndarray, sums: np.ndarray) -> None:
    """``panel <- max((x_sq[:, None] + y_sq[None, :]) - 2.0 * panel, 0)`` in place.

    ``panel`` holds the cross products on entry.  The sums go through the
    reused ``sums`` scratch one row chunk at a time; every step is the
    elementwise operation of the whole-panel formula, in the same order.
    """
    step = sums.shape[0]
    for a in range(0, panel.shape[0], step):
        b = min(a + step, panel.shape[0])
        chunk, chunk_sums = panel[a:b], sums[: b - a]
        np.add(x_sq[a:b, None], y_sq[None, :], out=chunk_sums)
        np.multiply(chunk, 2.0, out=chunk)
        np.subtract(chunk_sums, chunk, out=chunk)
    # Numerical noise can push tiny distances slightly negative.
    np.maximum(panel, 0.0, out=panel)


def _cosine_from_similarity(panel: np.ndarray, start: int, stop: int) -> None:
    """``panel <- 1 - clip(panel, -1, 1)`` in place, with a zero self-distance."""
    np.clip(panel, -1.0, 1.0, out=panel)
    np.subtract(1.0, panel, out=panel)
    panel[np.arange(stop - start), np.arange(start, stop)] = 0.0


def _sums_scratch(n: int, m: int, block: int) -> np.ndarray:
    """The reused row-chunk scratch of :func:`_squared_from_cross`."""
    return np.empty((min(_chunk_rows(8 * m), block, n), m), dtype=np.float64)


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
    sums = _sums_scratch(n, m, block)
    for start, stop, panel in _panels(out, block, panel_done):
        rows = X[start:stop]
        x_sq = y_sq[start:stop] if self_distances else np.einsum("ij,ij->i", rows, rows)
        np.matmul(rows, Y.T, out=panel)
        _squared_from_cross(panel, x_sq, y_sq, sums)
        if self_distances:
            panel[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if not squared:
            np.sqrt(panel, out=panel)
    return out


def _manhattan_panel(rows: np.ndarray, Y: np.ndarray) -> np.ndarray:
    difference = rows[:, None, :] - Y[None, :, :]
    return np.abs(difference, out=difference).sum(axis=2)


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

    Each sparse Gram panel is densified straight into ``out``; the
    ``(n, d)`` operand stays sparse throughout.
    """
    n = X.shape[0]
    sq = _sparse_squared_norms(X)
    sums = _sums_scratch(n, n, block)
    for start, stop, panel in _panels(out, block, panel_done):
        (X[start:stop] @ X.T).toarray(out=panel)
        _squared_from_cross(panel, sq[start:stop], sq, sums)
        panel[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if not squared:
            np.sqrt(panel, out=panel)
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
    for start, stop, panel in _panels(out, block, panel_done):
        (normalised[start:stop] @ normalised.T).toarray(out=panel)
        _cosine_from_similarity(panel, start, stop)
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
    if is_sparse(matrix):
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
        (:data:`SPARSE_METRICS`; the operand is never densified, only each
        Gram panel, straight into ``out``).  Dense input is accepted
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
        Row-panel width (see :data:`DEFAULT_BLOCK_ROWS`).  Panels are
        computed in place in ``out``, so the per-metric temporaries are
        bounded by one row chunk of about :data:`_CHUNK_BYTES` (Manhattan's
        broadcast difference included) rather than by the panel.
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
        for start, stop, panel in _panels(out, block, panel_done):
            panel[...] = matrix[start:stop]
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
        return euclidean_distances(
            X, squared=metric == "sqeuclidean", out=out, block_rows=block,
            panel_done=panel_done,
        )
    if metric == "cosine" and sparse_input:
        return _sparse_cosine(X, out, block=block, panel_done=panel_done)
    if metric == "manhattan":
        # Each difference row is (n, d); the broadcast is built a row chunk
        # at a time, and each chunk reduces exactly as the whole panel did.
        step = _chunk_rows(8 * n * X.shape[1])
        for start, stop, panel in _panels(out, block, panel_done):
            for a in range(start, stop, step):
                b = min(a + step, stop)
                panel[a - start : b - start] = _manhattan_panel(X[a:b], X)
        return out
    if metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        norms = np.where(norms == 0.0, 1.0, norms)
        normalised = X / norms[:, None]
        for start, stop, panel in _panels(out, block, panel_done):
            np.matmul(normalised[start:stop], normalised.T, out=panel)
            _cosine_from_similarity(panel, start, stop)
        return out
    raise ValueError(f"unknown metric {metric!r}")

#: Metrics accepted by :func:`pairwise_distances`.
PAIRWISE_METRICS = ("euclidean", "sqeuclidean", "manhattan", "cosine", "precomputed")

#: Metrics accepted by the scipy CSR fast path (sparse dots, no densify).
SPARSE_METRICS = ("euclidean", "sqeuclidean", "cosine")


def core_distance_table(
    distance_matrix: np.ndarray, width: int, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """The ``width`` smallest distances of every row, sorted ascending.

    The object itself counts as its own 1st neighbour (distance 0), so
    column ``k - 1`` is the OPTICS/HDBSCAN core distance for ``MinPts = k``,
    ``k <= width``: one partition serves a whole MinPts grid, and as order
    statistics are exact values, every width gives the same bits.
    ``distance_matrix`` may be an in-RAM array or a read-only ``np.memmap``;
    it is partitioned in row sub-panels of at most ``block_rows`` rows and
    about :data:`_CHUNK_BYTES`, so besides the ``(n, width)`` table the
    peak temporary is one such sub-panel, and the result holds no
    reference to the matrix.
    """
    # Plain asarray: zero-copy for any ndarray/memmap, converts array-likes.
    distance_matrix = np.asarray(distance_matrix)
    n = distance_matrix.shape[0]
    if not 1 <= width <= n:
        raise ValueError(f"width must be in [1, {n}], got {width}")
    step = min(_check_block_rows(block_rows), _chunk_rows(8 * n))
    table = np.empty((n, width), dtype=np.float64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = np.asarray(distance_matrix[start:stop], dtype=np.float64)
        table[start:stop] = np.sort(np.partition(rows, width - 1, axis=1)[:, :width], axis=1)
    return table


def k_nearest_distances(
    distance_matrix: np.ndarray, k: int, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """Distance to the ``k``-th nearest neighbour (the ``MinPts = k`` core distance).

    The last column of :func:`core_distance_table` at width ``k``.
    """
    return core_distance_table(distance_matrix, k, block_rows=block_rows)[:, k - 1].copy()
