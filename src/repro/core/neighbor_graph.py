"""Sparse epsilon-bounded k-NN graphs: the ``neighbors`` distance tier.

Every exact distance tier (``blockwise``/``memmap``) still pays
for all ``n²`` pairwise entries — the memmap tier only moved the storage
out of RAM.  This module provides the sub-quadratic substrate behind
``distance_backend="neighbors"``: a KD-tree epsilon-bounded k-NN graph from
which the density pipeline derives *sparse* core distances, a sparse
mutual-reachability graph (scipy CSR), a sparse minimum spanning tree and
an epsilon-bounded OPTICS sweep.  Storage and work scale with ``n·k``
instead of ``n²``, which is what makes an ``n = 100000`` FOSC fit feasible
on a laptop (see ``repro bench scale`` and ``BENCH_scale.json``).

Approximate-by-contract
-----------------------
Unlike the exact tiers, the ``neighbors`` tier is **not** bit-identical to
them in general: points only see their ``k_neighbors`` nearest
neighbours within radius ``epsilon``, so density estimates and merges
beyond that horizon differ.  The contract, enforced by tests and the scale
bench (see ``docs/determinism.md``), has two regimes:

* **Exhaustive regime** (``k_neighbors >= n``): the graph is built from the
  same canonical row-panel formula as the exact tiers
  (:func:`repro.clustering.distances.pairwise_distances`), so when
  ``epsilon`` also exceeds the data diameter the sparse core distances,
  mutual-reachability entries and MST edge weights equal the dense ones
  entry-for-entry and OPTICS/FOSC results are identical.
* **Practical regime** (``k_neighbors < n``): neighbour sets come from a
  :class:`scipy.spatial.cKDTree` (exact nearest neighbours, but distance
  values may differ from the panel formula in the last ulp) and results
  are gated by ARI-vs-exact floors in ``repro bench scale``.

Because results depend on ``epsilon``/``k_neighbors``, trials run under
this tier are fingerprinted *with* those parameters in the artifact store —
the exact tiers deliberately share cache entries; this tier never shares
with them (see :func:`repro.experiments.runner.trial_artifact_key`).

Only ``metric="euclidean"`` is supported (the KD-tree is a metric-space
index); every other metric — and any consumer requiring the full distance
matrix, e.g. MPCK-Means or the silhouette — must use an exact tier.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import minimum_spanning_tree as _csgraph_mst
from scipy.spatial import cKDTree

from repro.utils.cache import MemoCache, array_fingerprint
from repro.utils.validation import check_array_2d

#: Environment variable consulted when ``epsilon=None``.
NEIGHBOR_EPSILON_ENV_VAR = "REPRO_NEIGHBOR_EPSILON"

#: Environment variable consulted when ``k_neighbors=None``.
NEIGHBOR_K_ENV_VAR = "REPRO_NEIGHBOR_K"

#: Neighbourhood radius used when neither argument nor environment set one.
#: ``inf`` means the graph is bounded by ``k_neighbors`` alone.
DEFAULT_NEIGHBOR_EPSILON = np.inf

#: Neighbour count used when neither argument nor environment set one.
#: Covers the paper's MinPts sweep (``3..24``) with headroom.
DEFAULT_NEIGHBOR_K = 32


def resolve_neighbor_epsilon(epsilon: float | None = None) -> float:
    """Resolve the graph radius from the argument, environment, or default.

    ``None`` reads :data:`NEIGHBOR_EPSILON_ENV_VAR` (``"inf"`` is accepted)
    and falls back to :data:`DEFAULT_NEIGHBOR_EPSILON`.  Raises
    ``ValueError`` for non-positive or unparseable values.
    """
    origin = "epsilon"
    if epsilon is None:
        raw = os.environ.get(NEIGHBOR_EPSILON_ENV_VAR, "").strip()
        if not raw:
            return float(DEFAULT_NEIGHBOR_EPSILON)
        origin = NEIGHBOR_EPSILON_ENV_VAR
        try:
            epsilon = float(raw)
        except ValueError:
            raise ValueError(f"{origin} must be a positive number, got {raw!r}") from None
    epsilon = float(epsilon)
    if np.isnan(epsilon) or epsilon <= 0:
        raise ValueError(f"{origin} must be a positive number, got {epsilon!r}")
    return epsilon


def resolve_neighbor_k(k_neighbors: int | None = None) -> int:
    """Resolve the neighbour count from the argument, environment, or default.

    ``None`` reads :data:`NEIGHBOR_K_ENV_VAR` and falls back to
    :data:`DEFAULT_NEIGHBOR_K`.  Raises ``ValueError`` for values below 1.
    """
    origin = "k_neighbors"
    if k_neighbors is None:
        raw = os.environ.get(NEIGHBOR_K_ENV_VAR, "").strip()
        if not raw:
            return int(DEFAULT_NEIGHBOR_K)
        origin = NEIGHBOR_K_ENV_VAR
        try:
            k_neighbors = int(raw)
        except ValueError:
            raise ValueError(f"{origin} must be a positive integer, got {raw!r}") from None
    if isinstance(k_neighbors, bool) or not isinstance(k_neighbors, (int, np.integer)):
        raise ValueError(f"{origin} must be a positive integer, got {k_neighbors!r}")
    if k_neighbors < 1:
        raise ValueError(f"{origin} must be >= 1, got {k_neighbors}")
    return int(k_neighbors)


@dataclass
class NeighborGraph:
    """An epsilon-bounded k-NN graph with its per-point neighbour distances.

    Attributes
    ----------
    graph:
        Symmetric ``(n, n)`` CSR matrix of stored neighbour distances (the
        union of the directed k-NN edges; explicit zero entries encode
        duplicate points and are *kept*, never pruned).
    knn_distances:
        ``(n, m)`` ascending neighbour distances per point **including the
        point itself** (distance 0 in column 0), ``inf``-padded where fewer
        than ``m`` neighbours lie within ``epsilon``.  ``m = min(k+1, n)``.
    epsilon / k_neighbors:
        The resolved graph parameters.
    exhaustive:
        True when ``k_neighbors >= n`` and the graph was built from the
        canonical row-panel formula (the parity-to-exact regime).
    """

    graph: csr_matrix
    knn_distances: np.ndarray
    epsilon: float
    k_neighbors: int
    exhaustive: bool

    @property
    def n_samples(self) -> int:
        return self.graph.shape[0]

    def core_distances(self, min_pts: int) -> np.ndarray:
        """Distance to the ``min_pts``-th nearest neighbour (self included).

        Matches :func:`repro.clustering.distances.k_nearest_distances`
        semantics; points with fewer than ``min_pts`` neighbours within
        ``epsilon`` get ``inf`` (they can never be core points).  Raises
        when ``min_pts`` exceeds the neighbour horizon ``k_neighbors + 1``.
        """
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        horizon = self.knn_distances.shape[1]
        if min_pts > horizon:
            raise ValueError(
                f"min_pts={min_pts} exceeds the neighbors-tier horizon of "
                f"k_neighbors+1={self.k_neighbors + 1} neighbours per point; "
                f"raise k_neighbors (or use an exact distance backend)"
            )
        return self.knn_distances[:, min_pts - 1].copy()


def _directed_to_symmetric(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_samples: int
) -> csr_matrix:
    """Union of directed edges as a canonical symmetric CSR matrix.

    Mirror edges are appended and duplicate ``(row, col)`` coordinates
    dropped (distances are symmetric, so either copy carries the same
    value).  Built by hand — the COO constructor would *sum* duplicates —
    and explicit zeros (duplicate points) survive.
    """
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    all_vals = np.concatenate([vals, vals])
    order = np.lexsort((all_cols, all_rows))
    all_rows, all_cols, all_vals = all_rows[order], all_cols[order], all_vals[order]
    if all_rows.size:
        keep = np.empty(all_rows.size, dtype=bool)
        keep[0] = True
        np.logical_or(
            all_rows[1:] != all_rows[:-1], all_cols[1:] != all_cols[:-1], out=keep[1:]
        )
        all_rows, all_cols, all_vals = all_rows[keep], all_cols[keep], all_vals[keep]
    indptr = np.zeros(n_samples + 1, dtype=np.intp)
    np.cumsum(np.bincount(all_rows, minlength=n_samples), out=indptr[1:])
    return csr_matrix(
        (all_vals, all_cols.astype(np.intp), indptr), shape=(n_samples, n_samples)
    )


def _build_exhaustive(X: np.ndarray, epsilon: float) -> tuple[csr_matrix, np.ndarray]:
    """Graph + sorted neighbour rows from the canonical panel formula.

    Used when ``k_neighbors >= n``: each row panel is computed with the
    exact tiers' :func:`~repro.clustering.distances.pairwise_distances`
    scheme, so stored entries (and the derived core distances) are
    bit-identical to the exact tiers whenever ``epsilon`` filters nothing.
    """
    from repro.clustering.distances import DEFAULT_BLOCK_ROWS, pairwise_distances

    n = X.shape[0]
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    knn = np.empty((n, n), dtype=np.float64)
    # This regime is only entered for k >= n (parity-scale data), so the
    # full canonical matrix is materialised once and consumed per panel.
    full = pairwise_distances(X)
    column_index = np.arange(n)

    for start in range(0, n, DEFAULT_BLOCK_ROWS):
        stop = min(start + DEFAULT_BLOCK_ROWS, n)
        panel = full[start:stop]
        diagonal = column_index[None, :] == column_index[start:stop, None]
        within = panel <= epsilon
        within &= ~diagonal  # the point itself is not a graph edge
        panel_rows, panel_cols = np.nonzero(within)
        rows_parts.append(panel_rows + start)
        cols_parts.append(panel_cols)
        vals_parts.append(panel[panel_rows, panel_cols])
        # Neighbour rows keep the self entry (distance 0) so the sorted
        # row's (min_pts)-th value is exactly the dense core distance.
        masked = np.where(within | diagonal, panel, np.inf)
        knn[start:stop] = np.sort(masked, axis=1)

    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=np.intp)
    cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=np.intp)
    vals = np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=np.float64)
    # The epsilon filter and the formula are symmetric, so the directed
    # edge set already is; the shared builder just canonicalises it.
    graph = _directed_to_symmetric(rows, cols, vals, n)
    return graph, knn


def _build_kdtree(
    X: np.ndarray, epsilon: float, k_neighbors: int
) -> tuple[csr_matrix, np.ndarray]:
    """Graph + sorted neighbour rows from a :class:`scipy.spatial.cKDTree`."""
    n = X.shape[0]
    m = min(k_neighbors + 1, n)  # + 1: the query returns the point itself
    tree = cKDTree(X)
    # nextafter keeps boundary neighbours (d == epsilon) regardless of how
    # the tree treats the bound; the exact filter is applied below.
    bound = np.nextafter(epsilon, np.inf) if np.isfinite(epsilon) else np.inf
    dist, idx = tree.query(X, k=m, distance_upper_bound=bound)
    if m == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    dist = np.asarray(dist, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    dist[dist > epsilon] = np.inf  # inclusive epsilon cutoff; misses stay inf

    found = np.isfinite(dist)
    row_index = np.repeat(np.arange(n, dtype=np.int64), m).reshape(n, m)
    # Drop exactly one zero-distance entry per row as "self": the point's
    # own index when present, else the first zero-distance duplicate.
    is_self = (idx == row_index) & found
    self_pos = np.where(
        is_self.any(axis=1), is_self.argmax(axis=1), np.zeros(n, dtype=np.intp)
    )
    edge_mask = found.copy()
    edge_mask[np.arange(n), self_pos] = False

    rows = row_index[edge_mask]
    cols = idx[edge_mask]
    vals = dist[edge_mask]
    graph = _directed_to_symmetric(rows, cols, vals, n)

    # Neighbour rows including self: the queried row with the dropped
    # "self" entry replaced by an explicit 0 in front keeps the ascending
    # order (the dropped entry had distance 0 or was the minimum).
    knn = dist.copy()
    knn[np.arange(n), self_pos] = 0.0
    knn.sort(axis=1)
    return graph, knn


def build_neighbor_graph(
    X: np.ndarray,
    *,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
    metric: str = "euclidean",
) -> NeighborGraph:
    """Build the epsilon-bounded k-NN graph of ``X``.

    Parameters
    ----------
    X:
        ``(n, d)`` data matrix.
    epsilon:
        Neighbourhood radius (inclusive); ``None`` consults
        :data:`NEIGHBOR_EPSILON_ENV_VAR`, default ``inf``.
    k_neighbors:
        Neighbours per point (excluding the point itself); ``None``
        consults :data:`NEIGHBOR_K_ENV_VAR`, default
        :data:`DEFAULT_NEIGHBOR_K`.  ``k_neighbors >= n`` switches to the
        exhaustive parity-to-exact construction.
    metric:
        Must be ``"euclidean"``; the KD-tree is a metric-space index, so
        precomputed or non-Euclidean metrics require an exact tier.
    """
    if metric != "euclidean":
        from repro.core.distance_backend import EXACT_DISTANCE_BACKENDS

        raise ValueError(
            f"distance_backend='neighbors' supports metric='euclidean' only "
            f"(KD-tree index), got metric={metric!r}; use an exact distance "
            f"backend ({'/'.join(EXACT_DISTANCE_BACKENDS)}) for this metric"
        )
    X = check_array_2d(X)
    X = np.ascontiguousarray(X, dtype=np.float64)
    epsilon = resolve_neighbor_epsilon(epsilon)
    k_neighbors = resolve_neighbor_k(k_neighbors)
    n = X.shape[0]
    exhaustive = k_neighbors >= n
    if exhaustive:
        graph, knn = _build_exhaustive(X, epsilon)
    else:
        graph, knn = _build_kdtree(X, epsilon, k_neighbors)
    return NeighborGraph(
        graph=graph,
        knn_distances=knn,
        epsilon=epsilon,
        k_neighbors=k_neighbors,
        exhaustive=exhaustive,
    )


def mutual_reachability_graph(graph: csr_matrix, core_distances: np.ndarray) -> csr_matrix:
    """Sparse mutual-reachability transform of a neighbour graph.

    Per stored edge ``(i, j)``: ``max(max(d_ij, core_i), core_j)`` — the
    same operation order as the dense
    :func:`repro.clustering.hierarchy.mutual_reachability` (``max`` is
    exact, so the densified exhaustive graph matches entry-for-entry).
    Unstored pairs have *unknown* (not zero) mutual reachability; only the
    diagonal densifies to the dense transform's explicit 0.
    """
    core = np.asarray(core_distances, dtype=np.float64)
    n = graph.shape[0]
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    data = np.maximum(np.maximum(graph.data, core[rows]), core[graph.indices])
    return csr_matrix((data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n))


#: Stand-in weight for stored zero-distance edges while inside scipy's
#: csgraph (which treats a zero entry as "no edge"); mapped back to 0.0.
_ZERO_WEIGHT = np.nextafter(0.0, 1.0)


def sparse_mst_edges(graph: csr_matrix) -> np.ndarray:
    """Minimum spanning tree of a sparse weighted graph as sorted edges.

    Returns the same ``(n-1, 3)`` ``(u, v, weight)`` weight-sorted edge
    array as the dense Prim kernel.  Stored zero-weight edges (duplicate
    points) are preserved through a subnormal stand-in weight, and a
    disconnected graph is completed into a single tree by joining the
    connected components' smallest-index representatives with ``inf``
    edges — exactly how the dense pipeline represents unreachable merges
    (their condensed-tree density level is ``1/inf = 0``).

    A *complete* stored graph (every off-diagonal pair present — the
    exhaustive ``k >= n`` regime) is densified and routed through the
    dense Prim kernel itself, so tied edge weights are emitted in
    exactly the dense pipeline's discovery order.  Kruskal and Prim
    agree on the weight multiset but not on which tied edges they pick,
    and FOSC's condensed tree is sensitive to that order (a tie can
    decide whether a small component reaches ``min_cluster_size``
    before it is absorbed); delegating makes the exhaustive-regime
    labels bit-identical to the exact tiers by construction.
    """
    n = graph.shape[0]
    if n <= 1:
        return np.empty((0, 3), dtype=np.float64)
    if graph.nnz == n * (n - 1):
        from repro.clustering.kernels import minimum_spanning_tree

        # toarray() reproduces the dense mutual-reachability matrix
        # entry-for-entry: every off-diagonal entry is stored (explicit
        # zeros included) and the absent diagonal densifies to 0.0.
        return minimum_spanning_tree(graph.toarray())
    adjusted = graph.copy()
    adjusted.data = np.where(adjusted.data == 0.0, _ZERO_WEIGHT, adjusted.data)
    forest = _csgraph_mst(adjusted).tocoo()
    u = forest.row.astype(np.float64)
    v = forest.col.astype(np.float64)
    w = np.where(forest.data == _ZERO_WEIGHT, 0.0, forest.data)

    n_components, labels = connected_components(adjusted, directed=False)
    if n_components > 1:
        _, representatives = np.unique(labels, return_index=True)
        representatives = np.sort(representatives)
        joins = representatives[1:]
        u = np.concatenate([u, np.full(joins.size, float(representatives[0]))])
        v = np.concatenate([v, joins.astype(np.float64)])
        w = np.concatenate([w, np.full(joins.size, np.inf)])

    edges = np.column_stack([u, v, w])
    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]


def sparse_optics_ordering(
    graph: csr_matrix, core_distances: np.ndarray, eps: float = np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Epsilon-bounded OPTICS sweep over a sparse neighbour graph.

    The same lazy-deletion ``(reachability, index)`` priority queue as
    :func:`repro.clustering.reference.optics_ordering_reference`, with the
    neighbour scan restricted to the stored graph rows (CSR column order
    is ascending, preserving the reference's index-order pushes).  In the
    exhaustive regime the stored rows are all other points, so ordering
    and reachability are bit-identical to the dense kernels.
    """
    n = graph.shape[0]
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    core = np.asarray(core_distances, dtype=np.float64)
    reachability = np.full(n, np.inf)
    processed = np.zeros(n, dtype=bool)
    ordering: list[int] = []

    for start in range(n):
        if processed[start]:
            continue
        heap: list[tuple[float, int]] = [(np.inf, start)]
        while heap:
            _, index = heapq.heappop(heap)
            if processed[index]:
                continue
            processed[index] = True
            ordering.append(index)
            if core[index] > eps:
                continue
            row = slice(indptr[index], indptr[index + 1])
            neighbors = indices[row]
            neighbor_distances = data[row]
            within = ~processed[neighbors] & (neighbor_distances <= eps)
            if not within.any():
                continue
            new_reach = np.maximum(core[index], neighbor_distances[within])
            targets = neighbors[within]
            improved = new_reach < reachability[targets]
            for neighbor, reach in zip(targets[improved], new_reach[improved]):
                reachability[neighbor] = reach
                heapq.heappush(heap, (float(reach), int(neighbor)))
    return np.asarray(ordering, dtype=np.int64), reachability


# ----------------------------------------------------------------------
# Per-process memo (the CVCP grid re-fits share one graph per data set)
# ----------------------------------------------------------------------

_GRAPH_CACHE = MemoCache(max_items=4)


def cached_neighbor_graph(
    X: np.ndarray,
    *,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
    metric: str = "euclidean",
) -> NeighborGraph:
    """Memoised :func:`build_neighbor_graph`.

    Keyed by the data fingerprint and the *resolved* ``(epsilon,
    k_neighbors, metric)`` — every (value × fold) cell of a CVCP sweep
    shares one graph per process, exactly like
    :func:`repro.utils.cache.cached_pairwise_distances` shares matrices.
    """
    resolved_epsilon = resolve_neighbor_epsilon(epsilon)
    resolved_k = resolve_neighbor_k(k_neighbors)
    key = (array_fingerprint(X), metric, resolved_epsilon, resolved_k)
    return _GRAPH_CACHE.get_or_compute(
        key,
        lambda: build_neighbor_graph(
            X, epsilon=resolved_epsilon, k_neighbors=resolved_k, metric=metric
        ),
    )


def clear_neighbor_graph_cache() -> None:
    """Drop every memoised neighbour graph (mirrors ``clear_distance_cache``)."""
    _GRAPH_CACHE.clear()


def neighbor_graph_cache_stats():
    """Hit/miss/size counters of the neighbour-graph memo."""
    return _GRAPH_CACHE.stats()


def configure_neighbor_graph_cache(max_items: int) -> None:
    """Re-bound the memo (``0`` disables caching); clears existing entries."""
    global _GRAPH_CACHE
    _GRAPH_CACHE = MemoCache(max_items=max_items)
