"""The per-MinPts Prim kernel the lock-step grid Prim replaced, kept verbatim.

``repro.clustering.kernels.minimum_spanning_tree`` grows the trees of a
whole ``(m, n)`` stack of core-distance rows in one loop.  This is the
one-tree kernel it replaced, copied unchanged, so
``tests/test_grid_structure.py`` can prove every stacked tree byte-equal to
the tree this kernel builds for its row alone (and the plain and 1-D calls
byte-equal to their former selves).
"""

from __future__ import annotations

import numpy as np


def minimum_spanning_tree(distances: np.ndarray, core_distances: np.ndarray | None = None) -> np.ndarray:
    """Prim MST over a single masked frontier array.

    In-tree entries are kept at ``+inf`` *inside* the frontier array, so
    the per-iteration ``np.where`` re-mask of the reference disappears and
    each step is one ``argmin`` plus one masked comparison.  Candidate
    selection, tie-breaking and edge weights are bit-identical to
    :func:`~repro.clustering.reference.minimum_spanning_tree_reference`.

    With ``core_distances`` the tree spans mutual reachability without
    materialising it: row ``c`` becomes ``max(D[c], core[c], core)`` in one
    buffer when ``c`` joins the tree — bit-identical to passing
    ``mutual_reachability(distances, core_distances)``, as ``max`` is exact.

    A disconnected graph (no finite entry left toward the tree) is
    completed into one tree the way
    :func:`~repro.core.neighbor_graph.sparse_mst_edges` does it: when the
    frontier holds only ``+inf``, ``argmin`` lands on vertex 0, which is
    already in the tree, and the lowest-index vertex outside the tree
    joins through the edge ``(0, r, inf)``.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n_samples = distances.shape[0]
    if n_samples < 2:
        return np.empty((0, 3), dtype=np.float64)
    fused = core_distances is not None
    if fused:
        core = np.asarray(core_distances, dtype=np.float64)
        # ``core`` with in-tree vertices raised to +inf: their entries of
        # later rows are +inf, so no separate in-tree mask pass is needed.
        pinned = core.copy()
        pinned[0] = np.inf
        buffer = np.empty(n_samples, dtype=np.float64)
        frontier = np.maximum(np.maximum(distances[0], core[0]), pinned)
    else:
        frontier = distances[0].astype(np.float64, copy=True)
    # ``frontier[j]`` is the best known edge weight from the tree to j,
    # with in-tree entries pinned at +inf so argmin skips them.
    frontier[0] = np.inf
    source = np.zeros(n_samples, dtype=np.int64)
    active = np.ones(n_samples, dtype=bool)
    active[0] = False
    improved = np.empty(n_samples, dtype=bool)

    edges = np.empty((n_samples - 1, 3), dtype=np.float64)
    for edge_index in range(n_samples - 1):
        candidate = int(frontier.argmin())
        if active[candidate]:
            edges[edge_index] = (source[candidate], candidate, frontier[candidate])
        else:
            candidate = int(active.argmax())
            edges[edge_index] = (0, candidate, np.inf)
        active[candidate] = False
        frontier[candidate] = np.inf
        if fused:
            pinned[candidate] = np.inf
            row = np.maximum(distances[candidate], core[candidate], out=buffer)
            np.maximum(row, pinned, out=row)
            np.less(row, frontier, out=improved)
        else:
            row = distances[candidate]
            np.less(row, frontier, out=improved)
            improved &= active
        np.copyto(frontier, row, where=improved)
        np.copyto(source, candidate, where=improved)
    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]

