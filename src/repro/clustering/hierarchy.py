"""Density-based cluster hierarchies (the "OPTICSDend" dendrogram).

The FOSC-OPTICSDend algorithm of the CVCP paper extracts a flat clustering
from the dendrogram induced by OPTICS.  That dendrogram is equivalent to a
single-linkage tree built over the *mutual reachability distance*

    d_mreach(a, b) = max(core_k(a), core_k(b), d(a, b))

with ``core_k`` the distance to the ``MinPts``-th nearest neighbour (this is
the construction used by HDBSCAN*, whose authors are the FOSC authors).
The structure phase never materialises that ``(n, n)`` matrix: every
MinPts reads its core distances from one memoised partition of the distance
matrix, and Prim applies ``max`` row by row (McInnes & Healy, "Accelerated
Hierarchical Density Based Clustering", 2017) — bit-identical, as ``max`` is
exact.  The trees of every MinPts of a CVCP grid grow in one lock-step Prim
loop.  The module provides:

* :func:`mutual_reachability` — the transformed matrix, for callers that
  want it;
* :class:`CondensedTreeArrays` — the hierarchy simplified with a minimum
  cluster size, exposing per-cluster membership, stability and the
  parent/child structure FOSC's dynamic program runs on;
* :class:`TreeStructure` / :func:`build_tree_structure` — the
  constraint-independent *structure phase* of a FOSC fit (core distances,
  MST edges, merge records, condensed tree) as a slim record, built for
  one MinPts or a whole grid (:func:`build_tree_structures`);
* :func:`cached_tree_structure` — the same, memoised per process so
  constraint deltas re-extract without refitting, optionally backed by
  ``"structure"`` artifacts in an
  :class:`~repro.experiments.artifacts.ArtifactStore`.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.kernels import (
    CondensedArrayData,
    condense_tree,
    labels_for_selection,
    minimum_spanning_tree,
    single_linkage_tree as build_single_linkage_tree,
    stabilities,
)
from repro.utils.cache import MemoCache, array_fingerprint, cached_core_table
from repro.core.admissibility import check_input
from repro.utils.validation import check_positive_int


def mutual_reachability(distances: np.ndarray, core_distances: np.ndarray) -> np.ndarray:
    """Mutual reachability ``max(d(a, b), core(a), core(b))`` of an in-RAM or memmap matrix.

    The diagonal is zero.  The structure phase never calls this: Prim
    computes each row on the fly instead.
    """
    core_distances = np.asarray(core_distances, dtype=np.float64)
    mreach = np.maximum(np.asarray(distances, dtype=np.float64), core_distances[:, None])
    np.maximum(mreach, core_distances[None, :], out=mreach)
    np.fill_diagonal(mreach, 0.0)
    return mreach


@dataclass
class CondensedCluster:
    """One cluster of the condensed hierarchy.

    Attributes
    ----------
    cluster_id:
        Identifier within the condensed tree (0 is the root).
    parent:
        Identifier of the parent cluster (``-1`` for the root).
    birth_lambda:
        Density level (``1 / distance``) at which the cluster appears.
    children:
        Identifiers of the child clusters (empty for leaves).
    split_lambda:
        Density level at which the cluster splits into its children
        (``inf`` if it never splits).
    point_lambdas:
        ``{point: lambda}`` for points that leave the cluster individually
        (fall out as noise of this cluster) before any split.
    members:
        All points contained in the cluster (its own fall-outs plus every
        point of every descendant cluster).  This is the flat cluster one
        obtains by *selecting* this node.
    """

    cluster_id: int
    parent: int
    birth_lambda: float
    children: list[int] = field(default_factory=list)
    split_lambda: float = np.inf
    point_lambdas: dict[int, float] = field(default_factory=dict)
    members: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.members)


class CondensedTreeArrays:
    """Array-backed condensed hierarchy.

    Wraps the flat :class:`~repro.clustering.kernels.CondensedArrayData`
    produced by :func:`~repro.clustering.kernels.condense_tree` behind a
    per-cluster query interface — :attr:`clusters`, :attr:`root`,
    :meth:`leaves`, :meth:`stability`, :meth:`selectable_clusters` and
    :meth:`labels_for_selection`, the same as the reference
    :class:`~repro.clustering.reference.CondensedTree`.  The per-cluster
    :class:`CondensedCluster` objects (with their Python sets and dicts)
    are only materialised lazily on first access to :attr:`clusters`;
    the FOSC extraction kernel never touches them.
    """

    def __init__(self, data: CondensedArrayData) -> None:
        self.arrays = data
        self.n_samples = data.n_samples
        self.min_cluster_size = data.min_cluster_size
        self._clusters: dict[int, CondensedCluster] | None = None
        self._stabilities: np.ndarray | None = None

    # -- queries --------------------------------------------------------
    @property
    def clusters(self) -> dict[int, CondensedCluster]:
        """Per-cluster objects, materialised lazily from the flat arrays."""
        if self._clusters is None:
            data = self.arrays
            clusters = {
                cluster_id: CondensedCluster(
                    cluster_id=cluster_id,
                    parent=int(data.parent[cluster_id]),
                    birth_lambda=float(data.birth_lambda[cluster_id]),
                    children=list(data.children[cluster_id]),
                    split_lambda=float(data.split_lambda[cluster_id]),
                )
                for cluster_id in range(data.n_clusters)
            }
            for point, (cluster_id, level) in enumerate(
                zip(data.point_cluster.tolist(), data.point_lambda.tolist())
            ):
                clusters[cluster_id].point_lambdas[point] = level
            for cluster_id in range(data.n_clusters - 1, -1, -1):
                cluster = clusters[cluster_id]
                cluster.members.update(cluster.point_lambdas)
                for child_id in cluster.children:
                    cluster.members.update(clusters[child_id].members)
            self._clusters = clusters
        return self._clusters

    @property
    def root(self) -> CondensedCluster:
        """The root cluster (id ``0``)."""
        return self.clusters[0]

    def leaves(self) -> list[int]:
        """Identifiers of clusters without children."""
        return [
            cluster_id
            for cluster_id in range(self.arrays.n_clusters)
            if not self.arrays.children[cluster_id]
        ]

    def stability(self, cluster_id: int) -> float:
        """Excess-of-mass stability (bit-identical to the reference tree)."""
        if self._stabilities is None:
            self._stabilities = stabilities(self.arrays)
        return float(self._stabilities[cluster_id])

    def selectable_clusters(self) -> list[int]:
        """Every cluster except the root (the root is the trivial solution)."""
        return list(range(1, self.arrays.n_clusters))

    def labels_for_selection(self, selected: list[int]) -> np.ndarray:
        """Flat labels for a set of selected clusters; unassigned points are noise."""
        return labels_for_selection(self.arrays, list(selected))


def _spanning_trees(
    X: np.ndarray,
    min_pts_values: Sequence[int],
    *,
    metric: str,
    distance_backend: str | None,
    epsilon: float | None,
    k_neighbors: int | None,
) -> tuple[np.ndarray | None, list[tuple]]:
    """Core distances and mutual-reachability MST of every MinPts of a grid.

    Returns ``(distances, trees)``: the exact tiers' distance matrix (``None``
    on the ``neighbors`` tier) and one ``(core_distances, mst_edges,
    mutual_reachability_graph)`` per value, in order.  On the exact tiers
    every value reads its core distances from one partition of the memoised
    matrix, taken at the grid's widest MinPts, and all trees grow in one
    lock-step Prim that applies mutual reachability to each row it reads;
    their graph entry is ``None``.  The ``neighbors`` tier derives core
    distances, mutual reachability and a sparse MST per value from the
    epsilon-bounded k-NN graph, so storage and work scale with n·k, never n².
    """
    from repro.core.distance_backend import release_pages, resolve_distance_backend

    backend = resolve_distance_backend(distance_backend)
    if backend == "neighbors":
        from repro.core.neighbor_graph import (
            cached_neighbor_graph,
            mutual_reachability_graph,
            sparse_mst_edges,
        )

        graph = cached_neighbor_graph(X, metric=metric, epsilon=epsilon, k_neighbors=k_neighbors)
        trees = []
        for min_pts in min_pts_values:
            core_distances = graph.core_distances(min_pts)
            mreach = mutual_reachability_graph(graph.graph, core_distances)
            trees.append((core_distances, sparse_mst_edges(mreach), mreach))
        return None, trees
    # Memoised: every (value × fold) grid cell of a CVCP sweep shares the
    # same O(n²) matrix and its core-distance table.  Then the matrix's page
    # residency is dropped (memmap tier).
    distances, table = cached_core_table(
        X, max(min_pts_values), metric, distance_backend=backend
    )
    cores = np.ascontiguousarray(table[:, [min_pts - 1 for min_pts in min_pts_values]].T)
    edges = minimum_spanning_tree(distances, cores)
    release_pages(distances)
    return distances, [(core, tree, None) for core, tree in zip(cores, edges)]


# ---------------------------------------------------------------------------
# The cached structure phase: everything in a FOSC fit that does not depend
# on the constraint set.  A structure is O(n) (MST edges, merge records,
# core distances, condensed tree) — deliberately *not* the O(n²)
# mutual-reachability matrix — so a per-process memo plus JSON artifacts in
# the store make constraint deltas re-extract instead of refit.


@dataclass
class TreeStructure:
    """The constraint-independent structure of one FOSC-OPTICSDend fit.

    Everything here is a pure deterministic function of ``(X, metric,
    min_pts, min_cluster_size)`` plus the distance tier — never of the
    constraint set, the oracle, the fold or any seed — which is what makes
    one structure shareable across every constraint delta, oracle and
    fold of a CVCP grid.

    Attributes
    ----------
    n_samples:
        Number of data objects.
    min_pts:
        The (effective, i.e. sample-count-clamped) MinPts the structure
        was built with.
    min_cluster_size:
        Resolved minimum cluster size of the condensed tree.
    metric:
        Distance metric.
    core_distances:
        ``(n,)`` core distance per object.
    mst_edges:
        ``(n-1, 3)`` mutual-reachability MST edges sorted by weight.
    single_linkage_tree:
        ``(n-1, 4)`` scipy-style merge records.
    condensed_tree:
        The condensed hierarchy as a :class:`CondensedTreeArrays`.
    """

    n_samples: int
    min_pts: int
    min_cluster_size: int
    metric: str
    core_distances: np.ndarray
    mst_edges: np.ndarray
    single_linkage_tree: np.ndarray
    condensed_tree: CondensedTreeArrays


def resolve_min_cluster_size(min_pts: int, min_cluster_size: int | None) -> int:
    """The condensed tree's minimum cluster size, defaulted from MinPts."""
    if min_cluster_size is None:
        return max(2, min_pts)
    return check_positive_int(min_cluster_size, name="min_cluster_size", minimum=2)


def build_tree_structures(
    X: np.ndarray,
    min_pts_values: Sequence[int],
    *,
    min_cluster_size: int | None = None,
    metric: str = "euclidean",
    distance_backend: str | None = None,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
) -> list[TreeStructure]:
    """Build the structure phase of every MinPts of a grid in one pass (no memo, no store).

    Each structure equals the one its MinPts alone would give.
    """
    X = check_input(X, metric)
    n_samples = X.shape[0]
    values = [check_positive_int(min_pts, name="min_pts") for min_pts in min_pts_values]
    if max(values) > n_samples:
        raise ValueError(f"min_pts={max(values)} exceeds the number of samples {n_samples}")
    _, trees = _spanning_trees(
        X, values, metric=metric, distance_backend=distance_backend,
        epsilon=epsilon, k_neighbors=k_neighbors,
    )
    # Only the O(n) outputs are retained, so memoised structures never
    # hold whole matrices alive.
    structures = []
    for min_pts, (core_distances, mst_edges, _) in zip(values, trees):
        merges = build_single_linkage_tree(mst_edges, n_samples)
        size = resolve_min_cluster_size(min_pts, min_cluster_size)
        structures.append(
            TreeStructure(
                n_samples=n_samples,
                min_pts=min_pts,
                min_cluster_size=size,
                metric=metric,
                core_distances=np.asarray(core_distances, dtype=np.float64),
                mst_edges=np.asarray(mst_edges, dtype=np.float64),
                single_linkage_tree=np.asarray(merges, dtype=np.float64),
                condensed_tree=CondensedTreeArrays(condense_tree(merges, n_samples, size)),
            )
        )
    return structures


def build_tree_structure(X: np.ndarray, min_pts: int, **settings) -> TreeStructure:
    """Build the structure phase of one fit: the one-value grid of :func:`build_tree_structures`."""
    return build_tree_structures(X, [min_pts], **settings)[0]


def _encode_floats(array: np.ndarray) -> list:
    """JSON-ready float list; non-finite values spelled as strings.

    Python's JSON float encoding is shortest-roundtrip, so finite values
    survive exactly; JSON has no ``inf``/``nan`` literals, so those are
    spelled ``"inf"``/``"-inf"``/``"nan"``.
    """
    flat = np.asarray(array, dtype=np.float64)
    if np.isfinite(flat).all():
        return flat.tolist()

    def encode_value(value: float):
        # str() spells the non-finite values "inf", "-inf" and "nan".
        return value if np.isfinite(value) else str(value)
    if flat.ndim == 1:
        return [encode_value(value) for value in flat.tolist()]
    return [[encode_value(value) for value in row] for row in flat.tolist()]


def _decode_floats(values: list) -> np.ndarray:
    """Inverse of :func:`_encode_floats`."""
    # float() parses the "inf"/"-inf"/"nan" spellings as well as numbers.
    if values and isinstance(values[0], list):
        return np.array([[float(v) for v in row] for row in values], dtype=np.float64)
    return np.array([float(v) for v in values], dtype=np.float64)


def structure_payload(structure: TreeStructure) -> dict:
    """JSON-serialisable form of a structure (exact float round-trip).

    The condensed tree is emitted as its flat
    :class:`~repro.clustering.kernels.CondensedArrayData` arrays, which
    :func:`structure_from_payload` restores directly.
    """
    data = structure.condensed_tree.arrays
    return {
        "n_samples": structure.n_samples,
        "min_pts": structure.min_pts,
        "min_cluster_size": structure.min_cluster_size,
        "metric": structure.metric,
        "core_distances": _encode_floats(structure.core_distances),
        "mst_edges": _encode_floats(structure.mst_edges),
        "single_linkage_tree": _encode_floats(structure.single_linkage_tree),
        "condensed": {
            "parent": data.parent.tolist(),
            "birth_lambda": _encode_floats(data.birth_lambda),
            "split_lambda": _encode_floats(data.split_lambda),
            "children": [list(child) for child in data.children],
            "sizes": data.sizes.tolist(),
            "point_cluster": data.point_cluster.tolist(),
            "point_lambda": _encode_floats(data.point_lambda),
            "event_cluster": data.event_cluster.tolist(),
            "event_lambda": _encode_floats(data.event_lambda),
            "enter": data.enter.tolist(),
            "exit": data.exit.tolist(),
        },
    }


def structure_from_payload(payload: dict) -> TreeStructure:
    """Rebuild a :class:`TreeStructure` from :func:`structure_payload` output."""
    n_samples = int(payload["n_samples"])
    min_cluster_size = int(payload["min_cluster_size"])
    condensed = payload["condensed"]
    data = CondensedArrayData(
        n_samples=n_samples,
        min_cluster_size=min_cluster_size,
        parent=np.asarray(condensed["parent"], dtype=np.int64),
        birth_lambda=_decode_floats(condensed["birth_lambda"]),
        split_lambda=_decode_floats(condensed["split_lambda"]),
        children=[list(child) for child in condensed["children"]],
        sizes=np.asarray(condensed["sizes"], dtype=np.int64),
        point_cluster=np.asarray(condensed["point_cluster"], dtype=np.int64),
        point_lambda=_decode_floats(condensed["point_lambda"]),
        event_cluster=np.asarray(condensed["event_cluster"], dtype=np.int64),
        event_lambda=_decode_floats(condensed["event_lambda"]),
        enter=np.asarray(condensed["enter"], dtype=np.int64),
        exit=np.asarray(condensed["exit"], dtype=np.int64),
    )
    return TreeStructure(
        n_samples=n_samples,
        min_pts=int(payload["min_pts"]),
        min_cluster_size=min_cluster_size,
        metric=str(payload["metric"]),
        core_distances=_decode_floats(payload["core_distances"]),
        mst_edges=_decode_floats(payload["mst_edges"]).reshape(-1, 3),
        single_linkage_tree=_decode_floats(payload["single_linkage_tree"]).reshape(-1, 4),
        condensed_tree=CondensedTreeArrays(data),
    )


def structure_store_key(
    X: np.ndarray,
    min_pts: int,
    *,
    min_cluster_size: int | None = None,
    metric: str = "euclidean",
    distance_backend: str | None = None,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
) -> dict:
    """Artifact-store key of one structure (kind ``"structure"``).

    The key pins exactly what the structure depends on — the data content,
    the metric, the (effective) MinPts and the minimum cluster size — and
    deliberately *excludes* the oracle, the constraint set, the fold, every
    seed, so structures are shared across all of them.
    The exact distance tiers (blockwise/memmap) are bit-identical and
    share keys; the approximate ``neighbors`` tier carries an ``approx``
    entry (see :func:`repro.core.distance_backend.approx_key_entry`) and
    can never shadow (or be shadowed by) an exact-tier structure.
    """
    return _structure_key(
        array_fingerprint(X), min_pts, min_cluster_size=min_cluster_size, metric=metric,
        distance_backend=distance_backend, epsilon=epsilon, k_neighbors=k_neighbors,
    )


def _structure_key(
    fingerprint: str,
    min_pts: int,
    *,
    min_cluster_size: int | None,
    metric: str,
    distance_backend: str | None,
    epsilon: float | None,
    k_neighbors: int | None,
) -> dict:
    """:func:`structure_store_key` from the data's precomputed fingerprint."""
    from repro.core.distance_backend import approx_key_entry

    key = {
        "x": fingerprint,
        "metric": str(metric),
        "min_pts": int(min_pts),
        "min_cluster_size": int(resolve_min_cluster_size(min_pts, min_cluster_size)),
    }
    return {**key, **approx_key_entry(distance_backend, epsilon, k_neighbors)}


#: Per-process memo of tree structures.  Structures are O(n) each, so the
#: bound is generous enough to hold a whole MinPts sweep per data set.
_structure_cache = MemoCache(max_items=64)


def cached_tree_structure(
    X: np.ndarray,
    min_pts: int | Sequence[int],
    *,
    min_cluster_size: int | None = None,
    metric: str = "euclidean",
    distance_backend: str | None = None,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
    store=None,
) -> TreeStructure | list[TreeStructure]:
    """The structure phase, memoised per process and optionally store-backed.

    ``min_pts`` is one value, or a CVCP grid of values (a list of
    structures comes back, one per value, in order).  Repeated values are
    built once, and every structure that neither the memo nor the store
    holds is built in one lock-step pass (:func:`build_tree_structures`),
    in chunks no larger than the memo so a call never evicts its own
    structures.  A single value is the one-value grid.

    Without ``store`` this is a plain memo lookup (the path
    :meth:`repro.clustering.fosc.FOSCOpticsDend.fit` takes — worker
    processes never touch the artifact store).  With a ``store``
    (:class:`~repro.experiments.artifacts.ArtifactStore`-compatible), the
    store is probed *first*, value by value, so its per-kind hit/miss stats
    record every structure reuse, a persisted structure is decoded into the
    memo on a memo miss, and a freshly built structure is written through
    as a ``"structure"`` artifact.
    """
    settings = dict(
        min_cluster_size=min_cluster_size, metric=metric, distance_backend=distance_backend,
        epsilon=epsilon, k_neighbors=k_neighbors,
    )
    grid = not isinstance(min_pts, (int, np.integer))
    # The store key pins everything a structure depends on (the exact tiers
    # share it), so its canonical text is the memo key as well.  The data
    # are fingerprinted once per call, not once per value.
    fingerprint = array_fingerprint(X)
    store_keys: dict[str, tuple[int, dict]] = {}
    memo_keys = []
    for value in min_pts if grid else [min_pts]:
        key = _structure_key(fingerprint, value, **settings)
        memo_keys.append(json.dumps(key, sort_keys=True))
        store_keys.setdefault(memo_keys[-1], (value, key))

    def build(missing: list[str]) -> list[TreeStructure]:
        return build_tree_structures(X, [store_keys[memo_key][0] for memo_key in missing], **settings)

    unique = list(store_keys)
    chunk = _structure_cache.max_items or max(len(unique), 1)
    structures: dict[str, TreeStructure] = {}
    for start in range(0, len(unique), chunk):
        pending = []
        for memo_key in unique[start:start + chunk]:
            found = None if store is None else _stored_structure(store, memo_key, store_keys[memo_key][1])
            if found is None:
                pending.append(memo_key)
            else:
                structures[memo_key] = found
        for memo_key, structure in zip(pending, _structure_cache.get_or_compute_many(pending, build)):
            if store is not None:
                store.put("structure", store_keys[memo_key][1], structure_payload(structure))
            structures[memo_key] = structure
    if grid:
        return [structures[memo_key] for memo_key in memo_keys]
    return structures[memo_keys[0]]


def _stored_structure(store, memo_key: str, key: dict) -> TreeStructure | None:
    """The memoised or persisted structure of ``key``, or ``None`` when it must be built."""
    memoised = _structure_cache.peek(memo_key)
    if memoised is not None:
        # The memo already holds the decoded structure: a cheap existence
        # probe keeps the store's per-kind reuse accounting (and restores
        # a deleted artifact by writing through) without re-parsing the
        # payload on every warm call.
        if not store.contains("structure", key):
            store.put("structure", key, structure_payload(memoised))
        return memoised
    payload = store.get("structure", key)
    if payload is None:
        return None
    return _structure_cache.get_or_compute(memo_key, lambda: structure_from_payload(payload))


def structure_cache_stats():
    """Hit/miss accounting of the per-process structure memo."""
    return _structure_cache.stats()


def clear_structure_cache() -> None:
    """Drop all memoised tree structures (mainly for tests and benchmarks)."""
    _structure_cache.clear()
