"""Interpreter-bound reference implementations — the oracles of the kernels.

The library shipped with these formulations of its three hot loops
(hash-based union–find, per-cluster Python sets and dicts, per-point and
per-neighbour loops).  :mod:`repro.clustering.kernels` replaced them with
vectorised kernels that are **bit-identical** to them; the originals are
kept here, unchanged, as the semantic ground truth:

* :func:`minimum_spanning_tree_reference` /
  :func:`single_linkage_tree_reference` — Prim MST with a re-applied
  in-tree mask and the merge loop over a hash-based disjoint set;
* :class:`CondensedTree` + :class:`ReferenceFOSC` — the condensed hierarchy
  as per-cluster objects and FOSC's dict-based dynamic program over it;
* :func:`mpck_assign_reference` — the per-point, per-neighbour,
  per-cluster ICM assignment loop.

Nothing in the library runs them: the parity tests
(``tests/test_clustering_kernels.py`` and the estimator-level tests, which
monkeypatch a module's kernel name with its oracle from here) and
``repro bench kernels`` (which times every kernel against its oracle) are
their only callers.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.fosc import FOSC, FOSCSelection
from repro.clustering.hierarchy import CondensedCluster
from repro.clustering.kernels import _check_edge_count
from repro.constraints.constraint import Constraint, ConstraintSet
from repro.utils.disjoint_set import DisjointSet
from repro.utils.validation import check_positive_int


def minimum_spanning_tree_reference(distances: np.ndarray) -> np.ndarray:
    """Prim MST with an explicit in-tree mask re-applied every iteration.

    A disconnected graph joins the lowest-index vertex outside the tree
    through an ``(0, r, inf)`` edge, as the kernel does.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n_samples = distances.shape[0]
    if n_samples < 2:
        return np.empty((0, 3), dtype=np.float64)

    in_tree = np.zeros(n_samples, dtype=bool)
    best_distance = np.full(n_samples, np.inf)
    best_source = np.full(n_samples, -1, dtype=np.int64)

    in_tree[0] = True
    best_distance[:] = distances[0]
    best_source[:] = 0
    best_distance[0] = np.inf

    edges = np.empty((n_samples - 1, 3), dtype=np.float64)
    for edge_index in range(n_samples - 1):
        candidate = int(np.argmin(np.where(in_tree, np.inf, best_distance)))
        if in_tree[candidate]:
            candidate = int(np.argmin(in_tree))
            edges[edge_index] = (0, candidate, np.inf)
        else:
            edges[edge_index] = (best_source[candidate], candidate, best_distance[candidate])
        in_tree[candidate] = True
        improved = ~in_tree & (distances[candidate] < best_distance)
        best_distance[improved] = distances[candidate][improved]
        best_source[improved] = candidate
    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]


def single_linkage_tree_reference(mst_edges: np.ndarray, n_samples: int) -> np.ndarray:
    """Merge loop over a hash-based :class:`~repro.utils.disjoint_set.DisjointSet`."""
    mst_edges = _check_edge_count(mst_edges, n_samples)
    ds = DisjointSet(range(n_samples))
    current_node: dict[int, int] = {index: index for index in range(n_samples)}
    sizes: dict[int, int] = {index: 1 for index in range(n_samples)}
    merges = np.empty((n_samples - 1, 4), dtype=np.float64)

    next_node = n_samples
    for row, (u, v, weight) in enumerate(mst_edges):
        root_u = ds.find(int(u))
        root_v = ds.find(int(v))
        node_u = current_node[root_u]
        node_v = current_node[root_v]
        merged_size = sizes[node_u] + sizes[node_v]
        merges[row] = (node_u, node_v, weight, merged_size)
        new_root = ds.union(root_u, root_v)
        current_node[new_root] = next_node
        sizes[next_node] = merged_size
        next_node += 1
    return merges


class CondensedTree:
    """Hierarchy simplified with a minimum cluster size.

    The construction follows HDBSCAN*: walking the single-linkage dendrogram
    from the root towards the leaves, a split is *significant* only when
    both sides contain at least ``min_cluster_size`` points; otherwise the
    smaller side simply "falls out" of the current cluster at that density
    level.  Each significant cluster records its stability
    ``sum_p (lambda_p - lambda_birth)``, the classic excess-of-mass measure
    used for unsupervised extraction.
    """

    def __init__(self, merges: np.ndarray, n_samples: int, min_cluster_size: int) -> None:
        self.n_samples = n_samples
        self.min_cluster_size = check_positive_int(
            min_cluster_size, name="min_cluster_size", minimum=2
        )
        self._merges = np.asarray(merges, dtype=np.float64)
        self.clusters: dict[int, CondensedCluster] = {}
        self._build()

    # -- construction ---------------------------------------------------
    def _node_children(self, node: int) -> tuple[int, int, float]:
        row = self._merges[node - self.n_samples]
        return int(row[0]), int(row[1]), float(row[2])

    def _node_size(self, node: int) -> int:
        if node < self.n_samples:
            return 1
        return int(self._merges[node - self.n_samples][3])

    def _node_leaves(self, node: int) -> list[int]:
        stack = [node]
        leaves: list[int] = []
        while stack:
            current = stack.pop()
            if current < self.n_samples:
                leaves.append(current)
            else:
                left, right, _ = self._node_children(current)
                stack.extend((left, right))
        return leaves

    def _build(self) -> None:
        root_node = self.n_samples + self._merges.shape[0] - 1 if self._merges.shape[0] else 0
        root = CondensedCluster(cluster_id=0, parent=-1, birth_lambda=0.0)
        self.clusters[0] = root
        if self._merges.shape[0] == 0:
            root.members = set(range(self.n_samples))
            root.point_lambdas = {point: np.inf for point in range(self.n_samples)}
            return

        # Stack of (single-linkage node, condensed cluster id it belongs to).
        stack: list[tuple[int, int]] = [(root_node, 0)]
        next_cluster_id = 1
        while stack:
            node, cluster_id = stack.pop()
            cluster = self.clusters[cluster_id]
            if node < self.n_samples:
                cluster.point_lambdas[node] = np.inf
                continue
            left, right, distance = self._node_children(node)
            level = np.inf if distance <= 0 else 1.0 / distance
            left_size = self._node_size(left)
            right_size = self._node_size(right)
            big_left = left_size >= self.min_cluster_size
            big_right = right_size >= self.min_cluster_size

            if big_left and big_right:
                cluster.split_lambda = min(cluster.split_lambda, level)
                for child_node in (left, right):
                    child = CondensedCluster(
                        cluster_id=next_cluster_id, parent=cluster_id, birth_lambda=level
                    )
                    self.clusters[next_cluster_id] = child
                    cluster.children.append(next_cluster_id)
                    stack.append((child_node, next_cluster_id))
                    next_cluster_id += 1
            elif big_left or big_right:
                keep, drop = (left, right) if big_left else (right, left)
                for point in self._node_leaves(drop):
                    cluster.point_lambdas[point] = level
                stack.append((keep, cluster_id))
            else:
                for point in self._node_leaves(left) + self._node_leaves(right):
                    cluster.point_lambdas[point] = level

        self._fill_members()

    def _fill_members(self) -> None:
        # Children were created after their parents, so reversed id order is
        # a valid bottom-up order.
        for cluster_id in sorted(self.clusters, reverse=True):
            cluster = self.clusters[cluster_id]
            cluster.members.update(cluster.point_lambdas)
            for child_id in cluster.children:
                cluster.members.update(self.clusters[child_id].members)

    # -- queries ----------------------------------------------------------
    @property
    def root(self) -> CondensedCluster:
        return self.clusters[0]

    def leaves(self) -> list[int]:
        """Identifiers of clusters without children."""
        return [cid for cid, cluster in self.clusters.items() if not cluster.children]

    def stability(self, cluster_id: int) -> float:
        """Excess-of-mass stability of a cluster (HDBSCAN*'s objective)."""
        cluster = self.clusters[cluster_id]
        birth = cluster.birth_lambda
        end_level = cluster.split_lambda
        total = 0.0
        for point, level in cluster.point_lambdas.items():
            total += min(level, end_level) - birth if np.isfinite(min(level, end_level)) else 0.0
        # Points passed down to children leave this cluster at the split level.
        n_passed = sum(self.clusters[child].size for child in cluster.children)
        if n_passed and np.isfinite(end_level):
            total += n_passed * (end_level - birth)
        return float(total)

    def selectable_clusters(self) -> list[int]:
        """Every cluster except the root (the root is the trivial solution)."""
        return [cid for cid in self.clusters if cid != 0]

    def labels_for_selection(self, selected: list[int]) -> np.ndarray:
        """Flat labels for a set of selected clusters; unassigned points are noise."""
        labels = np.full(self.n_samples, -1, dtype=np.int64)
        for flat_label, cluster_id in enumerate(sorted(selected)):
            for point in self.clusters[cluster_id].members:
                labels[point] = flat_label
        return labels


class ReferenceFOSC(FOSC):
    """FOSC's dict-based dynamic program over a reference :class:`CondensedTree`."""

    def extract(
        self, tree: CondensedTree, constraints: ConstraintSet | list | None = None
    ) -> FOSCSelection | list[FOSCSelection]:
        """Select the optimal antichain of clusters from ``tree``.

        A list of sets gives one selection per set, each extracted alone.
        """
        if isinstance(constraints, (list, tuple)):
            return [self.extract(tree, constraint_set) for constraint_set in constraints]
        constraints = constraints if constraints is not None else ConstraintSet()
        use_constraints = len(constraints) > 0

        quality = self._cluster_qualities(tree, constraints, use_constraints)
        selected, objective = self._optimal_selection(tree, quality)

        if not selected:
            # Degenerate hierarchy (no significant split): everything is one
            # cluster rather than all-noise, which matches what OPTICS-based
            # extraction would return for a structureless data set.
            labels = np.zeros(tree.n_samples, dtype=np.int64)
            root_members = tree.root.members
            in_root = np.zeros(tree.n_samples, dtype=bool)
            in_root[np.fromiter(root_members, dtype=np.intp, count=len(root_members))] = True
            labels[~in_root] = -1
            return FOSCSelection([0], labels, objective, use_constraints)

        labels = tree.labels_for_selection(selected)
        return FOSCSelection(selected, labels, objective, use_constraints)

    # ------------------------------------------------------------------
    def _cluster_qualities(
        self,
        tree: CondensedTree,
        constraints: ConstraintSet,
        use_constraints: bool,
    ) -> dict[int, float]:
        """Per-cluster quality: constraint satisfaction plus scaled stability."""
        # Iterating a ConstraintSet builds one Constraint per pair; do it once,
        # not once per cluster.
        constraint_list = list(constraints)
        stabilities = {cid: tree.stability(cid) for cid in tree.selectable_clusters()}
        max_stability = max(stabilities.values(), default=0.0)
        if max_stability <= 0.0:
            max_stability = 1.0

        qualities: dict[int, float] = {}
        for cluster_id in tree.selectable_clusters():
            normalised_stability = stabilities[cluster_id] / max_stability
            if use_constraints:
                satisfaction = self._constraint_satisfaction(
                    tree.clusters[cluster_id].members, constraint_list
                )
                qualities[cluster_id] = satisfaction + self.stability_weight * normalised_stability
            else:
                qualities[cluster_id] = normalised_stability
        return qualities

    @staticmethod
    def _constraint_satisfaction(members: set[int], constraints: list[Constraint]) -> float:
        """Constraint-endpoint satisfaction credit of one candidate cluster.

        Following the semi-supervised FOSC objective, each constraint
        contributes through its endpoints that fall inside the candidate
        cluster: a must-link is rewarded only when both endpoints are inside
        (weight 1), a cannot-link endpoint inside the cluster is rewarded
        with weight 1/2 when its partner is outside.  The credit is
        normalised by the total number of constraints so values are
        comparable across hierarchies.
        """
        if not len(constraints):
            return 0.0
        credit = 0.0
        for constraint in constraints:
            in_i = constraint.i in members
            in_j = constraint.j in members
            if constraint.is_must_link:
                if in_i and in_j:
                    credit += 1.0
            else:
                if in_i and in_j:
                    continue
                if in_i or in_j:
                    credit += 0.5
        return credit / len(constraints)

    @staticmethod
    def _optimal_selection(
        tree: CondensedTree, quality: dict[int, float]
    ) -> tuple[list[int], float]:
        """Bottom-up dynamic program over the condensed tree."""
        best_value: dict[int, float] = {}
        keep_node: dict[int, bool] = {}

        # Children always have larger identifiers than their parents, so
        # descending id order is a valid bottom-up traversal.
        for cluster_id in sorted(tree.selectable_clusters(), reverse=True):
            cluster = tree.clusters[cluster_id]
            own = quality[cluster_id]
            children_value = sum(best_value[child] for child in cluster.children)
            if cluster.children and children_value > own:
                best_value[cluster_id] = children_value
                keep_node[cluster_id] = False
            else:
                best_value[cluster_id] = own
                keep_node[cluster_id] = True

        selected: list[int] = []
        stack = list(tree.root.children)
        total = sum(best_value[child] for child in tree.root.children)
        while stack:
            cluster_id = stack.pop()
            if keep_node[cluster_id]:
                selected.append(cluster_id)
            else:
                stack.extend(tree.clusters[cluster_id].children)
        return sorted(selected), float(total)


def mpck_assign_reference(
    X: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    point_center_distances: np.ndarray,
    log_det: np.ndarray,
    max_sq: np.ndarray,
    must_indptr: np.ndarray,
    must_indices: np.ndarray,
    cannot_indptr: np.ndarray,
    cannot_indices: np.ndarray,
    order: np.ndarray,
    constraint_weight: float,
) -> np.ndarray:
    """Per-point, per-neighbour, per-cluster Python loop (the ICM baseline)."""
    n_clusters = weights.shape[0]
    w = constraint_weight
    labels = labels.copy()

    for index in order:
        costs = point_center_distances[index] - log_det
        for other in must_indices[must_indptr[index]:must_indptr[index + 1]]:
            other_label = labels[other]
            diff = X[index] - X[other]
            diff_sq = diff * diff
            partner = np.sum(diff_sq * weights[other_label])
            for h in range(n_clusters):
                if h != other_label:
                    # Violated must-link: penalty grows with the distance
                    # between the two points under both involved metrics.
                    pair_distance = 0.5 * (np.sum(diff_sq * weights[h]) + partner)
                    costs[h] += w * pair_distance
        for other in cannot_indices[cannot_indptr[index]:cannot_indptr[index + 1]]:
            other_label = labels[other]
            diff = X[index] - X[other]
            pair_distance = np.sum(diff * diff * weights[other_label])
            # Violated cannot-link: penalty is larger the closer the pair.
            costs[other_label] += w * max(max_sq[other_label] - pair_distance, 0.0)
        labels[index] = int(np.argmin(costs))
    return labels
