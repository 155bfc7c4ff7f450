"""Unit tests for the density hierarchy (mutual reachability, MST, condensed tree)."""

import numpy as np
import pytest

from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.hierarchy import (
    CondensedTreeArrays,
    DensityHierarchy,
    build_single_linkage_tree,
    minimum_spanning_tree,
    mutual_reachability,
)
from repro.clustering.kernels import condense_tree


@pytest.fixture()
def small_distances():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    return X, pairwise_distances(X)


class TestMutualReachability:
    def test_lower_bounded_by_core_distances(self, small_distances):
        _, distances = small_distances
        core = k_nearest_distances(distances, 2)
        mreach = mutual_reachability(distances, core)
        for i in range(len(core)):
            for j in range(len(core)):
                if i != j:
                    assert mreach[i, j] >= max(core[i], core[j]) - 1e-12
                    assert mreach[i, j] >= distances[i, j] - 1e-12

    def test_symmetric_with_zero_diagonal(self, small_distances):
        _, distances = small_distances
        core = k_nearest_distances(distances, 2)
        mreach = mutual_reachability(distances, core)
        assert np.allclose(mreach, mreach.T)
        assert np.allclose(np.diag(mreach), 0.0)


class TestMinimumSpanningTree:
    def test_edge_count_and_sorted_weights(self, small_distances):
        _, distances = small_distances
        edges = minimum_spanning_tree(distances)
        assert edges.shape == (5, 3)
        assert (np.diff(edges[:, 2]) >= 0).all()

    def test_total_weight_matches_scipy(self, small_distances):
        from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

        _, distances = small_distances
        ours = minimum_spanning_tree(distances)[:, 2].sum()
        reference = scipy_mst(distances).sum()
        assert ours == pytest.approx(float(reference))

    def test_spanning_property(self, small_distances):
        from repro.utils.disjoint_set import DisjointSet

        _, distances = small_distances
        edges = minimum_spanning_tree(distances)
        ds = DisjointSet(range(distances.shape[0]))
        for u, v, _ in edges:
            ds.union(int(u), int(v))
        assert ds.n_components == 1

    def test_tiny_inputs(self):
        assert minimum_spanning_tree(np.zeros((1, 1))).shape == (0, 3)


class TestSingleLinkageTree:
    def test_merge_records_structure(self, small_distances):
        _, distances = small_distances
        edges = minimum_spanning_tree(distances)
        merges = build_single_linkage_tree(edges, 6)
        assert merges.shape == (5, 4)
        # The last merge contains all points.
        assert merges[-1, 3] == 6
        # Merge distances are non-decreasing (edges were sorted).
        assert (np.diff(merges[:, 2]) >= -1e-12).all()

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            build_single_linkage_tree(np.zeros((2, 3)), 6)


class TestCondensedTree:
    def _tree(self, X, min_pts=2, min_cluster_size=3):
        distances = pairwise_distances(X)
        core = k_nearest_distances(distances, min_pts)
        mreach = mutual_reachability(distances, core)
        edges = minimum_spanning_tree(mreach)
        merges = build_single_linkage_tree(edges, X.shape[0])
        return CondensedTreeArrays(condense_tree(merges, X.shape[0], min_cluster_size))

    def test_two_clear_clusters_become_two_leaves(self, small_distances):
        X, _ = small_distances
        tree = self._tree(X)
        leaves = tree.leaves()
        # Root plus two children, each holding one group of three points.
        assert len(tree.root.children) == 2
        member_sets = [tree.clusters[c].members for c in tree.root.children]
        assert {frozenset(m) for m in member_sets} == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }
        assert set(leaves) == set(tree.root.children)

    def test_every_point_belongs_to_root(self, blobs_dataset):
        hierarchy = DensityHierarchy(min_pts=4).fit(blobs_dataset.X)
        tree = hierarchy.condensed_tree_
        assert tree.root.members == set(range(blobs_dataset.n_samples))

    def test_children_are_subsets_of_parents(self, blobs_dataset):
        tree = DensityHierarchy(min_pts=4).fit(blobs_dataset.X).condensed_tree_
        for cluster in tree.clusters.values():
            for child_id in cluster.children:
                assert tree.clusters[child_id].members <= cluster.members

    def test_siblings_are_disjoint(self, blobs_dataset):
        tree = DensityHierarchy(min_pts=4).fit(blobs_dataset.X).condensed_tree_
        for cluster in tree.clusters.values():
            children = [tree.clusters[c].members for c in cluster.children]
            for i in range(len(children)):
                for j in range(i + 1, len(children)):
                    assert not (children[i] & children[j])

    def test_stability_non_negative(self, blobs_dataset):
        tree = DensityHierarchy(min_pts=4).fit(blobs_dataset.X).condensed_tree_
        for cluster_id in tree.selectable_clusters():
            assert tree.stability(cluster_id) >= 0.0

    def test_labels_for_selection(self, small_distances):
        X, _ = small_distances
        tree = self._tree(X)
        selected = tree.root.children
        labels = tree.labels_for_selection(selected)
        assert labels.shape == (6,)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_min_cluster_size_validation(self, small_distances):
        X, _ = small_distances
        with pytest.raises(ValueError):
            self._tree(X, min_cluster_size=1)

    def test_degenerate_single_point_hierarchy(self):
        tree = CondensedTreeArrays(condense_tree(np.empty((0, 4)), 1, 2))
        assert tree.root.members == {0}
        assert tree.leaves() == [0]


class TestDensityHierarchy:
    def test_fit_exposes_all_stages(self, blobs_dataset):
        hierarchy = DensityHierarchy(min_pts=5).fit(blobs_dataset.X)
        n = blobs_dataset.n_samples
        assert hierarchy.core_distances_.shape == (n,)
        assert hierarchy.mutual_reachability_.shape == (n, n)
        assert hierarchy.mst_edges_.shape == (n - 1, 3)
        assert hierarchy.single_linkage_tree_.shape == (n - 1, 4)
        assert hierarchy.condensed_tree_.n_samples == n

    def test_min_cluster_size_defaults_to_min_pts(self):
        hierarchy = DensityHierarchy(min_pts=7)
        assert hierarchy.min_cluster_size == 7

    def test_min_pts_too_large(self):
        with pytest.raises(ValueError):
            DensityHierarchy(min_pts=100).fit(np.zeros((5, 2)))
