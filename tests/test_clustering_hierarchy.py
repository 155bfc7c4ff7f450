"""Unit tests for the density hierarchy (mutual reachability, MST, condensed tree, structure phase)."""

import numpy as np
import pytest

from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.hierarchy import (
    CondensedTreeArrays,
    build_single_linkage_tree,
    build_tree_structure,
    minimum_spanning_tree,
    mutual_reachability,
)
from repro.clustering.kernels import condense_tree
from repro.utils.cache import cached_pairwise_distances


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
        tree = build_tree_structure(blobs_dataset.X, 4).condensed_tree
        assert tree.root.members == set(range(blobs_dataset.n_samples))

    def test_children_are_subsets_of_parents(self, blobs_dataset):
        tree = build_tree_structure(blobs_dataset.X, 4).condensed_tree
        for cluster in tree.clusters.values():
            for child_id in cluster.children:
                assert tree.clusters[child_id].members <= cluster.members

    def test_siblings_are_disjoint(self, blobs_dataset):
        tree = build_tree_structure(blobs_dataset.X, 4).condensed_tree
        for cluster in tree.clusters.values():
            children = [tree.clusters[c].members for c in cluster.children]
            for i in range(len(children)):
                for j in range(i + 1, len(children)):
                    assert not (children[i] & children[j])

    def test_stability_non_negative(self, blobs_dataset):
        tree = build_tree_structure(blobs_dataset.X, 4).condensed_tree
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


class TestBuildTreeStructure:
    def test_build_exposes_all_stages(self, blobs_dataset):
        structure = build_tree_structure(blobs_dataset.X, 5)
        n = blobs_dataset.n_samples
        assert structure.n_samples == n
        assert structure.core_distances.shape == (n,)
        assert structure.mst_edges.shape == (n - 1, 3)
        assert structure.single_linkage_tree.shape == (n - 1, 4)
        assert structure.condensed_tree.n_samples == n

    def test_min_cluster_size_defaults_to_min_pts(self, blobs_dataset):
        assert build_tree_structure(blobs_dataset.X, 7).min_cluster_size == 7

    def test_min_pts_too_large(self):
        with pytest.raises(ValueError):
            build_tree_structure(np.zeros((5, 2)), 100)

    def test_min_pts_equal_to_n_samples_is_accepted(self):
        X = np.random.default_rng(1).normal(size=(6, 2))
        assert build_tree_structure(X, 6).mst_edges.shape == (5, 3)

    @pytest.mark.parametrize("min_pts", [2, 5, 9])
    def test_core_distances_are_kth_nearest_distances(self, blobs_dataset, min_pts):
        structure = build_tree_structure(blobs_dataset.X, min_pts)
        expected = k_nearest_distances(pairwise_distances(blobs_dataset.X), min_pts)
        np.testing.assert_array_equal(structure.core_distances, expected)

    def test_core_distances_monotone_in_min_pts(self, blobs_dataset):
        small = build_tree_structure(blobs_dataset.X, 3).core_distances
        large = build_tree_structure(blobs_dataset.X, 10).core_distances
        assert (large >= small).all()

    def test_mutual_reachability_matches_the_materialised_matrix(self, blobs_dataset):
        structure = build_tree_structure(blobs_dataset.X, 4)
        stored = cached_pairwise_distances(blobs_dataset.X)
        distances = pairwise_distances(blobs_dataset.X)
        expected = mutual_reachability(distances, k_nearest_distances(distances, 4))
        np.testing.assert_array_equal(mutual_reachability(stored, structure.core_distances), expected)

    def test_mst_spans_every_point(self, blobs_dataset):
        edges = build_tree_structure(blobs_dataset.X, 4).mst_edges
        endpoints = set(edges[:, :2].astype(np.int64).ravel().tolist())
        assert endpoints == set(range(blobs_dataset.n_samples))

    def test_between_cluster_edges_dominate_the_tree(self, blobs_dataset):
        """The two edges joining the three blobs dwarf every within-blob edge."""
        weights = np.sort(build_tree_structure(blobs_dataset.X, 4).mst_edges[:, 2])
        assert weights[-2] > 4 * np.median(weights)
        assert weights[-3] < weights[-2] / 2

    def test_last_merge_holds_every_point(self, blobs_dataset):
        merges = build_tree_structure(blobs_dataset.X, 5).single_linkage_tree
        assert merges[-1, 3] == blobs_dataset.n_samples
        assert merges[-1, 2] == merges[:, 2].max()

    def test_refit_is_deterministic(self, blobs_dataset):
        first = build_tree_structure(blobs_dataset.X, 6)
        second = build_tree_structure(blobs_dataset.X, 6)
        np.testing.assert_array_equal(first.mst_edges, second.mst_edges)
        np.testing.assert_array_equal(first.single_linkage_tree, second.single_linkage_tree)

    def test_larger_min_cluster_size_never_adds_clusters(self, blobs_dataset):
        # A split is kept only when both sides reach min_cluster_size, so the
        # kept splits at a larger size are a subset of those at a smaller one.
        counts = [
            len(build_tree_structure(blobs_dataset.X, 4, min_cluster_size=size).condensed_tree.clusters)
            for size in range(2, 12)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] >= 4  # the root and the three blobs survive
