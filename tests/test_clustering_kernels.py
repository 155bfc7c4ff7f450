"""Parity tests for the vectorised clustering kernels.

The contract of :mod:`repro.clustering.kernels` is *bit-identity*: for any
input, each of the three hot kernels must produce exactly the result of its
interpreter-bound oracle in :mod:`repro.clustering.reference` — merge
records, condensed trees, selections and labels.
The property-based tests below drive both with adversarial inputs:
duplicate points (zero distances, infinite density levels), tied distances
(integer grids), singleton clusters, and empty constraint sets.  The
estimator-level tests refit inside :func:`kernel_oracle.reference_kernels`,
which swaps every consumer's kernel name for its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import kernels as K
from repro.clustering import reference as R
from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.fosc import FOSCOpticsDend
from repro.clustering.hierarchy import (
    CondensedTreeArrays,
    build_tree_structure,
    mutual_reachability,
)
from repro.clustering.mpckmeans import _EPS, MPCKMeans
from repro.constraints import (
    ConstraintSet,
    cannot_link,
    constraints_from_labels,
    must_link,
    sample_labeled_objects,
)
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import MUST_LINK, Constraint

from kernel_oracle import reference_kernels

settings.register_profile("repro-kernels", max_examples=20, deadline=None)
settings.load_profile("repro-kernels")


# ----------------------------------------------------------------------
# Strategies: adversarial data sets
# ----------------------------------------------------------------------

@st.composite
def adversarial_datasets(draw, min_samples=4, max_samples=32):
    """Data sets rich in duplicate points and tied distances.

    A small pool of *integer-valued* base points (ties are exact in
    float64) is sampled with replacement (duplicates), optionally with a
    tiny jitter on a subset so near-ties appear as well.
    """
    n_samples = draw(st.integers(min_samples, max_samples))
    n_features = draw(st.integers(1, 3))
    n_base = draw(st.integers(2, max(2, n_samples // 2)))
    base = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=n_features, max_size=n_features),
            min_size=n_base,
            max_size=n_base,
        )
    )
    base_arr = np.asarray(base, dtype=np.float64)
    picks = draw(
        st.lists(st.integers(0, n_base - 1), min_size=n_samples, max_size=n_samples)
    )
    X = base_arr[np.asarray(picks, dtype=np.intp)]
    if draw(st.booleans()):
        jitter_rows = draw(
            st.lists(st.integers(0, n_samples - 1), min_size=0, max_size=3)
        )
        for row in jitter_rows:
            X[row] += draw(st.floats(-1e-6, 1e-6, allow_nan=False))
    return X


@st.composite
def constraint_sets(draw, n_samples):
    """Constraint sets over ``0..n_samples-1``, possibly empty."""
    constraints = ConstraintSet()
    n_pairs = draw(st.integers(0, 6))
    for _ in range(n_pairs):
        i = draw(st.integers(0, n_samples - 1))
        j = draw(st.integers(0, n_samples - 1))
        if i == j:
            continue
        kind = draw(st.booleans())
        try:
            constraints.add(must_link(i, j) if kind else cannot_link(i, j))
        except ValueError:
            continue  # contradicts an earlier pick — skip
    return constraints


# ----------------------------------------------------------------------
# Kernel 1: MST + single-linkage merge records
# ----------------------------------------------------------------------

class TestSingleLinkageParity:
    @given(adversarial_datasets(), st.integers(1, 4))
    def test_mst_and_merge_records_bit_identical(self, X, min_pts):
        distances = pairwise_distances(X)
        core = k_nearest_distances(distances, min(min_pts, X.shape[0]))
        mreach = mutual_reachability(distances, core)
        ref_edges = R.minimum_spanning_tree_reference(mreach)
        vec_edges = K.minimum_spanning_tree(mreach)
        assert np.array_equal(ref_edges, vec_edges)
        ref_tree = R.single_linkage_tree_reference(ref_edges, X.shape[0])
        vec_tree = K.single_linkage_tree(ref_edges, X.shape[0])
        assert np.array_equal(ref_tree, vec_tree)

    def test_tiny_inputs(self):
        for mst in (K.minimum_spanning_tree, R.minimum_spanning_tree_reference):
            assert mst(np.zeros((1, 1))).shape == (0, 3)

    def test_disconnected_graph_joins_through_inf_edges(self):
        # Vertex 1 has no finite distance: Prim's argmin used to land on the
        # in-tree vertex 0 and emit a (0, 0, inf) self-loop, on which
        # condense_tree raised IndexError.
        inf = np.inf
        distances = np.array([[0.0, inf, 2.0], [inf, 0.0, inf], [2.0, inf, 0.0]])
        expected = np.array([[0.0, 2.0, 2.0], [0.0, 1.0, inf]])
        for mst in (K.minimum_spanning_tree, R.minimum_spanning_tree_reference):
            edges = mst(distances)
            np.testing.assert_array_equal(edges, expected)
            merges = K.single_linkage_tree(edges, 3)
            assert K.condense_tree(merges, 3, 2).sizes.tolist() == [3]

    def test_disconnected_components_follow_the_sparse_join_convention(self):
        from scipy.sparse import csr_matrix

        from repro.core.neighbor_graph import sparse_mst_edges

        # Components {0, 3}, {1, 4} and {2}: each joins vertex 0 through an
        # inf edge at its lowest index, exactly as sparse_mst_edges does.
        distances = np.full((5, 5), np.inf)
        np.fill_diagonal(distances, 0.0)
        distances[0, 3] = distances[3, 0] = 1.5
        distances[1, 4] = distances[4, 1] = 2.5
        graph = csr_matrix(np.where(np.isinf(distances), 0.0, distances))
        expected = sparse_mst_edges(graph)
        for mst in (K.minimum_spanning_tree, R.minimum_spanning_tree_reference):
            np.testing.assert_array_equal(mst(distances), expected)

    def test_wrong_edge_count_rejected_by_both(self):
        for single_linkage in (K.single_linkage_tree, R.single_linkage_tree_reference):
            with pytest.raises(ValueError):
                single_linkage(np.zeros((2, 3)), 6)

    def test_all_duplicate_points(self):
        # Every distance and every core distance is zero: a fully tied input.
        distances = pairwise_distances(np.zeros((7, 2)))
        mreach = mutual_reachability(distances, k_nearest_distances(distances, 3))
        ref_edges = R.minimum_spanning_tree_reference(mreach)
        np.testing.assert_array_equal(ref_edges, K.minimum_spanning_tree(mreach))
        np.testing.assert_array_equal(
            R.single_linkage_tree_reference(ref_edges, 7), K.single_linkage_tree(ref_edges, 7)
        )

    def test_disconnected_components_under_finite_distances(self):
        # Three groups far apart: the two joining edges are the heaviest.
        distances = pairwise_distances(np.array([[0.0], [0.1], [0.2], [50.0], [50.1], [99.0]]))
        mreach = mutual_reachability(distances, k_nearest_distances(distances, 2))
        ref_edges = R.minimum_spanning_tree_reference(mreach)
        np.testing.assert_array_equal(ref_edges, K.minimum_spanning_tree(mreach))
        assert sorted(ref_edges[-2:, 2].tolist()) == pytest.approx([48.9, 49.8])


# ----------------------------------------------------------------------
# Kernel 2: FOSC condensed tree + extraction
# ----------------------------------------------------------------------

def _merge_records(X, min_pts):
    distances = pairwise_distances(X)
    core = k_nearest_distances(distances, min(min_pts, X.shape[0]))
    mreach = mutual_reachability(distances, core)
    edges = K.minimum_spanning_tree(mreach)
    return K.single_linkage_tree(edges, X.shape[0])


class TestCondensedTreeParity:
    @given(adversarial_datasets(min_samples=5), st.integers(2, 5), st.integers(2, 4))
    def test_structure_lambdas_and_stabilities_bit_identical(self, X, min_pts, min_cluster_size):
        merges = _merge_records(X, min_pts)
        reference = R.CondensedTree(merges, X.shape[0], min_cluster_size)
        data = K.condense_tree(merges, X.shape[0], min_cluster_size)

        assert len(reference.clusters) == data.n_clusters
        for cluster_id, cluster in reference.clusters.items():
            assert cluster.parent == data.parent[cluster_id]
            assert cluster.birth_lambda == data.birth_lambda[cluster_id]
            assert cluster.split_lambda == data.split_lambda[cluster_id]
            assert cluster.children == data.children[cluster_id]
            assert cluster.size == data.sizes[cluster_id]
            members = set(np.flatnonzero(
                (data.enter[data.point_cluster] >= data.enter[cluster_id])
                & (data.enter[data.point_cluster] <= data.exit[cluster_id])
            ).tolist())
            assert cluster.members == members

        for cluster_id, cluster in reference.clusters.items():
            for point, level in cluster.point_lambdas.items():
                assert data.point_cluster[point] == cluster_id
                assert data.point_lambda[point] == level

        vectorized_stability = K.stabilities(data)
        for cluster_id in reference.clusters:
            assert reference.stability(cluster_id) == vectorized_stability[cluster_id]

    @given(adversarial_datasets(min_samples=5), st.integers(2, 4))
    def test_fosc_extraction_bit_identical(self, X, min_cluster_size):
        merges = _merge_records(X, 3)
        constraints = ConstraintSet()
        reference = R.CondensedTree(merges, X.shape[0], min_cluster_size)
        data = K.condense_tree(merges, X.shape[0], min_cluster_size)
        ref_sel = R.ReferenceFOSC().extract(reference, constraints)
        i_idx, j_idx, kinds = constraints.as_arrays()
        [(selected, labels, objective, used)] = K.fosc_extract_folds(
            data, [(i_idx, j_idx, kinds == MUST_LINK)], 1e-3
        )
        assert ref_sel.selected_clusters == selected
        assert np.array_equal(ref_sel.labels, labels)
        assert ref_sel.objective == objective
        assert ref_sel.used_constraints == used

    @given(st.data())
    def test_fosc_extraction_with_constraints_bit_identical(self, data_strategy):
        X = data_strategy.draw(adversarial_datasets(min_samples=6))
        constraints = data_strategy.draw(constraint_sets(X.shape[0]))
        closure = transitive_closure(constraints, strict=False)
        merges = _merge_records(X, 3)
        reference = R.CondensedTree(merges, X.shape[0], 3)
        data = K.condense_tree(merges, X.shape[0], 3)
        ref_sel = R.ReferenceFOSC().extract(reference, closure)
        i_idx, j_idx, kinds = closure.as_arrays()
        [(selected, labels, objective, used)] = K.fosc_extract_folds(
            data, [(i_idx, j_idx, kinds == MUST_LINK)], 1e-3
        )
        assert ref_sel.selected_clusters == selected
        assert np.array_equal(ref_sel.labels, labels)
        assert ref_sel.objective == objective
        assert ref_sel.used_constraints == used

    def test_reference_extract_builds_each_constraint_once(self, blobs_dataset, monkeypatch):
        """The oracle walks the closure per cluster, but iterates the set once.

        Iterating a ``ConstraintSet`` constructs a ``Constraint`` per pair;
        doing that per candidate cluster made the kernel bench time
        constraint construction rather than the extraction.
        """
        X, y = blobs_dataset.X, blobs_dataset.y
        labeled = sample_labeled_objects(y, 0.2, random_state=3)
        closure = transitive_closure(constraints_from_labels(labeled), strict=False)
        merges = _merge_records(X, 5)
        reference = R.CondensedTree(merges, X.shape[0], 5)
        assert len(reference.selectable_clusters()) > 1 and len(closure) > 0

        built = []
        post_init = Constraint.__post_init__

        def counting(self):
            built.append(None)
            post_init(self)

        monkeypatch.setattr(Constraint, "__post_init__", counting)
        ref_sel = R.ReferenceFOSC().extract(reference, closure)
        monkeypatch.undo()
        assert len(built) <= len(closure)

        i_idx, j_idx, kinds = closure.as_arrays()
        data = K.condense_tree(merges, X.shape[0], 5)
        [(selected, labels, objective, _)] = K.fosc_extract_folds(
            data, [(i_idx, j_idx, kinds == MUST_LINK)], 1e-3
        )
        assert ref_sel.selected_clusters == selected
        assert np.array_equal(ref_sel.labels, labels)
        assert ref_sel.objective == objective

    def test_degenerate_single_point_hierarchy(self):
        data = K.condense_tree(np.empty((0, 4)), 1, 2)
        assert data.n_clusters == 1
        assert data.sizes[0] == 1
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0, dtype=bool))
        [(selected, labels, objective, used)] = K.fosc_extract_folds(data, [empty], 1e-3)
        assert selected == [0]
        assert labels.tolist() == [0]
        assert not used

    def test_all_duplicate_points_condense_to_the_root(self):
        merges = _merge_records(np.zeros((7, 2)), 3)
        reference = R.CondensedTree(merges, 7, 3)
        data = K.condense_tree(merges, 7, 3)
        assert data.n_clusters == 1
        assert reference.leaves() == [0]
        assert reference.root.members == set(range(7))

    def test_min_cluster_size_validated(self):
        with pytest.raises(ValueError):
            K.condense_tree(np.empty((0, 4)), 1, 1)

    def test_array_tree_compat_api_matches_reference(self, blobs_dataset):
        vec = build_tree_structure(blobs_dataset.X, 4)
        with reference_kernels():
            ref = build_tree_structure(blobs_dataset.X, 4)
        ref_tree, vec_tree = ref.condensed_tree, vec.condensed_tree
        assert isinstance(ref_tree, R.CondensedTree)
        assert isinstance(vec_tree, CondensedTreeArrays)
        assert sorted(vec_tree.leaves()) == sorted(ref_tree.leaves())
        assert vec_tree.selectable_clusters() == ref_tree.selectable_clusters()
        assert vec_tree.root.members == ref_tree.root.members
        for cluster_id, cluster in ref_tree.clusters.items():
            compat = vec_tree.clusters[cluster_id]
            assert compat.members == cluster.members
            assert compat.point_lambdas == cluster.point_lambdas
            assert vec_tree.stability(cluster_id) == ref_tree.stability(cluster_id)
        selection = ref_tree.root.children
        assert np.array_equal(
            vec_tree.labels_for_selection(selection),
            ref_tree.labels_for_selection(selection),
        )


# ----------------------------------------------------------------------
# Kernel 3: MPCK-Means assignment
# ----------------------------------------------------------------------

class TestMpckAssignParity:
    @given(st.data())
    def test_assignment_sweep_bit_identical(self, data_strategy):
        X = data_strategy.draw(adversarial_datasets(min_samples=6))
        n_samples = X.shape[0]
        n_clusters = data_strategy.draw(st.integers(1, min(4, n_samples)))
        seed = data_strategy.draw(st.integers(0, 10**6))
        constraints = data_strategy.draw(constraint_sets(n_samples))
        closure = transitive_closure(constraints, strict=False)

        rng = np.random.default_rng(seed)
        centers = X[rng.choice(n_samples, n_clusters, replace=False)]
        weights = rng.lognormal(0.0, 0.5, size=(n_clusters, X.shape[1]))
        distances = MPCKMeans._point_center_distances(X, centers, weights)
        labels = rng.integers(0, n_clusters, size=n_samples).astype(np.int64)
        log_det = np.array(
            [float(np.sum(np.log(np.maximum(weights[h], _EPS)))) for h in range(n_clusters)]
        )
        spans = X.max(axis=0) - X.min(axis=0)
        max_sq = np.array(
            [float(np.dot(spans * weights[h], spans)) for h in range(n_clusters)]
        )
        must_indptr, must_indices = K.build_neighbor_csr(closure.must_link_array(), n_samples)
        cannot_indptr, cannot_indices = K.build_neighbor_csr(
            closure.cannot_link_array(), n_samples
        )
        order = rng.permutation(n_samples)

        args = (X, weights, labels, distances, log_det, max_sq,
                must_indptr, must_indices, cannot_indptr, cannot_indices, order, 1.5)
        assert np.array_equal(
            R.mpck_assign_reference(*args), K.mpck_assign(*args)
        )

    def test_csr_neighbor_order_matches_pairwise_appends(self):
        pairs = np.array([[3, 1], [0, 3], [3, 2], [2, 0]], dtype=np.intp)
        indptr, indices = K.build_neighbor_csr(pairs, 5)
        # Reference adjacency append order: pair by pair, both directions.
        expected = {0: [3, 2], 1: [3], 2: [3, 0], 3: [1, 0, 2], 4: []}
        for point, neighbors in expected.items():
            assert indices[indptr[point]:indptr[point + 1]].tolist() == neighbors

    def test_empty_constraints_batch_path(self):
        pairs = np.empty((0, 2), dtype=np.intp)
        indptr, indices = K.build_neighbor_csr(pairs, 4)
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert indices.size == 0

    def test_full_estimator_parity(self, iris_like_dataset, rng):
        data = iris_like_dataset
        labeled = {int(i): int(data.y[i]) for i in rng.choice(data.n_samples, 20, replace=False)}
        from repro.constraints import constraints_from_labels

        constraints = constraints_from_labels(labeled)
        vec = MPCKMeans(n_clusters=3, random_state=5, n_init=2).fit(data.X, constraints)
        with reference_kernels():
            ref = MPCKMeans(n_clusters=3, random_state=5, n_init=2).fit(data.X, constraints)
        assert np.array_equal(ref.labels_, vec.labels_)
        assert ref.objective_ == vec.objective_
        assert ref.n_iter_ == vec.n_iter_
        assert np.array_equal(ref.cluster_centers_, vec.cluster_centers_)
        assert np.array_equal(ref.metric_weights_, vec.metric_weights_)


# ----------------------------------------------------------------------
# End-to-end: estimators, CVCP and the execution backends
# ----------------------------------------------------------------------

class TestEndToEndParity:
    @given(st.integers(0, 10**6))
    def test_fosc_optics_dend_full_fit(self, seed):
        from repro.datasets.synthetic import make_blobs

        dataset = make_blobs([12, 12, 12], 2, center_spread=9.0, cluster_std=0.8,
                             random_state=seed % 100, name="kernel-parity")
        constraints = ConstraintSet([must_link(0, 1), cannot_link(0, 12), cannot_link(12, 24)])
        vec = FOSCOpticsDend(min_pts=4).fit(dataset.X, constraints)
        with reference_kernels():
            ref = FOSCOpticsDend(min_pts=4).fit(dataset.X, constraints)
        assert isinstance(ref.structure_.condensed_tree, R.CondensedTree)
        assert np.array_equal(ref.labels_, vec.labels_)
        assert ref.selection_.selected_clusters == vec.selection_.selected_clusters
        assert ref.selection_.objective == vec.selection_.objective

    def test_structure_phase_build(self, blobs_dataset):
        vec = build_tree_structure(blobs_dataset.X, 4)
        with reference_kernels():
            ref = build_tree_structure(blobs_dataset.X, 4)
        assert isinstance(ref.condensed_tree, R.CondensedTree)
        assert np.array_equal(ref.core_distances, vec.core_distances)
        assert np.array_equal(ref.mst_edges, vec.mst_edges)
        assert np.array_equal(ref.single_linkage_tree, vec.single_linkage_tree)
        assert ref.condensed_tree.leaves() == vec.condensed_tree.leaves()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_cvcp_selects_identically_across_kernels_and_backends(self, backend, blobs_dataset):
        from repro.constraints.generation import sample_labeled_objects
        from repro.core.cvcp import CVCP
        from repro.core.executor import ExecutionSpec

        side = sample_labeled_objects(blobs_dataset.y, 0.2, random_state=1)
        def select() -> tuple:
            search = CVCP(
                FOSCOpticsDend(),
                parameter_values=[3, 6],
                n_folds=3,
                random_state=7,
                execution=ExecutionSpec(backend=backend, n_jobs=2),
            )
            search.fit(blobs_dataset.X, labeled_objects=side)
            return (
                dict(search.best_params_),
                [list(e.fold_scores) for e in search.cv_results_.evaluations],
            )

        vectorized = select()
        with reference_kernels():
            assert select() == vectorized
