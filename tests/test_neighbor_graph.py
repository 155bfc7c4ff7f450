"""Property-based tests for the neighbor-graph layer (the ``neighbors`` tier).

The sparse substrate behind ``distance_backend="neighbors"`` carries an
approximate-by-contract promise (see ``docs/determinism.md``): in the
exhaustive regime (``k_neighbors >= n``, ``epsilon = inf``) every derived
object — stored graph entries, core distances, mutual reachability, MST
edge weights, merge records, FOSC labels — must equal the dense tier
entry-for-entry, while at practical settings the structural invariants
must survive adversarial inputs: duplicate points, tied distances,
singleton clusters, and an ``epsilon`` below every pairwise gap.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import FOSCOpticsDend
from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.hierarchy import build_tree_structure, mutual_reachability
from repro.core.neighbor_graph import (
    DEFAULT_NEIGHBOR_EPSILON,
    DEFAULT_NEIGHBOR_K,
    NEIGHBOR_EPSILON_ENV_VAR,
    NEIGHBOR_K_ENV_VAR,
    build_neighbor_graph,
    cached_neighbor_graph,
    clear_neighbor_graph_cache,
    mutual_reachability_graph,
    neighbor_graph_cache_stats,
    resolve_neighbor_epsilon,
    resolve_neighbor_k,
    sparse_mst_edges,
)
from repro.utils.cache import clear_distance_cache

settings.register_profile("repro-neighbor-graph", max_examples=15, deadline=None)
settings.load_profile("repro-neighbor-graph")


@st.composite
def random_datasets(draw, min_samples=4, max_samples=48, max_features=4):
    n_samples = draw(st.integers(min_samples, max_samples))
    n_features = draw(st.integers(1, max_features))
    return draw(
        hnp.arrays(
            np.float64,
            (n_samples, n_features),
            elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False, width=32),
        )
    )


@st.composite
def duplicated_datasets(draw):
    """Data sets where at least one point appears two or more times."""
    X = draw(random_datasets(min_samples=4, max_samples=24))
    n = X.shape[0]
    source = draw(st.integers(0, n - 1))
    copies = draw(st.integers(1, min(4, n - 1)))
    targets = draw(
        st.lists(st.integers(0, n - 1).filter(lambda i: i != source),
                 min_size=copies, max_size=copies, unique=True)
    )
    X = X.copy()
    for target in targets:
        X[target] = X[source]
    return X


def assert_exhaustive_matches_dense(X):
    """Entry-for-entry parity of every derived object in the k=n/eps=inf regime."""
    n = X.shape[0]
    X = np.ascontiguousarray(X, dtype=np.float64)
    graph = build_neighbor_graph(X, epsilon=np.inf, k_neighbors=n)
    assert graph.exhaustive

    dense = pairwise_distances(X)
    densified = graph.graph.toarray()
    off_diagonal = ~np.eye(n, dtype=bool)
    np.testing.assert_array_equal(densified[off_diagonal], dense[off_diagonal])

    min_pts = min(4, n)
    core_sparse = graph.core_distances(min_pts)
    core_dense = k_nearest_distances(dense, min_pts)
    np.testing.assert_array_equal(core_sparse, core_dense)

    mreach_sparse = mutual_reachability_graph(graph.graph, core_sparse)
    mreach_dense = mutual_reachability(dense, core_dense)
    np.testing.assert_array_equal(mreach_sparse.toarray()[off_diagonal], mreach_dense[off_diagonal])

    mst_sparse = sparse_mst_edges(mreach_sparse)
    # The complete stored graph routes through the dense Prim kernel, so
    # the full edge list — endpoints, tie order and weights — must match.
    from repro.clustering.hierarchy import minimum_spanning_tree

    mst_dense = minimum_spanning_tree(mreach_dense)
    np.testing.assert_array_equal(mst_sparse, mst_dense)

    sparse_fit, dense_fit = (
        build_tree_structure(X, min_pts, distance_backend=tier, epsilon=np.inf, k_neighbors=n)
        for tier in ("neighbors", "blockwise")
    )
    np.testing.assert_array_equal(sparse_fit.core_distances, core_dense)
    np.testing.assert_array_equal(sparse_fit.single_linkage_tree, dense_fit.single_linkage_tree)


class TestExhaustiveParity:
    @given(random_datasets())
    def test_exhaustive_regime_matches_dense(self, X):
        assert_exhaustive_matches_dense(X)

    @given(duplicated_datasets())
    def test_exhaustive_regime_matches_dense_with_duplicates(self, X):
        assert_exhaustive_matches_dense(X)

    def test_exhaustive_parity_at_n_512(self):
        # n = 512 is the panel width — the largest single-panel input and
        # the ISSUE's parity ceiling for the randomised contract.
        rng = np.random.default_rng(20260808)
        X = rng.normal(size=(512, 3))
        assert_exhaustive_matches_dense(X)

    @given(random_datasets(min_samples=8, max_samples=40), st.integers(2, 5))
    def test_fosc_labels_match_dense_in_the_exhaustive_regime(self, X, min_pts):
        clear_distance_cache()
        dense = FOSCOpticsDend(min_pts=min_pts, distance_backend="blockwise").fit(X)
        sparse = FOSCOpticsDend(
            min_pts=min_pts,
            distance_backend="neighbors",
            epsilon=np.inf,
            k_neighbors=X.shape[0],
        ).fit(X)
        # The exhaustive regime delegates its MST to the dense Prim kernel,
        # so even tied edge weights (duplicates, lattice-like inputs) merge
        # in the dense discovery order: labels are bitwise identical, not
        # merely the same partition.
        np.testing.assert_array_equal(sparse.labels_, dense.labels_)


class TestAdversarialInputs:
    @given(duplicated_datasets())
    @example(
        np.vstack([np.arange(24.0).reshape(8, 3) * 7, [[3.0, 3.0, float(np.float32(1e-5))]] * 2])
    )
    def test_duplicate_points_keep_explicit_zero_edges(self, X):
        graph = build_neighbor_graph(X, epsilon=np.inf, k_neighbors=8)
        # Duplicates are counted by exact row equality: the canonical
        # ||x||^2 + ||y||^2 - 2 x.y panel formula can put identical rows a
        # few 1e-8 apart (docs/determinism.md), so zeros of
        # pairwise_distances undercount them.
        identical = (X[:, None, :] == X[None, :, :]).all(axis=2)
        np.fill_diagonal(identical, False)
        if graph.exhaustive:
            # k >= n stores the panel formula's values entry for entry,
            # expansion artefacts included; that equality is the contract.
            n = X.shape[0]
            assert graph.graph.nnz == n * (n - 1)  # zeros are stored explicitly
            off_diagonal = ~np.eye(n, dtype=bool)
            np.testing.assert_array_equal(
                graph.graph.toarray()[off_diagonal], pairwise_distances(X)[off_diagonal]
            )
        else:
            # The KD-tree stores duplicates as explicit zero-distance
            # *edges*; pruning them would disconnect the duplicates from
            # the graph entirely.  Every stored zero joins identical rows.
            stored = graph.graph.tocoo()
            zero = stored.data == 0.0
            assert zero.any()
            assert identical[stored.row[zero], stored.col[zero]].all()
            assert int(zero.sum()) <= int(identical.sum())
        # And they survive the MST (as genuine weight-0 merges).
        core = graph.core_distances(min(2, X.shape[0]))
        mst = sparse_mst_edges(mutual_reachability_graph(graph.graph, core))
        assert mst.shape == (X.shape[0] - 1, 3)
        assert np.isfinite(mst[:, :2]).all()

    @given(st.integers(2, 6), st.integers(1, 4))
    def test_tied_distances_on_a_grid_are_deterministic(self, side, k):
        # An integer grid maximises ties; repeated builds, and the spanning
        # trees over them, must agree exactly.
        grid = np.stack(
            np.meshgrid(np.arange(side, dtype=np.float64), np.arange(side, dtype=np.float64)),
            axis=-1,
        ).reshape(-1, 2)
        first = build_neighbor_graph(grid, epsilon=np.inf, k_neighbors=k)
        second = build_neighbor_graph(grid, epsilon=np.inf, k_neighbors=k)
        np.testing.assert_array_equal(first.graph.toarray(), second.graph.toarray())
        min_pts = min(2, k + 1)
        trees = [
            sparse_mst_edges(mutual_reachability_graph(build.graph, build.core_distances(min_pts)))
            for build in (first, second)
        ]
        np.testing.assert_array_equal(trees[0], trees[1])
        # Components the k-NN graph leaves apart join through +inf edges,
        # so the tree still spans every grid point.
        assert trees[0].shape == (grid.shape[0] - 1, 3)
        assert set(trees[0][:, :2].astype(np.int64).ravel()) == set(range(grid.shape[0]))

    def test_singleton_cluster_far_from_the_rest_is_noise(self):
        rng = np.random.default_rng(7)
        blob = rng.normal(size=(20, 2))
        outlier = np.array([[1e4, 1e4]])
        X = np.vstack([blob, outlier])
        model = FOSCOpticsDend(
            min_pts=3, distance_backend="neighbors", epsilon=50.0, k_neighbors=8
        ).fit(X)
        assert model.labels_.shape == (21,)
        assert model.labels_[-1] == -1  # the singleton can never be core

    @given(random_datasets(min_samples=5, max_samples=24))
    def test_epsilon_below_every_gap_leaves_nothing_reachable(self, X):
        dense = pairwise_distances(X)
        np.fill_diagonal(dense, np.inf)
        smallest_gap = float(dense.min())
        if smallest_gap == 0.0:
            return  # duplicates: no epsilon sits below a zero gap
        epsilon = smallest_gap / 2 if np.isfinite(smallest_gap) else 1.0
        if epsilon <= 0.0:
            return  # underflow: the halved gap is not a positive epsilon
        graph = build_neighbor_graph(X, epsilon=epsilon, k_neighbors=8)
        assert graph.graph.nnz == 0
        core = graph.core_distances(2)
        assert np.isinf(core).all()
        structure = build_tree_structure(
            X, 2, distance_backend="neighbors", epsilon=epsilon, k_neighbors=8
        )
        assert np.isinf(structure.core_distances).all()
        assert np.isinf(structure.mst_edges[:, 2]).all()
        # No significant split: FOSC returns the whole data set as one
        # cluster (its documented answer for a structureless hierarchy).
        model = FOSCOpticsDend(
            min_pts=2, distance_backend="neighbors", epsilon=epsilon, k_neighbors=8
        ).fit(X)
        assert (model.labels_ == 0).all()

    def test_single_point_dataset(self):
        graph = build_neighbor_graph(np.zeros((1, 2)), epsilon=np.inf, k_neighbors=4)
        assert graph.graph.nnz == 0
        assert sparse_mst_edges(graph.graph).shape == (0, 3)


class TestResolutionAndValidation:
    def test_defaults(self):
        assert resolve_neighbor_epsilon() == DEFAULT_NEIGHBOR_EPSILON
        assert resolve_neighbor_k() == DEFAULT_NEIGHBOR_K

    def test_environment_is_consulted(self, monkeypatch):
        monkeypatch.setenv(NEIGHBOR_EPSILON_ENV_VAR, "2.5")
        monkeypatch.setenv(NEIGHBOR_K_ENV_VAR, "7")
        assert resolve_neighbor_epsilon() == 2.5
        assert resolve_neighbor_k() == 7
        # Explicit arguments win over the environment.
        assert resolve_neighbor_epsilon(1.0) == 1.0
        assert resolve_neighbor_k(3) == 3

    def test_inf_spelling_is_accepted(self, monkeypatch):
        monkeypatch.setenv(NEIGHBOR_EPSILON_ENV_VAR, "inf")
        assert np.isinf(resolve_neighbor_epsilon())

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "soon"])
    def test_bad_epsilon_environment_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv(NEIGHBOR_EPSILON_ENV_VAR, bad)
        with pytest.raises(ValueError, match=NEIGHBOR_EPSILON_ENV_VAR):
            resolve_neighbor_epsilon()

    @pytest.mark.parametrize("bad", ["0", "-3", "2.5", "many"])
    def test_bad_k_environment_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv(NEIGHBOR_K_ENV_VAR, bad)
        with pytest.raises(ValueError, match=NEIGHBOR_K_ENV_VAR):
            resolve_neighbor_k()

    def test_non_euclidean_metric_is_rejected(self):
        with pytest.raises(ValueError, match="euclidean"):
            build_neighbor_graph(np.zeros((3, 2)), metric="cosine")

    def test_min_pts_beyond_the_horizon_is_rejected(self):
        graph = build_neighbor_graph(np.random.default_rng(0).normal(size=(10, 2)),
                                     epsilon=np.inf, k_neighbors=3)
        with pytest.raises(ValueError, match="horizon"):
            graph.core_distances(5)


class TestGraphMemo:
    def test_cache_hits_on_identical_parameters(self):
        clear_neighbor_graph_cache()
        X = np.random.default_rng(3).normal(size=(30, 2))
        first = cached_neighbor_graph(X, epsilon=2.0, k_neighbors=5)
        second = cached_neighbor_graph(X, epsilon=2.0, k_neighbors=5)
        assert second is first
        stats = neighbor_graph_cache_stats()
        assert stats.hits >= 1

    def test_cache_misses_on_different_parameters(self):
        clear_neighbor_graph_cache()
        X = np.random.default_rng(4).normal(size=(30, 2))
        first = cached_neighbor_graph(X, epsilon=2.0, k_neighbors=5)
        other_k = cached_neighbor_graph(X, epsilon=2.0, k_neighbors=6)
        other_eps = cached_neighbor_graph(X, epsilon=3.0, k_neighbors=5)
        assert other_k is not first and other_eps is not first

    def test_clear_distance_cache_clears_the_graph_memo(self):
        X = np.random.default_rng(5).normal(size=(20, 2))
        cached_neighbor_graph(X, epsilon=2.0, k_neighbors=5)
        clear_distance_cache()
        assert neighbor_graph_cache_stats().size == 0
