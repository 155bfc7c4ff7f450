"""Property-based tests for the clustering substrates.

These check structural invariants that must hold for *any* input: partitions
returned by the clusterers are well formed, the density hierarchy is a
proper laminar family, and FOSC selections never assign one point to two
clusters.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import FOSCOpticsDend, KMeans, MPCKMeans
from repro.clustering.hierarchy import build_tree_structure
from repro.constraints import constraints_from_labels

settings.register_profile("repro-clustering", max_examples=15, deadline=None)
settings.load_profile("repro-clustering")


@st.composite
def small_datasets(draw, min_samples=8, max_samples=40, max_features=4):
    n_samples = draw(st.integers(min_samples, max_samples))
    n_features = draw(st.integers(1, max_features))
    X = draw(
        hnp.arrays(
            np.float64,
            (n_samples, n_features),
            elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False, width=32),
        )
    )
    # Spread duplicated rows apart slightly so degenerate all-equal inputs
    # remain valid but not pathological for the density estimators.
    jitter = np.linspace(0.0, 1e-3, n_samples)[:, None]
    return X + jitter


class TestPartitionInvariants:
    @given(small_datasets(), st.integers(1, 5), st.integers(0, 10**6))
    def test_kmeans_labels_are_a_partition(self, X, n_clusters, seed):
        n_clusters = min(n_clusters, X.shape[0])
        model = KMeans(n_clusters=n_clusters, n_init=1, max_iter=20, random_state=seed).fit(X)
        assert model.labels_.shape == (X.shape[0],)
        assert model.labels_.min() >= 0
        assert model.labels_.max() < n_clusters

    @given(small_datasets(), st.integers(2, 4), st.integers(0, 10**6))
    def test_mpck_labels_are_a_partition(self, X, n_clusters, seed):
        n_clusters = min(n_clusters, X.shape[0])
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, n_clusters, size=X.shape[0])
        revealed = {int(i): int(truth[i]) for i in rng.choice(X.shape[0], 4, replace=False)}
        constraints = constraints_from_labels(revealed)
        model = MPCKMeans(n_clusters=n_clusters, n_init=1, max_iter=8, random_state=seed)
        model.fit(X, constraints=constraints)
        assert model.labels_.shape == (X.shape[0],)
        assert set(np.unique(model.labels_)) <= set(range(n_clusters))
        assert np.all(model.metric_weights_ > 0)

    @given(small_datasets(), st.integers(2, 6))
    def test_fosc_labels_are_valid(self, X, min_pts):
        model = FOSCOpticsDend(min_pts=min_pts).fit(X)
        labels = model.labels_
        assert labels.shape == (X.shape[0],)
        assert labels.min() >= -1
        non_noise = np.unique(labels[labels >= 0])
        # Cluster ids are compact 0..k-1.
        assert non_noise.tolist() == list(range(non_noise.size))


class TestHierarchyInvariants:
    @given(small_datasets(), st.integers(2, 5))
    def test_condensed_tree_is_laminar(self, X, min_pts):
        min_pts = min(min_pts, X.shape[0] - 1) or 2
        tree = build_tree_structure(X, max(2, min_pts)).condensed_tree
        clusters = tree.clusters
        # Children nest inside parents and siblings are disjoint.
        for cluster in clusters.values():
            for child_id in cluster.children:
                assert clusters[child_id].members <= cluster.members
            for first in cluster.children:
                for second in cluster.children:
                    if first != second:
                        assert not (clusters[first].members & clusters[second].members)
        # The root contains every point exactly once.
        assert clusters[0].members == set(range(X.shape[0]))

    @given(small_datasets(), st.integers(2, 5))
    def test_stabilities_are_non_negative(self, X, min_pts):
        tree = build_tree_structure(X, max(2, min(min_pts, X.shape[0] - 1))).condensed_tree
        for cluster_id in tree.selectable_clusters():
            assert tree.stability(cluster_id) >= -1e-9
