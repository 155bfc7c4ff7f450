"""The fold-batched FOSC grid against the per-cell path it replaced.

``CVCP`` now scores every pending fold of one MinPts in one task: one input
check, one structure lookup and one ``FOSC.extract`` call whose kernel
(``fosc_extract_folds``) stacks the folds' constraint credits.
``tests/fosc_cell_oracle.py`` keeps the per-cell path verbatim.  Every fold
score, selection, refit label, journal line and store count must be equal,
byte for byte:

* across scenarios, ``use_labels_directly``, degenerate folds, must-only and
  cannot-only sets, one-cluster trees, the ``precomputed`` metric, the
  ``neighbors`` tier, every backend and the grid shapes of
  ``tests/test_grid_structure.py``;
* for a Hypothesis corpus of trees × fold sets, where the kernel is also
  checked against ``ReferenceFOSC``;
* for trials interrupted inside their grid and resumed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fosc_cell_oracle as oracle
import repro.core.cvcp as cvcp_module
import repro.experiments.runner as runner_module
from repro.clustering import kernels as K
from repro.clustering import reference as R
from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.fosc import FOSC, FOSCOpticsDend
from repro.clustering.hierarchy import (
    build_tree_structure,
    clear_structure_cache,
    mutual_reachability,
    structure_cache_stats,
)
from repro.constraints import cannot_link, constraints_from_labels, must_link, sample_labeled_objects
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import MUST_LINK, ConstraintSet
from repro.core import CVCP
from repro.core.executor import ExecutionSpec
from repro.core.folds import make_folds
from repro.datasets import make_blobs
from repro.experiments import ExperimentConfig, run_trial
from repro.experiments.artifacts import ArtifactStore
from repro.utils.cache import clear_distance_cache

from test_grid_structure import grids

batch = settings(max_examples=12, deadline=None)


@pytest.fixture(autouse=True)
def cold_caches():
    clear_distance_cache()
    clear_structure_cache()
    yield
    clear_distance_cache()
    clear_structure_cache()


@pytest.fixture(scope="module")
def blobs():
    return make_blobs([30, 30, 30], 2, center_spread=6.0, cluster_std=1.0, random_state=4)


def grid_outcome(search: CVCP) -> dict:
    """Everything a grid run yields, in exact (``repr``/byte) form."""
    outcome = {
        "scores": [[repr(score) for score in e.fold_scores] for e in search.cv_results_.evaluations],
        "best": search.best_params_,
        "best_score": repr(search.best_score_),
    }
    if search.refit:
        selection = search.best_estimator_.selection_
        outcome["labels"] = search.labels_.tobytes()
        outcome["selection"] = (
            selection.selected_clusters, repr(selection.objective), selection.used_constraints,
        )
    return outcome


def run_both(X, side, values, *, tmp_path=None, template=None, journal_order=True, **options):
    """Run the per-cell oracle grid and the batched grid, cold, on fresh stores."""
    template = template or {}
    outcomes = []
    for path, (cvcp, estimator) in {
        "cell": (oracle.CellCVCP, oracle.CellFOSCOpticsDend),
        "batch": (CVCP, FOSCOpticsDend),
    }.items():
        clear_distance_cache()
        clear_structure_cache()
        store = scope = None
        if tmp_path is not None:
            store, scope = ArtifactStore(tmp_path / path), {"grid": "fold-batch"}
        search = cvcp(
            estimator(**template), values, random_state=0, artifact_store=store,
            artifact_scope=scope, **options,
        )
        search.fit(X, **side)
        outcome = grid_outcome(search)
        if store is not None:
            journal = store.journal(scope).path.read_bytes()
            outcome["journal"] = journal if journal_order else sorted(journal.splitlines())
            outcome["store"] = store.stats_by_kind()
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    return outcomes[1]


def fold_shape(side, n_folds):
    """``(has training constraints, has test constraints)`` per fold."""
    folds = make_folds(**side, n_folds=n_folds, random_state=np.random.default_rng(0))
    return {(len(fold.training_constraints) > 0, fold.has_test_information()) for fold in folds}


class TestGrids:
    @pytest.mark.parametrize("use_labels_directly", [False, True])
    @pytest.mark.parametrize("refit", [True, False])
    def test_scenario_one(self, blobs, tmp_path, use_labels_directly, refit):
        side = {"labeled_objects": sample_labeled_objects(blobs.y, 0.2, random_state=3)}
        run_both(
            blobs.X, side, [3, 5, 9, 14, 200], tmp_path=tmp_path, n_folds=4,
            use_labels_directly=use_labels_directly, refit=refit,
        )

    def test_scenario_two(self, blobs, tmp_path):
        labeled = sample_labeled_objects(blobs.y, 0.25, random_state=5)
        side = {"constraints": constraints_from_labels(labeled)}
        run_both(blobs.X, side, [3, 6, 12], tmp_path=tmp_path, n_folds=5)

    @pytest.mark.parametrize("kind", ["must", "cannot"])
    def test_one_kind_of_constraint(self, blobs, tmp_path, kind):
        rng = np.random.default_rng(11)
        constraints = ConstraintSet()
        for _ in range(40):
            i, j = (int(v) for v in rng.choice(90, size=2, replace=False))
            same = blobs.y[i] == blobs.y[j]
            if kind == "must" and same:
                constraints.add(must_link(i, j))
            elif kind == "cannot" and not same:
                constraints.add(cannot_link(i, j))
        assert len(constraints) > 5
        run_both(blobs.X, {"constraints": constraints}, [3, 6, 12], tmp_path=tmp_path, n_folds=4)

    @pytest.mark.parametrize("use_labels_directly", [False, True])
    def test_folds_without_test_or_training_constraints(self, blobs, tmp_path, use_labels_directly):
        # Three labels in two folds: the two-object fold trains on one label
        # (no training constraints) and the one-object fold has nothing to
        # score (no test constraints).
        side = {"labeled_objects": {0: 0, 1: 0, 40: 1}}
        assert fold_shape(side, 2) == {(False, True), (True, False)}
        run_both(
            blobs.X, side, [3, 5], tmp_path=tmp_path, n_folds=2,
            use_labels_directly=use_labels_directly,
        )
        # No fold can score anything.
        side = {"labeled_objects": {0: 0, 40: 1}}
        assert fold_shape(side, 2) == {(False, False)}
        run_both(
            blobs.X, side, [3, 5], tmp_path=tmp_path / "unscored", n_folds=2,
            use_labels_directly=use_labels_directly,
        )

    def test_one_cluster_trees(self, tmp_path):
        X = np.zeros((30, 2))
        X[15:] += 1e-9
        side = {"labeled_objects": {0: 0, 1: 0, 20: 1, 25: 1, 10: 0, 29: 1}}
        # MinPts 40 clamps to 29, whose tree has only its root.
        assert build_tree_structure(X, 29).condensed_tree.arrays.n_clusters == 1
        run_both(X, side, [40, 3, 15], tmp_path=tmp_path, n_folds=3)
        run_both(X, side, [40], tmp_path=tmp_path / "root-only", n_folds=3)

    def test_precomputed_metric(self, blobs, tmp_path):
        matrix = pairwise_distances(blobs.X)
        side = {"labeled_objects": sample_labeled_objects(blobs.y, 0.2, random_state=3)}
        run_both(
            np.maximum(matrix, matrix.T), side, [3, 6, 9], tmp_path=tmp_path, n_folds=4,
            template={"metric": "precomputed"},
        )

    def test_neighbors_tier(self, blobs, tmp_path):
        side = {"labeled_objects": sample_labeled_objects(blobs.y, 0.2, random_state=3)}
        run_both(
            blobs.X, side, [3, 6, 9], tmp_path=tmp_path, n_folds=4,
            execution=ExecutionSpec(distance_backend="neighbors", k_neighbors=12),
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends(self, blobs, tmp_path, backend):
        side = {"labeled_objects": sample_labeled_objects(blobs.y, 0.2, random_state=3)}
        # Tasks complete in any order in a pool, so only the set of journal
        # lines is fixed.
        run_both(
            blobs.X, side, [3, 5, 9], tmp_path=tmp_path, n_folds=4, journal_order=False,
            execution=ExecutionSpec(backend=backend, n_jobs=2),
        )
        run_both(
            blobs.X, side, [3, 5, 9], n_folds=4,
            execution=ExecutionSpec(backend=backend, n_jobs=2),
        )

    @batch
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_grid_shapes(self, case, seed):
        X, values = case
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=X.shape[0])
        side = {"labeled_objects": sample_labeled_objects(labels, 0.2, random_state=seed % 1000)}
        if len(side["labeled_objects"]) < 2:
            side = {"labeled_objects": {0: 0, 1: int(X.shape[0] > 2)}}
        run_both(X, side, values, n_folds=3)

    def test_one_structure_lookup_per_value(self, blobs):
        side = sample_labeled_objects(blobs.y, 0.2, random_state=3)
        CVCP(FOSCOpticsDend(), [3, 5, 9], n_folds=4, random_state=0, refit=False).fit(
            blobs.X, labeled_objects=side
        )
        stats = structure_cache_stats()
        # One grid build, then one lookup per value (the per-cell path made
        # one per fold).
        assert (stats.misses, stats.hits) == (3, 3)


def closed_folds(X, side, n_folds):
    folds = make_folds(**side, n_folds=n_folds, random_state=np.random.default_rng(0))
    return [transitive_closure(fold.training_constraints, strict=False) for fold in folds]


class TestEstimator:
    @pytest.mark.parametrize("min_pts", [2, 3, 7, 30])
    def test_fit_folds_equals_one_fit_per_fold(self, blobs, min_pts):
        labeled = sample_labeled_objects(blobs.y, 0.2, random_state=3)
        folds = make_folds(labeled_objects=labeled, n_folds=5, random_state=np.random.default_rng(0))
        side = [(fold.training_constraints, None) for fold in folds]
        side += [(None, fold.training_labels) for fold in folds] + [(None, None)]
        batched = FOSCOpticsDend(min_pts=min_pts).fit_folds(blobs.X, side)
        for labels, (constraints, seed_labels) in zip(batched, side, strict=True):
            alone = oracle.CellFOSCOpticsDend(min_pts=min_pts).fit(blobs.X, constraints, seed_labels)
            assert labels.dtype == alone.labels_.dtype
            assert labels.tobytes() == alone.labels_.tobytes()

    def test_fit_is_the_one_set_batch(self, blobs):
        labeled = sample_labeled_objects(blobs.y, 0.2, random_state=3)
        model = FOSCOpticsDend(min_pts=4).fit(blobs.X, seed_labels=labeled)
        alone = oracle.CellFOSCOpticsDend(min_pts=4).fit(blobs.X, seed_labels=labeled)
        assert model.selection_.selected_clusters == alone.selection_.selected_clusters
        assert repr(model.selection_.objective) == repr(alone.selection_.objective)
        assert model.labels_.tobytes() == alone.labels_.tobytes()
        assert model.structure_ is alone.structure_

    def test_extract_takes_a_list_and_keeps_each_selection(self, blobs):
        labeled = sample_labeled_objects(blobs.y, 0.3, random_state=3)
        sets = closed_folds(blobs.X, {"labeled_objects": labeled}, 6) + [ConstraintSet()]
        tree = build_tree_structure(blobs.X, 3).condensed_tree
        selections = FOSC(stability_weight=0.5).extract(tree, sets)
        assert len(FOSC(stability_weight=0.5).extract(tree, tuple(sets))) == len(sets)
        for selection, constraints in zip(selections, sets, strict=True):
            alone = oracle.FOSC(stability_weight=0.5).extract(tree, constraints)
            assert_same_selection(selection, alone)
        assert_same_selection(FOSC().extract(tree), oracle.FOSC().extract(tree))


def assert_same_selection(observed, expected) -> None:
    assert observed.selected_clusters == expected.selected_clusters
    assert repr(observed.objective) == repr(expected.objective)
    assert observed.used_constraints == expected.used_constraints
    assert observed.labels.dtype == expected.labels.dtype
    assert observed.labels.tobytes() == expected.labels.tobytes()


# ----------------------------------------------------------------------
# The kernel over a Hypothesis corpus of trees × fold sets
# ----------------------------------------------------------------------

@st.composite
def trees_and_fold_sets(draw):
    """Tied, duplicate-rich data, its merge records, and several constraint sets."""
    n_samples = draw(st.integers(2, 40))
    pool = draw(st.integers(1, max(1, n_samples // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(-4, 5, size=(pool, draw(st.integers(1, 3)))).astype(np.float64)
    X = base[rng.integers(0, pool, size=n_samples)]
    if draw(st.booleans()):
        X = X + rng.normal(scale=draw(st.sampled_from([1e-7, 0.5])), size=X.shape)
    min_pts = draw(st.integers(1, n_samples))
    min_cluster_size = draw(st.integers(2, max(2, n_samples)))
    distances = pairwise_distances(X)
    core = k_nearest_distances(distances, min_pts)
    merges = K.single_linkage_tree(K.minimum_spanning_tree(mutual_reachability(distances, core)), n_samples)
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        kinds = draw(st.sampled_from(["mixed", "must", "cannot", "empty"]))
        constraints = ConstraintSet()
        for _ in range(0 if kinds == "empty" else draw(st.integers(0, 12))):
            i, j = (int(v) for v in rng.integers(0, n_samples, size=2))
            must = kinds == "must" or (kinds == "mixed" and bool(rng.integers(2)))
            if i != j:
                try:
                    constraints.add(must_link(i, j) if must else cannot_link(i, j))
                except ValueError:
                    pass
        sets.append(transitive_closure(constraints, strict=False))
    weight = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0]))
    return merges, n_samples, min_cluster_size, sets, weight


@settings(max_examples=150, deadline=None)
@given(trees_and_fold_sets())
def test_kernel_equals_one_set_extractions_and_the_reference(case):
    merges, n_samples, min_cluster_size, sets, weight = case
    data = K.condense_tree(merges, n_samples, min_cluster_size)
    arrays = []
    for constraints in sets:
        i_idx, j_idx, kinds = constraints.as_arrays()
        arrays.append((i_idx, j_idx, kinds == MUST_LINK))
    batched = K.fosc_extract_folds(data, arrays, weight)
    # A second call reuses the tree's tables (a root-only tree needs none).
    assert (data.selection is None) == (data.n_clusters == 1)
    again = K.fosc_extract_folds(data, arrays[::-1], weight)[::-1]
    reference_tree = R.CondensedTree(merges, n_samples, min_cluster_size)
    for result, repeat, fold, constraints in zip(batched, again, arrays, sets, strict=True):
        selected, labels, objective, used = result
        expected = oracle.fosc_extract(data, *fold, weight)
        assert selected == expected[0] == repeat[0]
        assert labels.dtype == expected[1].dtype
        assert labels.tobytes() == expected[1].tobytes() == repeat[1].tobytes()
        assert repr(objective) == repr(expected[2]) == repr(repeat[2])
        assert used is expected[3]
        reference = R.ReferenceFOSC(stability_weight=weight).extract(reference_tree, constraints)
        assert reference.selected_clusters == selected
        assert np.array_equal(reference.labels, labels)
        assert reference.objective == objective


def test_lca_table_is_quadratic_and_exact():
    X = np.random.default_rng(3).normal(size=(400, 2))
    data = build_tree_structure(X, 2).condensed_tree.arrays
    tables = K.selection_tables(data)
    n_clusters = data.n_clusters
    assert tables.lca.shape == (n_clusters, n_clusters)
    assert tables.lca.itemsize <= 2
    parent = data.parent.tolist()

    def ancestors(cluster):
        chain = [cluster]
        while chain[-1] > 0:
            chain.append(parent[chain[-1]])
        return chain

    rng = np.random.default_rng(0)
    for a, b in rng.integers(0, n_clusters, size=(300, 2)).tolist():
        shared = set(ancestors(b))
        assert tables.lca[a, b] == next(c for c in ancestors(a) if c in shared)


# ----------------------------------------------------------------------
# Interrupted and resumed trials
# ----------------------------------------------------------------------

TINY = ExperimentConfig(
    n_trials=1, n_folds=3, minpts_range=(3, 6, 9), mpck_n_init=1, mpck_max_iter=8,
    max_k=5, datasets=("Iris",), seed=0,
)


class TrialCellCVCP(oracle.CellCVCP):
    """The per-cell grid plus the journal object the runner used to open itself."""

    def fit(self, X, **side):
        super().fit(X, **side)
        self.cell_journal_ = None
        if self.artifact_store is not None and self.artifact_scope is not None:
            self.cell_journal_ = self.artifact_store.journal(self.artifact_scope)
        return self


def use_cell_path(patch) -> None:
    patch.setattr(runner_module, "CVCP", TrialCellCVCP)
    patch.setattr(FOSCOpticsDend, "fit", oracle.CellFOSCOpticsDend.fit)


def interrupt_scoring(patch, call: int) -> None:
    """Raise ``KeyboardInterrupt`` on the ``call``-th grid score, on either path."""
    original = cvcp_module.score_partition
    calls = {"count": 0}

    def interrupting(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == call:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    patch.setattr(cvcp_module, "score_partition", interrupting)
    patch.setattr(oracle, "score_partition", interrupting)


@pytest.mark.parametrize("scenario", ["labels", "constraints"])
@pytest.mark.parametrize("call", [1, 2, 4, 5])
def test_resumed_trial_pins_the_cell_path(tmp_path, blobs, monkeypatch, scenario, call):
    outcomes = []
    for path in ("cell", "batch"):
        clear_distance_cache()
        clear_structure_cache()
        store = ArtifactStore(tmp_path / path)

        def trial():
            return run_trial(blobs, "fosc", scenario, 0.2, config=TINY, random_state=7, store=store)

        with monkeypatch.context() as patch:
            if path == "cell":
                use_cell_path(patch)
            interrupt_scoring(patch, call)
            with pytest.raises(KeyboardInterrupt):
                trial()
        journals = [journal.read_bytes() for journal in (tmp_path / path).glob("journal/*/*.jsonl")]
        interrupted = (store.stats_by_kind(), journals)
        store.reset_stats()
        with monkeypatch.context() as patch:
            if path == "cell":
                use_cell_path(patch)
            result = trial()
        outcomes.append((interrupted, store.stats_by_kind(), result))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0][0]["cell"]["writes"] == call - 1
