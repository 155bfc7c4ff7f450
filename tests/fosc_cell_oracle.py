"""The per-cell CVCP path for FOSC that the fold batch replaced, kept verbatim.

``repro.core.cvcp`` now runs every pending fold of one MinPts as one task:
one input check, one structure lookup and one
:meth:`~repro.clustering.fosc.FOSC.extract` call over all the folds'
constraint sets, whose kernel
(:func:`~repro.clustering.kernels.fosc_extract_folds`) does the tree-level
work once and stacks the folds' credits.  This module keeps what it
replaced, copied unchanged: the one-cell grid task and its worker
(``_GridTask``, ``_evaluate_grid_cell``), the grid driver that made one
task per (value, fold) cell (:meth:`CellCVCP.fit`), ``FOSCOpticsDend.fit``
(:meth:`CellFOSCOpticsDend.fit`), ``FOSC.extract``, the one-set kernel
``fosc_extract`` and the ``labels_for_selection`` it called.
``tests/test_fold_batch.py`` proves the batched path byte-equal to it.

Only the class statements and ``FOSC.__init__`` are new: the copied
methods sit on subclasses of the current classes, so a :class:`CellCVCP`
over a :class:`CellFOSCOpticsDend` template runs the old grid end to end
(warm-up, journal, refit) while the rest of the library stays current.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.fosc import FOSCOpticsDend, FOSCSelection
from repro.clustering.hierarchy import CondensedTreeArrays, cached_tree_structure
from repro.clustering.kernels import CondensedArrayData, stabilities
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import MUST_LINK, ConstraintSet
from repro.constraints.oracles import PerfectOracle
from repro.core.admissibility import check_input
from repro.core.cvcp import (
    CVCP,
    _GRID_DATA,
    _acquire_grid_data,
    _register_grid_data,
    _release_grid_data,
)
from repro.core.distance_backend import resolve_distance_backend
from repro.core.executor import derive_seed, run_tasks
from repro.core.folds import CVCPFold, make_folds
from repro.core.model_selection import CVCPResult, ParameterEvaluation
from repro.core.scoring import score_partition
from repro.utils.cache import array_fingerprint, cached_pairwise_distances
from repro.utils.rng import check_random_state


def labels_for_selection(data: CondensedArrayData, selected: list[int]) -> np.ndarray:
    """Flat labels for a set of selected clusters; unassigned points are noise.

    Matches ``CondensedTree.labels_for_selection``: flat labels follow the
    sorted order of the selected cluster ids, and later clusters overwrite
    earlier ones (irrelevant for the antichains FOSC produces).
    """
    labels = np.full(data.n_samples, -1, dtype=np.int64)
    point_enter = data.enter[data.point_cluster]
    for flat_label, cluster_id in enumerate(sorted(selected)):
        members = (point_enter >= data.enter[cluster_id]) & (point_enter <= data.exit[cluster_id])
        labels[members] = flat_label
    return labels


def fosc_extract(
    data: CondensedArrayData,
    constraint_i: np.ndarray,
    constraint_j: np.ndarray,
    constraint_is_must: np.ndarray,
    stability_weight: float,
) -> tuple[list[int], np.ndarray, float, bool]:
    """FOSC optimal-selection dynamic program over flat condensed arrays.

    Parameters
    ----------
    data:
        Condensed hierarchy from :func:`condense_tree`.
    constraint_i, constraint_j:
        Constraint endpoint index arrays (may be empty).
    constraint_is_must:
        Boolean array marking must-link constraints.
    stability_weight:
        Weight of the normalised unsupervised stability term.

    Returns
    -------
    tuple
        ``(selected_clusters, labels, objective, used_constraints)`` —
        bit-identical to running the reference
        :class:`~repro.clustering.reference.ReferenceFOSC` dynamic program
        on the equivalent :class:`~repro.clustering.reference.CondensedTree`.
    """
    n_constraints = int(constraint_i.shape[0])
    use_constraints = n_constraints > 0
    n_clusters = data.n_clusters

    if n_clusters <= 1:
        # Degenerate hierarchy: everything is one cluster, like the reference.
        return [0], np.zeros(data.n_samples, dtype=np.int64), 0.0, use_constraints

    stability_all = stabilities(data)[1:]
    max_stability = float(stability_all.max()) if stability_all.size else 0.0
    if max_stability <= 0.0:
        max_stability = 1.0
    normalised = stability_all / max_stability

    if use_constraints:
        # Endpoint membership per (constraint, cluster) via DFS intervals.
        enter_i = data.enter[data.point_cluster[constraint_i]][:, None]
        enter_j = data.enter[data.point_cluster[constraint_j]][:, None]
        lo = data.enter[None, 1:]
        hi = data.exit[None, 1:]
        in_i = (enter_i >= lo) & (enter_i <= hi)
        in_j = (enter_j >= lo) & (enter_j <= hi)
        must = constraint_is_must[:, None]
        # Credits are exact multiples of 0.5, so the summation order of the
        # reference loop cannot change the totals.
        must_credit = (must & in_i & in_j).sum(axis=0)
        cannot_credit = (~must & (in_i ^ in_j)).sum(axis=0)
        satisfaction = (must_credit * 1.0 + cannot_credit * 0.5) / n_constraints
        quality = satisfaction + stability_weight * normalised
    else:
        quality = normalised

    # Bottom-up dynamic program (children have larger ids than parents).
    best_value = np.empty(n_clusters)
    keep_node = np.zeros(n_clusters, dtype=bool)
    for cluster_id in range(n_clusters - 1, 0, -1):
        own = quality[cluster_id - 1]
        cluster_children = data.children[cluster_id]
        children_value = sum(best_value[child] for child in cluster_children)
        if cluster_children and children_value > own:
            best_value[cluster_id] = children_value
        else:
            best_value[cluster_id] = own
            keep_node[cluster_id] = True

    selected: list[int] = []
    stack = list(data.children[0])
    total = sum(best_value[child] for child in data.children[0])
    while stack:
        cluster_id = stack.pop()
        if keep_node[cluster_id]:
            selected.append(cluster_id)
        else:
            stack.extend(data.children[cluster_id])
    selected = sorted(selected)

    if not selected:
        # Degenerate hierarchy (no significant split): one cluster, noise
        # for points outside the root — the root always contains every
        # point, so this is the all-zeros labelling of the reference.
        return [0], np.zeros(data.n_samples, dtype=np.int64), float(total), use_constraints

    labels = labels_for_selection(data, selected)
    return selected, labels, float(total), use_constraints


class FOSC:
    """``FOSC`` with its one-set ``extract``."""

    def __init__(self, *, stability_weight: float = 1e-3) -> None:
        if stability_weight < 0:
            raise ValueError(f"stability_weight must be >= 0, got {stability_weight}")
        self.stability_weight = stability_weight

    # ------------------------------------------------------------------
    def extract(
        self, tree: CondensedTreeArrays, constraints: ConstraintSet | None = None
    ) -> FOSCSelection:
        """Select the optimal antichain of clusters from ``tree``.

        Parameters
        ----------
        tree:
            The condensed hierarchy, processed with the FOSC kernel
            :func:`~repro.clustering.kernels.fosc_extract`.
        constraints:
            Should-link / should-not-link side information; with an empty
            set the unsupervised stability objective is used.
        """
        constraints = constraints if constraints is not None else ConstraintSet()
        i_idx, j_idx, kinds = constraints.as_arrays()
        selected, labels, objective, used = fosc_extract(
            tree.arrays, i_idx, j_idx, kinds == MUST_LINK, self.stability_weight
        )
        return FOSCSelection(selected, labels, objective, used)


class CellFOSCOpticsDend(FOSCOpticsDend):
    """``FOSCOpticsDend`` with its one-cell ``fit``."""

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "FOSCOpticsDend":
        """Cluster ``X`` guided by constraints (or a partial labelling)."""
        X = check_input(X, self.metric)
        min_pts = self._effective_min_pts(X)

        constraints = constraints if constraints is not None else ConstraintSet()
        if seed_labels:
            from repro.constraints.generation import constraints_from_labels

            constraints = constraints.merged_with(constraints_from_labels(seed_labels))
        constraints = transitive_closure(constraints, strict=False)

        # The structure phase (distances → core distances → MST → condensed
        # tree) is constraint-independent, so it is served from the
        # per-process memo; only the FOSC extraction below depends on the
        # constraint set.  Worker processes never touch the artifact store —
        # store-backed warming happens in the submitting process (see
        # :meth:`warm_structures` and the CVCP driver).
        structure = cached_tree_structure(
            X,
            min_pts,
            min_cluster_size=self.min_cluster_size,
            metric=self.metric,
            distance_backend=self.distance_backend,
            epsilon=self.epsilon,
            k_neighbors=self.k_neighbors,
        )
        fosc = FOSC(stability_weight=self.stability_weight)
        selection = fosc.extract(structure.condensed_tree, constraints)

        self.structure_ = structure
        self.selection_ = selection
        self.labels_ = selection.labels
        return self


@dataclass
class _GridTask:
    """One independent (parameter value × fold) cell of the CVCP grid.

    The estimator is already cloned with the candidate value and its derived
    child seed, so the worker only fits and scores.  Must stay picklable for
    the process backend; the data matrix itself travels once per worker via
    the task runner's initializer (see :func:`_register_grid_data`), so tasks
    only carry its key.
    """

    estimator: BaseClusterer
    data_key: str
    fold: CVCPFold
    scoring: str
    use_labels_directly: bool


def _evaluate_grid_cell(task: _GridTask) -> float:
    """Fit on the training-fold information, score on the test-fold constraints."""
    if not task.fold.has_test_information():
        return 0.0
    X = _GRID_DATA[task.data_key]
    if task.use_labels_directly and task.fold.training_labels:
        task.estimator.fit(X, seed_labels=task.fold.training_labels)
    else:
        task.estimator.fit(X, constraints=task.fold.training_constraints)
    return score_partition(
        task.estimator.labels_, task.fold.test_constraints, scoring=task.scoring
    )


class CellCVCP(CVCP):
    """``CVCP`` with its one-task-per-cell grid."""

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        *,
        labeled_objects: dict[int, int] | None = None,
        constraints: ConstraintSet | None = None,
        ground_truth: np.ndarray | None = None,
    ) -> "CVCP":
        """Run the full CVCP procedure on ``X``.

        Exactly one kind of side information must be provided:
        ``labeled_objects`` (Scenario I), ``constraints`` (Scenario II), or
        — with an ``oracle`` configured — ``ground_truth``, the hidden class
        labels the oracle generates side information from (the oracle's
        scenario and amount were fixed at construction time).
        """
        X = check_input(X, self._effective_metric())
        rng = check_random_state(self.random_state)

        if ground_truth is not None:
            if labeled_objects or (constraints is not None and len(constraints)):
                raise ValueError(
                    "provide either ground_truth (for the oracle) or explicit "
                    "side information, not both"
                )
            oracle = self.oracle if self.oracle is not None else PerfectOracle()
            labeled_objects, constraints = oracle.side_information(
                ground_truth, self.oracle_scenario, self.oracle_amount,
                random_state=rng, X=X,
            )
        elif self.oracle is not None:
            raise ValueError(
                "an oracle is configured but fit() received no ground_truth to query; "
                "pass ground_truth=y or drop the oracle and provide side information directly"
            )

        if labeled_objects and constraints is not None and len(constraints):
            raise ValueError(
                "provide either labeled_objects or constraints, not both; "
                "labels already imply their constraints"
            )
        scenario = "labels" if labeled_objects else "constraints"
        folds = make_folds(
            labeled_objects=labeled_objects,
            constraints=constraints,
            n_folds=self.n_folds,
            random_state=rng,
        )

        # One master seed; every grid cell derives its child seed from its
        # (value_index, fold_index) coordinates, so scores are independent of
        # iteration and completion order — the property that makes the
        # thread/process backends bit-identical to the serial one.
        master_seed = int(rng.integers(0, 2**63 - 1))

        if self.execution.backend == "process" and "metric" in self.estimator.get_params():
            effective = self._effective_distance_backend()
            resolved = resolve_distance_backend(effective)
            # Warm the per-process distance cache before the pool starts.
            # Fork-started workers inherit the in-RAM matrix for free;
            # that is pointless under spawn/forkserver, where each worker
            # computes (and then caches) its own copy.  The memmap tier is
            # warmed under *every* start method: the warm call writes the
            # fingerprint-keyed spill file, which all workers — however
            # started — map instead of recomputing.  The neighbors tier has
            # no full matrix to warm — its graph memo is warmed lazily in
            # whichever worker builds it first.
            if resolved != "neighbors" and (
                multiprocessing.get_start_method() == "fork" or resolved == "memmap"
            ):
                cached_pairwise_distances(
                    X, self._effective_metric(), distance_backend=effective
                )

        data_key = array_fingerprint(X)
        tasks = [
            _GridTask(
                estimator=self._make_estimator(
                    value, derive_seed(master_seed, value_index, fold_index)
                ),
                data_key=data_key,
                fold=fold,
                scoring=self.scoring,
                use_labels_directly=self.use_labels_directly,
            )
            for value_index, value in enumerate(self.parameter_values)
            for fold_index, fold in enumerate(folds)
        ]
        # The serial/thread backends read the matrix straight from this
        # process's registry; only process workers need it shipped (once per
        # worker, via the initializer) rather than pickled into every task.
        n_folds = len(folds)

        # Per-cell resume: cells whose score is already in the scope's cell
        # journal are served from it; only the remaining cells hit the
        # task runner, and every fresh score is appended *as its task
        # completes* (the ``on_result`` hook, running in this
        # process), so a grid interrupted mid-flight continues from its
        # finished cells.
        journal = None
        if self.artifact_store is not None and self.artifact_scope is not None:
            journal = self.artifact_store.journal(self.artifact_scope)
        scores: list[float | None] = [None] * len(tasks)
        pending: list[int] = []
        for index in range(len(tasks)):
            if journal is not None:
                cached = journal.get("grid", *divmod(index, n_folds))
                if cached is not None:
                    scores[index] = float(cached)
                    continue
            pending.append(index)

        if pending:
            # Warm the constraint-independent structure phase of every value
            # that still has cells to compute, in one lock-step pass:
            # persisted "structure" artifacts (shared across oracles, folds
            # and constraint amounts) are decoded and the rest built into
            # the per-process memo here in the submitting process, so
            # serial/thread cells and fork-started process workers
            # re-extract instead of refitting.  Fully cache-served grids
            # skip the warm-up entirely.
            self._warm_structures(
                X, sorted({divmod(index, n_folds)[0] for index in pending})
            )
            # Without a store the callback is omitted entirely, keeping the
            # pool backends on their chunked fast path.
            persist_cell = None
            if journal is not None:
                def persist_cell(position: int, score: float) -> None:
                    journal.put("grid", *divmod(pending[position], n_folds), score)

            process = self.execution.backend == "process"
            _acquire_grid_data(data_key, X)
            try:
                computed = run_tasks(
                    _evaluate_grid_cell,
                    [tasks[index] for index in pending],
                    backend=self.execution.backend or "serial",
                    n_jobs=self.execution.n_jobs,
                    on_result=persist_cell,
                    initializer=_register_grid_data if process else None,
                    initargs=(data_key, X) if process else (),
                )
            finally:
                _release_grid_data(data_key)
            for index, score in zip(pending, computed):
                scores[index] = score

        evaluations = [
            ParameterEvaluation(
                value=value,
                fold_scores=list(
                    scores[value_index * n_folds : (value_index + 1) * n_folds]
                ),
            )
            for value_index, value in enumerate(self.parameter_values)
        ]
        self.cv_results_ = CVCPResult(
            parameter_name=self.parameter_name,
            evaluations=evaluations,
            n_folds=len(folds),
            scenario=scenario,
        )
        self.best_params_ = {self.parameter_name: self.cv_results_.best_value}
        self.best_score_ = self.cv_results_.best_score

        if self.refit:
            best_index = self.parameter_values.index(self.cv_results_.best_value)
            self._warm_structures(X, [best_index])
            refit_seed = derive_seed(master_seed, best_index, n_folds)
            self.best_estimator_ = self._refit(X, labeled_objects, constraints, refit_seed)
            self.labels_ = self.best_estimator_.labels_
        return self
