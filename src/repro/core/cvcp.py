"""The CVCP model-selection driver (Section 3.3 and Figure 1 of the paper).

:class:`CVCP` wires the pieces together:

1. build constraint-aware folds from the provided side information
   (Scenario I for labelled objects, Scenario II for pairwise constraints);
2. for every candidate parameter value and every fold, fit the estimator on
   the full data with the *training-fold* information only, and score the
   resulting partition on the *test-fold* constraints with the average
   per-class F-measure.  The unit of grid work is a value's fold set for
   estimators with a cached structure phase (FOSC-OPTICSDend: one structure
   lookup and one extraction call score every pending fold of a MinPts),
   and a single (value × fold) cell with its own seeded clone otherwise
   (MPCK-Means);
3. select the parameter value with the highest mean score;
4. refit the estimator with the selected value using *all* available side
   information — the final model returned to the user.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.constraints.constraint import ConstraintSet
from repro.constraints.oracles import ConstraintOracle, PerfectOracle
from repro.core.admissibility import check_input
from repro.core.distance_backend import resolve_distance_backend
from repro.core.executor import ExecutionSpec, derive_seed, run_tasks
from repro.core.folds import CVCPFold, make_folds
from repro.core.model_selection import CVCPResult, ParameterEvaluation
from repro.core.scoring import SCORERS, score_partition
from repro.utils.cache import array_fingerprint, cached_pairwise_distances
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_positive_int


class NoTestConstraintsWarning(UserWarning):
    """No fold has test constraints: every candidate scores 0.0 and the first one is selected."""


@dataclass
class _GridTask:
    """One independent unit of the CVCP grid: a parameter value and some of its folds.

    For estimators that declare ``structure_caching`` (FOSC-OPTICSDend) a
    task holds every pending fold of one value: the worker checks the
    input, looks up the value's structure and extracts all the folds'
    training sets in one call (:meth:`~repro.clustering.fosc.FOSCOpticsDend.fit_folds`).
    Such estimators are deterministic, so one clone serves the value.  Any
    other estimator (MPCK-Means) gets one task per (value × fold) cell
    with its own derived child seed.  The task returns each fold's labels;
    the submitting process scores and journals them fold by fold.  Must
    stay picklable for the process backend; the data matrix itself travels
    once per worker via the task runner's initializer (see
    :func:`_register_grid_data`), so tasks only carry its key.
    """

    estimator: BaseClusterer
    data_key: str
    folds: list[CVCPFold]
    use_labels_directly: bool


#: Per-process registry of data matrices shared by all tasks of a grid run.
#: Process workers receive their entry through the task runner's initializer
#: (once per worker, not per task); in the submitting process the entry is
#: reference-counted so concurrent grid runs over the same data (e.g.
#: thread-parallel trials) can share it safely.
_GRID_DATA: dict[str, np.ndarray] = {}
_GRID_DATA_REFS: dict[str, int] = {}
_GRID_DATA_LOCK = threading.Lock()


def _register_grid_data(key: str, X: np.ndarray) -> None:
    """Worker-side initializer: make the grid's data matrix available."""
    _GRID_DATA[key] = X


def _acquire_grid_data(key: str, X: np.ndarray) -> None:
    with _GRID_DATA_LOCK:
        _GRID_DATA[key] = X
        _GRID_DATA_REFS[key] = _GRID_DATA_REFS.get(key, 0) + 1


def _release_grid_data(key: str) -> None:
    with _GRID_DATA_LOCK:
        remaining = _GRID_DATA_REFS.get(key, 1) - 1
        if remaining <= 0:
            _GRID_DATA.pop(key, None)
            _GRID_DATA_REFS.pop(key, None)
        else:
            _GRID_DATA_REFS[key] = remaining


def _fit_grid_task(task: _GridTask) -> list[np.ndarray | None]:
    """Labels of a fit on each fold's training information.

    A fold without test constraints cannot be scored, so it is not fitted
    and gets ``None``.
    """
    scored = [fold for fold in task.folds if fold.has_test_information()]
    if not scored:
        return [None] * len(task.folds)
    X = _GRID_DATA[task.data_key]
    side_information = [
        (None, fold.training_labels) if task.use_labels_directly and fold.training_labels
        else (fold.training_constraints, None)
        for fold in scored
    ]
    if getattr(task.estimator, "structure_caching", False):
        fold_labels = iter(task.estimator.fit_folds(X, side_information))
    else:
        [(constraints, seed_labels)] = side_information
        task.estimator.fit(X, constraints, seed_labels)
        fold_labels = iter([task.estimator.labels_])
    return [next(fold_labels) if fold.has_test_information() else None for fold in task.folds]


class CVCP:
    """Cross-Validation for finding Clustering Parameters.

    Parameters
    ----------
    estimator:
        Template semi-supervised clusterer (e.g.
        :class:`~repro.clustering.mpckmeans.MPCKMeans` or
        :class:`~repro.clustering.fosc.FOSCOpticsDend`).  It is never fitted
        directly; clones are created per parameter value.
    parameter_values:
        Candidate values of the swept parameter.
    parameter_name:
        Name of the swept constructor parameter; defaults to the
        estimator's declared ``tuned_parameter``.
    n_folds:
        Number of cross-validation folds (default 10, capped at the number
        of objects carrying side information).
    scoring:
        Internal scorer name (see :data:`repro.core.scoring.SCORERS`);
        default is the paper's class-averaged constraint F-measure.
    use_labels_directly:
        In the label scenario, pass the training-fold labels to the
        estimator as ``seed_labels`` instead of deriving constraints.  The
        default (``False``) derives constraints, which every estimator in
        this library accepts.
    refit:
        Whether to refit the winning model on all side information
        (step 4); disable to only inspect the cross-validation scores.
    random_state:
        Seed or generator controlling the fold shuffles and the clones'
        stochastic initialisation.
    oracle / oracle_scenario / oracle_amount:
        Optional supervision source (see :mod:`repro.constraints.oracles`).
        With an oracle configured, :meth:`fit` is called with
        ``ground_truth`` (the hidden labels the oracle answers from)
        instead of pre-sampled side information; the oracle then generates
        ``oracle_amount`` of side information for ``oracle_scenario``
        (``"labels"`` or ``"constraints"``) before the grid runs.
    execution:
        The execution engine as one
        :class:`~repro.core.executor.ExecutionSpec` value — backend
        (``"serial"``/``"thread"``/``"process"``), worker count, and
        distance-matrix storage tier.  Every grid cell derives its seed
        from its grid coordinates, so all engines return bit-identical
        results for the same ``random_state``.  With ``"memmap"`` as the
        distance tier the process backend's workers map the same spill
        file instead of each materialising the matrix (see
        :mod:`repro.core.distance_backend`).
    artifact_store / artifact_scope:
        Optional per-cell resume through an
        :class:`~repro.experiments.artifacts.ArtifactStore`-compatible
        store.  ``artifact_scope`` must be a JSON-serialisable mapping that
        uniquely pins this grid's inputs (the experiment drivers pass the
        trial's artifact key); the scope's cell journal is read once
        before computing and each fresh ``(value_index, fold)`` score is
        appended to it as soon as it is scored (in the submitting process,
        as its task completes), so an interrupted grid resumes from its
        scored cells.  Journal reads and appends stay in the submitting
        process — worker tasks never touch the store.

    Attributes
    ----------
    cv_results_:
        :class:`~repro.core.model_selection.CVCPResult` with per-value,
        per-fold scores.
    best_params_:
        ``{parameter_name: best value}``.
    best_score_:
        Cross-validated score of the winning value.
    best_estimator_:
        The refitted estimator (only with ``refit=True``).
    labels_:
        Labels of the refitted estimator (only with ``refit=True``).
    cell_journal_:
        The :class:`~repro.experiments.artifacts.CellJournal` of
        ``artifact_scope`` the grid read and appended to (``None`` without
        a store and scope).  Later cells of the same scope (the experiment
        runner's external fits) go through this object, so a ``refresh``
        store discards the old journal once, not again after the grid.

    Examples
    --------
    >>> from repro.clustering import MPCKMeans
    >>> from repro.constraints import constraints_from_labels
    >>> from repro.datasets import make_iris_like
    >>> data = make_iris_like(random_state=0)
    >>> side = {0: 0, 3: 0, 60: 1, 70: 1, 120: 2, 130: 2, 20: 0, 90: 1}
    >>> search = CVCP(MPCKMeans(random_state=0), parameter_values=[2, 3, 4, 5],
    ...               n_folds=4, random_state=0)
    >>> search.fit(data.X, labeled_objects=side)  # doctest: +ELLIPSIS
    <repro.core.cvcp.CVCP object at ...>
    >>> search.best_params_["n_clusters"] in [2, 3, 4, 5]
    True
    """

    def __init__(
        self,
        estimator: BaseClusterer,
        parameter_values: Sequence[Any],
        *,
        parameter_name: str | None = None,
        n_folds: int = 10,
        scoring: str = "average_f",
        use_labels_directly: bool = False,
        refit: bool = True,
        random_state: RandomStateLike = None,
        oracle: ConstraintOracle | None = None,
        oracle_scenario: str = "constraints",
        oracle_amount: float = 0.2,
        execution: ExecutionSpec | None = None,
        artifact_store=None,
        artifact_scope: dict | None = None,
    ) -> None:
        if not list(parameter_values):
            raise ValueError("parameter_values must not be empty")
        self.execution = execution if execution is not None else ExecutionSpec()
        self.estimator = estimator
        self.parameter_values = list(parameter_values)
        self.parameter_name = parameter_name or estimator.tuned_parameter
        if not self.parameter_name:
            raise ValueError(
                "parameter_name must be given when the estimator does not declare a tuned_parameter"
            )
        self.n_folds = check_positive_int(n_folds, name="n_folds", minimum=2)
        if scoring not in SCORERS:
            raise ValueError(
                f"unknown scoring {scoring!r}; available scorers: {sorted(SCORERS)}"
            )
        self.scoring = scoring
        self.use_labels_directly = use_labels_directly
        self.refit = refit
        self.random_state = random_state
        if oracle_scenario not in ("labels", "constraints"):
            raise ValueError(
                f"oracle_scenario must be 'labels' or 'constraints', got {oracle_scenario!r}"
            )
        self.oracle = oracle
        self.oracle_scenario = oracle_scenario
        self.oracle_amount = oracle_amount
        self.artifact_store = artifact_store
        self.artifact_scope = artifact_scope

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
            import multiprocessing

            if resolved != "neighbors" and (
                multiprocessing.get_start_method() == "fork" or resolved == "memmap"
            ):
                cached_pairwise_distances(
                    X, self._effective_metric(), distance_backend=effective
                )

        data_key = array_fingerprint(X)
        n_folds = len(folds)

        # Per-cell resume: cells whose score is already in the scope's cell
        # journal are served from it; only the remaining cells hit the
        # task runner.  Each task's folds are scored in this process as the
        # task completes (the ``on_result`` hook), and every score is
        # appended as soon as it exists, so a grid interrupted mid-flight
        # continues from its scored cells.
        journal = None
        if self.artifact_store is not None and self.artifact_scope is not None:
            journal = self.artifact_store.journal(self.artifact_scope)
        self.cell_journal_ = journal
        scores: list[list[float | None]] = [[None] * n_folds for _ in self.parameter_values]
        pending: dict[int, list[int]] = {}
        for value_index in range(len(self.parameter_values)):
            for fold_index in range(n_folds):
                if journal is not None:
                    cached = journal.get("grid", value_index, fold_index)
                    if cached is not None:
                        scores[value_index][fold_index] = float(cached)
                        continue
                pending.setdefault(value_index, []).append(fold_index)

        if pending:
            # Warm the constraint-independent structure phase of every value
            # that still has cells to compute, in one lock-step pass:
            # persisted "structure" artifacts (shared across oracles, folds
            # and constraint amounts) are decoded and the rest built into
            # the per-process memo here in the submitting process, so
            # serial/thread tasks and fork-started process workers
            # re-extract instead of refitting.  Fully cache-served grids
            # skip the warm-up entirely.
            self._warm_structures(X, sorted(pending))
            # A structure-caching estimator scores all pending folds of a
            # value in one task; any other fits one cell per task.
            if getattr(self.estimator, "structure_caching", False):
                cells = list(pending.items())
            else:
                cells = [
                    (value_index, [fold_index])
                    for value_index, fold_indices in pending.items()
                    for fold_index in fold_indices
                ]
            tasks = [
                _GridTask(
                    estimator=self._make_estimator(
                        self.parameter_values[value_index],
                        derive_seed(master_seed, value_index, fold_indices[0]),
                    ),
                    data_key=data_key,
                    folds=[folds[fold_index] for fold_index in fold_indices],
                    use_labels_directly=self.use_labels_directly,
                )
                for value_index, fold_indices in cells
            ]

            def score_task(position: int, fold_labels: list[np.ndarray | None]) -> None:
                """Score a finished task's folds here, journalling each score as it lands."""
                value_index, fold_indices = cells[position]
                for fold_index, labels in zip(fold_indices, fold_labels):
                    score = 0.0
                    if labels is not None:
                        score = score_partition(
                            labels, folds[fold_index].test_constraints, scoring=self.scoring
                        )
                    scores[value_index][fold_index] = score
                    if journal is not None:
                        journal.put("grid", value_index, fold_index, score)

            # The serial/thread backends read the matrix straight from this
            # process's registry; only process workers need it shipped (once
            # per worker, via the initializer) rather than pickled into
            # every task.  Without a store the callback is omitted, keeping
            # the pool backends on their chunked fast path, and the tasks
            # are scored once all have finished.
            process = self.execution.backend == "process"
            _acquire_grid_data(data_key, X)
            try:
                computed = run_tasks(
                    _fit_grid_task,
                    tasks,
                    backend=self.execution.backend or "serial",
                    n_jobs=self.execution.n_jobs,
                    on_result=score_task if journal is not None else None,
                    initializer=_register_grid_data if process else None,
                    initargs=(data_key, X) if process else (),
                )
            finally:
                _release_grid_data(data_key)
            if journal is None:
                for position, fold_labels in enumerate(computed):
                    score_task(position, fold_labels)

        evaluations = [
            ParameterEvaluation(
                value=value,
                fold_scores=scores[value_index],
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
        if not any(fold.has_test_information() for fold in folds):
            warnings.warn(
                f"no CVCP fold has test constraints, so every candidate scores 0.0 and "
                f"the first, {self.best_params_}, is selected without a score",
                NoTestConstraintsWarning,
                stacklevel=2,
            )

        if self.refit:
            best_index = self.parameter_values.index(self.cv_results_.best_value)
            self._warm_structures(X, [best_index])
            refit_seed = derive_seed(master_seed, best_index, n_folds)
            self.best_estimator_ = self._refit(X, labeled_objects, constraints, refit_seed)
            self.labels_ = self.best_estimator_.labels_
        return self

    def fit_predict(
        self,
        X: np.ndarray,
        *,
        labeled_objects: dict[int, int] | None = None,
        constraints: ConstraintSet | None = None,
        ground_truth: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run CVCP and return the labels of the refitted best model."""
        if not self.refit:
            raise ValueError("fit_predict requires refit=True")
        self.fit(
            X, labeled_objects=labeled_objects, constraints=constraints,
            ground_truth=ground_truth,
        )
        return self.labels_

    # ------------------------------------------------------------------
    def _warm_structures(self, X: np.ndarray, value_indices: Sequence[int]) -> None:
        """Warm the structure phase of the given grid values in one pass.

        Every value's structure is built (or, with an artifact store,
        decoded from its persisted artifact) by one grid call in this
        process, so serial/thread cells and fork-started process workers
        re-extract instead of refitting.  Under spawn/forkserver workers
        without a store, each worker would rebuild anyway, so nothing is
        warmed — the same rule as the distance warm-up in :meth:`fit`.  A
        no-op for estimators that declare no cached structure phase (e.g.
        MPCKMeans, whose metric learning is constraint-dependent end to
        end).  Worker tasks never touch the store.
        """
        if not getattr(self.estimator, "structure_caching", False):
            return
        if self.execution.backend == "process" and self.artifact_store is None:
            import multiprocessing

            if multiprocessing.get_start_method() != "fork":
                return
        self.estimator.warm_structures(
            X,
            [self._make_estimator(self.parameter_values[index], 0) for index in value_indices],
            store=self.artifact_store,
        )

    def _effective_distance_backend(self) -> str | None:
        """The tier grid cells run under: the CVCP override or the template's own."""
        if self.execution.distance_backend is not None:
            return self.execution.distance_backend
        return self.estimator.get_params().get("distance_backend")

    def _effective_metric(self) -> str:
        """The metric grid cells run under: the CVCP override or the template's own."""
        if self.execution.metric is not None:
            return self.execution.metric
        return self.estimator.get_params().get("metric", "euclidean")

    def _make_estimator(self, value: Any, seed: int) -> BaseClusterer:
        """Clone the template with the candidate value and a derived child seed."""
        overrides: dict[str, Any] = {self.parameter_name: value}
        if "random_state" in self.estimator.get_params():
            overrides["random_state"] = int(seed)
        params = self.estimator.get_params()
        for name in ("distance_backend", "epsilon", "k_neighbors", "metric"):
            setting = getattr(self.execution, name)
            if setting is not None and name in params:
                overrides[name] = setting
        return self.estimator.clone(**overrides)

    def _refit(
        self,
        X: np.ndarray,
        labeled_objects: dict[int, int] | None,
        constraints: ConstraintSet | None,
        seed: int,
    ) -> BaseClusterer:
        """Step 4: rerun the winning model with all available side information."""
        estimator = self._make_estimator(self.cv_results_.best_value, seed)
        if labeled_objects:
            if self.use_labels_directly:
                estimator.fit(X, seed_labels=labeled_objects)
            else:
                from repro.constraints.generation import constraints_from_labels

                estimator.fit(X, constraints=constraints_from_labels(labeled_objects))
        else:
            estimator.fit(X, constraints=constraints)
        return estimator
