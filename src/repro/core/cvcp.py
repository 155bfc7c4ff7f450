"""The CVCP model-selection driver (Section 3.3 and Figure 1 of the paper).

:class:`CVCP` wires the pieces together:

1. build constraint-aware folds from the provided side information
   (Scenario I for labelled objects, Scenario II for pairwise constraints);
2. for every candidate parameter value and every fold, clone the estimator,
   fit it on the full data with the *training-fold* information only, and
   score the resulting partition on the *test-fold* constraints with the
   average per-class F-measure;
3. select the parameter value with the highest mean score;
4. refit the estimator with the selected value using *all* available side
   information — the final model returned to the user.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.constraints.constraint import ConstraintSet
from repro.constraints.oracles import ConstraintOracle, PerfectOracle
from repro.core.distance_backend import resolve_distance_backend
from repro.core.executor import ExecutionSpec, derive_seed, get_executor
from repro.core.folds import CVCPFold, make_folds
from repro.core.model_selection import CVCPResult, ParameterEvaluation
from repro.core.scoring import score_partition
from repro.utils.cache import array_fingerprint, cached_pairwise_distances
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_array_2d, check_positive_int


@dataclass
class _GridTask:
    """One independent (parameter value × fold) cell of the CVCP grid.

    The estimator is already cloned with the candidate value and its derived
    child seed, so the worker only fits and scores.  Must stay picklable for
    the process backend; the data matrix itself travels once per worker via
    the executor initializer (see :func:`_register_grid_data`), so tasks
    only carry its key.
    """

    estimator: BaseClusterer
    data_key: str
    fold: CVCPFold
    scoring: str
    use_labels_directly: bool


#: Per-process registry of data matrices shared by all tasks of a grid run.
#: Process workers receive their entry through the executor initializer
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
        trial's artifact key); each ``(value_index, fold)`` score is then
        looked up before computing and written through after, so an
        interrupted grid resumes from its completed cells.  Lookups and
        writes stay in the submitting process — worker tasks never touch
        the store.

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
        execution = execution if execution is not None else ExecutionSpec()
        self.execution = execution
        self.estimator = estimator
        self.parameter_values = list(parameter_values)
        self.parameter_name = parameter_name or estimator.tuned_parameter
        if not self.parameter_name:
            raise ValueError(
                "parameter_name must be given when the estimator does not declare a tuned_parameter"
            )
        self.n_folds = check_positive_int(n_folds, name="n_folds", minimum=2)
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
        self.n_jobs = execution.n_jobs
        self.backend = execution.backend or "serial"
        self.distance_backend = execution.distance_backend
        self.epsilon = execution.epsilon
        self.k_neighbors = execution.k_neighbors
        self.metric = execution.metric
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
        if self._effective_metric() == "precomputed":
            # X *is* the distance matrix; validated directly because a
            # legitimate precomputed matrix may contain +inf entries.
            from repro.clustering.distances import validate_precomputed_distances

            X = validate_precomputed_distances(X)
        else:
            X = check_array_2d(X)
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

        if self.backend == "process" and "metric" in self.estimator.get_params():
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

        # Per-cell resume: cells whose score is already persisted are
        # served from the store; only the remaining cells hit the executor,
        # and every fresh score is written through *as its task completes*
        # (executor ``on_result`` hook, running in this process), so a grid
        # interrupted mid-flight continues from its finished cells.
        scores: list[float | None] = [None] * len(tasks)
        pending: list[tuple[int, dict | None]] = []
        use_store = self.artifact_store is not None and self.artifact_scope is not None
        for index in range(len(tasks)):
            cell_key = None
            if use_store:
                value_index, fold_index = divmod(index, n_folds)
                cell_key = dict(
                    self.artifact_scope, phase="grid", value_index=value_index, fold=fold_index
                )
                cached = self.artifact_store.get("cell", cell_key)
                if cached is not None:
                    scores[index] = float(cached)
                    continue
            pending.append((index, cell_key))

        if pending:
            # Warm the constraint-independent structure phase of every value
            # that still has cells to compute: persisted "structure"
            # artifacts (shared across oracles, folds and constraint
            # amounts) are decoded into the per-process memo here in the
            # submitting process, so serial/thread cells and fork-started
            # process workers re-extract instead of refitting.  Fully
            # cache-served grids skip the warm-up entirely.
            self._warm_structures(
                X, sorted({divmod(index, n_folds)[0] for index, _ in pending})
            )
            # Without a store the callback is omitted entirely, keeping the
            # pool backends on their chunked fast path.
            persist_cell = None
            if use_store:
                def persist_cell(position: int, score: float) -> None:
                    self.artifact_store.put("cell", pending[position][1], score)

            executor = get_executor(
                self.backend, self.n_jobs,
                initializer=_register_grid_data if self.backend == "process" else None,
                initargs=(data_key, X) if self.backend == "process" else (),
            )
            _acquire_grid_data(data_key, X)
            try:
                computed = executor.run(
                    _evaluate_grid_cell,
                    [tasks[index] for index, _ in pending],
                    on_result=persist_cell,
                )
            finally:
                _release_grid_data(data_key)
            for (index, _), score in zip(pending, computed):
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
        """Warm the store-backed structure phase for the given grid values.

        A no-op without an artifact store or for estimators that declare no
        cached structure phase (e.g. MPCKMeans, whose metric learning is
        constraint-dependent end to end).  The warm-up stays in the
        submitting process — worker tasks never touch the store.
        """
        if self.artifact_store is None:
            return
        if not getattr(self.estimator, "structure_caching", False):
            return
        for value_index in value_indices:
            estimator = self._make_estimator(self.parameter_values[value_index], 0)
            estimator.warm_structure(X, self.artifact_store)

    def _effective_distance_backend(self) -> str | None:
        """The tier grid cells run under: the CVCP override or the template's own."""
        if self.distance_backend is not None:
            return self.distance_backend
        return self.estimator.get_params().get("distance_backend")

    def _effective_metric(self) -> str:
        """The metric grid cells run under: the CVCP override or the template's own."""
        if self.metric is not None:
            return self.metric
        return self.estimator.get_params().get("metric", "euclidean")

    def _make_estimator(self, value: Any, seed: int) -> BaseClusterer:
        """Clone the template with the candidate value and a derived child seed."""
        overrides: dict[str, Any] = {self.parameter_name: value}
        if "random_state" in self.estimator.get_params():
            overrides["random_state"] = int(seed)
        if (
            self.distance_backend is not None
            and "distance_backend" in self.estimator.get_params()
        ):
            overrides["distance_backend"] = self.distance_backend
        params = self.estimator.get_params()
        if self.epsilon is not None and "epsilon" in params:
            overrides["epsilon"] = self.epsilon
        if self.k_neighbors is not None and "k_neighbors" in params:
            overrides["k_neighbors"] = self.k_neighbors
        if self.metric is not None and "metric" in params:
            overrides["metric"] = self.metric
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


def select_parameter(
    estimator: BaseClusterer,
    X: np.ndarray,
    parameter_values: Sequence[Any],
    *,
    labeled_objects: dict[int, int] | None = None,
    constraints: ConstraintSet | None = None,
    ground_truth: np.ndarray | None = None,
    oracle: ConstraintOracle | None = None,
    oracle_scenario: str = "constraints",
    oracle_amount: float = 0.2,
    n_folds: int = 10,
    scoring: str = "average_f",
    random_state: RandomStateLike = None,
    execution: ExecutionSpec | None = None,
) -> tuple[Any, CVCPResult]:
    """Functional one-shot interface to CVCP.

    Returns ``(best value, full cross-validation result)`` without refitting;
    convenient inside experiment loops where the refit is done separately.
    ``execution`` selects the execution engine and distance-matrix storage
    tier as one :class:`~repro.core.executor.ExecutionSpec` (bit-identical
    across engines and tiers).  With an ``oracle``, pass ``ground_truth`` instead of
    pre-sampled side information and the oracle generates ``oracle_amount``
    of ``oracle_scenario`` supervision before the grid runs.
    """
    search = CVCP(
        estimator,
        parameter_values,
        n_folds=n_folds,
        scoring=scoring,
        refit=False,
        random_state=random_state,
        oracle=oracle,
        oracle_scenario=oracle_scenario,
        oracle_amount=oracle_amount,
        execution=execution,
    )
    search.fit(
        X, labeled_objects=labeled_objects, constraints=constraints, ground_truth=ground_truth
    )
    return search.cv_results_.best_value, search.cv_results_
