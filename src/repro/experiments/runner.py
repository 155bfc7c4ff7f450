"""Single-trial experiment drivers.

One *trial* fixes a data set, an algorithm, a scenario (labels or
constraints) and an amount of side information, then

1. samples a fresh set of labelled objects (label scenario) or a fresh
   constraint pool and subset (constraint scenario);
2. runs CVCP over the algorithm's parameter range, recording the internal
   (cross-validated constraint-classification) score of every value;
3. runs the algorithm once per parameter value with *all* the side
   information and records the external Overall F-Measure of each partition
   (evaluated only on objects not involved in the side information);
4. derives the quantities the paper reports: the quality of the
   CVCP-selected parameter, the expected quality over the range, the
   Silhouette-selected quality (MPCKMeans), and the internal/external
   correlation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.fosc import FOSCOpticsDend
from repro.clustering.mpckmeans import MPCKMeans
from repro.constraints.constraint import ConstraintSet
from repro.constraints.generation import constraints_from_labels
from repro.constraints.oracles import ConstraintOracle, PerfectOracle
from repro.core import admissibility
from repro.core.cvcp import CVCP
from repro.core.distance_backend import resolve_distance_backend
from repro.core.executor import run_tasks
from repro.core.model_selection import expected_quality
from repro.datasets.base import Dataset
from repro.evaluation.external import overall_f_measure
from repro.evaluation.internal import silhouette_score
from repro.experiments.artifacts import ArtifactStore, experiment_key
from repro.experiments.config import ExperimentConfig, default_config, k_range_for_dataset
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds

AlgorithmName = Literal["fosc", "mpck"]
ScenarioName = Literal["labels", "constraints"]

#: The template estimator class of each algorithm name.
TEMPLATE_CLASSES: dict[str, type[BaseClusterer]] = {"fosc": FOSCOpticsDend, "mpck": MPCKMeans}


@dataclass
class SideInformation:
    """The side information sampled for one trial."""

    scenario: ScenarioName
    labeled_objects: dict[int, int] = field(default_factory=dict)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    @property
    def involved_objects(self) -> list[int]:
        """Objects that must be excluded from the external evaluation."""
        if self.scenario == "labels":
            return sorted(self.labeled_objects)
        return self.constraints.involved_objects()

    def training_constraints(self) -> ConstraintSet:
        """Constraints to feed to the clustering algorithm."""
        if self.scenario == "labels":
            return constraints_from_labels(self.labeled_objects)
        return self.constraints

    def fit(self, search: CVCP, X) -> CVCP:
        """Fit ``search`` on ``X`` with this side information: the labels or the constraints."""
        if self.scenario == "labels":
            return search.fit(X, labeled_objects=self.labeled_objects)
        return search.fit(X, constraints=self.constraints)


@dataclass
class TrialResult:
    """Everything measured in one trial.

    Attributes
    ----------
    parameter_values:
        The swept values (MinPts or k).
    internal_scores:
        CVCP cross-validated internal score per parameter value.
    external_scores:
        Overall F-Measure per parameter value when clustering with all side
        information (evaluated on non-side-information objects only).
    cvcp_value / cvcp_quality:
        Parameter selected by CVCP and its external quality.
    expected_quality:
        Mean external quality over the range (random-guess reference).
    silhouette_value / silhouette_quality:
        Parameter selected by the Silhouette baseline and its external
        quality (populated for MPCKMeans; also computed for FOSC for the
        extension experiments, even though the paper does not report it).
    correlation:
        Pearson correlation between internal and external scores across the
        parameter range (the quantity of Tables 1–4).
    """

    algorithm: AlgorithmName
    scenario: ScenarioName
    amount: float
    parameter_values: list[int]
    internal_scores: list[float]
    external_scores: list[float]
    cvcp_value: int
    cvcp_quality: float
    expected_quality: float
    silhouette_value: int
    silhouette_quality: float
    correlation: float

    def to_dict(self) -> dict:
        """JSON-serialisable form (exact float round-trip; see artifacts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialResult":
        """Rebuild a result from :meth:`to_dict` output (or a JSON load)."""
        return cls(
            algorithm=payload["algorithm"],
            scenario=payload["scenario"],
            amount=float(payload["amount"]),
            parameter_values=[int(v) for v in payload["parameter_values"]],
            internal_scores=[float(v) for v in payload["internal_scores"]],
            external_scores=[float(v) for v in payload["external_scores"]],
            cvcp_value=int(payload["cvcp_value"]),
            cvcp_quality=float(payload["cvcp_quality"]),
            expected_quality=float(payload["expected_quality"]),
            silhouette_value=int(payload["silhouette_value"]),
            silhouette_quality=float(payload["silhouette_quality"]),
            correlation=float(payload["correlation"]),
        )


def make_side_information(
    dataset: Dataset,
    scenario: ScenarioName,
    amount: float,
    *,
    random_state: RandomStateLike = None,
    oracle: ConstraintOracle | None = None,
) -> SideInformation:
    """Sample the side information for one trial through an oracle.

    * ``scenario="labels"``: reveal ``amount`` (e.g. 0.10) of all objects.
    * ``scenario="constraints"``: build a pool from 10% of each class and
      give ``amount`` of the pool to the algorithm.

    ``oracle`` selects the supervision source (default
    :class:`~repro.constraints.oracles.PerfectOracle`, which reproduces the
    paper's idealised generation bit-for-bit for a fixed seed).
    """
    rng = check_random_state(random_state)
    if scenario not in ("labels", "constraints"):
        raise ValueError(f"unknown scenario {scenario!r}")
    oracle = oracle if oracle is not None else PerfectOracle()
    labeled, constraints = oracle.side_information(
        dataset.y, scenario, amount, random_state=rng, X=dataset.X
    )
    if scenario == "labels":
        return SideInformation(scenario="labels", labeled_objects=labeled)
    return SideInformation(scenario="constraints", constraints=constraints)


def algorithm_factory(
    algorithm: AlgorithmName,
    config: ExperimentConfig,
    *,
    random_state: RandomStateLike = None,
    metric: str | None = None,
) -> BaseClusterer:
    """Instantiate the template estimator for an algorithm name.

    ``metric`` is the data set's effective distance metric (``None`` =
    euclidean); it flows into the density-based template.  Inadmissible
    combinations raise (:mod:`repro.core.admissibility`).
    """
    seed = int(check_random_state(random_state).integers(0, 2**31 - 1))
    metric = metric or "euclidean"
    execution = config.execution
    admissibility.require(algorithm, execution.distance_backend, metric)
    if algorithm == "fosc":
        return FOSCOpticsDend(
            min_pts=5, random_state=seed, metric=metric,
            distance_backend=execution.distance_backend,
            epsilon=execution.epsilon, k_neighbors=execution.k_neighbors,
        )
    if algorithm == "mpck":
        return MPCKMeans(
            n_clusters=3,
            n_init=config.mpck_n_init,
            max_iter=config.mpck_max_iter,
            random_state=seed,
        )
    raise ValueError(f"unknown algorithm {algorithm!r}; expected 'fosc' or 'mpck'")


def parameter_values_for(
    algorithm: AlgorithmName, dataset: Dataset, config: ExperimentConfig
) -> list[int]:
    """The swept parameter range for an algorithm/data-set pair."""
    if algorithm == "fosc":
        return [value for value in config.minpts_range if value < dataset.n_samples]
    return k_range_for_dataset(dataset, max_k=config.max_k)


def selection_template(
    algorithm: AlgorithmName, dataset: Dataset, config: ExperimentConfig, rng: np.random.Generator
) -> tuple[BaseClusterer, list[int]]:
    """The template estimator and its parameter grid for one CVCP selection.

    The template is built under the data set's own metric (the one the
    drivers' keys fingerprint), drawing its seed from ``rng``; the grid
    draws nothing.
    """
    estimator = algorithm_factory(algorithm, config, random_state=rng, metric=dataset.metric)
    return estimator, parameter_values_for(algorithm, dataset, config)


def trial_artifact_key(
    config: ExperimentConfig,
    dataset: Dataset,
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    trial_seed: int,
    oracle: ConstraintOracle | None = None,
) -> dict:
    """Artifact-store key of one trial (see :func:`~repro.experiments.artifacts.experiment_key`).

    Besides the common entries it pins the scenario, the oracle spec
    (which supervision source answered the queries, with all its
    parameters) and the trial seed from which every ``(value_index,
    fold)`` grid cell inside the trial derives.
    """
    oracle = oracle if oracle is not None else PerfectOracle()
    return experiment_key(
        config,
        dataset,
        algorithm,
        amount,
        scenario=str(scenario),
        oracle=oracle.spec(),
        trial_seed=int(trial_seed),
    )


def _cached_trial(store: ArtifactStore, key: dict) -> "TrialResult | None":
    cached = store.fetch("trial", key)
    return None if cached is None else TrialResult.from_dict(cached)


def run_trial(
    dataset: Dataset,
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    *,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
    oracle: ConstraintOracle | None = None,
) -> TrialResult:
    """Run one full trial (see the module docstring).

    ``oracle`` selects the
    supervision source the side information is drawn from (default: the
    paper's perfect oracle); its spec is part of the artifact key, so
    trials generated under different oracles never share cache entries.
    With a ``store`` and an *integer* ``random_state`` (the seed doubles as
    the artifact key), a previously persisted result is returned without
    recomputation and a fresh result is written through; a generator
    ``random_state`` cannot be keyed, so it always computes.

    While a keyed trial is in flight, every finished ``(value_index, fold)``
    CVCP grid cell and every per-value external fit is appended to the
    trial's cell journal, so an interrupted trial resumes mid-grid.  Once
    the trial completes, its result is written as one ``trial`` artifact
    and the journal is removed.
    """
    config = config or default_config()
    if config.execution.metric is not None:
        # The config-level metric override is applied to the data set itself
        # so every downstream consumer — estimator construction, silhouette,
        # the trial fingerprint — sees one consistent effective metric.
        dataset = dataset.with_metric(config.execution.metric)
    key: dict | None = None
    if store is not None and isinstance(random_state, (int, np.integer)):
        key = trial_artifact_key(
            config, dataset, algorithm, scenario, amount, int(random_state), oracle
        )
        cached = _cached_trial(store, key)
        if cached is not None:
            return cached
    cell_store = store if key is not None else None
    rng = check_random_state(random_state)

    side = make_side_information(dataset, scenario, amount, random_state=rng, oracle=oracle)
    estimator, values = selection_template(algorithm, dataset, config, rng)

    # Internal scores through CVCP (no refit: the refits per parameter value
    # below double as the final models).
    search = CVCP(
        estimator,
        values,
        n_folds=config.n_folds,
        refit=False,
        random_state=rng,
        execution=config.execution,
        artifact_store=cell_store,
        artifact_scope=key,
    )
    side.fit(search, dataset.X)
    internal_scores = [evaluation.mean_score for evaluation in search.cv_results_.evaluations]

    # External quality of every parameter value with all side information.
    # The seed draw happens for every value regardless of cache hits, so the
    # generator stream (and with it later values' models) stays identical.
    training = side.training_constraints()
    exclude = side.involved_objects
    external_scores: list[float] = []
    silhouettes: list[float] = []
    # The grid's own journal object: a second one would, on a refresh store,
    # discard the grid cells just appended on its first read.
    journal = search.cell_journal_
    models = []
    for value in values:
        model = estimator.clone(**{estimator.tuned_parameter: value})
        if "random_state" in model.get_params():
            model.set_params(random_state=int(rng.integers(0, 2**31 - 1)))
        models.append(model)
    if cell_store is not None and getattr(estimator, "structure_caching", False):
        # The external fits reuse the same constraint-independent structure
        # artifacts the CVCP grid warmed (or persist them, in one pass, for
        # the next run if the grid was fully cache-served).
        estimator.warm_structures(
            dataset.X,
            [
                model for value_index, model in enumerate(models)
                if not journal.has("external", value_index)
            ],
            store=cell_store,
        )
    for value_index, model in enumerate(models):
        if journal is not None:
            cached_cell = journal.get("external", value_index)
            if cached_cell is not None:
                external_scores.append(float(cached_cell["external"]))
                silhouettes.append(float(cached_cell["silhouette"]))
                continue
        model.fit(dataset.X, constraints=training)
        external_scores.append(
            overall_f_measure(dataset.y, model.labels_, exclude=exclude)
        )
        # The Silhouette baseline needs the full matrix; under the sparse
        # neighbors tier it falls back to the blockwise exact tier (same
        # values bit-for-bit, streamed row blocks).
        silhouette_backend = config.execution.distance_backend
        if resolve_distance_backend(silhouette_backend) == "neighbors":
            silhouette_backend = "blockwise"
        silhouettes.append(
            silhouette_score(
                dataset.X, model.labels_, metric=dataset.metric,
                distance_backend=silhouette_backend,
            )
        )
        if journal is not None:
            payload = {"external": external_scores[-1], "silhouette": silhouettes[-1]}
            journal.put("external", value_index, None, payload)

    cvcp_index = int(np.argmax(internal_scores))
    silhouette_index = int(np.argmax(silhouettes))

    result = TrialResult(
        algorithm=algorithm,
        scenario=scenario,
        amount=amount,
        parameter_values=list(values),
        internal_scores=internal_scores,
        external_scores=external_scores,
        cvcp_value=int(values[cvcp_index]),
        cvcp_quality=float(external_scores[cvcp_index]),
        expected_quality=expected_quality(external_scores),
        silhouette_value=int(values[silhouette_index]),
        silhouette_quality=float(external_scores[silhouette_index]),
        correlation=_pearson(internal_scores, external_scores),
    )
    if journal is not None:
        store.land("trial", key, result.to_dict())
    return result


@dataclass(frozen=True)
class TrialBatch:
    """The inputs of one :func:`run_trials` call.

    ``name`` is the data-set name the batch reports under (an ALOI column
    runs one batch per member of its collection); ``seed`` is the batch
    seed its trial seeds are spawned from.
    """

    name: str
    dataset: Dataset
    algorithm: AlgorithmName
    scenario: ScenarioName
    amount: float
    seed: RandomStateLike
    oracle: ConstraintOracle | None = None


def trial_plan(batch: TrialBatch, config: ExperimentConfig, n_trials: int) -> list[tuple[int, dict]]:
    """``(trial_seed, artifact key)`` of the batch's ``n_trials`` trials, in run order.

    The one derivation of a batch's trials — the config's metric override
    applied to the data set, the seeds spawned from the batch seed, a
    :func:`trial_artifact_key` each — read by :func:`run_trials` and by
    the fleet's unit enumeration alike.
    """
    metric = config.execution.metric
    dataset = batch.dataset if metric is None else batch.dataset.with_metric(metric)
    seeds = spawn_seeds(check_random_state(batch.seed), n_trials)
    return [
        (seed, trial_artifact_key(
            config, dataset, batch.algorithm, batch.scenario, batch.amount, seed, batch.oracle
        ))
        for seed in seeds
    ]


def _run_trial_task(task: tuple[TrialBatch, ExperimentConfig, int]) -> TrialResult:
    # One trial of the trial-level pool.  The task must stay picklable for
    # the process backend; the artifact store is *not* shipped with it, so
    # worker processes never contend for the store.
    batch, config, seed = task
    return run_trial(
        batch.dataset, batch.algorithm, batch.scenario, batch.amount,
        config=config, random_state=seed, oracle=batch.oracle,
    )


def run_trials(
    dataset: Dataset,
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    n_trials: int,
    *,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    parallelize: Literal["grid", "trials"] = "grid",
    store: ArtifactStore | None = None,
    oracle: ConstraintOracle | None = None,
) -> list[TrialResult]:
    """Run ``n_trials`` independent trials, each with its own side information.

    ``parallelize`` chooses where the execution engine is applied:

    * ``"grid"`` (default) — every trial runs in submission order and the
      engine parallelises the (parameter × fold) grid inside its CVCP;
    * ``"trials"`` — whole trials are submitted through the engine (each
      with a serial inner grid to avoid nested pools), which amortises the
      per-task overhead better when trials are plentiful.

    Both placements return bit-identical results for a fixed seed: every
    trial's seed is derived up-front and results keep trial order.  With a
    ``store``, trials whose artifact already exists are loaded instead of
    recomputed (and freshly computed trials are written through), so an
    interrupted or re-run grid resumes where it left off.  ``oracle``
    selects the supervision source for every trial (see
    :mod:`repro.constraints.oracles`); oracles are plain picklable values,
    so they travel through the trial-level process pool unchanged.
    """
    if parallelize not in ("grid", "trials"):
        raise ValueError(
            f"parallelize must be 'grid' or 'trials', got {parallelize!r}"
        )
    config = config or default_config()
    batch = TrialBatch(dataset.name, dataset, algorithm, scenario, amount, random_state, oracle)
    plan = trial_plan(batch, config, n_trials)

    backend = config.execution.backend or "serial"
    if parallelize == "trials" and backend != "serial":
        # Whole trials travel through the pool, so artifact handling stays
        # in the submitting process: completed trials are looked up here,
        # missing ones computed by workers (without per-cell persistence,
        # which would contend across processes) and written back here.
        results: list[TrialResult | None] = [
            _cached_trial(store, key) if store is not None else None for _, key in plan
        ]
        pending = [index for index, result in enumerate(results) if result is None]
        inner = config.with_execution(backend="serial")
        tasks = [(batch, inner, plan[index][0]) for index in pending]
        persist_trial = None
        if store is not None:
            def persist_trial(position: int, result: TrialResult) -> None:
                # Runs in the submitting process as each trial completes, so
                # an interrupted batch keeps its finished trials on disk.
                # Dropping the journal clears cells an earlier grid-level
                # attempt at this trial left in flight.
                store.land("trial", plan[pending[position]][1], result.to_dict())

        computed = run_tasks(
            _run_trial_task, tasks, backend=backend, n_jobs=config.execution.n_jobs,
            on_result=persist_trial,
        )
        for index, result in zip(pending, computed):
            results[index] = result
        return [result for result in results if result is not None]

    # Grid-level placement: ``run_trial`` owns the store interaction, which
    # also persists in-flight (value_index, fold) cells for mid-trial resume.
    return [
        run_trial(
            dataset, algorithm, scenario, amount,
            config=config, random_state=seed, store=store, oracle=oracle,
        )
        for seed, _ in plan
    ]


def run_batches(
    batches: Iterable[TrialBatch],
    config: ExperimentConfig,
    *,
    store: ArtifactStore | None = None,
    parallelize: Literal["grid", "trials"] = "grid",
) -> list[TrialResult]:
    """Every batch's ``config.n_trials`` trials (see :func:`run_trials`), in batch order."""
    return [
        trial
        for batch in batches
        for trial in run_trials(
            batch.dataset, batch.algorithm, batch.scenario, batch.amount, config.n_trials,
            config=config, random_state=batch.seed, store=store,
            parallelize=parallelize, oracle=batch.oracle,
        )
    ]


def _pearson(first: Sequence[float], second: Sequence[float]) -> float:
    """Pearson correlation, 0 when either side has no variance."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.size < 2 or first.std() == 0.0 or second.std() == 0.0:
        return 0.0
    return float(np.corrcoef(first, second)[0, 1])
