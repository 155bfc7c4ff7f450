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
from typing import Literal, Sequence

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.fosc import FOSCOpticsDend
from repro.clustering.mpckmeans import MPCKMeans
from repro.constraints.constraint import ConstraintSet
from repro.constraints.generation import constraints_from_labels
from repro.constraints.oracles import ConstraintOracle, PerfectOracle
from repro.core.cvcp import CVCP
from repro.core.distance_backend import resolve_distance_backend
from repro.core.executor import get_executor
from repro.core.model_selection import expected_quality
from repro.datasets.base import Dataset
from repro.evaluation.external import overall_f_measure
from repro.evaluation.internal import silhouette_score
from repro.experiments.artifacts import (
    ArtifactStore,
    dataset_fingerprint,
    trial_config_fingerprint,
)
from repro.experiments.config import ExperimentConfig, default_config, k_range_for_dataset
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds

AlgorithmName = Literal["fosc", "mpck"]
ScenarioName = Literal["labels", "constraints"]


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
    euclidean); it flows into the density-based template and is rejected
    for combinations that cannot honour it (MPCKMeans learns Euclidean
    metrics; the ``neighbors`` tier is a Euclidean KD-tree index).
    """
    seed = int(check_random_state(random_state).integers(0, 2**31 - 1))
    metric = metric or "euclidean"
    if algorithm == "fosc":
        if metric != "euclidean" and resolve_distance_backend(config.distance_backend) == "neighbors":
            from repro.core.distance_backend import EXACT_DISTANCE_BACKENDS

            raise ValueError(
                f"distance_backend='neighbors' supports metric='euclidean' "
                f"only (KD-tree index), got metric={metric!r}; use an exact "
                f"distance backend ({'/'.join(EXACT_DISTANCE_BACKENDS)}) "
                f"for this metric"
            )
        return FOSCOpticsDend(
            min_pts=5, random_state=seed, metric=metric,
            distance_backend=config.distance_backend,
            epsilon=config.epsilon, k_neighbors=config.k_neighbors,
        )
    if algorithm == "mpck":
        if resolve_distance_backend(config.distance_backend) == "neighbors":
            raise ValueError(
                "distance_backend='neighbors' cannot drive MPCKMeans: the "
                "metric-learning updates need every pairwise entry, not a "
                "sparse neighbour graph; use an exact distance backend "
                "(blockwise, memmap) for algorithm='mpck'"
            )
        if metric != "euclidean":
            raise ValueError(
                f"algorithm='mpck' learns per-cluster Euclidean metrics and "
                f"cannot run under metric={metric!r}; use algorithm='fosc' "
                f"for cosine or precomputed workloads"
            )
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


def trial_artifact_key(
    config: ExperimentConfig,
    dataset: Dataset,
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    trial_seed: int,
    oracle: ConstraintOracle | None = None,
) -> dict:
    """Artifact-store key of one trial.

    The key pins everything the trial's result depends on: the
    trial-relevant config fields, the data-set content, the algorithm, the
    scenario/amount of side information, the oracle spec (which supervision
    source answered the queries, with all its parameters), and the trial
    seed from which every ``(value_index, fold)`` grid cell inside the
    trial derives.

    The exact distance tiers (blockwise/memmap) are bit-identical and
    deliberately share keys.  The ``neighbors`` tier is approximate, so its
    trials carry an extra ``approx`` entry — the tier name and the resolved
    ``epsilon``/``k_neighbors`` — and can never shadow (or be shadowed by)
    an exact-tier entry.
    """
    oracle = oracle if oracle is not None else PerfectOracle()
    key = {
        "config": trial_config_fingerprint(config),
        "dataset": dataset_fingerprint(dataset),
        "algorithm": str(algorithm),
        "scenario": str(scenario),
        "amount": float(amount),
        "oracle": oracle.spec(),
        "trial_seed": int(trial_seed),
    }
    if resolve_distance_backend(config.distance_backend) == "neighbors":
        from repro.core.neighbor_graph import resolve_neighbor_epsilon, resolve_neighbor_k

        epsilon = resolve_neighbor_epsilon(config.epsilon)
        key["approx"] = {
            "distance_backend": "neighbors",
            # JSON has no inf literal; serialise it as the string "inf".
            "epsilon": "inf" if np.isinf(epsilon) else float(epsilon),
            "k_neighbors": resolve_neighbor_k(config.k_neighbors),
        }
    return key


def _load_cached_trial(
    store: ArtifactStore,
    key: dict,
    dataset: Dataset,
    algorithm: AlgorithmName,
    config: ExperimentConfig,
) -> "TrialResult | None":
    """Fetch a persisted trial; on a hit, also sweep any orphaned cells.

    A kill between a trial's put and its compaction can leave interim cell
    artifacts behind — the hit path self-heals the store.
    """
    cached = store.get("trial", key)
    if cached is None:
        return None
    # One stat call decides whether a sweep is needed: the compaction order
    # guarantees the external(0) cell is deleted last, so its survival is a
    # reliable sentinel for a compaction interrupted mid-sweep.
    sentinel = store.path_for("cell", dict(key, phase="external", value_index=0))
    if sentinel.is_file():
        n_values = len(parameter_values_for(algorithm, dataset, config))
        _compact_trial_cells(store, key, n_values, config.n_folds)
    return TrialResult.from_dict(cached)


def _store_trial(
    store: ArtifactStore,
    key: dict,
    result: "TrialResult",
    n_values: int,
    n_folds: int,
) -> None:
    """Persist a completed trial and compact its interim cell artifacts.

    The sweep uses the configured fold cap, not the realised fold count:
    an earlier interrupted attempt may have persisted cells for folds the
    completing run did not materialise.
    """
    store.put("trial", key, result.to_dict())
    _compact_trial_cells(store, key, n_values, n_folds)


def run_trial(
    dataset: Dataset,
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    *,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    n_jobs: int | None = None,
    backend: str | None = None,
    store: ArtifactStore | None = None,
    oracle: ConstraintOracle | None = None,
) -> TrialResult:
    """Run one full trial (see the module docstring).

    ``n_jobs``/``backend`` override the execution engine of
    ``config`` for the CVCP grid inside this trial.  ``oracle`` selects the
    supervision source the side information is drawn from (default: the
    paper's perfect oracle); its spec is part of the artifact key, so
    trials generated under different oracles never share cache entries.
    With a ``store`` and an *integer* ``random_state`` (the seed doubles as
    the artifact key), a previously persisted result is returned without
    recomputation and a fresh result is written through; a generator
    ``random_state`` cannot be keyed, so it always computes.

    While a keyed trial is in flight, every finished ``(value_index, fold)``
    CVCP grid cell and every per-value external fit is persisted as its own
    ``cell`` artifact, so an interrupted trial resumes mid-grid.  Once the
    trial completes, its result is written as one ``trial`` artifact and
    the interim cells are compacted away.
    """
    config = (config or default_config()).with_execution(backend=backend, n_jobs=n_jobs)
    if config.metric is not None:
        # The config-level metric override is applied to the data set itself
        # so every downstream consumer — estimator construction, silhouette,
        # the trial fingerprint — sees one consistent effective metric.
        dataset = dataset.with_metric(config.metric)
    key: dict | None = None
    if store is not None and isinstance(random_state, (int, np.integer)):
        key = trial_artifact_key(
            config, dataset, algorithm, scenario, amount, int(random_state), oracle
        )
        cached = _load_cached_trial(store, key, dataset, algorithm, config)
        if cached is not None:
            return cached
    cell_store = store if key is not None else None
    rng = check_random_state(random_state)

    side = make_side_information(dataset, scenario, amount, random_state=rng, oracle=oracle)
    estimator = algorithm_factory(algorithm, config, random_state=rng, metric=dataset.metric)
    values = parameter_values_for(algorithm, dataset, config)

    # Internal scores through CVCP (no refit: the refits per parameter value
    # below double as the final models).
    search = CVCP(
        estimator,
        values,
        n_folds=config.n_folds,
        refit=False,
        random_state=rng,
        execution=config.execution_spec(),
        artifact_store=cell_store,
        artifact_scope=key,
    )
    if scenario == "labels":
        search.fit(dataset.X, labeled_objects=side.labeled_objects)
    else:
        search.fit(dataset.X, constraints=side.constraints)
    internal_scores = [evaluation.mean_score for evaluation in search.cv_results_.evaluations]

    # External quality of every parameter value with all side information.
    # The seed draw happens for every value regardless of cache hits, so the
    # generator stream (and with it later values' models) stays identical.
    training = side.training_constraints()
    exclude = side.involved_objects
    external_scores: list[float] = []
    silhouettes: list[float] = []
    for value_index, value in enumerate(values):
        model = estimator.clone(**{estimator.tuned_parameter: value})
        if "random_state" in model.get_params():
            model.set_params(random_state=int(rng.integers(0, 2**31 - 1)))
        cell_key = None
        if cell_store is not None:
            cell_key = dict(key, phase="external", value_index=value_index)
            cached_cell = cell_store.get("cell", cell_key)
            if cached_cell is not None:
                external_scores.append(float(cached_cell["external"]))
                silhouettes.append(float(cached_cell["silhouette"]))
                continue
        if cell_store is not None and getattr(model, "structure_caching", False):
            # The external fit reuses the same constraint-independent
            # structure artifacts the CVCP grid warmed (or persists them
            # for the next run if the grid was fully cache-served).
            model.warm_structure(dataset.X, cell_store)
        model.fit(dataset.X, constraints=training)
        external_scores.append(
            overall_f_measure(dataset.y, model.labels_, exclude=exclude)
        )
        # The Silhouette baseline needs the full matrix; under the sparse
        # neighbors tier it falls back to the blockwise exact tier (same
        # values bit-for-bit, streamed row blocks).
        silhouette_backend = config.distance_backend
        if resolve_distance_backend(silhouette_backend) == "neighbors":
            silhouette_backend = "blockwise"
        silhouettes.append(
            silhouette_score(
                dataset.X, model.labels_, metric=dataset.metric,
                distance_backend=silhouette_backend,
            )
        )
        if cell_store is not None:
            payload = {"external": external_scores[-1], "silhouette": silhouettes[-1]}
            cell_store.put("cell", cell_key, payload)

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
    if store is not None and key is not None:
        _store_trial(store, key, result, len(values), config.n_folds)
    return result


def _compact_trial_cells(store: ArtifactStore, key: dict, n_values: int, n_folds: int) -> None:
    """Drop the interim per-cell artifacts of a completed trial.

    The trial artifact now carries everything; keeping 10s of cell files
    per trial around would bloat paper-scale stores (50 trials × 6 data
    sets × 3 amounts × ~80 grid cells) for no resume benefit.

    Deletion runs from the highest coordinates down to ``external(0)`` so
    that cell — which every completed trial wrote — survives any partial
    sweep, making it the sentinel :func:`_load_cached_trial` probes.
    """
    for value_index in reversed(range(n_values)):
        for fold_index in reversed(range(n_folds)):
            store.delete("cell", dict(key, phase="grid", value_index=value_index, fold=fold_index))
        store.delete("cell", dict(key, phase="external", value_index=value_index))


@dataclass
class _TrialTask:
    """Payload of one trial submitted through the execution engine.

    Must stay picklable for the process backend; the child seed is derived
    up-front, so trials are order-independent.  The artifact store is *not*
    shipped with the task — cache lookups and writes happen in the
    submitting process, so worker processes never contend for the store.
    """

    dataset: Dataset
    algorithm: AlgorithmName
    scenario: ScenarioName
    amount: float
    config: ExperimentConfig
    random_state: int
    oracle: ConstraintOracle | None = None


def _run_trial_task(task: _TrialTask) -> TrialResult:
    return run_trial(
        task.dataset, task.algorithm, task.scenario, task.amount,
        config=task.config, random_state=task.random_state, oracle=task.oracle,
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
    n_jobs: int | None = None,
    backend: str | None = None,
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
    config = (config or default_config()).with_execution(backend=backend, n_jobs=n_jobs)
    if config.metric is not None:
        # Applied here as well as in run_trial so the artifact keys computed
        # for the trial-level pool match the keys run_trial itself derives.
        dataset = dataset.with_metric(config.metric)
    rng = check_random_state(random_state)
    seeds = spawn_seeds(rng, n_trials)

    if parallelize == "trials" and config.backend != "serial":
        # Whole trials travel through the pool, so artifact handling stays
        # in the submitting process: completed trials are looked up here,
        # missing ones computed by workers (without per-cell persistence,
        # which would contend across processes) and written back here.
        results: list[TrialResult | None] = [None] * n_trials
        pending: list[tuple[int, dict | None]] = []
        for index, seed in enumerate(seeds):
            cached = None
            key = None
            if store is not None:
                key = trial_artifact_key(config, dataset, algorithm, scenario, amount, seed, oracle)
                cached = _load_cached_trial(store, key, dataset, algorithm, config)
            if cached is not None:
                results[index] = cached
            else:
                pending.append((index, key))
        inner = config.with_overrides(backend="serial")
        tasks = [
            _TrialTask(dataset, algorithm, scenario, amount, inner, seeds[index], oracle)
            for index, _ in pending
        ]
        persist_trial = None
        if store is not None:
            n_values = len(parameter_values_for(algorithm, dataset, config))

            def persist_trial(position: int, result: TrialResult) -> None:
                # Runs in the submitting process as each trial completes, so
                # an interrupted batch keeps its finished trials on disk.
                key = pending[position][1]
                if key is not None:
                    _store_trial(store, key, result, n_values, config.n_folds)

        computed = get_executor(config.backend, config.n_jobs).run(
            _run_trial_task, tasks, on_result=persist_trial
        )
        for (index, _), result in zip(pending, computed):
            results[index] = result
        return [result for result in results if result is not None]

    # Grid-level placement: ``run_trial`` owns the store interaction, which
    # also persists in-flight (value_index, fold) cells for mid-trial resume.
    return [
        run_trial(
            dataset, algorithm, scenario, amount,
            config=config, random_state=seed, store=store, oracle=oracle,
        )
        for seed in seeds
    ]


def _pearson(first: Sequence[float], second: Sequence[float]) -> float:
    """Pearson correlation, 0 when either side has no variance."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.size < 2 or first.std() == 0.0 or second.std() == 0.0:
        return 0.0
    return float(np.corrcoef(first, second)[0, 1])
