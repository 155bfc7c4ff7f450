"""The experiment drivers the one selection recipe replaced, vendored verbatim.

``run_trial``/``run_trials`` (with ``trial_artifact_key``,
``_load_cached_trial``, ``trial_plan`` and ``_run_trial_task``),
``replay_constraint_stream``/``cold_selection`` (with ``stream_step_key``)
and the three ablations (with ``_keyable_seed``, ``_ablation_key``,
``_cached_ablation`` and ``_naive_constraint_folds``) as they stood while
each driver kept its own copy of the template, grid, side-information,
key and store-landing steps.  ``tests/test_driver_equivalence.py`` routes
every pipeline kind through these and through the library and compares
the ``summary.json`` bytes and the store's file lists.  Everything the
drivers call that the recipe left unchanged (``make_side_information``,
``algorithm_factory``, ``ordered_stream``, the result types...) is
imported from the library.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import ConstraintSet
from repro.constraints.oracles import ConstraintOracle, PerfectOracle
from repro.core.cvcp import CVCP
from repro.core.distance_backend import approx_key_entry, resolve_distance_backend
from repro.core.executor import run_tasks
from repro.core.folds import CVCPFold
from repro.core.model_selection import expected_quality
from repro.core.scoring import score_partition
from repro.datasets.base import Dataset
from repro.evaluation.external import overall_f_measure
from repro.evaluation.internal import silhouette_score
from repro.experiments.ablation import AblationResult
from repro.experiments.artifacts import (
    ArtifactStore,
    dataset_fingerprint,
    trial_config_fingerprint,
)
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.online import (
    OnlineReplay,
    OnlineStep,
    StreamSpec,
    ordered_stream,
    stream_prefix_sizes,
)
from repro.experiments.runner import (
    AlgorithmName,
    ScenarioName,
    TrialBatch,
    TrialResult,
    _pearson,
    algorithm_factory,
    make_side_information,
    parameter_values_for,
)
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds


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
    execution = config.execution
    return {**key, **approx_key_entry(execution.distance_backend, execution.epsilon, execution.k_neighbors)}


def _load_cached_trial(store: ArtifactStore, key: dict) -> "TrialResult | None":
    """Fetch a persisted trial; on a hit, also drop any leftover cell journal.

    A kill between a trial's put and its journal removal leaves the
    journal behind — the hit path self-heals the store.
    """
    cached = store.get("trial", key)
    if cached is None:
        return None
    store.journal(key).remove()
    return TrialResult.from_dict(cached)


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
        cached = _load_cached_trial(store, key)
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
        execution=config.execution,
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
        store.put("trial", key, result.to_dict())
        journal.remove()
    return result


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
            _load_cached_trial(store, key) if store is not None else None for _, key in plan
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
                key = plan[pending[position]][1]
                store.put("trial", key, result.to_dict())
                store.journal(key).remove()

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


def stream_step_key(
    config: ExperimentConfig,
    dataset: "Dataset",
    amount: float,
    stream: StreamSpec,
    step: int,
    step_seed: int,
    oracle: ConstraintOracle | None = None,
) -> dict:
    """Artifact-store key of one online re-selection step.

    Mirrors :func:`~repro.experiments.runner.trial_artifact_key`: the
    trial-relevant config fields, the data-set content, the oracle spec,
    the amount, the stream shape and the step's position + derived seed.
    The exact distance tiers share keys; the approximate ``neighbors``
    tier carries its own ``approx`` entry.
    """
    from repro.constraints.oracles import PerfectOracle

    oracle = oracle if oracle is not None else PerfectOracle()
    key = {
        "config": trial_config_fingerprint(config),
        "dataset": dataset_fingerprint(dataset),
        "algorithm": "fosc",
        "scenario": "constraints",
        "amount": float(amount),
        "oracle": oracle.spec(),
        "stream": {"n_deltas": int(stream.n_deltas), "order": str(stream.order)},
        "step": int(step),
        "step_seed": int(step_seed),
    }
    execution = config.execution
    return {**key, **approx_key_entry(execution.distance_backend, execution.epsilon, execution.k_neighbors)}


def replay_constraint_stream(
    dataset: "Dataset",
    amount: float,
    *,
    config: ExperimentConfig | None = None,
    stream: StreamSpec | None = None,
    oracle: ConstraintOracle | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> OnlineReplay:
    """Replay one oracle constraint stream through incremental CVCP.

    Every delta runs a full CVCP selection (refit included) on the
    accumulated constraint prefix with a per-step derived seed, so the
    selected value, the per-cell scores and the refit labels are
    bit-identical to a cold CVCP run on the same accumulated set — the
    structure cache only removes the redundant refitting work.  With a
    ``store``, completed steps are served from their ``"online"``
    artifacts (and in-flight grids resume per cell), so a killed replay
    restarted over the same store root reports byte-identical results.
    """
    config = config or default_config()
    stream = stream or StreamSpec()
    rng = check_random_state(random_state if random_state is not None else config.seed)

    side = make_side_information(
        dataset, "constraints", amount, random_state=rng, oracle=oracle
    )
    arrivals = ordered_stream(side.constraints, stream.order, rng)
    estimator = algorithm_factory("fosc", config, random_state=rng)
    values = parameter_values_for("fosc", dataset, config)
    step_seeds = spawn_seeds(rng, stream.n_deltas)
    counts = stream_prefix_sizes(len(arrivals), stream.n_deltas)

    steps: list[OnlineStep] = []
    for index, (count, step_seed) in enumerate(zip(counts, step_seeds)):
        key = None
        if store is not None:
            key = stream_step_key(config, dataset, amount, stream, index, step_seed, oracle)
            cached = store.get("online", key)
            if cached is not None:
                # A kill between the step's put and its journal removal
                # leaves the journal behind; the hit drops it.
                store.journal(key).remove()
                steps.append(OnlineStep.from_payload(cached))
                continue
        prefix = ConstraintSet(arrivals[:count])
        search = CVCP(
            estimator,
            values,
            n_folds=config.n_folds,
            refit=True,
            random_state=step_seed,
            execution=config.execution,
            artifact_store=store,
            artifact_scope=key,
        )
        search.fit(dataset.X, constraints=prefix)
        step = OnlineStep(
            step=index,
            queries=count,
            value=int(search.cv_results_.best_value),
            fold_scores=[
                [float(score) for score in evaluation.fold_scores]
                for evaluation in search.cv_results_.evaluations
            ],
            labels=[int(label) for label in search.labels_],
        )
        steps.append(step)
        if store is not None and key is not None:
            store.put("online", key, step.to_payload())
            store.journal(key).remove()
    return OnlineReplay(
        dataset=dataset.name,
        amount=float(amount),
        stream=stream,
        parameter_values=list(values),
        total_constraints=len(arrivals),
        steps=steps,
    )


def cold_selection(
    dataset: "Dataset",
    constraints: ConstraintSet,
    step_seed: int,
    *,
    config: ExperimentConfig | None = None,
    template_seed_rng: np.random.Generator | None = None,
) -> tuple[int, list[list[float]], list[int]]:
    """One cold CVCP selection on an accumulated constraint set.

    The reference the delta-equivalence suite compares against: no
    artifact store, and the caller is expected to have cleared the
    process-wide caches.  Returns ``(value, fold_scores, labels)`` in
    the same shapes an :class:`OnlineStep` records.
    """
    config = config or default_config()
    rng = template_seed_rng if template_seed_rng is not None else np.random.default_rng(0)
    estimator = algorithm_factory("fosc", config, random_state=rng)
    values = parameter_values_for("fosc", dataset, config)
    search = CVCP(
        estimator,
        values,
        n_folds=config.n_folds,
        refit=True,
        random_state=step_seed,
        execution=config.execution,
    )
    search.fit(dataset.X, constraints=constraints)
    return (
        int(search.cv_results_.best_value),
        [
            [float(score) for score in evaluation.fold_scores]
            for evaluation in search.cv_results_.evaluations
        ],
        [int(label) for label in search.labels_],
    )


def _keyable_seed(random_state: RandomStateLike, config: ExperimentConfig) -> int | None:
    """Integer seed usable as an artifact key, or ``None`` for generators.

    A generator's state cannot be serialised into a stable key, so ablations
    handed one always recompute; the common paths (no seed, which falls back
    to ``config.seed``, or an explicit integer) are cacheable.
    """
    if random_state is None:
        return int(config.seed)
    if isinstance(random_state, (int, np.integer)):
        return int(random_state)
    return None


def _ablation_key(
    name: str,
    dataset: Dataset,
    config: ExperimentConfig,
    algorithm: AlgorithmName,
    amount: float,
    seed: int,
    extra: dict,
) -> dict:
    key = {
        "ablation": name,
        "config": trial_config_fingerprint(config),
        "dataset": dataset_fingerprint(dataset),
        "algorithm": str(algorithm),
        "amount": float(amount),
        "seed": int(seed),
    }
    key.update(extra)
    return key


def _cached_ablation(store: ArtifactStore | None, key: dict | None, compute) -> AblationResult:
    """Serve an ablation from the store when possible, else compute and persist."""
    if store is not None and key is not None:
        cached = store.get("ablation", key)
        if cached is not None:
            return AblationResult(name=cached["name"], measurements=dict(cached["measurements"]))
    result = compute()
    if store is not None and key is not None:
        store.put("ablation", key, {"name": result.name, "measurements": result.measurements})
    return result


def _naive_constraint_folds(
    constraints: ConstraintSet, n_folds: int, rng: np.random.Generator
) -> list[CVCPFold]:
    """Fold construction that splits constraints instead of objects.

    This is the flawed protocol Section 3.1 warns about: the transitive
    closure of the training constraints can contain constraints that also
    sit in the test fold, so test information is implicitly available during
    training.
    """
    all_constraints = list(constraints)
    rng.shuffle(all_constraints)
    folds: list[list] = [[] for _ in range(n_folds)]
    for position, constraint in enumerate(all_constraints):
        folds[position % n_folds].append(constraint)

    results = []
    for fold_index in range(n_folds):
        test = ConstraintSet(folds[fold_index])
        training = ConstraintSet(
            c for other in range(n_folds) if other != fold_index for c in folds[other]
        )
        results.append(
            CVCPFold(
                index=fold_index,
                training_constraints=transitive_closure(training, strict=False),
                test_constraints=test,
                training_objects=training.involved_objects(),
                test_objects=test.involved_objects(),
            )
        )
    return results


def closure_leakage_ablation(
    dataset: Dataset,
    *,
    algorithm: AlgorithmName = "fosc",
    amount: float = 0.20,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """Internal-score inflation of the naive constraint split vs the proper one.

    Returns the mean internal score of the best parameter under the proper
    object-split protocol and under the naive constraint-split protocol.
    The naive protocol's score is expected to be higher (optimistically
    biased) because derived test constraints are implicitly available at
    training time.
    """
    config = config or default_config()
    seed = _keyable_seed(random_state, config)
    key = None
    if seed is not None:
        key = _ablation_key("closure-leakage", dataset, config, algorithm, amount, seed, {})

    def compute() -> AblationResult:
        rng = check_random_state(random_state if random_state is not None else config.seed)

        side = make_side_information(dataset, "constraints", amount, random_state=rng)
        estimator = algorithm_factory(algorithm, config, random_state=rng)
        values = parameter_values_for(algorithm, dataset, config)

        proper = CVCP(estimator, values, n_folds=config.n_folds, refit=False, random_state=rng,
                      execution=config.execution)
        proper.fit(dataset.X, constraints=side.constraints)

        naive_folds = _naive_constraint_folds(
            transitive_closure(side.constraints, strict=False), proper.cv_results_.n_folds, rng
        )
        naive_best = -np.inf
        for value in values:
            fold_scores = []
            for fold in naive_folds:
                model = estimator.clone(**{estimator.tuned_parameter: value})
                if "random_state" in model.get_params():
                    model.set_params(random_state=int(rng.integers(0, 2**31 - 1)))
                model.fit(dataset.X, constraints=fold.training_constraints)
                fold_scores.append(
                    score_partition(model.labels_, fold.test_constraints, scoring="average_f")
                )
            naive_best = max(naive_best, float(np.mean(fold_scores)))

        return AblationResult(
            name="closure-leakage",
            measurements={
                "proper_best_internal_score": float(proper.cv_results_.best_score),
                "naive_best_internal_score": float(naive_best),
                "inflation": float(naive_best - proper.cv_results_.best_score),
            },
        )

    return _cached_ablation(store, key, compute)


def fold_count_ablation(
    dataset: Dataset,
    *,
    algorithm: AlgorithmName = "fosc",
    amount: float = 0.10,
    fold_counts: tuple[int, ...] = (2, 3, 5, 10),
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """External quality of the CVCP-selected parameter for several fold counts."""
    config = config or default_config()
    seed = _keyable_seed(random_state, config)
    key = None
    if seed is not None:
        extra = {"fold_counts": [int(count) for count in fold_counts]}
        key = _ablation_key("fold-count", dataset, config, algorithm, amount, seed, extra)

    def compute() -> AblationResult:
        rng = check_random_state(random_state if random_state is not None else config.seed)

        side = make_side_information(dataset, "labels", amount, random_state=rng)
        estimator = algorithm_factory(algorithm, config, random_state=rng)
        values = parameter_values_for(algorithm, dataset, config)
        exclude = side.involved_objects

        measurements: dict[str, float] = {}
        for n_folds in fold_counts:
            search = CVCP(estimator, values, n_folds=n_folds, refit=True,
                          random_state=int(rng.integers(0, 2**31 - 1)),
                          execution=config.execution)
            search.fit(dataset.X, labeled_objects=side.labeled_objects)
            measurements[f"n_folds={n_folds}"] = overall_f_measure(
                dataset.y, search.labels_, exclude=exclude
            )
        return AblationResult(name="fold-count", measurements=measurements)

    return _cached_ablation(store, key, compute)


def scorer_ablation(
    dataset: Dataset,
    *,
    algorithm: AlgorithmName = "fosc",
    amount: float = 0.10,
    scorers: tuple[str, ...] = ("average_f", "accuracy", "must_link_f"),
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """External quality of the parameter chosen under different internal scorers."""
    config = config or default_config()
    seed = _keyable_seed(random_state, config)
    key = None
    if seed is not None:
        extra = {"scorers": [str(scoring) for scoring in scorers]}
        key = _ablation_key("internal-scorer", dataset, config, algorithm, amount, seed, extra)

    def compute() -> AblationResult:
        rng = check_random_state(random_state if random_state is not None else config.seed)

        side = make_side_information(dataset, "labels", amount, random_state=rng)
        estimator = algorithm_factory(algorithm, config, random_state=rng)
        values = parameter_values_for(algorithm, dataset, config)
        exclude = side.involved_objects

        measurements: dict[str, float] = {}
        for scoring in scorers:
            search = CVCP(estimator, values, n_folds=config.n_folds, scoring=scoring,
                          refit=True, random_state=int(rng.integers(0, 2**31 - 1)),
                          execution=config.execution)
            search.fit(dataset.X, labeled_objects=side.labeled_objects)
            measurements[scoring] = overall_f_measure(dataset.y, search.labels_, exclude=exclude)
        return AblationResult(name="internal-scorer", measurements=measurements)

    return _cached_ablation(store, key, compute)
