"""Stable programmatic facade over the reproduction stack.

Four entry points cover what external callers — the CLI, the ``repro
serve`` HTTP layer, notebooks — need, with frozen request/response
dataclasses instead of sprawling keyword lists:

* :func:`open_store` — the shared content-addressed artifact store;
* :func:`load_spec` — a :class:`~repro.experiments.pipeline.PipelineSpec`
  from a config file *or* an in-memory mapping;
* :func:`run_pipeline` — execute a spec through the store, returning a
  :class:`PipelineRunReport`;
* :func:`select_parameter` / :func:`fit` — CVCP parameter selection and
  a fitted clustering as declarative :class:`SelectionRequest` /
  plain-argument calls returning :class:`SelectionReport` /
  :class:`FitReport`.

Everything here routes through the same internals as the batch CLI, so a
pipeline submitted through this facade (or over HTTP) produces a
``summary.json`` byte-identical to ``repro run`` of the same spec, and
identical requests are served from cached trials.  The experiment stack
is imported inside the functions that run it, so a caller that only
selects (``CVCP`` through :mod:`repro`) never loads it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.core import admissibility
from repro.core.cvcp import CVCP
from repro.core.executor import ExecutionSpec
from repro.utils.rng import check_random_state
from repro.utils.specs import SpecError, SpecTable, check_enum

if TYPE_CHECKING:
    from repro.datasets.base import Dataset
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.pipeline import PipelineSpec

__all__ = [
    "FitReport",
    "PipelineRunReport",
    "SelectionReport",
    "SelectionRequest",
    "fit",
    "load_spec",
    "open_store",
    "run_pipeline",
    "select_parameter",
]


def open_store(root: str | Path, *, refresh: bool = False) -> ArtifactStore:
    """Open (or create on first write) the artifact store at ``root``."""
    from repro.experiments.artifacts import ArtifactStore

    return ArtifactStore(root, refresh=refresh)


def load_spec(source: str | Path | Mapping | PipelineSpec) -> PipelineSpec:
    """A validated pipeline spec from a file path, mapping, or spec.

    Accepts a TOML/JSON config path, an already-parsed config mapping
    (what the serve layer receives over HTTP), or a ready
    :class:`~repro.experiments.pipeline.PipelineSpec` (returned as-is).
    Raises :class:`~repro.experiments.pipeline.ConfigError` listing every
    validation problem.
    """
    from repro.experiments.pipeline import (
        PipelineSpec,
        load_pipeline_spec,
        pipeline_spec_from_mapping,
    )

    if isinstance(source, PipelineSpec):
        return source
    if isinstance(source, Mapping):
        return pipeline_spec_from_mapping(source)
    return load_pipeline_spec(source)


@dataclass(frozen=True)
class PipelineRunReport:
    """Everything one :func:`run_pipeline` call produced, frozen.

    ``summary`` is the deterministic mapping persisted as
    ``summary.json`` (byte-identical across CLI, API and serve runs of
    the same spec); ``stats`` is the store's hit/miss/write counters for
    this run.
    """

    spec: PipelineSpec
    summary: dict
    report_text: str
    report_paths: tuple[Path, ...]
    stats: dict

    def as_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "summary": self.summary,
            "report_paths": [str(path) for path in self.report_paths],
            "stats": dict(self.stats),
        }


def run_pipeline(
    source: str | Path | Mapping | PipelineSpec,
    *,
    store: ArtifactStore | None = None,
    execution: ExecutionSpec | None = None,
    artifacts_root: str | Path | None = None,
    write_reports: bool = True,
) -> PipelineRunReport:
    """Execute a pipeline spec through the artifact store.

    ``execution`` overrides the spec's execution engine (the engines and
    exact distance tiers are bit-identical, so overriding them never
    invalidates cached artifacts; the approximate ``neighbors`` tier keys
    its own artifacts); ``artifacts_root`` relocates the store — the serve
    layer pins it to the server's root so every client shares one cache.
    """
    from repro.experiments.pipeline import run_pipeline as run_spec

    spec = load_spec(source)
    if artifacts_root is not None:
        spec = spec.with_overrides(artifacts_root=Path(artifacts_root))
    if execution is not None:
        spec = spec.with_execution(**dataclasses.asdict(execution))
    result = run_spec(spec, store=store, write_reports=write_reports)
    return PipelineRunReport(
        spec=result.spec,
        summary=result.summary,
        report_text=result.report_text,
        report_paths=tuple(result.report_paths),
        stats=dict(result.stats),
    )


@dataclass(frozen=True)
class SelectionRequest(SpecTable, table="select"):
    """A declarative CVCP parameter-selection request.

    The serve layer accepts this as the ``{"select": {...}}`` POST body;
    programmatic callers construct it directly.  Validation collects
    every problem into one :class:`~repro.utils.specs.SpecError`.
    """

    algorithm: str = "fosc"
    dataset: str = "Iris"
    scenario: str = "labels"
    amount: float = 0.1
    n_trials: int = 1
    n_folds: int = 4
    seed: int = 20140324
    execution: ExecutionSpec = ExecutionSpec()

    def __post_init__(self) -> None:
        from repro.datasets.registry import DATASET_NAMES, REGISTRY_METRICS
        from repro.experiments.pipeline import ALGORITHMS, SCENARIOS

        problems = []
        check_enum(problems, "select", "algorithm", self.algorithm, ALGORITHMS)
        canonical = {name.lower(): name for name in DATASET_NAMES}
        own_metric = None
        if not isinstance(self.dataset, str) or self.dataset.lower() not in canonical:
            problems.append(
                f"select.dataset: unknown data set {self.dataset!r} "
                f"(available: {', '.join(DATASET_NAMES)})"
            )
        else:
            object.__setattr__(self, "dataset", canonical[self.dataset.lower()])
            own_metric = REGISTRY_METRICS[self.dataset]
        check_enum(problems, "select", "scenario", self.scenario, SCENARIOS)
        if (
            isinstance(self.amount, bool)
            or not isinstance(self.amount, (int, float))
            or not 0 < self.amount <= 1
        ):
            problems.append(f"select.amount: must be a fraction in (0, 1], got {self.amount!r}")
        else:
            object.__setattr__(self, "amount", float(self.amount))
        for key, minimum in (("n_trials", 1), ("n_folds", 2), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                problems.append(f"select.{key}: must be an integer >= {minimum}, got {value!r}")
        if not isinstance(self.execution, ExecutionSpec):
            problems.append(
                f"select.execution: must be an ExecutionSpec, got {self.execution!r}"
            )
        else:  # a registry data set: feature rows, under its own metric unless overridden
            tier, metric = self.execution.distance_backend, self.execution.metric
            found = admissibility.problems(self.algorithm, tier, metric or own_metric, matrix=False)
            for problem in found:
                # A metric the data set chose is faulted at the data set.
                chosen = problem.field == "metric" and metric is None
                path = "dataset" if chosen else f"execution.{problem.field}"
                problems.append(f"select.{path}: {problem.body}")
        if problems:
            raise SpecError("select", problems)


@dataclass(frozen=True)
class SelectionReport:
    """What CVCP selected for a :class:`SelectionRequest`, frozen.

    ``trials`` holds every trial's full measurements
    (:meth:`~repro.experiments.runner.TrialResult.to_dict` mappings);
    the scalar fields aggregate them — ``selected_value`` is the first
    trial's selection (deterministic for a fixed seed), the qualities and
    correlation are means across trials.
    """

    request: SelectionRequest
    parameter_name: str
    selected_value: int
    selected_quality: float
    expected_quality: float
    correlation: float
    trials: tuple[dict, ...]
    stats: dict

    def as_dict(self) -> dict:
        return {
            "request": self.request.to_spec(),
            "parameter_name": self.parameter_name,
            "selected_value": self.selected_value,
            "selected_quality": self.selected_quality,
            "expected_quality": self.expected_quality,
            "correlation": self.correlation,
            "trials": [dict(trial) for trial in self.trials],
            "stats": dict(self.stats),
        }


def select_parameter(
    request: SelectionRequest, *, store: ArtifactStore | None = None
) -> SelectionReport:
    """Run CVCP parameter selection for a declarative request.

    Trials run through :func:`repro.experiments.runner.run_trials`, so
    with a ``store`` every completed trial is persisted and an identical
    request is served entirely from cache.
    """
    from repro.datasets.registry import get_dataset
    from repro.experiments.config import QUICK_CONFIG
    from repro.experiments.runner import TEMPLATE_CLASSES, run_trials

    config = QUICK_CONFIG.with_overrides(
        seed=request.seed, n_trials=request.n_trials, n_folds=request.n_folds
    ).with_execution(**dataclasses.asdict(request.execution))
    dataset = get_dataset(request.dataset, random_state=config.seed, metric=config.execution.metric)
    trials = run_trials(
        dataset,
        request.algorithm,
        request.scenario,
        request.amount,
        request.n_trials,
        config=config,
        random_state=config.seed,
        store=store,
    )
    mean = lambda values: float(sum(values) / len(values))  # noqa: E731
    return SelectionReport(
        request=request,
        parameter_name=TEMPLATE_CLASSES[request.algorithm].tuned_parameter,
        selected_value=trials[0].cvcp_value,
        selected_quality=mean([trial.cvcp_quality for trial in trials]),
        expected_quality=mean([trial.expected_quality for trial in trials]),
        correlation=mean([trial.correlation for trial in trials]),
        trials=tuple(trial.to_dict() for trial in trials),
        stats=store.stats.as_dict() if store is not None else {},
    )


@dataclass(frozen=True)
class FitReport:
    """A fitted clustering: the selected parameter and its partition."""

    algorithm: str
    dataset: str
    parameter_name: str
    parameter_value: int
    best_score: float
    labels: tuple[int, ...]
    n_clusters: int

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "parameter_name": self.parameter_name,
            "parameter_value": self.parameter_value,
            "best_score": self.best_score,
            "labels": list(self.labels),
            "n_clusters": self.n_clusters,
        }


def fit(
    algorithm: str,
    dataset: str | Dataset,
    *,
    scenario: str = "labels",
    amount: float = 0.1,
    n_folds: int = 4,
    seed: int = 20140324,
    execution: ExecutionSpec | None = None,
) -> FitReport:
    """Select a parameter with CVCP and refit with all side information.

    The one-call service entry point: samples ``amount`` of ``scenario``
    side information from the data set's ground truth, cross-validates
    the algorithm's parameter range, refits the winner, and returns the
    resulting partition.
    """
    from repro.datasets.registry import get_dataset
    from repro.experiments.config import QUICK_CONFIG
    from repro.experiments.pipeline import ALGORITHMS, SCENARIOS
    from repro.experiments.runner import make_side_information, selection_template

    if algorithm not in ALGORITHMS:
        raise SpecError("fit", [f"fit.algorithm: must be one of {', '.join(ALGORITHMS)}; got {algorithm!r}"])
    if scenario not in SCENARIOS:
        raise SpecError("fit", [f"fit.scenario: must be one of {', '.join(SCENARIOS)}; got {scenario!r}"])
    if isinstance(dataset, str):
        dataset = get_dataset(dataset, random_state=seed)
    execution = execution if execution is not None else ExecutionSpec()
    # A cosine/precomputed data set keeps its own metric unless the caller overrides it.
    execution = dataclasses.replace(execution, metric=execution.metric or dataset.metric)
    tier, matrix = execution.distance_backend, dataset.metric == "precomputed"
    admissibility.require(algorithm, tier, execution.metric, matrix=matrix, prefix="fit.execution.")
    config = QUICK_CONFIG.with_overrides(seed=seed, n_folds=n_folds).with_execution(
        **dataclasses.asdict(execution)
    )
    rng = check_random_state(seed)
    side = make_side_information(dataset, scenario, amount, random_state=rng)
    estimator, values = selection_template(algorithm, dataset, config, rng)
    search = CVCP(
        estimator, values, n_folds=n_folds, refit=True, random_state=rng, execution=config.execution
    )
    side.fit(search, dataset.X)
    labels = tuple(int(label) for label in search.labels_)
    return FitReport(
        algorithm=algorithm,
        dataset=dataset.name,
        parameter_name=estimator.tuned_parameter,
        parameter_value=search.best_params_[estimator.tuned_parameter],
        best_score=float(search.best_score_),
        labels=labels,
        n_clusters=len({label for label in labels if label >= 0}),
    )
