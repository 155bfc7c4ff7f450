"""Frozen pipeline-config validator: the oracle for ``tests/test_pipeline_config_equivalence.py``.

A verbatim copy of ``validate_pipeline_mapping``, its two field helpers
and ``PipelineSpec.to_spec`` from ``repro.experiments.pipeline`` as they
were before the per-kind rules moved into one table and the shared field
checks into ``repro.utils.specs``.  The copy spells every per-kind rule
inline, in the order its problem lines are emitted, so the table-driven
validator can be compared against it problem line by problem line.

The one behaviour the table-driven code deliberately drops is the
retired ``"dense"`` alias of the ``blockwise`` distance tier: this
oracle still resolves it (the ``ExecutionSpec`` shim below, which is
what ``ExecutionSpec.__post_init__`` used to do), the library now rejects
it as an unknown backend.

``to_spec`` is the method body, lifted to a module-level function of the
spec.  Nothing here is imported by the library.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping

from repro.constraints.oracles import ConstraintOracle, PerfectOracle, make_oracle, oracle_names
from repro.core.executor import ExecutionSpec as _ExecutionSpec
from repro.datasets.base import DATASET_METRICS, Dataset
from repro.datasets.registry import DATASET_NAMES
from repro.datasets.text import PRECOMPUTED_FORMS, load_precomputed_dataset
from repro.experiments.config import CONSTRAINT_FRACTIONS, LABEL_FRACTIONS, QUICK_CONFIG
from repro.experiments.fleet import FleetSettings
from repro.experiments.online import StreamSpec
from repro.experiments.pipeline import PipelineSpec
from repro.experiments.robustness import DEFAULT_FLIP_RATES
from repro.serve.schemas import ServeSettings
from repro.utils.specs import SpecError, unknown_key_problems

PIPELINE_KINDS: tuple[str, ...] = (
    "comparison",
    "correlation",
    "curves",
    "trials",
    "ablation",
    "robustness",
    "online",
)

ALGORITHMS: tuple[str, ...] = ("fosc", "mpck")
SCENARIOS: tuple[str, ...] = ("labels", "constraints")
REPORT_FORMATS: tuple[str, ...] = ("txt", "json")

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_PARAMETER_KEYS: tuple[str, ...] = (
    "n_trials",
    "n_folds",
    "n_aloi_datasets",
    "max_k",
    "mpck_n_init",
    "mpck_max_iter",
    "minpts_range",
)


class ExecutionSpec(_ExecutionSpec):
    """``ExecutionSpec`` with the retired ``"dense"`` alias still resolving to ``blockwise``."""

    @classmethod
    def from_spec(cls, spec: Mapping) -> _ExecutionSpec:
        if isinstance(spec, Mapping) and spec.get("distance_backend") == "dense":
            spec = {**spec, "distance_backend": "blockwise"}
        return _ExecutionSpec.from_spec(spec)


def _check_enum(problems: list[str], table: str, key: str, value: object, allowed: tuple[str, ...]):
    if not isinstance(value, str) or value not in allowed:
        problems.append(f"{table}.{key}: must be one of {', '.join(allowed)}; got {value!r}")
        return None
    return value


def _check_positive_int(problems: list[str], table: str, key: str, value: object) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        problems.append(f"{table}.{key}: must be a positive integer, got {value!r}")
        return None
    return value


def validate_pipeline_mapping(
    raw: dict, source: str, *, base_dir: Path | None = None
) -> tuple[PipelineSpec | None, list[str]]:
    """Validate a parsed config mapping; returns ``(spec, problems)``.

    On any problem the spec is ``None`` and ``problems`` holds one message
    per issue found (unknown tables/keys, wrong types, out-of-range values,
    unknown data sets, ...).  ``base_dir`` anchors relative ``dataset.path``
    values (the config file's directory for file-loaded specs).
    """
    problems: list[str] = []

    known_tables = (
        "experiment", "parameters", "dataset", "oracle", "execution", "artifacts",
        "report", "stream", "fleet", "serve",
    )
    for table in raw:
        if table not in known_tables:
            problems.append(f"unknown table [{table}] (expected one of {', '.join(known_tables)})")
    for table in known_tables:
        if table in raw and not isinstance(raw[table], dict):
            problems.append(f"[{table}] must be a table/object, got {type(raw[table]).__name__}")

    experiment = raw.get("experiment")
    if not isinstance(experiment, dict):
        problems.append("missing required [experiment] table")
        experiment = {}

    known_experiment_keys = ("name", "kind", "algorithm", "scenario", "amounts", "datasets", "seed")
    for key in experiment:
        if key not in known_experiment_keys:
            problems.append(f"experiment.{key}: unknown key")

    name = experiment.get("name")
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        problems.append(
            "experiment.name: required; must be letters/digits/._- "
            f"(used as the report directory name), got {name!r}"
        )
        name = None

    kind = _check_enum(problems, "experiment", "kind", experiment.get("kind", None), PIPELINE_KINDS)
    algorithm = _check_enum(
        problems, "experiment", "algorithm", experiment.get("algorithm", "fosc"), ALGORITHMS
    )
    if kind == "robustness" and "algorithm" in experiment:
        # The robustness sweep always reports every algorithm so the
        # acceptance comparison is side by side; a single-algorithm setting
        # would silently drop half the table.
        problems.append(
            'experiment.algorithm: not configurable for kind="robustness" — the sweep'
            " runs every algorithm; remove the key"
        )
    if kind == "online" and algorithm == "mpck":
        # The online kind replays constraint deltas through the cached,
        # constraint-independent FOSC tree structures; MPCKMeans refits its
        # metric on every constraint set and has no structure phase to reuse.
        problems.append(
            'experiment.algorithm: kind="online" replays constraint streams through'
            ' the cached FOSC tree structures; MPCKMeans has no'
            ' constraint-independent structure phase — use algorithm = "fosc"'
        )
    scenario = _check_enum(
        problems, "experiment", "scenario", experiment.get("scenario", "labels"), SCENARIOS
    )
    if kind == "ablation" and "scenario" in experiment:
        # Each ablation fixes its own scenario (closure-leakage is inherently
        # constraint-based; fold-count and scorer are label-based), so an
        # explicit setting would be silently misleading.
        problems.append(
            'experiment.scenario: not configurable for kind="ablation" — each ablation'
            " fixes its own scenario; remove the key"
        )
    if kind == "online":
        if "scenario" in experiment:
            problems.append(
                'experiment.scenario: not configurable for kind="online" — a stream'
                " is inherently pairwise constraints; remove the key"
            )
        scenario = "constraints"

    seed = experiment.get("seed", 20140324)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        problems.append(f"experiment.seed: must be a non-negative integer, got {seed!r}")
        seed = 0

    default_amounts = LABEL_FRACTIONS if scenario == "labels" else CONSTRAINT_FRACTIONS
    amounts_raw = experiment.get("amounts", list(default_amounts))
    amounts: list[float] = []
    if not isinstance(amounts_raw, list) or not amounts_raw:
        problems.append(f"experiment.amounts: must be a non-empty list of fractions, got {amounts_raw!r}")
    else:
        for value in amounts_raw:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
                problems.append(f"experiment.amounts: each amount must be in (0, 1], got {value!r}")
            else:
                amounts.append(float(value))

    canonical_by_lower = {known.lower(): known for known in DATASET_NAMES}
    datasets_raw = experiment.get("datasets", ["Iris"])
    datasets: list[str] = []
    if not isinstance(datasets_raw, list) or not datasets_raw:
        problems.append(f"experiment.datasets: must be a non-empty list of names, got {datasets_raw!r}")
    else:
        for value in datasets_raw:
            if not isinstance(value, str) or value.lower() not in canonical_by_lower:
                problems.append(
                    f"experiment.datasets: unknown data set {value!r} "
                    f"(available: {', '.join(DATASET_NAMES)})"
                )
            elif canonical_by_lower[value.lower()] in datasets:
                problems.append(f"experiment.datasets: duplicate data set {value!r}")
            else:
                datasets.append(canonical_by_lower[value.lower()])

    dataset_table = raw.get("dataset", {})
    metric: str | None = None
    dataset_path: Path | None = None
    dataset_form = "distance"
    precomputed_dataset: Dataset | None = None
    if isinstance(dataset_table, dict) and dataset_table:
        known_dataset_keys = ("metric", "path", "form", "name")
        for key in dataset_table:
            if key not in known_dataset_keys:
                problems.append(
                    f"dataset.{key}: unknown key (expected {', '.join(known_dataset_keys)})"
                )
        if "metric" in dataset_table:
            metric = _check_enum(
                problems, "dataset", "metric", dataset_table["metric"], DATASET_METRICS
            )
        if "form" in dataset_table:
            dataset_form = (
                _check_enum(problems, "dataset", "form", dataset_table["form"], PRECOMPUTED_FORMS)
                or "distance"
            )
        raw_path = dataset_table.get("path")
        if raw_path is not None and (not isinstance(raw_path, str) or not raw_path):
            problems.append(f"dataset.path: must be a non-empty path string, got {raw_path!r}")
            raw_path = None
        dataset_name = dataset_table.get("name")
        if dataset_name is not None and (
            not isinstance(dataset_name, str) or not _NAME_PATTERN.match(dataset_name)
        ):
            problems.append(f"dataset.name: must be letters/digits/._-, got {dataset_name!r}")
            dataset_name = None
        if metric == "precomputed" and "path" not in dataset_table:
            problems.append(
                'dataset.path: required when dataset.metric = "precomputed"'
                " (the .npz archive supplying the matrix and labels)"
            )
        if "path" in dataset_table and metric != "precomputed":
            problems.append(
                'dataset.path: only meaningful with dataset.metric = "precomputed";'
                " remove the key or set the metric"
            )
            raw_path = None
        for key in ("form", "name"):
            if key in dataset_table and "path" not in dataset_table:
                problems.append(
                    f"dataset.{key}: only meaningful together with dataset.path; remove the key"
                )
        if "path" in dataset_table and "datasets" in experiment:
            problems.append(
                "experiment.datasets: not configurable when dataset.path supplies"
                " the data; remove the key"
            )
        if raw_path is not None and metric == "precomputed":
            dataset_path = Path(raw_path)
            if not dataset_path.is_absolute() and base_dir is not None:
                dataset_path = base_dir / dataset_path
            try:
                precomputed_dataset = load_precomputed_dataset(
                    dataset_path, form=dataset_form, name=dataset_name
                )
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"dataset.path: {exc}")

    parameters = raw.get("parameters", {})
    overrides: dict[str, object] = {}
    if isinstance(parameters, dict):
        for key in parameters:
            if key not in _PARAMETER_KEYS:
                problems.append(f"parameters.{key}: unknown key (expected {', '.join(_PARAMETER_KEYS)})")
        for key in _PARAMETER_KEYS:
            if key not in parameters:
                continue
            value = parameters[key]
            if key == "minpts_range":
                ok = (
                    isinstance(value, list)
                    and value != []
                    and all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value)
                )
                if not ok:
                    problems.append(
                        f"parameters.minpts_range: must be a non-empty list of positive"
                        f" integers, got {value!r}"
                    )
                else:
                    overrides["minpts_range"] = tuple(value)
            else:
                checked = _check_positive_int(problems, "parameters", key, value)
                if checked is not None:
                    overrides[key] = checked

    oracle_table = raw.get("oracle", {})
    oracle: ConstraintOracle = PerfectOracle()
    flip_rates: tuple[float, ...] = DEFAULT_FLIP_RATES
    oracle_repair = False
    if isinstance(oracle_table, dict) and oracle_table:
        if kind == "ablation":
            # Each ablation fixes its own side-information setup, so an
            # oracle setting would be silently ignored.
            problems.append(
                'oracle: not configurable for kind="ablation"; remove the table'
            )
        elif kind == "robustness":
            # The robustness kind sweeps the noisy oracle itself; it is
            # configured by the sweep parameters, not an oracle name.
            allowed = ("flip_rates", "repair")
            for key in oracle_table:
                if key not in allowed:
                    problems.append(
                        f'oracle.{key}: unknown key for kind="robustness" '
                        f"(expected {', '.join(allowed)})"
                    )
            if "flip_rates" in oracle_table:
                value = oracle_table["flip_rates"]
                ok = (
                    isinstance(value, list)
                    and value != []
                    and all(
                        isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1
                        for v in value
                    )
                )
                if not ok:
                    problems.append(
                        f"oracle.flip_rates: must be a non-empty list of rates in [0, 1],"
                        f" got {value!r}"
                    )
                else:
                    flip_rates = tuple(float(v) for v in value)
            if "repair" in oracle_table:
                value = oracle_table["repair"]
                if not isinstance(value, bool):
                    problems.append(f"oracle.repair: must be a boolean, got {value!r}")
                else:
                    oracle_repair = value
        else:
            oracle_name = oracle_table.get("name", "perfect")
            if not isinstance(oracle_name, str) or oracle_name not in oracle_names():
                problems.append(
                    f"oracle.name: must be one of {', '.join(oracle_names())}, got {oracle_name!r}"
                )
            else:
                params = {key: value for key, value in oracle_table.items() if key != "name"}
                try:
                    oracle = make_oracle(oracle_name, **params)
                except (ValueError, TypeError) as exc:
                    # make_oracle lists every unknown parameter in one
                    # message, so nothing is swallowed here.
                    problems.append(f"oracle: {exc}")

    execution = raw.get("execution", {})
    execution_spec = ExecutionSpec()
    parallelize = "grid"
    if isinstance(execution, dict):
        # Unknown keys are checked here (not in ExecutionSpec.from_spec)
        # because the table also carries the pipeline-level parallelize key.
        problems.extend(
            unknown_key_problems(
                execution,
                ("backend", "n_jobs", "parallelize", "distance_backend", "epsilon", "k_neighbors"),
                "execution",
            )
        )
        engine_keys = ("backend", "n_jobs", "distance_backend", "epsilon", "k_neighbors")
        try:
            execution_spec = ExecutionSpec.from_spec(
                {key: execution[key] for key in engine_keys if key in execution}
            )
        except SpecError as exc:
            problems.extend(exc.problems)
        if "parallelize" in execution:
            checked = _check_enum(
                problems, "execution", "parallelize", execution["parallelize"], ("grid", "trials")
            )
            parallelize = checked or parallelize
            if kind in ("curves", "ablation", "online"):
                problems.append(
                    f"execution.parallelize: has no effect for kind={kind!r} "
                    "(single-trial work); remove the key"
                )

    # The sparse neighbors tier cannot materialise the full distance matrix,
    # which MPCKMeans' metric-learning updates require — reject the
    # combination here (a clear problem line) instead of letting the run
    # traceback deep inside the trial loop.
    if execution_spec.distance_backend == "neighbors":
        if algorithm == "mpck":
            problems.append(
                'execution.distance_backend: "neighbors" cannot drive '
                'algorithm = "mpck" (MPCKMeans needs the full distance matrix); '
                "use an exact tier (blockwise, memmap)"
            )
        if kind == "robustness":
            problems.append(
                'execution.distance_backend: "neighbors" cannot drive '
                'kind = "robustness" (the robustness sweep runs every '
                "algorithm, including MPCKMeans, which needs the full "
                "distance matrix); use an exact tier (blockwise, memmap)"
            )

    # Non-Euclidean metrics have the same shape of incompatibilities:
    # MPCKMeans learns per-cluster Euclidean metrics, and the neighbors
    # tier's KD-tree indexes Euclidean space only.  Report them as config
    # problems here, not runtime errors inside the trial loop.
    if metric is not None and metric != "euclidean":
        if algorithm == "mpck" and kind != "robustness":
            problems.append(
                f'dataset.metric: algorithm = "mpck" learns per-cluster Euclidean'
                f" metrics and cannot run under metric = {metric!r};"
                ' use algorithm = "fosc"'
            )
        if kind == "robustness":
            problems.append(
                f'dataset.metric: kind = "robustness" sweeps every algorithm,'
                f" including MPCKMeans, which needs Euclidean geometry;"
                f" metric = {metric!r} is not supported"
            )
        if execution_spec.distance_backend == "neighbors":
            problems.append(
                f'dataset.metric: distance_backend = "neighbors" supports'
                f' metric = "euclidean" only (KD-tree index), got {metric!r};'
                " use an exact tier (blockwise, memmap)"
            )
    if metric == "precomputed" and kind in ("comparison", "correlation"):
        problems.append(
            f"dataset.metric: kind = {kind!r} resolves data sets through the"
            ' registry; a precomputed matrix drives kinds "curves", "trials",'
            ' "ablation" or "online"'
        )

    artifacts = raw.get("artifacts", {})
    artifacts_root = ".repro-artifacts"
    if isinstance(artifacts, dict):
        for key in artifacts:
            if key != "root":
                problems.append(f"artifacts.{key}: unknown key (expected root)")
        if "root" in artifacts:
            value = artifacts["root"]
            if not isinstance(value, str) or not value:
                problems.append(f"artifacts.root: must be a non-empty path string, got {value!r}")
            else:
                artifacts_root = value

    stream_table = raw.get("stream", {})
    stream_spec = StreamSpec()
    if isinstance(stream_table, dict) and stream_table:
        if kind is not None and kind != "online":
            problems.append(
                f'stream: only kind="online" replays a constraint stream; '
                f"remove the table (kind is {kind!r})"
            )
        try:
            stream_spec = StreamSpec.from_spec(stream_table)
        except SpecError as exc:
            problems.extend(exc.problems)

    fleet_table = raw.get("fleet", {})
    fleet_settings = FleetSettings()
    if isinstance(fleet_table, dict) and fleet_table:
        try:
            fleet_settings = FleetSettings.from_spec(fleet_table)
        except SpecError as exc:
            problems.extend(exc.problems)

    serve_table = raw.get("serve", {})
    serve_settings = ServeSettings()
    if isinstance(serve_table, dict) and serve_table:
        try:
            serve_settings = ServeSettings.from_spec(serve_table)
        except SpecError as exc:
            problems.extend(exc.problems)

    report = raw.get("report", {})
    report_formats: tuple[str, ...] = REPORT_FORMATS
    if isinstance(report, dict):
        for key in report:
            if key != "formats":
                problems.append(f"report.{key}: unknown key (expected formats)")
        if "formats" in report:
            value = report["formats"]
            ok = (
                isinstance(value, list)
                and value != []
                and all(isinstance(v, str) and v in REPORT_FORMATS for v in value)
            )
            if not ok:
                problems.append(
                    f"report.formats: must be a non-empty list drawn from"
                    f" {', '.join(REPORT_FORMATS)}, got {value!r}"
                )
            else:
                report_formats = tuple(value)

    if problems:
        return None, problems

    # Unspecified [parameters] fall back to the repo-wide quick profile —
    # a minimal config must cost seconds, not paper-scale hours; paper
    # scale is an explicit opt-in (see examples/paper_comparison_full.toml).
    config = QUICK_CONFIG.with_overrides(seed=seed, datasets=tuple(datasets), **overrides)
    if scenario == "labels":
        config = config.with_overrides(label_fractions=tuple(amounts))
    else:
        config = config.with_overrides(constraint_fractions=tuple(amounts))
    if precomputed_dataset is not None:
        datasets = [precomputed_dataset.name]
        config = config.with_overrides(datasets=tuple(datasets))
    config = config.with_execution(
        backend=execution_spec.backend or "serial",
        n_jobs=execution_spec.n_jobs,
        distance_backend=execution_spec.distance_backend,
        epsilon=execution_spec.epsilon,
        k_neighbors=execution_spec.k_neighbors,
        metric=metric,
    )

    spec = PipelineSpec(
        name=name,
        kind=kind,
        algorithm=algorithm,
        scenario=scenario,
        amounts=tuple(amounts),
        datasets=tuple(datasets),
        config=config,
        artifacts_root=Path(artifacts_root),
        report_formats=report_formats,
        parallelize=parallelize,
        oracle=oracle,
        flip_rates=flip_rates,
        oracle_repair=oracle_repair,
        stream=stream_spec,
        fleet=fleet_settings,
        serve=serve_settings,
        dataset_path=dataset_path,
        dataset_form=dataset_form,
        precomputed=precomputed_dataset,
        source=None,
    )
    return spec, []


def to_spec(self) -> dict:
    """The spec as a JSON/TOML-ready config mapping.

    The inverse of :func:`pipeline_spec_from_mapping`: for every
    validated spec, ``pipeline_spec_from_mapping(spec.to_spec())``
    rebuilds an equal spec (modulo ``source``, which names where a
    spec was *loaded from* and has no place in the mapping).  Tables
    a kind forbids (``[oracle]`` for ablations, ``experiment.scenario``
    for ablations and online replays, ``experiment.algorithm`` for
    robustness sweeps, ``[stream]`` for everything but online replays)
    are omitted rather than emitted-and-rejected.
    """
    experiment: dict = {"name": self.name, "kind": self.kind}
    if self.kind != "robustness":
        experiment["algorithm"] = self.algorithm
    if self.kind not in ("ablation", "online"):
        experiment["scenario"] = self.scenario
    experiment["amounts"] = [float(amount) for amount in self.amounts]
    if self.dataset_path is None:
        # A [dataset] path supplies the data itself; emitting the
        # derived name would be rejected on the way back in.
        experiment["datasets"] = list(self.datasets)
    experiment["seed"] = self.config.seed
    parameters: dict = {key: getattr(self.config, key) for key in _PARAMETER_KEYS}
    parameters["minpts_range"] = list(self.config.minpts_range)
    spec: dict = {"experiment": experiment, "parameters": parameters}
    if self.kind == "robustness":
        spec["oracle"] = {
            "flip_rates": [float(rate) for rate in self.flip_rates],
            "repair": self.oracle_repair,
        }
    elif self.kind != "ablation":
        spec["oracle"] = self.oracle.to_spec()
    dataset_table: dict = {}
    if self.config.execution.metric is not None:
        dataset_table["metric"] = self.config.execution.metric
    if self.dataset_path is not None:
        dataset_table["path"] = str(self.dataset_path)
        if self.dataset_form != "distance":
            dataset_table["form"] = self.dataset_form
        if self.precomputed is not None and self.precomputed.name != self.dataset_path.stem:
            dataset_table["name"] = self.precomputed.name
    if dataset_table:
        spec["dataset"] = dataset_table
    execution = self.config.execution.to_spec()
    # The metric travels in [dataset], not [execution].
    execution.pop("metric", None)
    if self.parallelize != "grid":
        execution["parallelize"] = self.parallelize
    if execution:
        spec["execution"] = execution
    spec["artifacts"] = {"root": str(self.artifacts_root)}
    if self.kind == "online":
        spec["stream"] = self.stream.to_spec()
    spec["report"] = {"formats": list(self.report_formats)}
    spec["fleet"] = self.fleet.to_spec()
    spec["serve"] = self.serve.to_spec()
    return spec
