"""Every entry point asks one table which algorithm runs on which tier, metric and input.

``repro.core.admissibility`` decides, for FOSC-OPTICSDend and MPCK-Means,
which (resolved distance tier × metric × input kind) combinations can
run.  The entry points below each put their own field path in front of
the table's problem bodies; this file sends every combination through
all of them and asserts one decision and one set of bodies:

* the pipeline validator (a config file's ``[execution]``/``[dataset]``);
* the CLI/worker overlay (``PipelineSpec.with_execution``), then a run;
* ``SelectionRequest`` (what ``JobManager.submit`` validates), then
  ``api.select_parameter``;
* ``api.fit``;
* ``runner.algorithm_factory``.

An accepted combination must also run to the end through the entry
points that run (the overlay's pipeline, ``select_parameter``, ``fit``).
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.clustering.fosc import FOSCOpticsDend
from repro.clustering.hierarchy import build_tree_structures
from repro.core import admissibility
from repro.core.executor import ExecutionSpec
from repro.datasets.registry import REGISTRY_METRICS, get_dataset
from repro.datasets.text import load_precomputed_dataset
from repro.experiments.config import QUICK_CONFIG
from repro.experiments.pipeline import (
    _parse_file,
    pipeline_spec_from_mapping,
    validate_pipeline_mapping,
)
from repro.experiments.runner import algorithm_factory
from repro.serve import JobManager
from repro.utils.specs import SpecError

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"
MATRIX_PATH = EXAMPLES / "data" / "text_similarity.npz"

ALGORITHMS = ("fosc", "mpck")
#: ``"env"`` leaves the tier unset and selects ``neighbors`` through the environment.
TIERS = (None, "blockwise", "memmap", "neighbors", "env")
METRICS = (None, "euclidean", "cosine", "precomputed")
INPUTS = ("registry", "matrix")


def expected_decision(algorithm: str, tier: str | None, metric: str | None, source: str) -> bool:
    """Whether a combination runs, written out independently of the table."""
    neighbors = tier in ("neighbors", "env")
    effective = metric or ("precomputed" if source == "matrix" else "euclidean")
    if algorithm == "mpck" and (neighbors or effective != "euclidean"):
        return False
    if neighbors and effective != "euclidean":
        return False
    return (effective == "precomputed") == (source == "matrix")


def bodies(lines) -> list[str]:
    """Problem lines without their entry point's field path."""
    return [line.split(": ", 1)[1] for line in lines]


def rejected(error: SpecError):
    return "rejected", bodies(error.problems)


def file_mapping(algorithm: str, tier: str | None, metric: str | None, source: str) -> dict:
    """The combination written as a pipeline config mapping."""
    raw: dict = {
        "experiment": {
            "name": "admissibility",
            "kind": "trials",
            "algorithm": algorithm,
            "scenario": "labels",
            "amounts": [0.2],
            "seed": 3,
        },
        "parameters": {"n_trials": 1, "n_folds": 2, "minpts_range": [3, 6], "max_k": 4},
    }
    if source == "registry":
        raw["experiment"]["datasets"] = ["Iris"]
        if metric is not None:
            raw["dataset"] = {"metric": metric}
    else:
        raw["dataset"] = {"metric": "precomputed", "path": str(MATRIX_PATH), "form": "similarity"}
    if tier not in (None, "env"):
        raw["execution"] = {"distance_backend": tier}
    return raw


def input_carries(metric, source) -> bool:
    """Whether the input itself can carry the metric.

    A registry set carries any metric but "precomputed" (in a file that is
    a missing ``dataset.path``); a matrix only its own (a path needs
    ``metric = "precomputed"``).
    """
    return metric != "precomputed" if source == "registry" else metric in (None, "precomputed")


def through_validator(algorithm, tier, metric, source, tmp_path):
    if not input_carries(metric, source):
        return None
    _, problems = validate_pipeline_mapping(file_mapping(algorithm, tier, metric, source), "config")
    return ("rejected", bodies(problems)) if problems else ("ok", [])


def through_overlay(algorithm, tier, metric, source, tmp_path):
    # The file names only the input; the tier and metric arrive as flags.
    try:
        spec = pipeline_spec_from_mapping(file_mapping(algorithm, None, None, source))
    except SpecError:
        # The file alone is rejected (an MPCK spec over a matrix, or a tier
        # from the environment), so its flags are never read.
        return "rejected", None
    try:
        spec = spec.with_execution(distance_backend=None if tier == "env" else tier, metric=metric)
    except SpecError as error:
        return rejected(error)
    api.run_pipeline(spec, artifacts_root=tmp_path / "store", write_reports=False)
    return "ok", []


def through_selection(algorithm, tier, metric, source, tmp_path):
    if source == "matrix":
        return None  # a selection request names a registry data set
    execution = {
        key: value
        for key, value in (("distance_backend", tier), ("metric", metric))
        if value not in (None, "env")
    }
    body = {"algorithm": algorithm, "amount": 0.2, "n_trials": 1, "n_folds": 2, "seed": 3}
    if execution:
        body["execution"] = execution
    try:
        request = api.SelectionRequest.from_spec(body)
    except SpecError as error:
        return rejected(error)
    api.select_parameter(request)
    return "ok", []


def through_fit(algorithm, tier, metric, source, tmp_path):
    dataset = "Iris" if source == "registry" else load_precomputed_dataset(MATRIX_PATH, form="similarity")
    try:
        execution = ExecutionSpec(distance_backend=None if tier == "env" else tier, metric=metric)
        api.fit(algorithm, dataset, amount=0.2, n_folds=2, seed=3, execution=execution)
    except SpecError as error:
        return rejected(error)
    return "ok", []


def through_factory(algorithm, tier, metric, source, tmp_path):
    if not input_carries(metric, source):
        return None  # the factory sees the effective metric, not the input
    execution = ExecutionSpec(
        distance_backend=None if tier == "env" else tier,
        metric=metric or ("precomputed" if source == "matrix" else None),
    )
    try:
        algorithm_factory(
            algorithm, replace(QUICK_CONFIG, execution=execution), random_state=0, metric=execution.metric
        )
    except SpecError as error:
        return rejected(error)
    return "ok", []


ENTRY_POINTS = {
    "validator": through_validator,
    "overlay": through_overlay,
    "selection": through_selection,
    "fit": through_fit,
    "factory": through_factory,
}


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_entry_point_gives_the_same_decision_and_bodies(
    algorithm, tier, metric, source, tmp_path, monkeypatch
):
    if tier == "env":
        monkeypatch.setenv("REPRO_DISTANCE_BACKEND", "neighbors")
    else:
        monkeypatch.delenv("REPRO_DISTANCE_BACKEND", raising=False)
    found = admissibility.problems(
        algorithm, None if tier == "env" else tier, metric, matrix=source == "matrix"
    )
    accepted = expected_decision(algorithm, tier, metric, source)
    assert (found == []) == accepted
    expected = ("ok", []) if accepted else ("rejected", [problem.body for problem in found])
    outcomes = {
        name: outcome
        for name, leg in ENTRY_POINTS.items()
        if (outcome := leg(algorithm, tier, metric, source, tmp_path)) is not None
    }
    assert {"overlay", "fit"} <= set(outcomes)
    for name, (decision, found_bodies) in outcomes.items():
        assert decision == expected[0], name
        if found_bodies is not None:
            assert found_bodies == expected[1], name


# ----------------------------------------------------------------------
# The faults the table closes, one regression test each.


def mpck_config(tmp_path: Path) -> Path:
    raw = _parse_file(EXAMPLES / "quickstart.toml")
    raw["experiment"]["algorithm"] = "mpck"
    raw["artifacts"] = {"root": str(tmp_path / "store")}
    path = tmp_path / "mpck.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **(env or {})},
        check=False,
    )


@pytest.mark.parametrize(
    "flag, key",
    [
        (("--distance-backend", "neighbors"), ("execution", "distance_backend", "neighbors")),
        (("--metric", "cosine"), ("dataset", "metric", "cosine")),
    ],
)
def test_a_cli_flag_is_rejected_like_the_same_key_in_the_file(flag, key, tmp_path):
    path = mpck_config(tmp_path)
    completed = run_cli("run", str(path), "--quiet", *flag)
    assert completed.returncode == 2
    assert "Traceback" not in completed.stderr
    raw = json.loads(path.read_text(encoding="utf-8"))
    table, name, value = key
    raw.setdefault(table, {})[name] = value
    _, problems = validate_pipeline_mapping(raw, "config")
    assert problems and all(f"  - {problem}" in completed.stderr for problem in problems)
    assert not (tmp_path / "store").exists()


def test_an_environment_selected_tier_is_caught_by_validate_config(tmp_path):
    path = mpck_config(tmp_path)
    completed = run_cli("validate-config", str(path), env={"REPRO_DISTANCE_BACKEND": "neighbors"})
    assert completed.returncode == 2
    assert f"{path}: INVALID" in completed.stdout
    assert '"neighbors" cannot drive algorithm = "mpck"' in completed.stdout
    assert run_cli("validate-config", str(path)).returncode == 0


def test_job_manager_rejects_an_inadmissible_selection_instead_of_queueing(tmp_path):
    manager = JobManager(tmp_path / "store", workers=1)
    body = {"select": {"algorithm": "mpck", "execution": {"distance_backend": "neighbors"}}}
    try:
        with pytest.raises(SpecError) as excinfo:
            manager.submit(body)
        assert manager.list_views() == []
    finally:
        manager.shutdown()
    assert excinfo.value.problems == [
        'select.execution.distance_backend: "neighbors" cannot drive algorithm = "mpck"'
        " (MPCKMeans needs the full distance matrix); use an exact tier (blockwise, memmap)"
    ]


def test_fit_asks_for_the_matrix_when_a_registry_set_is_called_precomputed():
    with pytest.raises(SpecError) as excinfo:
        api.fit("fosc", "Iris", execution=ExecutionSpec(metric="precomputed"))
    assert excinfo.value.problems == [
        'fit.execution.metric: "precomputed" needs the matrix itself;'
        " run a pipeline with a [dataset] path instead"
    ]


# ----------------------------------------------------------------------
# The one input check: +inf in a precomputed matrix means "unreachable".


def unreachable_pair_matrix() -> tuple[np.ndarray, np.ndarray]:
    dataset = load_precomputed_dataset(MATRIX_PATH, form="similarity")
    matrix = dataset.X.copy()
    matrix[0, 5] = matrix[5, 0] = np.inf
    return matrix, dataset.y


def test_check_input_allows_inf_only_in_a_precomputed_matrix():
    matrix, _ = unreachable_pair_matrix()
    assert np.array_equal(admissibility.check_input(matrix, "precomputed"), matrix)
    with pytest.raises(ValueError, match="infinite"):
        admissibility.check_input(matrix, "euclidean")
    with pytest.raises(ValueError, match="square"):
        admissibility.check_input(np.ones((4, 3)), "precomputed")


def test_the_structure_phase_accepts_an_unreachable_pair():
    matrix, _ = unreachable_pair_matrix()
    (structure,) = build_tree_structures(matrix, [4], metric="precomputed")
    assert structure.n_samples == matrix.shape[0]
    labels = FOSCOpticsDend(min_pts=4, metric="precomputed").fit(matrix).labels_
    assert labels.shape == (matrix.shape[0],)
    FOSCOpticsDend.warm_structures(matrix, [FOSCOpticsDend(min_pts=3, metric="precomputed")])


def test_a_pipeline_over_a_matrix_with_an_unreachable_pair_completes(tmp_path):
    matrix, labels = unreachable_pair_matrix()
    path = tmp_path / "unreachable.npz"
    np.savez(path, matrix=matrix, labels=labels)
    raw = _parse_file(EXAMPLES / "precomputed_similarity.toml")
    raw["dataset"] = {"metric": "precomputed", "path": str(path)}
    summaries = [
        api.run_pipeline(
            copy.deepcopy(raw), artifacts_root=tmp_path / f"store-{run}", write_reports=False
        ).summary
        for run in range(2)
    ]
    assert summaries[0] == summaries[1]
    assert summaries[0]["datasets"] == ["unreachable"]


def test_the_decision_table_has_the_documented_shape():
    # FOSC runs everywhere the metric and tier agree; MPCK only on
    # Euclidean feature rows and an exact tier.
    accepted = {
        (algorithm, tier, metric or "euclidean")
        for algorithm, tier, metric in itertools.product(ALGORITHMS, ("blockwise", "neighbors"), METRICS)
        if not admissibility.problems(algorithm, tier, metric, matrix=metric == "precomputed")
    }
    assert accepted == {
        ("fosc", "blockwise", "euclidean"),
        ("fosc", "blockwise", "cosine"),
        ("fosc", "blockwise", "precomputed"),
        ("fosc", "neighbors", "euclidean"),
        ("mpck", "blockwise", "euclidean"),
    }


# ----------------------------------------------------------------------
# A registry data set is judged under its own metric ("Text" is cosine)
# unless the caller overrides it, so no entry point accepts what the run
# would then reject mid-trial.

MPCK_UNDER_COSINE = (
    'algorithm = "mpck" learns per-cluster Euclidean metrics and cannot run under'
    " metric = 'cosine'; use algorithm = \"fosc\""
)
NEIGHBORS_UNDER_COSINE = (
    'distance_backend = "neighbors" supports metric = "euclidean" only (KD-tree index),'
    " got 'cosine'; use an exact tier (blockwise, memmap)"
)


def test_registry_metrics_are_each_data_sets_own():
    for name, metric in REGISTRY_METRICS.items():
        assert get_dataset(name, random_state=0).metric == metric, name


@pytest.mark.parametrize(
    "algorithm, tier, body",
    [("mpck", None, MPCK_UNDER_COSINE), ("fosc", "neighbors", NEIGHBORS_UNDER_COSINE)],
    ids=["mpck", "fosc-neighbors"],
)
def test_a_selection_request_judges_the_registry_sets_own_metric(algorithm, tier, body, tmp_path):
    execution = ExecutionSpec(distance_backend=tier)
    with pytest.raises(SpecError) as excinfo:
        api.SelectionRequest(algorithm=algorithm, dataset="Text", execution=execution)
    assert excinfo.value.problems == [f"select.dataset: {body}"]
    manager = JobManager(tmp_path / "store", workers=1)
    select = {"algorithm": algorithm, "dataset": "text"}
    if tier is not None:
        select["execution"] = {"distance_backend": tier}
    try:
        with pytest.raises(SpecError):
            manager.submit({"select": select})
        assert manager.list_views() == []
    finally:
        manager.shutdown()


def test_a_metric_override_lifts_the_registry_sets_own_metric():
    api.SelectionRequest(algorithm="mpck", dataset="Text", execution=ExecutionSpec(metric="euclidean"))
    api.SelectionRequest(algorithm="fosc", dataset="Text")  # FOSC runs under cosine


def text_pipeline(algorithm: str, kind: str = "trials") -> dict:
    raw = file_mapping(algorithm, None, None, "registry")
    raw["experiment"]["datasets"] = ["Iris", "Text"]
    raw["experiment"]["kind"] = kind
    if kind == "robustness":
        del raw["experiment"]["algorithm"]
    return raw


@pytest.mark.parametrize(
    "algorithm, kind, tier, expected",
    [
        ("mpck", "trials", None, [f"experiment.datasets: {MPCK_UNDER_COSINE}"]),
        ("fosc", "trials", "neighbors", [f"experiment.datasets: {NEIGHBORS_UNDER_COSINE}"]),
        (
            "fosc", "robustness", None,
            [
                'experiment.datasets: kind = "robustness" sweeps every algorithm, including'
                " MPCKMeans, which needs Euclidean geometry; metric = 'cosine' is not supported"
            ],
        ),
    ],
    ids=["mpck", "fosc-neighbors", "robustness"],
)
def test_a_pipeline_judges_each_registry_sets_own_metric(algorithm, kind, tier, expected, monkeypatch):
    monkeypatch.delenv("REPRO_DISTANCE_BACKEND", raising=False)
    raw = text_pipeline(algorithm, kind)
    if tier is not None:
        raw["execution"] = {"distance_backend": tier}
    assert validate_pipeline_mapping(raw, "config")[1] == expected
    raw["dataset"] = {"metric": "euclidean"}  # an override lifts it
    assert validate_pipeline_mapping(raw, "config")[1] == []


def test_the_overlay_judges_each_registry_sets_own_metric(monkeypatch):
    monkeypatch.delenv("REPRO_DISTANCE_BACKEND", raising=False)
    spec = pipeline_spec_from_mapping(text_pipeline("fosc"))
    with pytest.raises(SpecError) as excinfo:
        spec.with_execution(distance_backend="neighbors")
    assert excinfo.value.problems == [f"experiment.datasets: {NEIGHBORS_UNDER_COSINE}"]
    spec.with_execution(distance_backend="neighbors", metric="euclidean")  # an override lifts it
