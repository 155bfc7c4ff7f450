"""The table-driven pipeline-config validator against the hand-written one.

``validate_pipeline_mapping`` and ``PipelineSpec.to_spec`` now read every
per-kind rule from one table (``KIND_RULES``) and share their field checks
with ``repro.utils.specs``.  ``pipeline_config_oracle`` keeps the code they
replaced.  For every input (each config in ``examples/`` and mutations of
them) both must give the same problem lines in the same order; for a
valid input, equal specs, equal ``to_spec()`` mappings, and a mapping that
rebuilds the spec (the round-trip law).

Three intended differences, each asserted below:

* the retired ``"dense"`` distance-backend alias, which the oracle still
  resolves to ``blockwise`` and the library now rejects as an unknown
  backend;
* a tier selected through ``REPRO_DISTANCE_BACKEND``: the oracle judges
  only the tier written in the file, the library judges the resolved
  tier (``repro.core.admissibility``), so an MPCK spec under an
  environment-selected ``neighbors`` tier is rejected up front instead
  of failing mid-run;
* a registry data set's own metric: without a ``[dataset] metric`` the
  oracle judges ``"Text"`` as Euclidean, the library judges it under its
  own cosine metric (``REGISTRY_METRICS``) and adds those lines at
  ``experiment.datasets``, so an MPCK, ``neighbors`` or robustness spec
  over it is rejected up front instead of failing mid-run.
"""

from __future__ import annotations

import copy
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pipeline_config_oracle as oracle
from repro.datasets.base import DATASET_METRICS
from repro.experiments.pipeline import (
    KIND_RULES,
    PIPELINE_KINDS,
    _parse_file,
    pipeline_spec_from_mapping,
    validate_pipeline_mapping,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
CONFIG_FILES = sorted(EXAMPLES_DIR.glob("*.toml")) + sorted(EXAMPLES_DIR.glob("*.json"))
BASES = {path.name: _parse_file(path) for path in CONFIG_FILES}

#: Every key the validator knows, per table, with values that reach its checks.
KNOWN = {
    "experiment": {
        "name": ["ok-name", "bad name", ""],
        "kind": list(PIPELINE_KINDS) + ["nope"],
        "algorithm": ["fosc", "mpck", "kmeans"],
        "scenario": ["labels", "constraints", "both"],
        "amounts": [[0.1], [0.05, 0.5], [0.0], [1.5, 0.2], [], [True]],
        "datasets": [["Iris"], ["iris", "Wine"], ["Iris", "iris"], ["Nope"], [], [3]],
        "seed": [0, 7, -1],
    },
    "parameters": {
        "n_trials": [1, 2, 0],
        "n_folds": [2, 3, -2],
        "n_aloi_datasets": [1, 0],
        "max_k": [4, 0],
        "mpck_n_init": [1, 0],
        "mpck_max_iter": [5, 0],
        "minpts_range": [[3, 6], [3, 0], [], [True]],
    },
    "dataset": {
        "metric": ["euclidean", "cosine", "precomputed", "manhattan"],
        "path": ["data/text_similarity.npz", "data/missing.npz", ""],
        "form": ["distance", "similarity", "sideways"],
        "name": ["text-sim", "bad name"],
    },
    "oracle": {
        "name": ["perfect", "noisy", "budgeted", "active", "psychic"],
        "flip_probability": [0.2, 1.5],
        "budget": [10, 0],
        "ordering": ["random", "farthest_first", "nope"],
        "flip_rates": [[0.0, 0.2], [1.5], []],
        "repair": [True, False, "yes"],
    },
    "execution": {
        "backend": ["serial", "thread", "process", "mpi"],
        "n_jobs": [1, 2, "many"],
        "parallelize": ["grid", "trials", "cells"],
        "distance_backend": ["blockwise", "memmap", "neighbors", "gpu"],
        "epsilon": [0.5, 0.0, "wide"],
        "k_neighbors": [8, 0],
    },
    "artifacts": {"root": [".repro-artifacts", "elsewhere", ""]},
    "report": {"formats": [["txt"], ["json", "txt"], ["pdf"], []]},
    "stream": {"n_deltas": [2, 0], "order": ["sorted", "shuffled", "random"]},
    "fleet": {"lease_ttl_s": [30, 0], "poll_interval_s": [0.5, -1]},
    "serve": {"host": ["127.0.0.1", ""], "port": [0, 70000], "workers": [1, 0], "max_pending": [4, 0]},
}

#: Values of the wrong type for any key (``"dense"`` is tested on its own).
WRONG_TYPES = [None, True, 3, 2.5, "x", [], ["x"], {}, {"k": 1}]


def outcome(function, raw: dict):
    """``("ok", spec, problems)`` or ``("error", type, message)`` of one validation."""
    try:
        spec, problems = function(copy.deepcopy(raw), "config", base_dir=EXAMPLES_DIR)
    except Exception as error:  # both sides must fail the same way
        return "error", type(error), str(error)
    return "ok", spec, problems


def own_metric_lines(raw: dict, old_problems: list[str]) -> list[str]:
    """The lines the library adds for "Text"'s own metric (the third intended difference).

    They are the oracle's ``dataset.metric`` lines for the same config
    with ``metric = "cosine"`` written out, placed at ``experiment.datasets``.
    """
    experiment, table = raw.get("experiment"), raw.get("dataset", {})
    names = experiment.get("datasets") if isinstance(experiment, dict) else None
    if not isinstance(names, list) or "Text" not in names:
        return []
    if isinstance(table, dict) and table.get("metric") in DATASET_METRICS:
        return []
    explicit = copy.deepcopy(raw)
    explicit["dataset"] = {**(table if isinstance(table, dict) else {}), "metric": "cosine"}
    _, _, problems = outcome(oracle.validate_pipeline_mapping, explicit)
    return [
        "experiment.datasets:" + line.removeprefix("dataset.metric:")
        for line in problems
        if line.startswith("dataset.metric:") and line not in old_problems
    ]


def assert_equivalent(raw: dict) -> None:
    new, old = outcome(validate_pipeline_mapping, raw), outcome(oracle.validate_pipeline_mapping, raw)
    if new[0] == "error" or old[0] == "error":
        assert new == old
        return
    _, spec, problems = new
    _, old_spec, old_problems = old
    added = own_metric_lines(raw, old_problems)
    if added:
        assert [line for line in problems if line not in added] == old_problems
        assert [line for line in problems if line in added] == added
        assert spec is None
        return
    assert problems == old_problems
    assert spec == old_spec
    if spec is not None:
        mapping = spec.to_spec()
        assert mapping == oracle.to_spec(old_spec)
        assert pipeline_spec_from_mapping(mapping) == spec


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_example_config_validates_identically(name):
    assert_equivalent(BASES[name])
    assert outcome(validate_pipeline_mapping, BASES[name])[2] == []


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_kind_algorithm_and_scenario(name):
    for kind, algorithm, scenario in itertools.product(
        PIPELINE_KINDS, (None, "fosc", "mpck"), (None, "labels", "constraints")
    ):
        raw = copy.deepcopy(BASES[name])
        experiment = raw["experiment"]
        experiment["kind"] = kind
        for key, value in (("algorithm", algorithm), ("scenario", scenario)):
            experiment.pop(key, None)
            if value is not None:
                experiment[key] = value
        assert_equivalent(raw)


#: One setting per rule a kind may forbid, as a change to a config.
FORBIDDABLE = {
    "algorithm": ("experiment", "algorithm", "fosc"),
    "mpck": ("experiment", "algorithm", "mpck"),
    "scenario": ("experiment", "scenario", "constraints"),
    "oracle": ("oracle", "name", "noisy"),
    "oracle_keys": ("oracle", "flip_probability", 0.2),
    "parallelize": ("execution", "parallelize", "trials"),
    "neighbors": ("execution", "distance_backend", "neighbors"),
    "non_euclidean": ("dataset", "metric", "cosine"),
    "precomputed": ("dataset", "metric", "precomputed"),
    "stream": ("stream", "n_deltas", 2),
}


@pytest.mark.parametrize("kind", PIPELINE_KINDS)
@pytest.mark.parametrize("rule", sorted(FORBIDDABLE))
def test_each_rule_under_each_kind(kind, rule):
    table, key, value = FORBIDDABLE[rule]
    raw = copy.deepcopy(BASES["quickstart.toml"])
    raw["experiment"]["kind"] = kind
    raw["experiment"].pop("scenario", None)
    raw["experiment"].pop("algorithm", None)
    raw.pop("oracle", None)
    raw.setdefault(table, {})[key] = value
    if rule == "precomputed":
        raw["dataset"]["path"] = "data/text_similarity.npz"
        raw["experiment"].pop("datasets")
    assert_equivalent(raw)
    if getattr(KIND_RULES[kind], rule):
        assert outcome(validate_pipeline_mapping, raw)[2], f"{kind} should forbid {rule}"


def test_the_rule_table_covers_every_kind():
    assert set(KIND_RULES) == set(PIPELINE_KINDS)


_ABSENT = object()


@pytest.mark.parametrize("base", ["quickstart.toml", "precomputed_similarity.toml", "text_cosine.toml"])
def test_dataset_table_combinations(base):
    for metric, path, form, name in itertools.product(
        (_ABSENT, "euclidean", "cosine", "precomputed", "manhattan"),
        (_ABSENT, "data/text_similarity.npz", "data/missing.npz", "", 5),
        (_ABSENT, "distance", "similarity", "sideways"),
        (_ABSENT, "text-sim", "bad name"),
    ):
        raw = copy.deepcopy(BASES[base])
        table = {
            key: value
            for key, value in (("metric", metric), ("path", path), ("form", form), ("name", name))
            if value is not _ABSENT
        }
        if table:
            raw["dataset"] = table
        else:
            raw.pop("dataset", None)
        assert_equivalent(raw)


@st.composite
def mutated_configs(draw) -> dict:
    raw = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 4))):
        operation = draw(st.sampled_from(["drop", "unknown", "wrong_type", "set", "drop_table"]))
        if operation == "drop_table" and raw:
            raw.pop(draw(st.sampled_from(sorted(raw))))
        elif operation == "drop":
            tables = sorted(name for name, table in raw.items() if isinstance(table, dict) and table)
            if tables:
                table = raw[draw(st.sampled_from(tables))]
                table.pop(draw(st.sampled_from(sorted(table))))
        elif operation == "unknown":
            where = draw(st.sampled_from(sorted(KNOWN) + ["typo_table"]))
            raw.setdefault(where, {})
            if isinstance(raw[where], dict):
                raw[where]["typo_key"] = draw(st.sampled_from(WRONG_TYPES))
        else:
            table = draw(st.sampled_from(sorted(KNOWN)))
            key = draw(st.sampled_from(sorted(KNOWN[table])))
            pool = WRONG_TYPES if operation == "wrong_type" else KNOWN[table][key]
            value = copy.deepcopy(draw(st.sampled_from(pool)))
            if operation == "wrong_type" and draw(st.booleans()):
                raw[table] = value  # a whole table of the wrong type
            elif isinstance(raw.setdefault(table, {}), dict):
                raw[table][key] = value
    return raw


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_mutated_configs_validate_identically(raw):
    assert_equivalent(raw)


@pytest.mark.parametrize("name", sorted(BASES))
def test_dense_is_the_one_intended_difference(name):
    raw = copy.deepcopy(BASES[name])
    raw.setdefault("execution", {})["distance_backend"] = "dense"
    _, old_spec, old_problems = outcome(oracle.validate_pipeline_mapping, raw)
    _, spec, problems = outcome(validate_pipeline_mapping, raw)
    assert old_problems == [] and old_spec.config.execution.distance_backend == "blockwise"
    assert spec is None
    assert problems == [
        "execution.distance_backend: must be one of blockwise, memmap, neighbors; got 'dense'"
    ]


#: The Euclidean examples, where the oracle accepts an MPCK spec.
EUCLIDEAN_BASES = sorted(
    name for name, raw in BASES.items() if "dataset" not in raw and raw["experiment"]["kind"] != "online"
)


@pytest.mark.parametrize("name", EUCLIDEAN_BASES)
def test_the_environment_tier_is_the_other_intended_difference(name, monkeypatch):
    raw = copy.deepcopy(BASES[name])
    kind = raw["experiment"]["kind"]
    if KIND_RULES[kind].algorithm is None:
        raw["experiment"]["algorithm"] = "mpck"
    monkeypatch.delenv("REPRO_DISTANCE_BACKEND", raising=False)
    assert_equivalent(raw)
    monkeypatch.setenv("REPRO_DISTANCE_BACKEND", "neighbors")
    _, old_spec, old_problems = outcome(oracle.validate_pipeline_mapping, raw)
    _, spec, problems = outcome(validate_pipeline_mapping, raw)
    assert old_problems == [] and old_spec.config.execution.distance_backend is None
    assert spec is None
    assert problems == [
        KIND_RULES[kind].neighbors
        or 'execution.distance_backend: "neighbors" cannot drive algorithm = "mpck"'
        " (MPCKMeans needs the full distance matrix); use an exact tier (blockwise, memmap)"
    ]


@pytest.mark.parametrize(
    "change, oracle_accepts",
    [
        ({"experiment": {"algorithm": "mpck"}}, True),
        ({"experiment": {"kind": "robustness"}}, True),
        ({"execution": {"distance_backend": "neighbors"}}, True),
        ({"experiment": {"algorithm": "mpck"}, "execution": {"distance_backend": "neighbors"}}, False),
    ],
    ids=["mpck", "robustness", "neighbors", "mpck-neighbors"],
)
def test_a_registry_sets_own_metric_is_the_third_intended_difference(change, oracle_accepts, monkeypatch):
    monkeypatch.delenv("REPRO_DISTANCE_BACKEND", raising=False)
    raw = copy.deepcopy(BASES["text_cosine.toml"])
    for table, settings_ in change.items():
        raw.setdefault(table, {}).update(settings_)
    if raw["experiment"]["kind"] == "robustness":
        del raw["experiment"]["algorithm"]
    # With the metric written out both validators judge it alike.
    assert own_metric_lines(raw, []) == []
    assert_equivalent(raw)
    del raw["dataset"]
    _, old_spec, old_problems = outcome(oracle.validate_pipeline_mapping, raw)
    _, spec, problems = outcome(validate_pipeline_mapping, raw)
    assert (old_spec is not None) == oracle_accepts
    assert spec is None
    added = [line for line in problems if line.startswith("experiment.datasets:")]
    assert added and added == own_metric_lines(raw, old_problems)
    assert_equivalent(raw)
