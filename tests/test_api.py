"""Tests for the stable ``repro.api`` facade and the spec protocol.

The contract under test is twofold: every request/settings object obeys
the round-trip law ``from_spec(to_spec(x)) == x`` and reports *all* of
its validation problems in one :class:`~repro.utils.specs.SpecError`;
and the facade functions produce results identical to the lower-level
drivers they wrap (same store artifacts, same selections).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro import api
from repro.core.executor import ExecutionSpec
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.fleet import FleetSettings
from repro.experiments.pipeline import ConfigError, PipelineSpec
from repro.serve.schemas import ServeSettings
from repro.utils.specs import SpecError, assert_roundtrip

TINY_MAPPING = {
    "experiment": {
        "name": "api-tiny",
        "kind": "trials",
        "algorithm": "fosc",
        "scenario": "labels",
        "amounts": [0.2],
        "datasets": ["Iris"],
        "seed": 3,
    },
    "parameters": {"n_trials": 1, "n_folds": 3, "minpts_range": [3, 6]},
}


class TestRoundTripLaw:
    """``from_spec(to_spec(x)) == x`` for every Specable in the stack."""

    @pytest.mark.parametrize(
        "obj",
        [
            ExecutionSpec(),
            ExecutionSpec(backend="process", n_jobs=4),
            ExecutionSpec(backend="thread", n_jobs=2, distance_backend="memmap"),
            ServeSettings(),
            ServeSettings(host="0.0.0.0", port=0, workers=8, max_pending=2),
            FleetSettings(),
            api.SelectionRequest(),
            api.SelectionRequest(
                algorithm="mpck",
                dataset="Wine",
                scenario="constraints",
                amount=0.5,
                n_trials=2,
                execution=ExecutionSpec(backend="thread", n_jobs=2),
            ),
        ],
    )
    def test_value_objects_roundtrip(self, obj):
        assert_roundtrip(obj)

    def test_pipeline_spec_roundtrips_through_its_mapping(self):
        spec = api.load_spec(TINY_MAPPING)
        assert isinstance(spec, PipelineSpec)
        again = api.load_spec(spec.to_spec())
        assert again == spec

    def test_execution_spec_from_spec_collects_all_problems(self):
        with pytest.raises(SpecError) as excinfo:
            ExecutionSpec.from_spec({"backend": "mpi", "n_jobs": "many", "typo": 1})
        text = "\n".join(excinfo.value.problems)
        assert "execution.backend" in text
        assert "execution.n_jobs" in text
        assert "execution.typo: unknown key" in text

    def test_selection_request_from_spec_collects_nested_problems(self):
        with pytest.raises(SpecError) as excinfo:
            api.SelectionRequest.from_spec(
                {"algorithm": "kmeanz", "amount": 7, "execution": {"backend": "gpu"}, "x": 1}
            )
        text = "\n".join(excinfo.value.problems)
        assert "select.algorithm" in text
        assert "select.amount" in text
        assert "select.execution.backend" in text
        assert "select.x: unknown key" in text


class TestExecutionSpecOnly:
    def test_cvcp_takes_the_engine_as_one_spec(self):
        from repro.core.cvcp import CVCP

        class _Estimator:
            tuned_parameter = "k"

        spec = ExecutionSpec(backend="thread", n_jobs=2)
        search = CVCP(_Estimator(), [2, 3], n_folds=2, execution=spec)
        assert search.execution == spec
        assert (search.backend, search.n_jobs) == ("thread", 2)
        with pytest.raises(TypeError, match="backend"):
            CVCP(_Estimator(), [2, 3], n_folds=2, backend="thread", n_jobs=2)

    def test_select_parameter_has_no_loose_engine_keywords(self):
        from repro.core.cvcp import select_parameter

        with pytest.raises(TypeError, match="distance_backend"):
            select_parameter(object(), np.zeros((4, 2)), [2, 3], distance_backend="blockwise")

    def test_spec_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.load_spec(TINY_MAPPING)
            ExecutionSpec(backend="serial").to_spec()


class TestLoadSpec:
    def test_accepts_mapping_path_and_spec(self, tmp_path):
        from_mapping = api.load_spec(TINY_MAPPING)
        assert api.load_spec(from_mapping) is from_mapping
        path = tmp_path / "tiny.json"
        import json

        path.write_text(json.dumps(TINY_MAPPING), encoding="utf-8")
        assert api.load_spec(path).name == "api-tiny"

    def test_invalid_mapping_raises_config_error_with_problems(self):
        bad = {"experiment": {"name": "x", "kind": "nope"}, "extra": {}}
        with pytest.raises(ConfigError) as excinfo:
            api.load_spec(bad)
        text = "\n".join(excinfo.value.problems)
        assert "kind" in text
        assert "extra" in text

    def test_non_mapping_top_level_is_rejected(self):
        from repro.experiments.pipeline import pipeline_spec_from_mapping

        with pytest.raises(ConfigError, match="top level must be a mapping"):
            pipeline_spec_from_mapping([1, 2, 3])


class TestRunPipeline:
    def test_run_pipeline_returns_frozen_report(self, tmp_path):
        report = api.run_pipeline(TINY_MAPPING, artifacts_root=tmp_path / "store")
        assert dataclasses.is_dataclass(report) and isinstance(report, api.PipelineRunReport)
        assert report.report_paths and all(path.exists() for path in report.report_paths)
        assert report.stats["misses"] > 0
        payload = report.as_dict()
        assert payload["name"] == "api-tiny"
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.summary = {}

    def test_execution_override_is_bit_identical(self, tmp_path):
        serial = api.run_pipeline(TINY_MAPPING, artifacts_root=tmp_path / "a")
        threaded = api.run_pipeline(
            TINY_MAPPING,
            artifacts_root=tmp_path / "b",
            execution=ExecutionSpec(backend="thread", n_jobs=2),
        )
        assert serial.summary == threaded.summary

    def test_rerun_through_shared_store_hits_cache(self, tmp_path):
        store = api.open_store(tmp_path / "store")
        assert isinstance(store, ArtifactStore)
        api.run_pipeline(TINY_MAPPING, store=store, artifacts_root=tmp_path / "store")
        store.reset_stats()
        again = api.run_pipeline(TINY_MAPPING, store=store, artifacts_root=tmp_path / "store")
        assert again.stats["misses"] == 0
        assert again.stats["hits"] > 0


class TestSelectAndFit:
    def test_select_parameter_is_cached_and_deterministic(self, tmp_path):
        store = api.open_store(tmp_path / "store")
        request = api.SelectionRequest(n_folds=3, amount=0.2, seed=9)
        first = api.select_parameter(request, store=store)
        assert first.parameter_name == "min_pts"
        assert first.stats["writes"] > 0
        store.reset_stats()
        second = api.select_parameter(request, store=store)
        assert second.stats == {"hits": 1, "misses": 0, "writes": 0}
        assert second.selected_value == first.selected_value
        assert second.trials == first.trials

    def test_fit_returns_a_partition(self):
        report = api.fit("fosc", "Iris", amount=0.2, n_folds=3, seed=2)
        assert report.parameter_name == "min_pts"
        assert len(report.labels) == 150
        assert report.n_clusters >= 1
        # FitReport carries the dataset's own name (the registry's "Iris"
        # entry generates the paper's iris-like sample).
        assert "iris" in report.as_dict()["dataset"].lower()

    def test_fit_validates_inputs(self):
        with pytest.raises(SpecError, match=r"fit\.algorithm"):
            api.fit("kmeanz", "Iris")
        with pytest.raises(SpecError, match=r"fit\.scenario"):
            api.fit("fosc", "Iris", scenario="psychic")

    def test_selection_request_canonicalises_dataset_case(self):
        request = api.SelectionRequest(dataset="iris")
        assert request.dataset == "Iris"
