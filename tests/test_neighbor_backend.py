"""Tests for ``distance_backend="neighbors"`` as a full execution tier.

Mirrors ``tests/test_distance_backend.py`` one tier up: the parity matrix
across the serial/thread/process executors and both kernel sets (the
vectorised kernels and their reference oracles), the
``ExecutionSpec``/``validate-config`` surface for ``epsilon``/``k_neighbors``,
the consumers that must reject the tier with a clear problem instead of a
traceback, and the artifact-store fingerprinting contract (exact tiers
share entries; ``neighbors`` never does).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.clustering.fosc import FOSCOpticsDend
from repro.core.cvcp import CVCP
from repro.core.distance_backend import (
    DISTANCE_BACKEND_ALIASES,
    DISTANCE_BACKENDS,
    EXACT_DISTANCE_BACKENDS,
    get_distance_backend,
)
from repro.core.executor import ExecutionSpec
from repro.experiments import ExperimentConfig, run_trial, trial_artifact_key
from repro.experiments.artifacts import ArtifactStore, key_digest
from repro.experiments.pipeline import validate_pipeline_file
from repro.experiments.runner import algorithm_factory
from repro.utils.cache import clear_distance_cache
from repro.utils.specs import SpecError

from kernel_oracle import reference_kernels

EXECUTORS = ("serial", "thread", "process")
KERNEL_MODES = ("vectorized", "reference")

LABELED = {0: 0, 5: 0, 21: 1, 26: 1, 41: 2, 46: 2, 10: 0, 30: 1}


def cvcp_observation(dataset, *, kernels, spec):
    """Fit one CVCP grid and return its comparable outcome tuple."""
    clear_distance_cache()
    search = CVCP(
        FOSCOpticsDend(min_pts=5),
        parameter_values=[3, 6],
        n_folds=3,
        random_state=11,
        execution=spec,
    )
    with reference_kernels() if kernels == "reference" else nullcontext():
        search.fit(dataset.X, labeled_objects=LABELED)
    return (
        search.best_params_,
        [evaluation.fold_scores for evaluation in search.cv_results_.evaluations],
        search.labels_.tolist(),
    )


class TestBackendRegistry:
    def test_neighbors_extends_the_exact_tiers(self):
        assert DISTANCE_BACKENDS == EXACT_DISTANCE_BACKENDS + ("neighbors",)
        assert "neighbors" not in EXACT_DISTANCE_BACKENDS

    def test_full_matrix_requests_are_rejected_with_guidance(self):
        backend = get_distance_backend("neighbors")
        with pytest.raises(ValueError, match="cannot materialise"):
            backend.pairwise(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="cannot materialise"):
            backend.derived_matrix(4, "mreach")


class TestExecutionSpecSurface:
    def test_epsilon_and_k_round_trip_through_spec(self):
        spec = ExecutionSpec(distance_backend="neighbors", epsilon=2.5, k_neighbors=16)
        payload = spec.to_spec()
        assert payload["epsilon"] == 2.5
        assert payload["k_neighbors"] == 16
        assert ExecutionSpec.from_spec(payload) == spec

    def test_unset_knobs_are_omitted_from_the_payload(self):
        payload = ExecutionSpec(distance_backend="neighbors").to_spec()
        assert "epsilon" not in payload and "k_neighbors" not in payload

    @pytest.mark.parametrize("bad", [0, -1.5, float("nan"), True, "wide"])
    def test_bad_epsilon_is_a_spec_error(self, bad):
        with pytest.raises(SpecError, match="execution.epsilon"):
            ExecutionSpec(distance_backend="neighbors", epsilon=bad)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "many"])
    def test_bad_k_neighbors_is_a_spec_error(self, bad):
        with pytest.raises(SpecError, match="execution.k_neighbors"):
            ExecutionSpec(distance_backend="neighbors", k_neighbors=bad)

    @pytest.mark.parametrize("backend", EXACT_DISTANCE_BACKENDS + tuple(DISTANCE_BACKEND_ALIASES))
    @pytest.mark.filterwarnings("ignore:distance_backend='dense' is deprecated:DeprecationWarning")
    def test_knobs_with_an_exact_tier_are_rejected(self, backend):
        with pytest.raises(SpecError, match="only meaningful"):
            ExecutionSpec(distance_backend=backend, epsilon=2.0)
        with pytest.raises(SpecError, match="only meaningful"):
            ExecutionSpec(distance_backend=backend, k_neighbors=8)

    def test_knobs_without_a_backend_are_allowed(self):
        # distance_backend=None defers to the environment, which may well
        # resolve to "neighbors" — the pairing check cannot reject that.
        spec = ExecutionSpec(epsilon=2.0, k_neighbors=8)
        assert spec.epsilon == 2.0 and spec.k_neighbors == 8


class TestParityMatrix:
    """Satellite 2: neighbors × executors × kernels vs their reference oracles.

    In the exhaustive regime every axis must reproduce the blockwise/serial
    reference bit-for-bit; at a fixed practical epsilon the observations
    must be identical across axes (deterministic), whatever they are.
    """

    @pytest.fixture(scope="class")
    def exact_reference(self, blobs_dataset):
        return cvcp_observation(
            blobs_dataset,
            kernels="vectorized",
            spec=ExecutionSpec(backend="serial", distance_backend="blockwise"),
        )

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    def test_exhaustive_regime_matches_exact_reference(
        self, blobs_dataset, exact_reference, executor, kernels
    ):
        observed = cvcp_observation(
            blobs_dataset,
            kernels=kernels,
            spec=ExecutionSpec(
                backend=executor,
                n_jobs=2,
                distance_backend="neighbors",
                epsilon=float(np.inf),
                k_neighbors=blobs_dataset.n_samples,
            ),
        )
        assert observed == exact_reference

    def test_practical_epsilon_is_identical_across_all_axes(self, blobs_dataset):
        reference = None
        for executor in EXECUTORS:
            for kernels in KERNEL_MODES:
                observed = cvcp_observation(
                    blobs_dataset,
                    kernels=kernels,
                    spec=ExecutionSpec(
                        backend=executor,
                        n_jobs=2,
                        distance_backend="neighbors",
                        epsilon=6.0,
                        k_neighbors=12,
                    ),
                )
                if reference is None:
                    reference = observed
                else:
                    assert observed == reference

    def test_cvcp_passes_the_knobs_to_estimator_clones(self):
        search = CVCP(
            FOSCOpticsDend(min_pts=5),
            parameter_values=[3, 6],
            execution=ExecutionSpec(
                distance_backend="neighbors", epsilon=3.0, k_neighbors=9
            ),
        )
        clone = search._make_estimator(6, seed=1)
        assert clone.distance_backend == "neighbors"
        assert clone.epsilon == 3.0
        assert clone.k_neighbors == 9


NEIGHBORS_TOML = """\
[experiment]
name = "sparse"
kind = "{kind}"
algorithm = "{algorithm}"
scenario = "labels"
amounts = [0.1]
datasets = ["Iris"]
seed = 11

[parameters]
n_trials = 2
n_folds = 3
minpts_range = [3, 6, 9]

[execution]
distance_backend = "neighbors"
{extra}
"""


def write_config(tmp_path, *, kind="trials", algorithm="fosc", extra=""):
    path = tmp_path / "neighbors.toml"
    path.write_text(
        NEIGHBORS_TOML.format(kind=kind, algorithm=algorithm, extra=extra),
        encoding="utf-8",
    )
    return path


class TestValidateConfig:
    """Satellite 3: incompatible combinations are problems, not tracebacks."""

    def test_neighbors_config_with_knobs_is_valid(self, tmp_path):
        path = write_config(tmp_path, extra="epsilon = 2.0\nk_neighbors = 16\n")
        assert validate_pipeline_file(path) == []

    def test_neighbors_with_mpck_is_a_problem(self, tmp_path):
        path = write_config(tmp_path, algorithm="mpck")
        problems = validate_pipeline_file(path)
        assert any("mpck" in p and "neighbors" in p for p in problems)
        assert any("full distance matrix" in p for p in problems)

    def test_neighbors_with_robustness_kind_is_a_problem(self, tmp_path):
        path = write_config(tmp_path, kind="robustness")
        problems = validate_pipeline_file(path)
        assert any("robustness" in p and "neighbors" in p for p in problems)

    def test_knobs_with_an_exact_tier_are_a_problem(self, tmp_path):
        path = tmp_path / "mismatch.toml"
        path.write_text(
            NEIGHBORS_TOML.format(kind="trials", algorithm="fosc", extra="").replace(
                'distance_backend = "neighbors"', 'distance_backend = "blockwise"\nepsilon = 2.0'
            ),
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        assert any("only meaningful" in p for p in problems)

    def test_bad_epsilon_value_is_a_problem(self, tmp_path):
        path = write_config(tmp_path, extra="epsilon = -1.0\n")
        problems = validate_pipeline_file(path)
        assert any("execution.epsilon" in p for p in problems)

    def test_runner_rejects_mpck_under_neighbors_with_guidance(self):
        config = ExperimentConfig(distance_backend="neighbors")
        with pytest.raises(ValueError, match="MPCKMeans"):
            algorithm_factory("mpck", config)


TINY_EXACT = ExperimentConfig(
    n_trials=1,
    n_folds=3,
    n_aloi_datasets=1,
    minpts_range=(3, 6),
    mpck_n_init=1,
    mpck_max_iter=8,
    max_k=5,
    datasets=("Iris",),
    seed=0,
)


def with_backend(config, backend, **kwargs):
    return config.with_execution(distance_backend=backend, **kwargs)


class TestArtifactFingerprinting:
    """Satellite 4: neighbors trials key their own artifacts; exact tiers share."""

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.datasets import make_blobs

        return make_blobs([15, 15, 15], 3, center_spread=8.0, random_state=0,
                          name="fingerprint-test")

    def test_exact_tiers_share_one_key(self, dataset):
        digests = {
            backend: key_digest(
                "trial",
                trial_artifact_key(
                    with_backend(TINY_EXACT, backend), dataset, "fosc", "labels", 0.1, 7
                ),
            )
            for backend in EXACT_DISTANCE_BACKENDS
        }
        assert len(set(digests.values())) == 1
        key = trial_artifact_key(
            with_backend(TINY_EXACT, "blockwise"), dataset, "fosc", "labels", 0.1, 7
        )
        assert "approx" not in key

    def test_neighbors_key_records_the_resolved_knobs(self, dataset):
        key = trial_artifact_key(
            with_backend(TINY_EXACT, "neighbors", epsilon=2.5, k_neighbors=16),
            dataset, "fosc", "labels", 0.1, 7,
        )
        assert key["approx"] == {
            "distance_backend": "neighbors",
            "epsilon": 2.5,
            "k_neighbors": 16,
        }

    def test_default_epsilon_serialises_as_the_string_inf(self, dataset):
        key = trial_artifact_key(
            with_backend(TINY_EXACT, "neighbors"), dataset, "fosc", "labels", 0.1, 7
        )
        assert key["approx"]["epsilon"] == "inf"
        import json

        json.dumps(key)  # the key must stay JSON-serialisable

    def test_neighbors_never_shares_with_exact_or_other_settings(self, dataset):
        base = trial_artifact_key(
            with_backend(TINY_EXACT, "blockwise"), dataset, "fosc", "labels", 0.1, 7
        )
        variants = [
            with_backend(TINY_EXACT, "neighbors"),
            with_backend(TINY_EXACT, "neighbors", epsilon=2.0),
            with_backend(TINY_EXACT, "neighbors", epsilon=2.0, k_neighbors=8),
            with_backend(TINY_EXACT, "neighbors", k_neighbors=8),
        ]
        digests = {key_digest("trial", base)}
        for config in variants:
            digests.add(
                key_digest(
                    "trial",
                    trial_artifact_key(config, dataset, "fosc", "labels", 0.1, 7),
                )
            )
        assert len(digests) == len(variants) + 1  # all distinct

    def test_exact_trial_is_a_cache_miss_for_neighbors(self, dataset, tmp_path):
        """Regression: a stored exact trial must never satisfy a neighbors run."""
        store = ArtifactStore(tmp_path / "store")
        exact = with_backend(TINY_EXACT, "blockwise")
        sparse = with_backend(TINY_EXACT, "neighbors", epsilon=float(np.inf),
                              k_neighbors=dataset.n_samples)
        run_trial(dataset, "fosc", "labels", 0.1, config=exact, random_state=7, store=store)

        sparse_key = trial_artifact_key(sparse, dataset, "fosc", "labels", 0.1, 7)
        assert store.get("trial", sparse_key) is None  # the miss under test

        result = run_trial(
            dataset, "fosc", "labels", 0.1, config=sparse, random_state=7, store=store
        )
        assert store.get("trial", sparse_key) is not None
        # In the exhaustive regime the recomputed trial agrees with exact.
        exact_key = trial_artifact_key(exact, dataset, "fosc", "labels", 0.1, 7)
        cached_exact = store.get("trial", exact_key)
        assert cached_exact is not None
        assert result.to_dict() == cached_exact
