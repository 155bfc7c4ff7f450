"""Tests for the parallel execution engine and its CVCP integration."""

import numpy as np
import pytest

from repro.clustering import FOSCOpticsDend, MPCKMeans
from repro.constraints import build_constraint_pool, sample_labeled_objects
from repro.core import CVCP, select_parameter
from repro.core.executor import (
    BACKENDS,
    ExecutionSpec,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    derive_seed,
    execute,
    get_executor,
    resolve_n_jobs,
)
from repro.experiments import QUICK_CONFIG
from repro.experiments.runner import run_trials


def _square(value):
    return value * value


def _explode(value):
    raise RuntimeError(f"task {value} failed")


class TestExecutorBasics:
    def test_factory_dispatch(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread", 2), ThreadExecutor)
        assert isinstance(get_executor("process", 2), ProcessExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_executor("dask")

    def test_resolve_n_jobs(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_n_jobs(None) == cores
        assert resolve_n_jobs(0) == cores
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-1000) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_preserve_task_order(self, backend):
        tasks = list(range(20))
        results = execute(_square, tasks, backend=backend, n_jobs=2)
        assert results == [task * task for task in tasks]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_task_list(self, backend):
        assert get_executor(backend, 2).run(_square, []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_exception_propagates(self, backend):
        with pytest.raises(RuntimeError, match="failed"):
            execute(_explode, [1, 2, 3], backend=backend, n_jobs=2)

    def test_single_worker_short_circuits_to_inline(self):
        # n_jobs=1 must not pay pool overhead but still honour the contract.
        assert ThreadExecutor(1).run(_square, [1, 2, 3]) == [1, 4, 9]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_result_delivers_every_completion(self, backend):
        received = {}
        tasks = list(range(6))
        results = get_executor(backend, 2).run(
            _square, tasks, on_result=lambda index, result: received.__setitem__(index, result)
        )
        assert results == [task * task for task in tasks]
        assert received == {task: task * task for task in tasks}

    def test_on_result_sees_completions_before_a_later_failure(self):
        # Serial semantics: deliveries happen per task, so results finished
        # before an exception have already been handed over — the property
        # per-cell artifact persistence relies on.
        received = {}
        with pytest.raises(RuntimeError, match="failed"):
            SerialExecutor().run(
                lambda task: _explode(task) if task == 2 else _square(task),
                [0, 1, 2, 3],
                on_result=lambda index, result: received.__setitem__(index, result),
            )
        assert received == {0: 0, 1: 1}


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)

    def test_sensitive_to_every_coordinate(self):
        seeds = {
            derive_seed(123, 4, 5),
            derive_seed(123, 5, 4),
            derive_seed(124, 4, 5),
            derive_seed(123, 4, 6),
        }
        assert len(seeds) == 4

    def test_fits_into_random_state(self):
        seed = derive_seed(2**62, 7)
        assert 0 <= seed < 2**63 - 1
        np.random.default_rng(seed)  # must be a valid seed


class TestCVCPBackendParity:
    """The acceptance criterion: all backends are bit-identical."""

    def _fit(self, estimator, values, dataset, side, backend):
        search = CVCP(
            estimator,
            parameter_values=values,
            n_folds=4,
            random_state=42,
            execution=ExecutionSpec(backend=backend, n_jobs=4),
        )
        search.fit(dataset.X, labeled_objects=side)
        return search

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_density_algorithm_parity(self, blobs_dataset, backend):
        side = sample_labeled_objects(blobs_dataset.y, 0.20, random_state=3)
        serial = self._fit(FOSCOpticsDend(), [3, 5, 8], blobs_dataset, side, "serial")
        parallel = self._fit(FOSCOpticsDend(), [3, 5, 8], blobs_dataset, side, backend)
        assert serial.best_params_ == parallel.best_params_
        assert [e.fold_scores for e in serial.cv_results_.evaluations] == [
            e.fold_scores for e in parallel.cv_results_.evaluations
        ]
        assert np.array_equal(serial.labels_, parallel.labels_)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stochastic_algorithm_parity(self, blobs_dataset, backend):
        side = sample_labeled_objects(blobs_dataset.y, 0.20, random_state=3)
        template = MPCKMeans(random_state=0, n_init=1, max_iter=10)
        serial = self._fit(template, [2, 3, 4], blobs_dataset, side, "serial")
        parallel = self._fit(template, [2, 3, 4], blobs_dataset, side, backend)
        assert serial.best_params_ == parallel.best_params_
        assert serial.best_score_ == parallel.best_score_
        assert [e.fold_scores for e in serial.cv_results_.evaluations] == [
            e.fold_scores for e in parallel.cv_results_.evaluations
        ]
        assert np.array_equal(serial.labels_, parallel.labels_)

    def test_constraint_scenario_parity(self, blobs_dataset):
        pool = build_constraint_pool(blobs_dataset.y, fraction_per_class=0.2, random_state=0)
        results = {}
        for backend in BACKENDS:
            search = CVCP(
                FOSCOpticsDend(), parameter_values=[3, 5, 8], n_folds=3,
                random_state=7, execution=ExecutionSpec(backend=backend, n_jobs=2),
            )
            search.fit(blobs_dataset.X, constraints=pool)
            results[backend] = (
                search.best_params_,
                [e.fold_scores for e in search.cv_results_.evaluations],
            )
        assert results["serial"] == results["thread"] == results["process"]

    def test_results_independent_of_worker_count(self, blobs_dataset):
        side = sample_labeled_objects(blobs_dataset.y, 0.20, random_state=3)
        runs = [
            self._fit(FOSCOpticsDend(), [3, 5, 8], blobs_dataset, side, "serial"),
            CVCP(FOSCOpticsDend(), parameter_values=[3, 5, 8], n_folds=4,
                 random_state=42, execution=ExecutionSpec(backend="thread", n_jobs=1)),
            CVCP(FOSCOpticsDend(), parameter_values=[3, 5, 8], n_folds=4,
                 random_state=42, execution=ExecutionSpec(backend="thread", n_jobs=3)),
        ]
        runs[1].fit(blobs_dataset.X, labeled_objects=side)
        runs[2].fit(blobs_dataset.X, labeled_objects=side)
        scores = [[e.fold_scores for e in run.cv_results_.evaluations] for run in runs]
        assert scores[0] == scores[1] == scores[2]

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="execution.backend"):
            CVCP(MPCKMeans(), parameter_values=[2, 3], execution=ExecutionSpec(backend="mpi"))

    def test_select_parameter_passes_engine_through(self, blobs_dataset):
        side = sample_labeled_objects(blobs_dataset.y, 0.20, random_state=3)
        serial_value, serial_results = select_parameter(
            FOSCOpticsDend(), blobs_dataset.X, [3, 5, 8],
            labeled_objects=side, n_folds=3, random_state=5,
        )
        thread_value, thread_results = select_parameter(
            FOSCOpticsDend(), blobs_dataset.X, [3, 5, 8],
            labeled_objects=side, n_folds=3, random_state=5,
            execution=ExecutionSpec(backend="thread", n_jobs=2),
        )
        assert serial_value == thread_value
        assert np.array_equal(serial_results.mean_scores, thread_results.mean_scores)


class TestExperimentLayerIntegration:
    def test_run_trials_parallelize_validation(self, blobs_dataset):
        with pytest.raises(ValueError, match="parallelize"):
            run_trials(blobs_dataset, "fosc", "labels", 0.2, 1,
                       config=QUICK_CONFIG, parallelize="datasets")

    def test_trial_level_parallelism_matches_serial(self, blobs_dataset):
        config = QUICK_CONFIG.with_overrides(n_trials=2)
        serial = run_trials(blobs_dataset, "fosc", "labels", 0.2, 2,
                            config=config, random_state=6)
        threaded = run_trials(blobs_dataset, "fosc", "labels", 0.2, 2,
                              config=config, random_state=6,
                              backend="thread", parallelize="trials")
        assert serial == threaded
