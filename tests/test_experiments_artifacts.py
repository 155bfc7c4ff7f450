"""Tests for the content-addressed, resumable artifact store."""

import json

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.experiments import ExperimentConfig, run_trial, run_trials, trial_artifact_key
from repro.experiments.ablation import fold_count_ablation
from repro.experiments.artifacts import (
    ArtifactStore,
    dataset_fingerprint,
    key_digest,
    trial_config_fingerprint,
)
from repro.experiments.comparison import comparison_table

TINY = ExperimentConfig(
    n_trials=2,
    n_folds=3,
    n_aloi_datasets=1,
    minpts_range=(3, 6, 9),
    mpck_n_init=1,
    mpck_max_iter=8,
    max_k=5,
    datasets=("Iris",),
    seed=0,
)


@pytest.fixture(scope="module")
def dataset():
    return make_blobs([25, 25, 25], 3, center_spread=8.0, random_state=0, name="store-test")


class TestKeying:
    def test_key_digest_is_deterministic_and_order_insensitive(self):
        assert key_digest("trial", {"a": 1, "b": 2}) == key_digest("trial", {"b": 2, "a": 1})

    def test_key_digest_separates_kinds_and_keys(self):
        assert key_digest("trial", {"a": 1}) != key_digest("ablation", {"a": 1})
        assert key_digest("trial", {"a": 1}) != key_digest("trial", {"a": 2})

    def test_trial_config_fingerprint_ignores_execution_and_counts(self):
        base = trial_config_fingerprint(TINY)
        assert trial_config_fingerprint(TINY.with_execution(backend="process", n_jobs=4)) == base
        assert trial_config_fingerprint(TINY.with_overrides(n_trials=50)) == base
        assert trial_config_fingerprint(TINY.with_overrides(n_folds=5)) != base
        assert trial_config_fingerprint(TINY.with_overrides(minpts_range=(3, 6))) != base

    def test_dataset_fingerprint_tracks_content(self, dataset):
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)
        other = make_blobs([25, 25, 25], 3, center_spread=8.0, random_state=1, name="store-test")
        assert dataset_fingerprint(dataset) != dataset_fingerprint(other)


class TestStoreBasics:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = {"x": 1}
        assert store.get("trial", key) is None
        path = store.put("trial", key, {"score": 0.5})
        assert path.is_file()
        assert store.get("trial", key) == {"score": 0.5}
        assert (store.stats.hits, store.stats.misses, store.stats.writes) == (1, 1, 1)

    def test_layout_is_content_addressed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = {"x": 1}
        path = store.put("trial", key, {})
        digest = key_digest("trial", key)
        assert path == tmp_path / "store" / "trial" / digest[:2] / f"{digest}.json"

    def test_refresh_mode_misses_but_writes(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root).put("trial", {"x": 1}, {"score": 0.5})
        store = ArtifactStore(root, refresh=True)
        assert store.get("trial", {"x": 1}) is None
        assert store.stats.misses == 1
        store.put("trial", {"x": 1}, {"score": 0.7})
        assert ArtifactStore(root).get("trial", {"x": 1}) == {"score": 0.7}

    def test_corrupt_artifact_counts_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.put("trial", {"x": 1}, {"score": 0.5})
        path.write_text("{ truncated", encoding="utf-8")
        assert store.get("trial", {"x": 1}) is None

    def test_artifact_filed_under_another_key_counts_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        source = store.put("trial", {"x": 1}, {"score": 0.5})
        target = store.path_for("trial", {"x": 2})
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert store.get("trial", {"x": 2}) is None
        assert store.stats.misses == 1
        assert store.get("trial", {"x": 1}) == {"score": 0.5}

    def test_tuple_keys_hit_after_the_json_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = {"grid": (3, 6, 9), "nested": {"pair": (1, 2)}}
        store.put("trial", key, {"score": 0.5})
        assert store.get("trial", key) == {"score": 0.5}

    def test_delete_and_count(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("trial", {"x": 1}, {})
        store.put("trial", {"x": 2}, {})
        store.put("ablation", {"x": 1}, {})
        assert store.count() == 3
        assert store.count("trial") == 2
        assert store.delete("trial", {"x": 1})
        assert not store.delete("trial", {"x": 1})
        assert store.count("trial") == 1

    def test_describe_stats_mentions_counts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.get("trial", {"x": 1})
        assert "1 misses" in store.describe_stats()


class TestTrialResume:
    def test_run_trial_writes_and_reuses(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        first = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.count("trial") == 1
        assert store.count("cell") == 0  # interim cells compacted into the trial artifact
        second = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats_for("trial").hits == 1
        assert first == second

    def test_interrupted_trial_resumes_from_cells(self, tmp_path, dataset, monkeypatch):
        import repro.experiments.runner as runner_module

        store = ArtifactStore(tmp_path / "store")
        original = runner_module.silhouette_score
        calls = {"count": 0}

        def interrupting(X, labels, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise KeyboardInterrupt
            return original(X, labels, **kwargs)

        monkeypatch.setattr(runner_module, "silhouette_score", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        monkeypatch.setattr(runner_module, "silhouette_score", original)

        # The finished grid cells and the first external fit survived.
        assert store.count("cell") > 0
        store.reset_stats()
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats.hits > 0
        assert store.count("cell") == 0
        plain = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)
        assert resumed == plain

    def test_trial_interrupted_mid_grid_resumes_from_grid_cells(self, tmp_path, dataset, monkeypatch):
        import repro.core.cvcp as cvcp_module

        store = ArtifactStore(tmp_path / "store")
        original = cvcp_module.score_partition
        calls = {"count": 0}

        def interrupting(labels, constraints, **kwargs):
            calls["count"] += 1
            if calls["count"] == 5:  # die inside the CVCP grid, 4 cells in
                raise KeyboardInterrupt
            return original(labels, constraints, **kwargs)

        monkeypatch.setattr(cvcp_module, "score_partition", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        monkeypatch.setattr(cvcp_module, "score_partition", original)

        # The four grid cells finished before the interruption were persisted
        # as their tasks completed, so the resumed grid skips them.
        assert store.count("cell") == 4
        store.reset_stats()
        resumed = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.stats_for("cell").hits == 4
        assert store.count("cell") == 0
        plain = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)
        assert resumed == plain

    def test_cache_hit_sweeps_orphaned_cells(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        # Simulate a kill between the trial's put and its journal removal.
        key = trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, 7)
        journal = store.journal(key)
        journal.put("grid", 0, 1, 0.5)
        journal.put("external", 0, None, {"external": 0.5, "silhouette": 0.1})
        assert store.count("cell") == 2
        run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7, store=store)
        assert store.count("cell") == 0
        assert not journal.path.exists()

    def test_generator_random_state_bypasses_cache(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        rng = np.random.default_rng(7)
        run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=rng, store=store)
        assert store.stats.requests == 0
        assert store.stats.writes == 0

    def test_run_trials_resume_is_bit_identical(self, tmp_path, dataset):
        plain = run_trials(dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3)
        store = ArtifactStore(tmp_path / "store")
        fresh = run_trials(dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3, store=store)
        assert store.stats_for("trial").hits == 0
        assert store.count("trial") == 2
        store.reset_stats()
        resumed = run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3, store=store
        )
        trial_stats = store.stats_for("trial")
        assert (trial_stats.hits, trial_stats.misses) == (2, 0)
        assert store.stats.misses == 0  # fully cached runs touch nothing else
        assert plain == fresh == resumed

    def test_deleting_one_cell_recomputes_only_that_cell(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        results = run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3, store=store
        )
        rng = np.random.default_rng(3)
        from repro.utils.rng import spawn_seeds

        seeds = spawn_seeds(rng, 2)
        key = trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, seeds[0])
        assert store.delete("trial", key)
        store.reset_stats()
        resumed = run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3, store=store
        )
        assert store.stats_for("trial").hits == 1  # the untouched trial
        assert store.count("trial") == 2  # the deleted one was recomputed
        assert resumed == results

    def test_trials_parallelize_path_uses_store(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        threaded = TINY.with_execution(backend="thread", n_jobs=2)
        fresh = run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=threaded, random_state=3,
            parallelize="trials", store=store,
        )
        resumed = run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=threaded, random_state=3,
            parallelize="trials", store=store,
        )
        assert store.stats_for("trial").hits == 2
        assert fresh == resumed
        assert fresh == run_trials(dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3)

    def test_trials_placement_landing_drops_a_grid_attempts_journal(self, tmp_path, dataset):
        from repro.utils.rng import spawn_seeds

        store = ArtifactStore(tmp_path / "store")
        # Cells an interrupted grid-placement attempt at both trials left behind.
        for seed in spawn_seeds(np.random.default_rng(3), 2):
            key = trial_artifact_key(TINY, dataset, "fosc", "labels", 0.1, seed)
            store.journal(key).put("grid", 0, 0, 0.5)
        assert store.count("cell") == 2
        threaded = TINY.with_execution(backend="thread", n_jobs=2)
        run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=threaded, random_state=3,
            parallelize="trials", store=store,
        )
        assert store.count("trial") == 2
        assert store.count("cell") == 0

    def test_trials_parallel_interrupted_batch_keeps_finished_trials(self, tmp_path, dataset, monkeypatch):
        import repro.experiments.runner as runner_module

        store = ArtifactStore(tmp_path / "store")
        original = runner_module._run_trial_task
        calls = {"count": 0}

        def failing(task):
            calls["count"] += 1
            if calls["count"] == 2:
                raise KeyboardInterrupt
            return original(task)

        # n_jobs=1 makes the pool inline its tasks, so delivery order (and
        # with it the set of persisted trials) is deterministic.
        monkeypatch.setattr(runner_module, "_run_trial_task", failing)
        inline = TINY.with_execution(backend="thread", n_jobs=1)
        with pytest.raises(KeyboardInterrupt):
            run_trials(
                dataset, "fosc", "labels", 0.1, 2, config=inline, random_state=3,
                parallelize="trials", store=store,
            )
        monkeypatch.setattr(runner_module, "_run_trial_task", original)
        assert store.count("trial") == 1  # the finished trial survived the kill
        resumed = run_trials(
            dataset, "fosc", "labels", 0.1, 2, config=inline, random_state=3,
            parallelize="trials", store=store,
        )
        assert resumed == run_trials(dataset, "fosc", "labels", 0.1, 2, config=TINY, random_state=3)

    def test_trial_result_json_roundtrip_is_exact(self, dataset):
        trial = run_trial(dataset, "fosc", "labels", 0.1, config=TINY, random_state=7)
        reloaded = type(trial).from_dict(json.loads(json.dumps(trial.to_dict())))
        assert reloaded == trial


class TestDriverIntegration:
    def test_comparison_table_resumes_through_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = comparison_table("fosc", "labels", 0.1, config=TINY, store=store)
        assert store.stats.misses > 0 and store.stats_for("trial").hits == 0
        store.reset_stats()
        second = comparison_table("fosc", "labels", 0.1, config=TINY, store=store)
        assert store.stats.misses == 0 and store.stats.hits > 0
        assert first.rows[0].cvcp == second.rows[0].cvcp
        assert first.rows[0].cvcp_values == second.rows[0].cvcp_values

    def test_ablation_resumes_through_store(self, tmp_path, dataset):
        store = ArtifactStore(tmp_path / "store")
        first = fold_count_ablation(dataset, fold_counts=(2, 3), config=TINY, store=store)
        assert store.stats_for("ablation").writes == 1
        second = fold_count_ablation(dataset, fold_counts=(2, 3), config=TINY, store=store)
        assert store.stats_for("ablation").hits == 1
        assert first.measurements == second.measurements
