"""Tests for the tiered distance backends (blockwise / memmap / neighbors).

Covers the bit-identity contract across the exact tiers and executors, the memmap
spill lifecycle (atomic writes, exception cleanup, reuse, kill-resume,
process-backend sharing), the cache-stats parity across backends, and the
deprecated ``"dense"`` alias of the blockwise tier.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.distances import DEFAULT_BLOCK_ROWS, pairwise_distances
from repro.clustering.fosc import FOSCOpticsDend
from repro.clustering.hierarchy import DensityHierarchy, mutual_reachability
from repro.clustering.optics import OPTICS
from repro.core.cvcp import CVCP
from repro.core.executor import ExecutionSpec
from repro.core.distance_backend import (
    DEFAULT_DISTANCE_BACKEND,
    DISTANCE_BACKEND_ENV_VAR,
    DISTANCE_BACKENDS,
    EXACT_DISTANCE_BACKENDS,
    SPILL_DIR_ENV_VAR,
    BlockwiseBackend,
    MemmapBackend,
    clear_spill_directory,
    get_distance_backend,
    resolve_distance_backend,
    spill_directory,
)
from repro.datasets.synthetic import make_blobs
from repro.utils.cache import (
    cached_pairwise_distances,
    clear_distance_cache,
    distance_cache_stats,
)

#: A size spanning multiple canonical panels (n > DEFAULT_BLOCK_ROWS).
MULTI_PANEL_N = DEFAULT_BLOCK_ROWS + 88


@pytest.fixture()
def spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(tmp_path / "spill"))
    clear_distance_cache()
    yield tmp_path / "spill"
    clear_distance_cache()


@pytest.fixture(scope="module")
def big_blobs():
    return make_blobs(
        [MULTI_PANEL_N // 3, MULTI_PANEL_N // 3, MULTI_PANEL_N - 2 * (MULTI_PANEL_N // 3)],
        3,
        center_spread=9.0,
        cluster_std=1.0,
        random_state=5,
        name="backend-blobs",
    )


class TestResolution:
    def test_default_is_blockwise(self, monkeypatch):
        monkeypatch.delenv(DISTANCE_BACKEND_ENV_VAR, raising=False)
        assert resolve_distance_backend(None) == DEFAULT_DISTANCE_BACKEND == "blockwise"

    def test_env_var_is_consulted(self, monkeypatch):
        monkeypatch.setenv(DISTANCE_BACKEND_ENV_VAR, "blockwise")
        assert resolve_distance_backend(None) == "blockwise"
        assert resolve_distance_backend("memmap") == "memmap"  # argument wins

    def test_unknown_argument_rejected(self):
        with pytest.raises(ValueError, match="distance_backend"):
            resolve_distance_backend("ram-disk")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(DISTANCE_BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match=DISTANCE_BACKEND_ENV_VAR):
            resolve_distance_backend(None)

    def test_get_backend_returns_shared_instances(self):
        assert get_distance_backend("blockwise") is get_distance_backend("blockwise")
        assert isinstance(get_distance_backend("blockwise"), BlockwiseBackend)
        assert isinstance(get_distance_backend("memmap"), MemmapBackend)

    def test_dense_alias_resolves_to_blockwise_and_warns_once(self, monkeypatch, tmp_path):
        from repro.cli.main import main
        from repro.experiments.pipeline import pipeline_spec_from_mapping

        def resolved_with_one_warning(entry_point):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = entry_point()
            deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
            assert len(deprecations) == 1, [str(w.message) for w in deprecations]
            assert "'dense' is deprecated" in str(deprecations[0].message)
            return value

        assert resolved_with_one_warning(lambda: resolve_distance_backend("dense")) == "blockwise"
        assert resolved_with_one_warning(lambda: get_distance_backend("dense")) is (
            get_distance_backend("blockwise")
        )
        monkeypatch.setenv(DISTANCE_BACKEND_ENV_VAR, "dense")
        assert resolved_with_one_warning(lambda: resolve_distance_backend(None)) == "blockwise"
        monkeypatch.delenv(DISTANCE_BACKEND_ENV_VAR)

        spec = resolved_with_one_warning(lambda: ExecutionSpec(distance_backend="dense"))
        assert spec == ExecutionSpec(distance_backend="blockwise")
        table = resolved_with_one_warning(
            lambda: ExecutionSpec.from_spec({"distance_backend": "dense"})
        )
        assert table.distance_backend == "blockwise"
        pipeline = resolved_with_one_warning(
            lambda: pipeline_spec_from_mapping(
                {
                    "experiment": {"name": "alias", "kind": "trials"},
                    "execution": {"distance_backend": "dense"},
                }
            )
        )
        assert pipeline.config.distance_backend == "blockwise"

        config = tmp_path / "alias.toml"
        config.write_text(
            '[experiment]\nname = "alias"\nkind = "trials"\nalgorithm = "fosc"\n'
            'scenario = "labels"\namounts = [0.2]\ndatasets = ["Iris"]\n'
            '[parameters]\nn_trials = 1\nn_folds = 3\nminpts_range = [3, 6]\n'
            f'[artifacts]\nroot = "{tmp_path / "store"}"\n',
            encoding="utf-8",
        )
        exit_code = resolved_with_one_warning(
            lambda: main(["run", str(config), "--distance-backend", "dense", "--quiet"])
        )
        assert exit_code == 0


class TestMatrixBitIdentity:
    @pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean", "manhattan", "cosine"])
    def test_all_tiers_bitwise_identical_across_panels(self, spill_dir, big_blobs, metric):
        matrices = {
            name: np.asarray(get_distance_backend(name).pairwise(big_blobs.X, metric=metric))
            for name in EXACT_DISTANCE_BACKENDS
        }
        assert np.array_equal(matrices["blockwise"], matrices["memmap"])

    def test_single_panel_matches_legacy_full_matrix_formula(self, big_blobs):
        """For n <= DEFAULT_BLOCK_ROWS the result is the historical computation."""
        X = big_blobs.X[:200]
        x_sq = np.einsum("ij,ij->i", X, X)
        squared = x_sq[:, None] + x_sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(squared, 0.0, out=squared)
        np.fill_diagonal(squared, 0.0)
        legacy = np.sqrt(squared, out=squared)
        assert np.array_equal(pairwise_distances(X), legacy)

    def test_mutual_reachability_streams_bitwise_identically(self, big_blobs):
        distances = pairwise_distances(big_blobs.X)
        core = distances[:, 5].copy()
        whole = mutual_reachability(distances, core)
        streamed = mutual_reachability(distances, core, block_rows=97)
        into = mutual_reachability(
            distances, core, out=np.empty_like(whole), block_rows=DEFAULT_BLOCK_ROWS
        )
        assert np.array_equal(whole, streamed)
        assert np.array_equal(whole, into)


class TestClusteringParity:
    def test_fosc_and_optics_labels_bitwise_identical(self, spill_dir, big_blobs):
        fosc_labels, optics_out = {}, {}
        for name in EXACT_DISTANCE_BACKENDS:
            clear_distance_cache()
            fosc_labels[name] = FOSCOpticsDend(min_pts=5, distance_backend=name).fit(
                big_blobs.X
            ).labels_
            fitted = OPTICS(min_pts=5, distance_backend=name).fit(big_blobs.X)
            optics_out[name] = (fitted.ordering_, fitted.reachability_, fitted.core_distances_)
        first = EXACT_DISTANCE_BACKENDS[0]
        for name in EXACT_DISTANCE_BACKENDS[1:]:
            assert np.array_equal(fosc_labels[first], fosc_labels[name])
            for reference, observed in zip(optics_out[first], optics_out[name]):
                assert np.array_equal(reference, observed)

    def test_density_hierarchy_artifacts_bitwise_identical(self, spill_dir, big_blobs):
        reference = None
        for name in EXACT_DISTANCE_BACKENDS:
            clear_distance_cache()
            fitted = DensityHierarchy(5, distance_backend=name).fit(big_blobs.X)
            observed = (
                fitted.core_distances_,
                np.asarray(fitted.mutual_reachability_),
                fitted.mst_edges_,
                fitted.single_linkage_tree_,
            )
            if reference is None:
                reference = observed
            else:
                for left, right in zip(reference, observed):
                    assert np.array_equal(left, right)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_cvcp_grid_identical_across_executors_and_tiers(
        self, spill_dir, blobs_dataset, executor
    ):
        reference = None
        labeled = {0: 0, 5: 0, 21: 1, 26: 1, 41: 2, 46: 2, 10: 0, 30: 1}
        for name in EXACT_DISTANCE_BACKENDS:
            clear_distance_cache()
            search = CVCP(
                FOSCOpticsDend(min_pts=5),
                parameter_values=[3, 6],
                n_folds=3,
                random_state=11,
                execution=ExecutionSpec(
                    backend=executor, n_jobs=2, distance_backend=name
                ),
            )
            search.fit(blobs_dataset.X, labeled_objects=labeled)
            observed = (
                search.best_params_,
                [evaluation.fold_scores for evaluation in search.cv_results_.evaluations],
                search.labels_.tolist(),
            )
            if reference is None:
                reference = observed
            else:
                assert observed == reference

    def test_cvcp_override_reaches_estimator_clones(self, spill_dir):
        search = CVCP(
            FOSCOpticsDend(min_pts=5),
            parameter_values=[3, 6],
            execution=ExecutionSpec(distance_backend="blockwise"),
        )
        clone = search._make_estimator(6, seed=1)
        assert clone.distance_backend == "blockwise"
        assert search._effective_distance_backend() == "blockwise"

    def test_cvcp_defers_to_estimator_setting_when_unset(self):
        search = CVCP(
            FOSCOpticsDend(min_pts=5, distance_backend="memmap"),
            parameter_values=[3, 6],
        )
        assert search._effective_distance_backend() == "memmap"
        assert search._make_estimator(3, seed=1).distance_backend == "memmap"

    def test_cvcp_rejects_unknown_distance_backend(self):
        with pytest.raises(ValueError, match="distance_backend"):
            CVCP(
                FOSCOpticsDend(),
                parameter_values=[3],
                execution=ExecutionSpec(distance_backend="bogus"),
            )


class TestMemmapSpillLifecycle:
    def test_spill_file_created_read_only_and_reused(self, spill_dir, big_blobs, monkeypatch):
        backend = get_distance_backend("memmap")
        matrix = backend.pairwise(big_blobs.X)
        assert isinstance(matrix, np.memmap)
        assert not matrix.flags.writeable
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1
        assert not [p for p in spill_dir.iterdir() if ".tmp-" in p.name]
        stat_before = finished[0].stat()

        fills = {"count": 0}
        original = MemmapBackend._fill_spill

        def counting(self, path, X, metric):
            fills["count"] += 1
            return original(self, path, X, metric)

        monkeypatch.setattr(MemmapBackend, "_fill_spill", counting)
        again = backend.pairwise(big_blobs.X)
        assert fills["count"] == 0  # the finished spill was mapped, not recomputed
        assert np.array_equal(np.asarray(matrix), np.asarray(again))
        stat_after = finished[0].stat()
        assert (stat_before.st_ino, stat_before.st_mtime_ns) == (
            stat_after.st_ino, stat_after.st_mtime_ns,
        )

    def test_exception_mid_fill_cleans_up_the_temp_file(self, spill_dir, big_blobs, monkeypatch):
        import repro.clustering.distances as distances_module

        calls = {"count": 0}
        original = distances_module.pairwise_distances

        def failing(X, metric="euclidean", **kwargs):
            if kwargs.get("out") is not None:
                calls["count"] += 1
                raise RuntimeError("disk exploded mid-panel")
            return original(X, metric=metric, **kwargs)

        monkeypatch.setattr(distances_module, "pairwise_distances", failing)
        with pytest.raises(RuntimeError, match="disk exploded"):
            get_distance_backend("memmap").pairwise(big_blobs.X)
        assert calls["count"] == 1
        assert list(spill_dir.iterdir()) == []  # no finished file, no stale temp

    def test_derived_matrix_is_ephemeral_and_usable(self, spill_dir):
        backend = get_distance_backend("memmap")
        derived = backend.derived_matrix(64, "mreach")
        assert derived.shape == (64, 64)
        derived[:] = 7.0
        backend.release(derived)
        assert float(derived[13, 21]) == 7.0  # released pages fault back in
        # Unlinked immediately: the spill directory holds no entry for it.
        assert list(spill_dir.iterdir()) == []

    def test_clear_spill_directory_removes_finished_and_stale_files(self, spill_dir, big_blobs):
        get_distance_backend("memmap").pairwise(big_blobs.X)
        stale = spill_directory() / f"deadbeef-600.dmm.tmp-{os.getpid()}"
        stale.write_bytes(b"partial")
        assert clear_spill_directory() == 2
        assert list(spill_dir.iterdir()) == []

    def test_killed_writer_leaves_resumable_directory(self, spill_dir, big_blobs, tmp_path):
        """A run killed mid-spill-write is resumed by the next run in the same dir."""
        script = tmp_path / "writer.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys, time
                import numpy as np
                from repro.bench.scale import scale_dataset
                from repro.core import distance_backend as db

                X = scale_dataset(int(sys.argv[1])).X
                backend = db.get_distance_backend("memmap")
                original = db.MemmapBackend._fill_spill

                def slow(self, path, X, metric):
                    def stall(start, stop):
                        print("PANEL-WRITTEN", flush=True)
                        time.sleep(60)
                    from repro.clustering.distances import pairwise_distances
                    import os
                    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
                    matrix = np.memmap(tmp, dtype=np.float64, mode="w+",
                                       shape=(X.shape[0], X.shape[0]))
                    pairwise_distances(X, metric=metric, out=matrix, panel_done=stall)

                db.MemmapBackend._fill_spill = slow
                backend.pairwise(X)
                """
            ),
            encoding="utf-8",
        )
        env = dict(os.environ)
        env[SPILL_DIR_ENV_VAR] = str(spill_dir)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        n = MULTI_PANEL_N
        child = subprocess.Popen(
            [sys.executable, str(script), str(n)], env=env, stdout=subprocess.PIPE, text=True
        )
        assert child.stdout.readline().strip() == "PANEL-WRITTEN"
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
        time.sleep(0.05)
        stale = [p for p in spill_dir.iterdir() if ".tmp-" in p.name]
        assert stale, "the killed writer should leave its partial temp file"

        # The same spill directory resumes: the fresh run ignores the stale
        # temp, completes atomically, and later runs reuse its finished file.
        matrix = get_distance_backend("memmap").pairwise(big_blobs.X)
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1
        assert np.array_equal(np.asarray(matrix), pairwise_distances(big_blobs.X))

    def test_concurrent_fills_without_memo_do_not_collide(self, spill_dir, big_blobs):
        """With the memo disabled, racing thread fills each rename their own temp."""
        import concurrent.futures

        from repro.utils.cache import configure_distance_cache

        configure_distance_cache(0)  # every request computes — no memo lock
        try:
            backend = get_distance_backend("memmap")
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                first, second = pool.map(
                    lambda _: backend.pairwise(big_blobs.X), range(2)
                )
        finally:
            configure_distance_cache(8)
        assert np.array_equal(np.asarray(first), np.asarray(second))
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1
        assert not [p for p in spill_dir.iterdir() if ".tmp-" in p.name]

    def test_memmap_warm_happens_even_under_spawn(self, spill_dir, blobs_dataset, monkeypatch):
        """The spill pre-warm is not gated on the fork start method."""
        import repro.core.cvcp as cvcp_module

        monkeypatch.setattr(cvcp_module.multiprocessing, "get_start_method", lambda: "spawn")
        warmed = []
        original = cvcp_module.cached_pairwise_distances

        def recording(X, metric="euclidean", **kwargs):
            warmed.append(kwargs.get("distance_backend"))
            return original(X, metric=metric, **kwargs)

        monkeypatch.setattr(cvcp_module, "cached_pairwise_distances", recording)
        labeled = {0: 0, 5: 0, 21: 1, 26: 1, 41: 2, 46: 2}
        search = CVCP(
            FOSCOpticsDend(min_pts=5),
            parameter_values=[3],
            n_folds=2,
            random_state=0,
            # n_jobs=1 falls back inline: no real spawn cost in the test
            execution=ExecutionSpec(
                backend="process", n_jobs=1, distance_backend="memmap"
            ),
        )
        search.fit(blobs_dataset.X, labeled_objects=labeled)
        assert warmed and warmed[0] == "memmap"
        assert [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]

    def test_process_executor_workers_map_the_same_spill(self, spill_dir, big_blobs):
        """A process-backend CVCP run produces exactly one spill per (X, metric)."""
        labeled = {i: int(big_blobs.y[i]) for i in range(0, 90, 10)}
        search = CVCP(
            FOSCOpticsDend(min_pts=5),
            parameter_values=[3, 6],
            n_folds=3,
            random_state=2,
            execution=ExecutionSpec(
                backend="process", n_jobs=2, distance_backend="memmap"
            ),
        )
        search.fit(big_blobs.X, labeled_objects=labeled)
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1  # parent wrote it; workers mapped, never re-spilled
        assert not [p for p in spill_dir.iterdir() if ".tmp-" in p.name]


class TestCacheIntegration:
    def test_hit_miss_stats_identical_across_backends(self, spill_dir, big_blobs):
        observed = {}
        for name in EXACT_DISTANCE_BACKENDS:
            clear_distance_cache()
            FOSCOpticsDend(min_pts=5, distance_backend=name).fit(big_blobs.X)
            FOSCOpticsDend(min_pts=8, distance_backend=name).fit(big_blobs.X)
            OPTICS(min_pts=5, distance_backend=name).fit(big_blobs.X)
            stats = distance_cache_stats()
            observed[name] = (stats.hits, stats.misses, stats.size)
        assert observed["blockwise"] == observed["memmap"] == (2, 1, 1)

    def test_backends_do_not_share_cache_entries(self, spill_dir, big_blobs):
        clear_distance_cache()
        in_ram = cached_pairwise_distances(big_blobs.X, distance_backend="blockwise")
        memmapped = cached_pairwise_distances(big_blobs.X, distance_backend="memmap")
        assert not isinstance(in_ram, np.memmap)
        assert isinstance(memmapped, np.memmap)
        stats = distance_cache_stats()
        assert (stats.hits, stats.misses) == (0, 2)
        assert np.array_equal(in_ram, np.asarray(memmapped))

    def test_env_var_reaches_the_cached_path(self, spill_dir, big_blobs, monkeypatch):
        monkeypatch.setenv(DISTANCE_BACKEND_ENV_VAR, "memmap")
        clear_distance_cache()
        matrix = cached_pairwise_distances(big_blobs.X)
        assert isinstance(matrix, np.memmap)
