"""Tests for the tiered distance backends (blockwise / memmap / neighbors).

Covers the bit-identity contract across the exact tiers and executors, the memmap
spill lifecycle (atomic writes, exception cleanup, reuse, kill-resume,
process-backend sharing), the cache-stats parity across backends, and the
rejection of unknown tier names.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.distances import DEFAULT_BLOCK_ROWS, pairwise_distances
from repro.clustering.fosc import FOSCOpticsDend
import repro.clustering.hierarchy as hierarchy_module
import repro.core.distance_backend as distance_backend_module
from repro.clustering.hierarchy import build_tree_structure, mutual_reachability
from repro.clustering.kernels import minimum_spanning_tree
from repro.core.cvcp import CVCP
from repro.core.executor import ExecutionSpec
from repro.core.distance_backend import (
    DEFAULT_DISTANCE_BACKEND,
    DISTANCE_BACKEND_ENV_VAR,
    DISTANCE_BACKENDS,
    EXACT_DISTANCE_BACKENDS,
    SPILL_DIR_ENV_VAR,
    clear_spill_directory,
    resolve_distance_backend,
    spill_directory,
    spill_path,
    tier_pairwise_distances,
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

    def test_retired_dense_name_is_an_unknown_backend_everywhere(self, monkeypatch, tmp_path, capsys):
        """``"dense"`` gets the unknown-backend message at all five entry points."""
        from repro.cli.main import main
        from repro.experiments.pipeline import pipeline_spec_from_mapping
        from repro.utils.specs import SpecError

        def from_environment(name):
            monkeypatch.setenv(DISTANCE_BACKEND_ENV_VAR, name)
            try:
                return resolve_distance_backend(None)
            finally:
                monkeypatch.delenv(DISTANCE_BACKEND_ENV_VAR)

        def from_table(name):
            return pipeline_spec_from_mapping(
                {"experiment": {"name": "retired", "kind": "trials"}, "execution": {"distance_backend": name}}
            )

        config = tmp_path / "retired.toml"
        config.write_text('[experiment]\nname = "retired"\nkind = "trials"\n', encoding="utf-8")

        def from_cli(name):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", str(config), "--distance-backend", name, "--quiet"])
            assert excinfo.value.code == 2
            raise ValueError(capsys.readouterr().err)

        def message(entry_point, name):
            with pytest.raises(ValueError) as excinfo:
                entry_point(name)
            return str(excinfo.value).replace(repr(name), "<name>")

        entry_points = {
            "distance_backend=": resolve_distance_backend,
            DISTANCE_BACKEND_ENV_VAR: from_environment,
            "ExecutionSpec": lambda name: ExecutionSpec(distance_backend=name),
            "[execution]": from_table,
            "--distance-backend": from_cli,
        }
        for label, entry_point in entry_points.items():
            assert message(entry_point, "dense") == message(entry_point, "gpu"), label
        def tier_matrix(name):
            return tier_pairwise_distances(np.zeros((2, 1)), "euclidean", name)

        assert message(tier_matrix, "dense") == (
            f"distance_backend must be one of {DISTANCE_BACKENDS}, got <name>"
        )
        with pytest.raises(SpecError) as excinfo:
            ExecutionSpec.from_spec({"distance_backend": "dense"})
        assert excinfo.value.problems == [
            "execution.distance_backend: must be one of blockwise, memmap, neighbors; got 'dense'"
        ]
        assert "invalid choice: 'dense'" in message(from_cli, "dense").replace("<name>", "'dense'")


class TestMatrixBitIdentity:
    @pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean", "manhattan", "cosine"])
    def test_all_tiers_bitwise_identical_across_panels(self, spill_dir, big_blobs, metric):
        matrices = {
            name: np.asarray(tier_pairwise_distances(big_blobs.X, metric, name))
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

    def test_fused_prim_matches_the_materialised_matrix(self, big_blobs):
        """Mutual reachability applied row by row inside Prim changes no bit."""
        distances = pairwise_distances(big_blobs.X)
        core = distances[:, 5].copy()
        assert np.array_equal(
            minimum_spanning_tree(distances, core),
            minimum_spanning_tree(mutual_reachability(distances, core)),
        )


class TestClusteringParity:
    def test_fosc_labels_bitwise_identical(self, spill_dir, big_blobs):
        """Two MinPts values: two columns of one shared core-distance table."""
        fosc_labels = {}
        for name in EXACT_DISTANCE_BACKENDS:
            clear_distance_cache()
            fosc_labels[name] = [
                FOSCOpticsDend(min_pts=min_pts, distance_backend=name).fit(big_blobs.X).labels_
                for min_pts in (5, 9)
            ]
        first = EXACT_DISTANCE_BACKENDS[0]
        for name in EXACT_DISTANCE_BACKENDS[1:]:
            for reference, observed in zip(fosc_labels[first], fosc_labels[name]):
                assert np.array_equal(reference, observed)

    def test_structure_phase_artifacts_bitwise_identical(self, spill_dir, big_blobs):
        reference = None
        for name in EXACT_DISTANCE_BACKENDS:
            clear_distance_cache()
            fitted = build_tree_structure(big_blobs.X, 5, distance_backend=name)
            stored = cached_pairwise_distances(big_blobs.X, distance_backend=name)
            observed = (
                fitted.core_distances,
                np.asarray(mutual_reachability(stored, fitted.core_distances)),
                fitted.mst_edges,
                fitted.single_linkage_tree,
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
        matrix = tier_pairwise_distances(big_blobs.X, "euclidean", "memmap")
        assert isinstance(matrix, np.memmap)
        assert not matrix.flags.writeable
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1
        assert not [p for p in spill_dir.iterdir() if ".tmp-" in p.name]
        stat_before = finished[0].stat()

        fills = {"count": 0}
        original = distance_backend_module._fill_spill

        def counting(path, X, metric):
            fills["count"] += 1
            return original(path, X, metric)

        monkeypatch.setattr(distance_backend_module, "_fill_spill", counting)
        again = tier_pairwise_distances(big_blobs.X, "euclidean", "memmap")
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
            tier_pairwise_distances(big_blobs.X, "euclidean", "memmap")
        assert calls["count"] == 1
        assert list(spill_dir.iterdir()) == []  # no finished file, no stale temp

    def test_structure_phase_spills_only_the_pairwise_matrix(self, spill_dir, big_blobs, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the structure phase materialised mutual reachability")

        monkeypatch.setattr(hierarchy_module, "mutual_reachability", forbidden)
        build_tree_structure(big_blobs.X, 5, distance_backend="memmap")
        # No mutual-reachability spill, not even an unlinked one: the fit
        # never allocates an (n, n) matrix besides the pairwise spill.
        spill = spill_path(big_blobs.X, "euclidean")
        assert list(spill_dir.iterdir()) == [spill]

    def test_clear_spill_directory_removes_finished_and_stale_files(self, spill_dir, big_blobs):
        tier_pairwise_distances(big_blobs.X, "euclidean", "memmap")
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
                def slow(path, X, metric):
                    def stall(start, stop):
                        print("PANEL-WRITTEN", flush=True)
                        time.sleep(60)
                    from repro.clustering.distances import pairwise_distances
                    import os
                    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
                    matrix = np.memmap(tmp, dtype=np.float64, mode="w+",
                                       shape=(X.shape[0], X.shape[0]))
                    pairwise_distances(X, metric=metric, out=matrix, panel_done=stall)

                db._fill_spill = slow
                db.tier_pairwise_distances(X, "euclidean", "memmap")
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
        matrix = tier_pairwise_distances(big_blobs.X, "euclidean", "memmap")
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1
        assert np.array_equal(np.asarray(matrix), pairwise_distances(big_blobs.X))

    def test_concurrent_fills_without_memo_do_not_collide(self, spill_dir, big_blobs):
        """Racing thread fills outside the memo each rename their own temp."""
        import concurrent.futures

        # The tier function itself holds no memo lock: every request computes.
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(
                lambda _: tier_pairwise_distances(big_blobs.X, "euclidean", "memmap"), range(2)
            )
        assert np.array_equal(np.asarray(first), np.asarray(second))
        finished = [p for p in spill_dir.iterdir() if p.suffix == ".dmm"]
        assert len(finished) == 1
        assert not [p for p in spill_dir.iterdir() if ".tmp-" in p.name]

    def test_memmap_warm_happens_even_under_spawn(self, spill_dir, blobs_dataset, monkeypatch):
        """The spill pre-warm is not gated on the fork start method."""
        import multiprocessing

        import repro.core.cvcp as cvcp_module

        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
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
            FOSCOpticsDend(min_pts=11, distance_backend=name).fit(big_blobs.X)
            stats = distance_cache_stats()
            observed[name] = (stats.hits, stats.misses, stats.size)
        # One matrix (one miss, two hits) plus the core-distance table it
        # carries: two entries.
        assert observed["blockwise"] == observed["memmap"] == (2, 1, 2)

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
