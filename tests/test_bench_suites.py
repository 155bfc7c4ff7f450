"""Per-suite measurement, parity and in-record checks of the ``repro bench`` suites."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import fleet, kernels, online, scale, serve
from repro.bench.engine import make_record
from repro.cli.main import main
from repro.core.distance_backend import SPILL_DIR_ENV_VAR


def values_of(record: dict) -> dict:
    return {name: entry["value"] for name, entry in record["metrics"].items()}


class TestKernels:
    @pytest.fixture(scope="class")
    def small_record(self):
        return kernels.run(("small",), rounds=1)

    def test_record_shape_and_parity_flags(self, small_record):
        values = values_of(small_record)
        assert small_record["suite"] == "kernels"
        assert small_record["context"]["sizes"] == {"small": kernels.KERNEL_BENCH_SIZES["small"]}
        for kernel in kernels.KERNEL_NAMES:
            assert values[f"{kernel}/small/parity"] is True
            reference_s = values[f"{kernel}/small/reference_s"]
            vectorized_s = values[f"{kernel}/small/vectorized_s"]
            assert reference_s > 0 and vectorized_s > 0
            assert values[f"{kernel}/small/speedup"] == reference_s / vectorized_s
            floor = small_record["metrics"][f"{kernel}/small/speedup"]["floor"]
            assert floor == kernels.SPEEDUP_FLOORS[kernel]

    def test_unknown_size_rejected(self, capsys):
        with pytest.raises(ValueError, match="unknown size"):
            kernels.run(("huge",))
        assert main(["bench", "kernels", "--sizes", "planetary"]) == 2
        assert "unknown size" in capsys.readouterr().err

    def test_make_cases_is_deterministic(self):
        first = kernels.make_cases(60)
        second = kernels.make_cases(60)
        for kernel in kernels.KERNEL_NAMES:
            a, b = first[kernel].vectorized(), second[kernel].vectorized()
            if kernel == "optics":
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            elif kernel == "fosc":
                assert a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]
            else:
                assert np.array_equal(a, b)

    def test_parity_assertion_detects_divergence(self):
        case = kernels.KernelBenchCase("broken", lambda: 1, lambda: 2, lambda a, b: a == b)
        with pytest.raises(RuntimeError, match="diverged"):
            case.assert_parity()

    def test_committed_baseline_keeps_the_acceptance_speedups(self):
        from pathlib import Path

        baseline = json.loads((Path(__file__).resolve().parent.parent / "BENCH_kernels.json").read_text())
        values = values_of(baseline)
        for kernel in kernels.KERNEL_NAMES:
            for size in kernels.KERNEL_BENCH_SIZES:
                assert f"{kernel}/{size}/vectorized_s" in values
        # At the largest size at least three of the four kernels exceeded 3x.
        large = [values[f"{kernel}/large/speedup"] for kernel in kernels.KERNEL_NAMES]
        assert sum(speedup >= 3.0 for speedup in large) >= 3


def scale_record(cells: dict) -> dict:
    values = {}
    for cell, digest in cells.items():
        values[f"{cell}/wall_s"] = 1.0
        values[f"{cell}/labels_digest"] = digest
        values[f"{cell}/parity"] = True
    return make_record("scale", values, scale.METRICS, context={})


class TestScale:
    def test_projected_dense_bytes_exceed_budget_at_n10000(self):
        """The scale story: three dense float64 matrices at n=10000 blow 2 GiB."""
        assert scale.projected_dense_peak_bytes(10_000) > scale.MEMORY_BUDGET_BYTES
        assert scale.projected_dense_peak_bytes(5_000) < scale.MEMORY_BUDGET_BYTES

    def test_labels_digest_is_content_addressed(self):
        a = np.array([0, 1, 1, -1], dtype=np.int64)
        assert scale.labels_digest(a) == scale.labels_digest(a.copy())
        assert scale.labels_digest(a) != scale.labels_digest(a[::-1].copy())

    def test_checks_compare_digests_across_exact_backends_only(self):
        agreeing = scale_record({"dense/n1200": "abc", "memmap/n1200": "abc", "neighbors/n1200": "zzz"})
        assert scale.checks(agreeing["metrics"]) == []
        diverging = scale_record({"dense/n1200": "abc", "memmap/n1200": "abd"})
        (problem,) = scale.checks(diverging["metrics"])
        assert problem.startswith("n1200: label digests differ across backends")

    def test_memmap_and_neighbors_rss_carry_the_budget(self):
        record = make_record(
            "scale",
            {"memmap/n1200/peak_rss_bytes": 1, "dense/n1200/peak_rss_bytes": 1},
            scale.METRICS,
            context={},
        )
        assert record["metrics"]["memmap/n1200/peak_rss_bytes"]["budget"] == scale.MEMORY_BUDGET_BYTES
        assert "budget" not in record["metrics"]["dense/n1200/peak_rss_bytes"]

    def test_rejects_unknown_backends_and_sizes(self):
        with pytest.raises(ValueError, match="unknown backend"):
            scale.run(("ram-disk",))
        with pytest.raises(ValueError, match="unknown size"):
            scale.run(("dense",), ("n99",))

    def test_small_run_records_all_cells_with_matching_digests(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(tmp_path / "spill"))
        monkeypatch.setattr(scale, "SCALE_SIZES", {"n180": 180})
        monkeypatch.setattr(scale, "PARITY_N", 180)
        monkeypatch.setattr(scale, "assert_executor_parity", lambda n_samples=240: None)
        record = scale.run(("dense", "memmap"), ("n180",))
        values = values_of(record)
        for backend in ("dense", "memmap"):
            assert values[f"{backend}/n180/parity"] is True
            assert values[f"{backend}/n180/wall_s"] > 0
            assert values[f"{backend}/n180/peak_rss_bytes"] > 0
        assert values["dense/n180/labels_digest"] == values["memmap/n180/labels_digest"]
        assert record["context"]["dense_projected_bytes"] == {"n180": 180 * 180 * 24}

    def test_run_cell_measures_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(tmp_path / "spill"))
        cell = scale.run_cell("blockwise", 150)
        assert cell["wall_s"] > 0 and cell["peak_rss_bytes"] > 0
        assert cell["n_clusters"] >= 1

    def test_parity_only_smoke(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(tmp_path / "spill"))
        monkeypatch.setattr(scale, "PARITY_N", 150)
        monkeypatch.setattr(scale, "assert_executor_parity", lambda n_samples=240: None)
        assert main(["bench", "scale", "--parity-only"]) == 0
        assert "parity ok" in capsys.readouterr().out

    def test_unknown_backend_is_a_usage_error(self, capsys):
        assert main(["bench", "scale", "--backends", "ram-disk"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_json_writes_record_and_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(tmp_path / "spill"))
        monkeypatch.setattr(scale, "SCALE_SIZES", {"n150": 150})
        monkeypatch.setattr(scale, "PARITY_N", 150)
        monkeypatch.setattr(scale, "assert_executor_parity", lambda n_samples=240: None)
        out_path = tmp_path / "record.json"
        argv = ["bench", "scale", "--backends", "dense", "--sizes", "n150", "--json", str(out_path)]
        assert main(argv) == 0
        record = json.loads(out_path.read_text(encoding="utf-8"))
        assert record["suite"] == "scale"
        assert "dense/n150/wall_s" in record["metrics"]
        assert "wrote" in capsys.readouterr().out


class TestScaleSpillFailFast:
    @pytest.fixture
    def blocked(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        monkeypatch.setenv(SPILL_DIR_ENV_VAR, str(blocker))

    def test_check_spill_writable_raises_one_line(self, blocked):
        with pytest.raises(RuntimeError, match="spill directory is not writable") as excinfo:
            scale.check_spill_writable()
        message = str(excinfo.value)
        assert "\n" not in message
        assert SPILL_DIR_ENV_VAR in message
        # Fail fast means before any cell runs: the chained OSError is consumed.
        assert excinfo.value.__cause__ is None

    def test_parity_only_cli_fails_with_reason_not_traceback(self, blocked, capsys):
        assert main(["bench", "scale", "--parity-only"]) == 1
        err = capsys.readouterr().err
        assert "spill directory is not writable" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_run_fails_fast(self, blocked):
        with pytest.raises(RuntimeError, match="spill directory is not writable"):
            scale.run(backends=("dense",), sizes=("n1200",))


class TestScaleCellSubprocess:
    class _Completed:
        def __init__(self, returncode=0, stdout="", stderr=""):
            self.returncode = returncode
            self.stdout = stdout
            self.stderr = stderr

    def fake_run(self, monkeypatch, **completed):
        monkeypatch.setattr(scale.subprocess, "run", lambda *args, **kwargs: self._Completed(**completed))

    def test_garbage_stdout_is_a_runtime_error(self, monkeypatch):
        self.fake_run(monkeypatch, stdout="not json at all")
        with pytest.raises(RuntimeError, match="no parseable measurement"):
            scale._run_cell_subprocess("dense", 100)

    def test_empty_stdout_is_a_runtime_error(self, monkeypatch):
        self.fake_run(monkeypatch, stdout="", stderr="cell died")
        with pytest.raises(RuntimeError, match="no parseable measurement"):
            scale._run_cell_subprocess("dense", 100)

    def test_nonzero_exit_reports_last_stderr_line(self, monkeypatch):
        self.fake_run(monkeypatch, returncode=1, stderr="noise\nMemoryError: out of memory")
        with pytest.raises(RuntimeError, match="MemoryError: out of memory") as excinfo:
            scale._run_cell_subprocess("memmap", 100)
        assert "noise" not in str(excinfo.value)

    def test_cell_main_prints_one_line_on_failure(self, monkeypatch, capsys):
        def explode(backend, n_samples):
            raise RuntimeError("synthetic cell failure")

        monkeypatch.setattr(scale, "run_cell", explode)
        assert scale._cell_main(["dense", "100"]) == 1
        assert capsys.readouterr().err.strip() == "RuntimeError: synthetic cell failure"


class TestFleet:
    def test_small_grid_records_and_gates(self, tmp_path, capsys):
        json_out = tmp_path / "fleet.json"
        argv = ["bench", "fleet", "--workers", "1,2", "--units", "6", "--unit-cost", "0.05"]
        code = main([*argv, "--no-quickstart", "--json", str(json_out)])
        assert code == 0
        assert "2/speedup" in capsys.readouterr().out
        record = json.loads(json_out.read_text(encoding="utf-8"))
        values = values_of(record)
        assert record["suite"] == "fleet"
        assert values["2/parity"] is True and values["1/parity"] is True
        assert "4/wall_s" not in values and "quickstart/parity" not in values
        assert record["metrics"]["1/wall_s"]["gate"] == "slowdown"

    def test_workers_flag_must_be_integers(self, capsys):
        assert main(["bench", "fleet", "--workers", "two"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_checks_require_every_parity_flag(self):
        record = make_record(
            "fleet",
            {"1/parity": True, "8/parity": False, "quickstart/parity": False},
            fleet.METRICS,
            context={},
        )
        problems = fleet.checks(record["metrics"])
        assert [problem.split(" ")[0] for problem in problems] == ["8/parity", "quickstart/parity"]

    def test_synthetic_unit_keys_are_stable_and_distinct(self):
        keys = fleet.synthetic_unit_keys(4, 0.25)
        assert len(keys) == 4
        assert keys[0] == {"bench": "fleet-steal", "unit": 0, "n_units": 4, "cost_ms": 250}

    def test_store_digest_tracks_content(self, tmp_path):
        from repro.experiments.artifacts import ArtifactStore

        empty = fleet.store_digest(tmp_path)
        store = ArtifactStore(tmp_path)
        key = fleet.synthetic_unit_keys(1, 0.01)[0]
        store.put(fleet.UNIT_KIND, key, {"unit": 0})
        assert fleet.store_digest(tmp_path) != empty


class TestServe:
    def test_bench_job_spec_is_a_valid_pipeline_spec(self):
        from repro import api

        spec = api.load_spec(serve.bench_job_spec())
        assert spec.config.n_trials == 2
        assert spec.kind == "comparison"

    @pytest.mark.parametrize(
        ("computed", "expected", "ok"),
        [(2, 2, True), (4, 2, False), (None, 2, False), (None, None, False)],
    )
    def test_checks_require_exactly_once_computation(self, computed, expected, ok):
        values = {"jobs/wave_trials_computed": computed, "jobs/expected_trials": expected}
        measured = {name: value for name, value in values.items() if value is not None}
        record = make_record("serve", measured, serve.METRICS, context={})
        problems = serve.checks(record["metrics"])
        assert (problems == []) is ok
        if not ok:
            assert "duplicate work" in problems[0]


class TestOnline:
    def test_deltas_must_cover_a_steady_state(self):
        with pytest.raises(ValueError, match="at least 2"):
            online.run(deltas=1)

    def test_tiny_live_run_is_equivalent_and_hits_structures(self):
        record = online.run(deltas=2)
        values = values_of(record)
        assert values["stream/equivalent"] is True
        assert values["delta/0/equivalent"] is True and values["delta/1/equivalent"] is True
        # After the first delta the structures must come from the cache.
        assert values["stream/structure_hit_rate"] == 1.0
        assert record["context"]["settings"]["n_deltas"] == 2
        assert record["metrics"]["stream/speedup"]["floor"] == 5.0
