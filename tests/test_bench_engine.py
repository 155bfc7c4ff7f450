"""The bench engine (record schema, loader, gate, table) and the one ``repro bench`` handler."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import DEFAULT_SUITE, SUITES
from repro.bench.engine import (
    RecordError,
    Spec,
    compare,
    format_table,
    load_record,
    make_record,
    subset_filter,
)
from repro.cli.main import main

REPO_ROOT = Path(__file__).resolve().parent.parent

SPECS = {
    "*/wall_s": Spec("s", "lower", "slowdown"),
    "*/rss": Spec("bytes", "lower", "slowdown", budget=2**30),
    "*/speedup": Spec("x", "higher", "floor", floor=2.0),
    "*/parity": Spec(gate="exact"),
    "*": Spec("count"),
}


def demo(values: dict) -> dict:
    return make_record("demo", values, SPECS, context={"grid": "demo grid"})


BASELINE = demo({"a/wall_s": 1.0, "a/rss": 500 * 2**20, "a/speedup": 4.0, "a/parity": True, "b/wall_s": 2.0})


def suite_argv(suite: str) -> list[str]:
    return ["bench"] if suite == DEFAULT_SUITE else ["bench", suite]


def committed(suite: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{suite}.json").read_text(encoding="utf-8"))


class TestMakeRecord:
    def test_first_matching_pattern_declares_each_metric(self):
        record = demo({"a/wall_s": 1.5, "a/speedup": 3.0, "a/calls": 7})
        assert record["suite"] == "demo"
        assert record["context"] == {"grid": "demo grid"}
        assert set(record["machine"]) == {"cpu_count", "python"}
        assert record["metrics"]["a/wall_s"] == {
            "value": 1.5, "unit": "s", "better": "lower", "gate": "slowdown",
        }
        assert record["metrics"]["a/speedup"]["floor"] == 2.0
        assert record["metrics"]["a/calls"] == {"value": 7, "unit": "count", "better": None, "gate": None}

    def test_bounds_are_attached_to_measured_values_only(self):
        record = demo({"a/speedup": None, "a/rss": 10})
        assert "floor" not in record["metrics"]["a/speedup"]
        assert record["metrics"]["a/rss"]["budget"] == 2**30

    def test_undeclared_metric_is_rejected(self):
        with pytest.raises(KeyError, match="declares no metric"):
            make_record("demo", {"x": 1}, {"y": Spec()}, context={})


class TestLoadRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(BASELINE), encoding="utf-8")
        assert load_record(path) == BASELINE
        assert load_record(path, "demo") == BASELINE

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "cannot read bench record"),
            ("{not json", "is not valid JSON"),
            ("[1, 2]", "got a JSON array"),
            ('{"kind": "repro-bench-kernels", "results": {}}', "is not a bench record"),
            ('{"suite": "demo", "metrics": {"a/wall_s": 3}}', "malformed demo record"),
        ],
    )
    def test_unreadable_records_raise_one_line(self, tmp_path, content, message):
        path = tmp_path / "record.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(RecordError, match=message) as excinfo:
            load_record(path)
        assert "\n" not in str(excinfo.value)

    def test_wrong_suite_is_rejected(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(BASELINE), encoding="utf-8")
        with pytest.raises(RecordError, match="'demo' bench record, not a 'kernels' one"):
            load_record(path, "kernels")

    def test_pytest_benchmark_json_reads_as_a_parallel_record(self, tmp_path):
        path = tmp_path / "BENCH_fresh.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {
                            "name": "test_backend_selects_identical_parameters[serial]",
                            "stats": {"mean": 0.5},
                            "extra_info": {"best_params": {"min_pts": 3}},
                        },
                        {"name": "unrelated_test", "stats": {"mean": 1.0}},
                    ]
                }
            ),
            encoding="utf-8",
        )
        record = load_record(path, "parallel")
        values = {name: entry["value"] for name, entry in record["metrics"].items()}
        assert values == {"serial/mean_s": 0.5, "serial/best_params": {"min_pts": 3}}
        assert record["metrics"]["serial/mean_s"]["unit"] == "s"

    def test_pytest_benchmark_json_without_parametrised_tests_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_fresh.json"
        path.write_text(json.dumps({"benchmarks": [{"name": "plain"}]}), encoding="utf-8")
        with pytest.raises(RecordError, match="no parametrised benchmarks"):
            load_record(path)


class TestCompare:
    def fresh(self, **changes) -> dict:
        values = {name: entry["value"] for name, entry in BASELINE["metrics"].items()}
        values.update({name.replace("__", "/"): value for name, value in changes.items()})
        return demo({name: value for name, value in values.items() if value is not None})

    def test_identical_record_passes(self):
        assert compare(self.fresh(), BASELINE, max_slowdown=0.25) == []

    def test_slowdown_is_relative_to_the_baseline_value(self):
        assert compare(self.fresh(a__wall_s=1.25), BASELINE, max_slowdown=0.25) == []
        (problem,) = compare(self.fresh(a__wall_s=1.3), BASELINE, max_slowdown=0.25)
        assert problem == "a/wall_s: 1.3000s is +30% vs baseline 1.0000s (allowed +25%)"
        assert compare(self.fresh(a__wall_s=0.1), BASELINE, max_slowdown=0.25) == []

    def test_byte_counts_use_the_rss_slack(self):
        fresh = self.fresh(a__rss=700 * 2**20)
        assert compare(fresh, BASELINE, max_slowdown=0.25)
        assert compare(fresh, BASELINE, max_slowdown=0.25, rss_slack=0.5) == []

    def test_floor_and_budget(self):
        (problem,) = compare(self.fresh(a__speedup=1.9), BASELINE, max_slowdown=0.25)
        assert "below the 2.00x floor" in problem
        assert compare(self.fresh(a__speedup=2.0), BASELINE, max_slowdown=0.25) == []
        problems = compare(self.fresh(a__rss=2**30 + 2**20), BASELINE, max_slowdown=10.0)
        assert problems == ["a/rss: 1025 MiB exceeds the 1024 MiB budget"]

    def test_exact_values_must_match(self):
        (problem,) = compare(self.fresh(a__parity=False), BASELINE, max_slowdown=0.25)
        assert problem == "a/parity: false differs from the baseline's true"

    def test_non_numeric_value_of_a_numeric_gate_is_a_problem(self):
        problems = compare(self.fresh(a__wall_s="fast", a__speedup=True), BASELINE, max_slowdown=0.25)
        assert problems == ["a/wall_s: fast is not a number", "a/speedup: true is not a number"]

    def test_missing_gated_metric_is_a_problem(self):
        problems = compare(self.fresh(b__wall_s=None), BASELINE, max_slowdown=0.25)
        assert problems == ["b/wall_s: in the baseline but missing from the fresh record"]

    def test_subset_run_is_exempt_only_from_what_it_did_not_run(self):
        fresh = demo({"a/wall_s": 1.0})
        covers_a = subset_filter(SUITES["parallel"].flags, {"backends": ("a",)})
        problems = compare(fresh, BASELINE, max_slowdown=0.25, ran=covers_a)
        assert problems == [
            "a/rss: in the baseline but missing from the fresh record",
            "a/speedup: in the baseline but missing from the fresh record",
            "a/parity: in the baseline but missing from the fresh record",
        ]
        covers_c = subset_filter(SUITES["parallel"].flags, {"backends": ("c",)})
        assert compare(fresh, BASELINE, max_slowdown=0.25, ran=covers_c) == []

    def test_ungated_and_unmeasured_baseline_metrics_are_skipped(self):
        baseline = demo({"a/calls": 3, "a/speedup": None})
        assert compare(demo({}), baseline, max_slowdown=0.25) == []

    def test_suite_checks_are_appended(self):
        problems = compare(
            self.fresh(), BASELINE, max_slowdown=0.25, checks=lambda metrics: [f"{len(metrics)} metrics"]
        )
        assert problems == ["5 metrics"]


class TestSubsetFilter:
    def test_unset_and_segment_restrictions(self):
        flags = SUITES["scale"].flags
        covers = subset_filter(flags, {"backends": ("neighbors",), "sizes": None})
        assert covers("neighbors/n100000/wall_s")
        assert not covers("blockwise/n1200/wall_s")
        covers = subset_filter(flags, {"backends": ("neighbors",), "sizes": ("n1200",)})
        assert covers("neighbors/n1200/wall_s")
        assert not covers("neighbors/n5000/wall_s")
        assert not covers("neighbors")


class TestFormatTable:
    def test_table_shows_values_baseline_and_gates(self):
        table = format_table(demo({"a/wall_s": 1.1, "a/speedup": 3.0, "c/calls": 2}), BASELINE)
        lines = table.splitlines()
        assert lines[0].split() == ["metric", "value", "baseline", "gate"]
        assert lines[1].split() == ["a/wall_s", "1.1000s", "1.0000s", "slowdown", "+10%"]
        assert lines[2].split() == ["a/speedup", "3.00x", "4.00x", "floor", ">=", "2.00x"]
        assert lines[3].split() == ["c/calls", "2", "count", "-"]

    def test_every_committed_record_formats(self):
        for suite in SUITES:
            table = format_table(committed(suite))
            assert len(table.splitlines()) == len(committed(suite)["metrics"]) + 1


class TestRegistry:
    @pytest.mark.parametrize("suite", SUITES)
    def test_flag_defaults_match_the_suite_run_signature(self, suite):
        module = SUITES[suite].load()
        parameters = inspect.signature(module.run).parameters
        for flag in SUITES[suite].flags:
            if flag.key == "rss_slack":  # a gate option, not a run option
                continue
            assert parameters[flag.key].default == flag.default, flag.name

    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_modules_declare_their_metrics(self, suite):
        module = SUITES[suite].load()
        assert module.METRICS and callable(module.run)
        for spec in module.METRICS.values():
            assert spec.gate in (None, "exact", "floor", "budget", "slowdown")

    def test_no_suite_module_is_imported_by_the_cli_or_the_package(self):
        suite_modules = sorted(suite.module for suite in SUITES.values())
        script = (
            "import sys\n"
            "import {target}\n"
            f"print([name for name in {suite_modules!r} if name in sys.modules])\n"
        )
        for target in ("repro.cli.main", "repro"):
            completed = subprocess.run(
                [sys.executable, "-c", script.format(target=target)],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            )
            assert completed.stdout.strip() == "[]", target


#: Every ``repro bench`` flag spelling the seven per-suite parsers accepted.
SHARED_FLAGS = {"--json", "--compare", "--baseline", "--max-slowdown"}
SUITE_FLAGS = {
    "parallel": {"--backends", "--n-jobs", "--rounds"},
    "kernels": {"--sizes", "--rounds"},
    "scale": {"--backends", "--sizes", "--rounds", "--parity-only", "--rss-slack"},
    "fleet": {"--workers", "--units", "--unit-cost", "--no-quickstart"},
    "serve": {"--clients", "--requests", "--workers"},
    "online": {"--deltas"},
    "text": {"--rounds"},
}


def bench_parsers() -> dict:
    import argparse

    from repro.cli.main import build_parser

    def subparsers_of(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    bench = subparsers_of(build_parser())["bench"]
    return {DEFAULT_SUITE: bench, **subparsers_of(bench)}


class TestBenchCli:
    def test_every_flag_spelling_is_still_accepted(self):
        parsers = bench_parsers()
        assert set(parsers) == set(SUITE_FLAGS)
        for suite, parser in parsers.items():
            spellings = {option for action in parser._actions for option in action.option_strings}
            assert spellings - {"-h", "--help"} == SHARED_FLAGS | SUITE_FLAGS[suite], suite

    @pytest.mark.parametrize("option", ["--compare", "--baseline"])
    @pytest.mark.parametrize("content", [None, "{truncated", "[]"], ids=["missing", "unparsable", "array"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_bad_record_file_is_one_line_and_exit_2(self, tmp_path, capsys, suite, content, option):
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert main([*suite_argv(suite), option, str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and str(path) in err

    @pytest.mark.parametrize("suite", SUITES)
    def test_committed_baseline_gates_itself(self, tmp_path, capsys, suite):
        path = REPO_ROOT / f"BENCH_{suite}.json"
        assert main([*suite_argv(suite), "--compare", str(path), "--baseline", str(path)]) == 0
        assert f"{suite} benchmark within baseline" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("suite", "metric"),
        [
            ("parallel", "serial/mean_s"),
            ("kernels", "fosc/large/vectorized_s"),
            ("scale", "blockwise/n1200/wall_s"),
            ("fleet", "1/wall_s"),
            ("serve", "latency/p99_ms"),
            ("online", "stream/incremental_s"),
            ("text", "timings/cosine_csr_s"),
        ],
    )
    def test_timing_missing_from_a_full_run_fails_the_gate(self, tmp_path, capsys, suite, metric):
        record = committed(suite)
        del record["metrics"][metric]
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(record), encoding="utf-8")
        baseline = REPO_ROOT / f"BENCH_{suite}.json"
        assert main([*suite_argv(suite), "--compare", str(fresh), "--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert f"{suite} benchmark regression detected" in err
        assert f"{metric}: in the baseline but missing from the fresh record" in err

    def test_json_and_compare_conflict(self, capsys):
        assert main(["bench", "kernels", "--compare", "x.json", "--json", "y.json"]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_regression_exits_1_with_the_problems(self, tmp_path, capsys):
        record = committed("text")
        record["metrics"]["quality/ari"]["value"] = 0.5
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(record), encoding="utf-8")
        baseline = str(REPO_ROOT / "BENCH_text.json")
        assert main(["bench", "text", "--compare", str(fresh), "--baseline", baseline]) == 1
        assert "quality/ari: 0.5 ARI is below the 0.75 ARI floor" in capsys.readouterr().err

    def test_pytest_benchmark_record_gates_against_the_parallel_baseline(self, tmp_path, capsys):
        benchmarks = [
            {
                "name": f"test_backend_selects_identical_parameters[{backend}]",
                "stats": {"mean": 0.1},
                "extra_info": {"best_params": {"min_pts": 3}},
            }
            for backend in ("serial", "thread", "process")
        ]
        fresh = tmp_path / "BENCH_fresh.json"
        fresh.write_text(json.dumps({"benchmarks": benchmarks}), encoding="utf-8")
        baseline = str(REPO_ROOT / "BENCH_parallel.json")
        assert main(["bench", "--compare", str(fresh), "--baseline", baseline, "--max-slowdown", "1.0"]) == 0
        benchmarks[1]["extra_info"]["best_params"] = {"min_pts": 6}
        fresh.write_text(json.dumps({"benchmarks": benchmarks}), encoding="utf-8")
        assert main(["bench", "--compare", str(fresh), "--baseline", baseline]) == 1
        assert "thread/best_params" in capsys.readouterr().err

    def test_live_serial_bench_writes_record(self, tmp_path, capsys):
        out_path = tmp_path / "fresh.json"
        code = main(["bench", "--backends", "serial", "--rounds", "1", "--json", str(out_path)])
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["suite"] == "parallel"
        assert record["metrics"]["serial/best_params"]["value"]
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_subset_run_is_gated_on_what_it_ran(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_parallel.json"
        slow = committed("parallel")
        for name in ("serial/mean_s", "thread/mean_s", "process/mean_s"):
            slow["metrics"][name]["value"] = 1000.0
        baseline.write_text(json.dumps(slow), encoding="utf-8")
        assert main(["bench", "--backends", "serial", "--baseline", str(baseline)]) == 0
        assert "within baseline" in capsys.readouterr().out

    def test_unknown_backend_rejected(self, capsys):
        assert main(["bench", "--backends", "warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_flags_before_the_suite_token_are_honoured(self, tmp_path):
        """Parent-parsed flags must not be clobbered by the suite parser's defaults."""
        out_path = tmp_path / "record.json"
        assert main(["bench", "--rounds", "2", "--json", str(out_path), "kernels", "--sizes", "small"]) == 0
        record = json.loads(out_path.read_text())
        assert record["suite"] == "kernels"
        assert record["context"]["rounds"] == 2
        assert set(record["context"]["sizes"]) == {"small"}
