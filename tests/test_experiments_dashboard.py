"""Tests for the static-HTML quality dashboard.

The collectors must understand the *committed* BENCH_*.json records and
real store layouts; the renderer must degrade gracefully when either
input is absent.
"""

import json
from pathlib import Path

import pytest

from repro.bench.engine import load_panels
from repro.experiments.dashboard import (
    collect_drift,
    collect_fleet_state,
    render_dashboard,
    write_dashboard,
)
from repro.experiments.fleet import FleetStats, run_worker, write_worker_record
from repro.experiments.pipeline import validate_pipeline_mapping

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_tiny_fleet(tmp_path, *, kind="trials"):
    raw = {
        "experiment": {
            "name": f"dash-{kind}",
            "kind": kind,
            "algorithm": "fosc",
            "scenario": "labels",
            "amounts": [0.1],
            "datasets": ["Iris"],
            "seed": 5,
        },
        "parameters": {"n_trials": 2, "n_folds": 3, "minpts_range": [3, 6, 9]},
        "artifacts": {"root": str(tmp_path / "store")},
    }
    if kind == "robustness":
        del raw["experiment"]["algorithm"]
        raw["oracle"] = {"flip_rates": [0.2]}
    spec, problems = validate_pipeline_mapping(raw, "inline")
    assert spec is not None, problems
    run_worker(spec, worker_id="dash-w1")
    return spec


class TestLoadPanels:
    def test_committed_bench_records_all_become_panels(self):
        # The collectors must track the real committed record shapes; a
        # BENCH schema change that silently drops a panel fails here.
        panels = load_panels(REPO_ROOT)
        titles = "\n".join(panel["title"] for panel in panels)
        assert "BENCH_parallel.json" in titles
        assert "BENCH_kernels.json" in titles
        assert "BENCH_scale.json" in titles
        assert "BENCH_fleet.json" in titles
        assert "BENCH_online.json" in titles
        assert "BENCH_text.json" in titles
        for panel in panels:
            assert panel["rows"], panel["title"]
            for _label, value, _floor in panel["rows"]:
                assert value == value  # no NaNs sneak into the SVG

    def test_fleet_panel_carries_the_floors(self):
        panels = load_panels(REPO_ROOT)
        (fleet,) = [p for p in panels if "BENCH_fleet.json" in p["title"]]
        floors = {label: floor for label, _value, floor in fleet["rows"]}
        assert any(floor is not None for floor in floors.values())

    def test_online_panel_has_per_delta_rows_and_the_speedup_floor(self):
        panels = load_panels(REPO_ROOT)
        (online,) = [p for p in panels if "BENCH_online.json" in p["title"]]
        labels = [label for label, _value, _floor in online["rows"]]
        assert labels[:2] == ["delta/0/speedup", "delta/1/speedup"]
        assert labels[-1] == "stream/speedup"
        assert online["rows"][-1][2] == 5.0  # the committed floor

    def test_committed_records_draw_the_values_and_floors_they_drew_before_migration(self, tmp_path):
        # Rows the per-file panel builders drew from the pre-migration files,
        # drawn again from the records as the migration wrote them
        # (tests/data/bench_migrated/ keeps those that have changed since).
        before = json.loads(
            (REPO_ROOT / "tests" / "data" / "bench_premigration" / "dashboard_rows.json").read_text()
        )
        for path in REPO_ROOT.glob("BENCH_*.json"):
            migrated = REPO_ROOT / "tests" / "data" / "bench_migrated" / path.name
            (tmp_path / path.name).write_bytes((migrated if migrated.exists() else path).read_bytes())
        after = {
            panel["title"].rsplit("(", 1)[1].rstrip(")"): [list(row[1:]) for row in panel["rows"]]
            for panel in load_panels(tmp_path)
        }
        assert after == before

    def test_fresh_record_renders_next_to_its_baseline(self, tmp_path):
        from repro.bench import kernels

        (tmp_path / "BENCH_kernels.json").write_text(
            (REPO_ROOT / "BENCH_kernels.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        fresh = kernels.run(("large",), rounds=1)
        (tmp_path / "BENCH_kernels_fresh.json").write_text(json.dumps(fresh), encoding="utf-8")
        titles = [panel["title"] for panel in load_panels(tmp_path)]
        assert titles == [
            "Kernel speedup vs reference loops (BENCH_kernels.json)",
            "Kernel speedup vs reference loops (BENCH_kernels_fresh.json)",
        ]
        html = render_dashboard(bench_dir=tmp_path)
        assert "BENCH_kernels_fresh.json" in html

    def test_empty_dir_means_no_panels(self, tmp_path):
        assert load_panels(tmp_path) == []

    def test_unparseable_and_foreign_json_are_skipped(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "BENCH_other.json").write_text(json.dumps({"foo": 1}), encoding="utf-8")
        assert load_panels(tmp_path) == []


class TestCollectFleetState:
    def test_missing_store_is_none(self, tmp_path):
        assert collect_fleet_state(tmp_path / "absent") is None

    def test_state_after_a_worker_run(self, tmp_path):
        run_tiny_fleet(tmp_path)
        state = collect_fleet_state(tmp_path / "store")
        assert state["n_units"] == 2
        assert state["done_units"] == 2
        assert state["trial_artifacts"] >= 2
        assert state["stale_leases"] == 0
        assert [w["worker"] for w in state["workers"]] == ["dash-w1"]
        assert state["steals"]["claimed"] == 2

    def test_cache_totals_sum_across_workers(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        write_worker_record(
            root, "a", phase="done", stats=FleetStats(claimed=1), n_units=2,
            store_stats={"hits": 2, "misses": 1, "writes": 1},
        )
        write_worker_record(
            root, "b", phase="done", stats=FleetStats(stolen=1), n_units=2,
            store_stats={"hits": 3, "misses": 0, "writes": 0},
        )
        state = collect_fleet_state(root)
        assert state["cache"] == {"hits": 5, "misses": 1, "writes": 1}
        assert state["steals"]["stolen"] == 1


class TestCollectDrift:
    def test_robustness_summary_yields_series(self, tmp_path):
        run_tiny_fleet(tmp_path, kind="robustness")
        drifts = collect_drift(tmp_path / "store")
        assert len(drifts) == 1
        series = drifts[0]["series"]
        assert set(series) == {"fosc", "mpck"}
        for points in series.values():
            rates = [rate for rate, _accuracy in points]
            assert rates == sorted(rates)
            assert 0.0 in rates and 0.2 in rates
            for _rate, accuracy in points:
                assert 0.0 <= accuracy <= 1.0

    def test_non_robustness_summaries_are_ignored(self, tmp_path):
        run_tiny_fleet(tmp_path, kind="trials")
        assert collect_drift(tmp_path / "store") == []

    def test_unreadable_summary_is_skipped(self, tmp_path):
        report = tmp_path / "reports" / "broken"
        report.mkdir(parents=True)
        (report / "summary.json").write_text("{nope", encoding="utf-8")
        assert collect_drift(tmp_path) == []


class TestRenderDashboard:
    def test_empty_inputs_render_the_fallback(self, tmp_path):
        html = render_dashboard(bench_dir=tmp_path)
        assert "Nothing to report" in html
        assert "prefers-color-scheme: dark" in html

    def test_full_render_has_all_sections(self, tmp_path):
        run_tiny_fleet(tmp_path, kind="robustness")
        html = render_dashboard(bench_dir=REPO_ROOT, artifacts_root=tmp_path / "store")
        assert "Fleet work-stealing speedup" in html
        assert "Grid completion" in html
        assert "Worker liveness" in html
        assert "Selection-accuracy drift" in html
        assert "Nothing to report" not in html
        # Accessibility invariants: tables back every chart and identity
        # never rides on color alone.
        assert "<table" in html
        assert "<details" in html
        assert html.count("<svg") >= 3

    def test_bars_stay_inside_the_viewbox(self, tmp_path):
        import re

        html = render_dashboard(bench_dir=REPO_ROOT)
        for match in re.finditer(r"M(\d+(?:\.\d+)?),[\d.]+ h(\d+(?:\.\d+)?)", html):
            assert float(match.group(1)) + float(match.group(2)) <= 640.0

    def test_write_dashboard_creates_parents(self, tmp_path):
        out = write_dashboard(tmp_path / "deep" / "dash.html", bench_dir=tmp_path)
        assert out.is_file()
        assert out.read_text(encoding="utf-8").startswith("<!doctype html>")

    def test_write_dashboard_propagates_oserror(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file", encoding="utf-8")
        with pytest.raises(OSError):
            write_dashboard(blocker / "dash.html", bench_dir=tmp_path)
