"""End-to-end tests for the fleet CLI surface.

``repro run --worker`` parity and failure recovery (including a real
SIGKILL-mid-grid reclaim through subprocesses), ``repro status``,
and ``repro dashboard`` (the ``repro bench fleet`` gate is covered in
``test_bench_suites.py``).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli.main import main

FLEET_TOML = """\
[experiment]
name = "fleet-cli"
kind = "trials"
algorithm = "fosc"
scenario = "labels"
amounts = [0.1]
datasets = ["Iris"]
seed = 11

[parameters]
n_trials = {n_trials}
n_folds = 3
minpts_range = [3, 6, 9]

[artifacts]
root = "{root}"
"""


def write_config(tmp_path, *, root, n_trials=2, name="fleet.toml"):
    path = tmp_path / name
    path.write_text(FLEET_TOML.format(root=root, n_trials=n_trials), encoding="utf-8")
    return path


def worker_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def summary_bytes(root: Path) -> bytes:
    (summary,) = sorted(root.glob("reports/*/summary.json"))
    return summary.read_bytes()


class TestRunWorkerCli:
    def test_worker_run_matches_plain_run(self, tmp_path, capsys):
        plain = write_config(tmp_path, root=tmp_path / "plain", name="plain.toml")
        assert main(["run", str(plain), "--quiet"]) == 0
        fleet = write_config(tmp_path, root=tmp_path / "fleet", name="fleet.toml")
        assert main(["run", str(fleet), "--worker", "--worker-id", "w1", "--quiet"]) == 0
        capsys.readouterr()
        assert summary_bytes(tmp_path / "fleet") == summary_bytes(tmp_path / "plain")

    def test_force_refuses_worker_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, root=tmp_path / "store")
        assert main(["run", str(config), "--worker", "--force"]) == 2
        assert "--force cannot be combined with --worker" in capsys.readouterr().err

    def test_worker_logs_progress(self, tmp_path, capsys):
        config = write_config(tmp_path, root=tmp_path / "store")
        assert main(["run", str(config), "--worker", "--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "worker w1" in out
        assert "claimed" in out


class TestStatusCli:
    def test_status_on_fresh_and_finished_store(self, tmp_path, capsys):
        config = write_config(tmp_path, root=tmp_path / "store")
        assert main(["status", str(config)]) == 0
        assert "0/2 done" in capsys.readouterr().out
        assert main(["run", str(config), "--worker", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["status", str(config)]) == 0
        assert "2/2 done (100%)" in capsys.readouterr().out

    def test_status_json(self, tmp_path, capsys):
        config = write_config(tmp_path, root=tmp_path / "store")
        assert main(["status", str(config), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_units"] == 2
        assert payload["done"] == 0
        assert payload["workers"] == []

    def test_status_artifacts_root_override(self, tmp_path, capsys):
        config = write_config(tmp_path, root=tmp_path / "unused")
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", str(config), "--artifacts-root", str(elsewhere), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["status", str(config), "--artifacts-root", str(elsewhere), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["remaining"] == 0

    def test_status_bad_config(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "absent.toml")]) == 2


class TestKillReclaim:
    def test_surviving_worker_finishes_a_killed_workers_grid(self, tmp_path):
        # The acceptance scenario: worker 1 is SIGKILLed mid-grid (no
        # cleanup runs), worker 2 sweeps/steals the orphaned lease and
        # completes, and the result is byte-identical to a plain run.
        root = tmp_path / "store"
        config = write_config(tmp_path, root=root, n_trials=8)
        reference_root = tmp_path / "reference"
        reference = write_config(tmp_path, root=reference_root, n_trials=8, name="ref.toml")
        assert main(["run", str(reference), "--quiet"]) == 0

        cmd = [
            sys.executable,
            "-m",
            "repro",
            "run",
            str(config),
            "--quiet",
            "--lease-ttl",
            "1.5",
            "--poll-interval",
            "0.1",
            "--worker",
            "--worker-id",
        ]
        env = worker_env()
        victim = subprocess.Popen(
            cmd + ["victim"], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        trial_dir = root / "trial"
        deadline = time.monotonic() + 120.0
        while not any(trial_dir.glob("*/*.json")):
            if victim.poll() is not None:
                pytest.fail("victim worker finished before it could be killed")
            if time.monotonic() > deadline:
                victim.kill()
                pytest.fail("victim worker wrote no trial artifact within 120s")
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        survivor = subprocess.run(
            cmd + ["survivor"], env=env, capture_output=True, text=True, timeout=600
        )
        assert survivor.returncode == 0, survivor.stderr
        assert summary_bytes(root) == summary_bytes(reference_root)
        leases = root / "fleet" / "leases"
        assert not list(leases.glob("*.lease"))


class TestDashboardCli:
    def test_dashboard_from_bench_dir_and_store(self, tmp_path, capsys):
        config = write_config(tmp_path, root=tmp_path / "store")
        assert main(["run", str(config), "--worker", "--quiet"]) == 0
        (tmp_path / "BENCH_fleet.json").write_text(
            (Path(__file__).resolve().parent.parent / "BENCH_fleet.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        out = tmp_path / "dash.html"
        capsys.readouterr()
        assert (
            main(
                [
                    "dashboard",
                    "--out",
                    str(out),
                    "--bench-dir",
                    str(tmp_path),
                    "--artifacts-root",
                    str(tmp_path / "store"),
                ]
            )
            == 0
        )
        assert f"wrote {out}" in capsys.readouterr().out
        html = out.read_text(encoding="utf-8")
        assert "<svg" in html
        assert "Fleet work-stealing speedup" in html
        assert "Grid completion" in html
        assert "Worker liveness" in html

    def test_dashboard_unwritable_out_is_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        out = blocker / "dash.html"
        assert main(["dashboard", "--out", str(out), "--bench-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cannot write dashboard" in err
        assert "\n" not in err.strip()
