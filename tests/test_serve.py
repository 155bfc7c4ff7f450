"""End-to-end tests for the ``repro serve`` HTTP layer and its job pool.

Covers the acceptance contract of the serve subsystem: concurrent
identical submissions compute the spec's trials exactly once and every
client reads byte-identical report bytes; resubmissions of finished jobs
are served from cached trials; a SIGKILLed server restarted over the
same artifacts root resumes from the store; and validation/queue errors
map to the documented HTTP statuses.
"""

import json
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro import api
from repro.serve import (
    JobManager,
    QueueFullError,
    ServeClient,
    ServeError,
    ServeSettings,
    make_server,
)
from repro.utils.specs import SpecError


def tiny_spec(seed: int = 7, n_trials: int = 1, name: str = "serve-tiny") -> dict:
    """A pipeline spec that runs in about a second."""
    return {
        "experiment": {
            "name": name,
            "kind": "comparison",
            "algorithm": "fosc",
            "scenario": "labels",
            "amounts": [0.2],
            "datasets": ["Iris"],
            "seed": seed,
        },
        "parameters": {"n_trials": n_trials, "n_folds": 3, "minpts_range": [3, 6]},
        "report": {"formats": ["json", "txt"]},
    }


def select_body(seed: int = 5) -> dict:
    return {
        "select": {
            "algorithm": "fosc",
            "dataset": "Iris",
            "scenario": "labels",
            "amount": 0.2,
            "n_trials": 1,
            "n_folds": 3,
            "seed": seed,
        }
    }


@pytest.fixture
def server(tmp_path):
    """A live server (ephemeral port, own store) plus a client for it."""
    instance = make_server(tmp_path / "store", ServeSettings(port=0, workers=2))
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        yield instance, ServeClient(instance.url, timeout=30.0)
    finally:
        instance.shutdown()
        instance.server_close()
        thread.join(timeout=5)


class TestServeSettings:
    def test_defaults(self):
        settings = ServeSettings()
        assert (settings.host, settings.port) == ("127.0.0.1", 8601)
        assert (settings.workers, settings.max_pending) == (2, 32)

    def test_roundtrip_law(self):
        settings = ServeSettings(host="0.0.0.0", port=9999, workers=4, max_pending=5)
        assert ServeSettings.from_spec(settings.to_spec()) == settings

    def test_with_overrides_ignores_none_and_revalidates(self):
        settings = ServeSettings().with_overrides(port=0, workers=3)
        assert (settings.port, settings.workers) == (0, 3)
        assert settings.host == "127.0.0.1"
        with pytest.raises(SpecError, match=r"serve\.port"):
            ServeSettings().with_overrides(port=70000)

    def test_from_spec_collects_every_problem(self):
        with pytest.raises(SpecError) as excinfo:
            ServeSettings.from_spec({"port": "http", "workers": 0, "bogus": 1})
        text = "\n".join(excinfo.value.problems)
        assert "serve.port" in text
        assert "serve.workers" in text
        assert "serve.bogus: unknown key" in text


class TestJobManager:
    def test_rejects_non_mapping_payloads(self, tmp_path):
        manager = JobManager(tmp_path)
        try:
            with pytest.raises(SpecError, match="must be a table/object"):
                manager.submit(["not", "a", "job"])
        finally:
            manager.shutdown(wait=False)

    def test_invalid_spec_lists_problems_without_consuming_queue(self, tmp_path):
        manager = JobManager(tmp_path, max_pending=1)
        try:
            bad = tiny_spec()
            bad["experiment"]["algorithm"] = "kmeanz"
            with pytest.raises(SpecError) as excinfo:
                manager.submit(bad)
            assert any("algorithm" in problem for problem in excinfo.value.problems)
            assert manager.store_stats()["jobs_total"] == 0
        finally:
            manager.shutdown(wait=False)

    def test_select_alongside_other_keys_is_rejected(self, tmp_path):
        manager = JobManager(tmp_path)
        try:
            body = select_body()
            body["experiment"] = {}
            with pytest.raises(SpecError, match="unknown key alongside 'select'"):
                manager.submit(body)
        finally:
            manager.shutdown(wait=False)

    @pytest.fixture
    def gated_manager(self, tmp_path, monkeypatch):
        """A manager whose jobs block until ``release`` is set (no compute)."""
        release = threading.Event()

        def slow_run_pipeline(source, **kwargs):
            release.wait(timeout=30)
            return types.SimpleNamespace(as_dict=lambda: {"ok": True}, report_paths=())

        monkeypatch.setattr(api, "run_pipeline", slow_run_pipeline)
        manager = JobManager(tmp_path, workers=1, max_pending=1)
        try:
            yield manager, release
        finally:
            release.set()
            manager.shutdown(wait=True)

    def test_queue_full_raises(self, gated_manager):
        manager, release = gated_manager
        manager.submit(tiny_spec(seed=1))
        with pytest.raises(QueueFullError, match="max_pending=1"):
            manager.submit(tiny_spec(seed=2))
        release.set()

    def test_identical_active_submission_joins_instead_of_enqueueing(self, gated_manager):
        manager, release = gated_manager
        first = manager.submit(tiny_spec(seed=3))
        assert not first.deduplicated
        # max_pending=1 is already used up: only dedup can accept this.
        joined = manager.submit(tiny_spec(seed=3))
        assert joined.deduplicated
        assert joined.id == first.id
        release.set()


    def test_precomputed_spec_counts_its_units(self, gated_manager):
        # A spec whose data set is a precomputed matrix (not a registry
        # name) is accepted and counted like any other trials spec.
        manager, release = gated_manager
        example = Path(__file__).resolve().parent.parent / "examples" / "precomputed_similarity.toml"
        view = manager.submit(api.load_spec(example).to_spec())
        assert view.progress.total_units == 2
        release.set()


class TestServeHTTP:
    def test_health_and_store_stats(self, server):
        _, client = server
        health = client.health()
        assert health["status"] == "ok"
        stats = client.store_stats()
        assert stats["jobs_total"] == 0
        assert stats["artifacts"] == 0

    def test_unknown_routes_and_jobs_are_404(self, server):
        _, client = server
        with pytest.raises(ServeError) as excinfo:
            client.job("job-999")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._json("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_invalid_json_body_is_400(self, server):
        instance, client = server
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{instance.url}/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_invalid_spec_is_400_with_problems(self, server):
        _, client = server
        bad = tiny_spec()
        bad["experiment"]["kind"] = "wat"
        bad["bogus"] = {}
        with pytest.raises(ServeError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400
        problems = excinfo.value.payload["problems"]
        assert any("kind" in problem for problem in problems)
        assert any("bogus" in problem for problem in problems)

    def test_precomputed_matrix_defects_are_400_with_problems(self, server, tmp_path):
        """A bad [dataset] matrix fails at submit time, listing the defect."""
        import numpy as np

        _, client = server
        path = tmp_path / "lopsided.npz"
        np.savez(path, matrix=np.zeros((4, 5)), labels=np.arange(4))
        bad = tiny_spec(name="serve-precomputed")
        bad["experiment"]["kind"] = "trials"
        del bad["experiment"]["datasets"]
        bad["dataset"] = {"metric": "precomputed", "path": str(path)}
        with pytest.raises(ServeError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400
        problems = excinfo.value.payload["problems"]
        assert any("dataset.path" in p and "square" in p for p in problems)

    def test_metric_backend_conflict_is_400(self, server):
        _, client = server
        bad = tiny_spec(name="serve-metric-conflict")
        bad["experiment"]["kind"] = "trials"
        bad["dataset"] = {"metric": "cosine"}
        bad["execution"] = {"distance_backend": "neighbors"}
        with pytest.raises(ServeError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400
        assert any("neighbors" in p for p in excinfo.value.payload["problems"])

    def test_inadmissible_selection_is_400_and_never_queued(self, server):
        instance, client = server
        body = select_body()
        body["select"]["algorithm"] = "mpck"
        body["select"]["execution"] = {"distance_backend": "neighbors"}
        with pytest.raises(ServeError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400
        assert any("cannot drive" in p for p in excinfo.value.payload["problems"])
        assert instance.manager.list_views() == []

    def test_concurrent_identical_jobs_compute_once_with_identical_bytes(
        self, server, tmp_path
    ):
        """The acceptance bar: 8 clients, one computation, one byte stream."""
        instance, client = server
        payload = tiny_spec(seed=11, name="serve-wave")
        barrier = threading.Barrier(8)
        views = [None] * 8

        def post(slot):
            wave_client = ServeClient(instance.url, timeout=30.0)
            barrier.wait()
            views[slot] = wave_client.submit(payload)

        threads = [threading.Thread(target=post, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(view is not None for view in views)

        job_ids = sorted({view["id"] for view in views})
        computed = 0
        for job_id in job_ids:
            done = client.wait(job_id, timeout=120)
            assert done["state"] == "done", done
            computed += done["progress"]["trials_computed"]
        # The spec's single trial ran exactly once across the whole wave,
        # however many job records the wave produced.
        assert computed == 1
        served = {client.report_bytes(job_id, "json") for job_id in job_ids}
        assert len(served) == 1

        # Byte-parity with a batch run of the same spec in a fresh store.
        batch = api.run_pipeline(payload, artifacts_root=tmp_path / "batch")
        summary = next(path for path in batch.report_paths if path.suffix == ".json")
        assert served == {summary.read_bytes()}

    def test_finished_job_resubmission_is_served_from_cache(self, server):
        _, client = server
        payload = tiny_spec(seed=13, name="serve-cache")
        first = client.wait(client.submit(payload)["id"], timeout=120)
        assert first["progress"]["trials_computed"] == 1
        rerun = client.submit(payload)
        assert not rerun["deduplicated"]  # the first job is finished, not active
        redone = client.wait(rerun["id"], timeout=120)
        assert redone["progress"]["trials_computed"] == 0
        assert redone["progress"]["trials_cached"] == 1
        assert client.report_bytes(rerun["id"], "json") == client.report_bytes(
            first["id"], "json"
        )

    def test_txt_report_and_format_errors(self, server):
        _, client = server
        payload = tiny_spec(seed=17, name="serve-formats")
        done = client.wait(client.submit(payload)["id"], timeout=120)
        text = client.report_bytes(done["id"], "txt").decode("utf-8")
        assert "serve-formats" in text or "Iris" in text
        with pytest.raises(ServeError) as excinfo:
            client.report_bytes(done["id"], "csv")
        assert excinfo.value.status == 400

    def test_select_job_over_http(self, server):
        _, client = server
        view = client.submit(select_body())
        assert view["kind"] == "select"
        done = client.wait(view["id"], timeout=120)
        assert done["state"] == "done", done
        report = json.loads(client.report_bytes(done["id"], "json"))
        assert report["parameter_name"] == "min_pts"
        assert report["selected_value"] in (3, 6, 9, 12, 15, 18)

    def test_report_before_done_is_409(self, tmp_path, monkeypatch):
        release = threading.Event()

        def slow_run_pipeline(source, **kwargs):
            release.wait(timeout=30)
            return types.SimpleNamespace(as_dict=lambda: {}, report_paths=())

        monkeypatch.setattr(api, "run_pipeline", slow_run_pipeline)
        instance = make_server(tmp_path / "store", ServeSettings(port=0, workers=1))
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(instance.url, timeout=10.0)
        try:
            view = client.submit(tiny_spec(seed=19))
            with pytest.raises(ServeError) as excinfo:
                client.report_bytes(view["id"], "json")
            assert excinfo.value.status == 409
        finally:
            release.set()
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=5)

    def test_full_queue_is_429(self, tmp_path, monkeypatch):
        release = threading.Event()

        def slow_run_pipeline(source, **kwargs):
            release.wait(timeout=30)
            return types.SimpleNamespace(as_dict=lambda: {}, report_paths=())

        monkeypatch.setattr(api, "run_pipeline", slow_run_pipeline)
        instance = make_server(
            tmp_path / "store", ServeSettings(port=0, workers=1, max_pending=1)
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(instance.url, timeout=10.0)
        try:
            client.submit(tiny_spec(seed=23))
            with pytest.raises(ServeError) as excinfo:
                client.submit(tiny_spec(seed=29))
            assert excinfo.value.status == 429
        finally:
            release.set()
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=5)

    def test_failed_job_reports_its_error(self, tmp_path, monkeypatch):
        def broken_run_pipeline(source, **kwargs):
            raise RuntimeError("exploded mid-grid")

        monkeypatch.setattr(api, "run_pipeline", broken_run_pipeline)
        manager = JobManager(tmp_path)
        try:
            view = manager.submit(tiny_spec(seed=31))
            deadline = time.monotonic() + 10
            while manager.view(view.id).state not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            final = manager.view(view.id)
            assert final.state == "failed"
            assert "exploded mid-grid" in final.error
        finally:
            manager.shutdown(wait=False)


class TestServeRestart:
    """A SIGKILLed server restarted on the same root resumes from the store."""

    def _start(self, root: Path) -> tuple[subprocess.Popen, ServeClient]:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--artifacts-root", str(root)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = proc.stdout.readline()
        assert "serving on http://" in line, line
        url = line.split("serving on ", 1)[1].split(" ", 1)[0]
        return proc, ServeClient(url, timeout=30.0)

    def test_sigkill_restart_resumes_from_cached_trials(self, tmp_path):
        root = tmp_path / "store"
        payload = tiny_spec(seed=37, n_trials=3, name="serve-restart")
        proc, client = self._start(root)
        try:
            view = client.submit(payload)
            # Let at least one trial land in the store, then hard-kill the
            # server mid-grid (no cleanup, no atexit).
            deadline = time.monotonic() + 120
            while client.job(view["id"])["progress"]["done_units"] < 1:
                assert time.monotonic() < deadline, "no trial completed before kill"
                time.sleep(0.1)
        finally:
            proc.kill()
            proc.wait(timeout=10)

        proc, client = self._start(root)
        try:
            redone = client.wait(client.submit(payload)["id"], timeout=120)
            assert redone["state"] == "done", redone
            progress = redone["progress"]
            assert progress["trials_cached"] >= 1  # the pre-kill work survived
            assert progress["trials_cached"] + progress["trials_computed"] == 3
            served = client.report_bytes(redone["id"], "json")
        finally:
            proc.kill()
            proc.wait(timeout=10)

        batch = api.run_pipeline(payload, artifacts_root=tmp_path / "batch")
        summary = next(path for path in batch.report_paths if path.suffix == ".json")
        assert served == summary.read_bytes()
