"""``repro bench serve``: load benchmark of the ``repro serve`` HTTP layer.

``repro bench serve`` measures the service qualities the serve layer
promises, on a real server bound to an ephemeral loopback port:

* **latency** — single-client ``GET /v1/health`` round-trips through the
  full stdlib HTTP stack: requests/sec, p50 and p99 milliseconds;
* **dedup** — ``--clients`` concurrent clients (default 8) POST the same
  tiny pipeline spec; exactly one job may run, the rest must join it
  (``duplicates_absorbed`` is gated to ``clients - 1``);
* **cache** — a second wave of the same spec after the first completes
  must be served entirely from cached trials (``cache_hit_rate`` over
  the trial artifacts of the resubmitted job, floored at 0.99);
* **parity** — the bytes of ``GET /v1/jobs/{id}/report?format=json``
  must equal the ``summary.json`` a batch :func:`repro.api.run_pipeline`
  of the same spec writes into a different artifacts root.

The fresh record is gated against the committed ``BENCH_serve.json``
baseline: the behavioural bits (parity, dedup) are hard requirements,
the floors travel inside the baseline, and p99 latency gets a generous
``--max-slowdown`` budget because CI runners share cores.  :func:`checks`
requires the dedup wave to compute the spec's trials exactly once.
"""

from __future__ import annotations

import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.engine import Spec, make_record

#: Concurrent submitting clients in the dedup wave (the acceptance bar).
N_CLIENTS = 8

#: Single-client health-check round-trips in the latency phase.
N_REQUESTS = 200

METRICS = {
    "latency/requests_per_s": Spec("req/s", "higher", "floor", floor=25.0),
    "latency/p99_ms": Spec("ms", "lower", "slowdown"),
    "*_ms": Spec("ms", "lower"),
    "jobs/duplicates_absorbed": Spec("count", "higher", "floor", floor=1),
    "jobs/cache_hit_rate": Spec("ratio", "higher", "floor", floor=0.99),
    "jobs/parity": Spec(gate="exact"),
    "*_s": Spec("s", "lower"),
    "*": Spec("count"),
}


def bench_job_spec() -> dict:
    """The tiny pipeline spec every bench client submits (seconds to run)."""
    return {
        "experiment": {
            "name": "serve-bench",
            "kind": "comparison",
            "algorithm": "fosc",
            "scenario": "labels",
            "amounts": [0.2],
            "datasets": ["Iris"],
            "seed": 20140324,
        },
        "parameters": {"n_trials": 2, "n_folds": 3, "minpts_range": [3, 6]},
        "report": {"formats": ["json"]},
    }


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _measure_latency(client, n_requests: int) -> dict:
    """Single-client GET /v1/health round-trip statistics."""
    samples: list[float] = []
    start = time.perf_counter()
    for _ in range(n_requests):
        tick = time.perf_counter()
        client.health()
        samples.append((time.perf_counter() - tick) * 1e3)
    wall_s = time.perf_counter() - start
    return {
        "requests": int(n_requests),
        "wall_s": wall_s,
        "requests_per_s": n_requests / wall_s if wall_s > 0 else 0.0,
        "p50_ms": statistics.median(samples),
        "p99_ms": _percentile(samples, 0.99),
    }


def _submit_wave(client_factory, payload: dict, n_clients: int) -> tuple[list[dict], float]:
    """POST ``payload`` from ``n_clients`` threads at once; returns the views."""
    barrier = threading.Barrier(n_clients)
    views: list[dict | None] = [None] * n_clients
    errors: list[BaseException] = []

    def post(slot: int) -> None:
        client = client_factory()
        barrier.wait()
        try:
            views[slot] = client.submit(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=post, args=(slot,)) for slot in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"serve bench wave failed: {errors[0]}") from errors[0]
    return [view for view in views if view is not None], wall_s


def run(clients: int = N_CLIENTS, requests: int = N_REQUESTS, workers: int = 2) -> dict:
    """Run the serve load benchmark and return a fresh record.

    Everything happens against throwaway temp directories: an in-process
    server (ephemeral port) with its own artifacts root, plus a second
    root for the batch-run parity check.
    """
    from repro import api
    from repro.serve import ServeClient, ServeSettings, make_server

    if clients < 2:
        raise ValueError(f"--clients must be at least 2 to measure dedup, got {clients}")
    payload = bench_job_spec()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        serve_root = Path(tmp) / "serve-store"
        parity_root = Path(tmp) / "batch-store"
        settings = ServeSettings(port=0, workers=workers, max_pending=max(32, clients + 1))
        server = make_server(serve_root, settings)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            make_client = lambda: ServeClient(server.url, timeout=60.0)  # noqa: E731
            client = make_client()

            # Warm the server process with a throwaway job (different seed,
            # so a disjoint digest and disjoint cached trials): the first
            # submission pays dataset-registry and lazy-import costs that
            # would otherwise let a straggling dedup-wave client validate
            # slower than the shared job runs.
            warmup = dict(payload)
            warmup["experiment"] = dict(payload["experiment"], name="serve-bench-warmup", seed=1)
            warm_view = client.submit(warmup)
            client.wait(warm_view["id"], timeout=600.0)

            latency = _measure_latency(client, requests)

            # Dedup wave: all clients POST the same spec at once.  Most
            # join the one active job; a straggler whose validation
            # outlives the (tiny) job becomes a second job served from
            # cache.  Either way the contract is: the spec's trials are
            # computed exactly once, and every client reads the same bytes.
            tick = time.perf_counter()
            views, submit_wave_s = _submit_wave(make_client, payload, clients)
            job_ids = sorted({view["id"] for view in views})
            duplicates = sum(1 for view in views if view["deduplicated"])
            wave_trials_computed = 0
            for job_id in job_ids:
                done = client.wait(job_id, timeout=600.0)
                if done["state"] != "done":
                    raise RuntimeError(f"serve bench job failed: {done.get('error')}")
                wave_trials_computed += done["progress"]["trials_computed"]
            first_run_s = time.perf_counter() - tick
            expected_trials = payload["parameters"]["n_trials"]

            # Batch parity: the same spec through the api facade, fresh
            # root — every wave job must serve those exact bytes.
            batch = api.run_pipeline(payload, artifacts_root=parity_root)
            batch_summary = next(
                (path for path in batch.report_paths if path.suffix == ".json"), None
            )
            batch_bytes = batch_summary.read_bytes() if batch_summary is not None else None
            parity = batch_bytes is not None and all(
                client.report_bytes(job_id, "json") == batch_bytes for job_id in job_ids
            )

            # Cache wave: the job is done (inactive), so a resubmission is a
            # *new* job — one that must find every trial already stored.
            tick = time.perf_counter()
            rerun = client.submit(payload)
            rerun_done = client.wait(rerun["id"], timeout=600.0)
            second_wave_s = time.perf_counter() - tick
            progress = rerun_done["progress"]
            trial_requests = progress["trials_cached"] + progress["trials_computed"]
            cache_hit_rate = (
                progress["trials_cached"] / trial_requests if trial_requests else 0.0
            )
        finally:
            server.shutdown()
            server.server_close()
    jobs = {
        "clients": int(clients),
        "distinct_jobs": len(job_ids),
        "duplicates_absorbed": int(duplicates),
        "wave_trials_computed": int(wave_trials_computed),
        "expected_trials": int(expected_trials),
        "submit_wave_s": submit_wave_s,
        "first_run_s": first_run_s,
        "cached_rerun_s": second_wave_s,
        "trials_cached": int(progress["trials_cached"]),
        "trials_computed": int(progress["trials_computed"]),
        "cache_hit_rate": cache_hit_rate,
        "parity": bool(parity),
    }
    values = {f"latency/{key}": value for key, value in latency.items()}
    values.update((f"jobs/{key}", value) for key, value in jobs.items())
    context = {"settings": {"clients": int(clients), "workers": int(workers)}}
    return make_record("serve", values, METRICS, context=context)


def checks(metrics: dict) -> list[str]:
    """The dedup wave must compute the spec's trials exactly once."""
    computed = metrics.get("jobs/wave_trials_computed", {}).get("value")
    expected = metrics.get("jobs/expected_trials", {}).get("value")
    if computed is not None and computed == expected:
        return []
    return [
        f"concurrent identical submissions computed {computed} trials where the spec "
        f"holds {expected} (duplicate work: dedup/cache regression)"
    ]
