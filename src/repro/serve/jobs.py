"""The serve layer's bounded job pool over the artifact store.

:class:`JobManager` bridges HTTP submissions to :mod:`repro.api`: each
accepted job runs :func:`repro.api.run_pipeline` (pipeline-spec bodies)
or :func:`repro.api.select_parameter` (``{"select": {...}}`` bodies) on a
bounded ``ThreadPoolExecutor``, against an
:class:`~repro.experiments.artifacts.ArtifactStore` rooted at the
server's artifacts directory.  Consequences of that shared store:

* identical specs submitted twice produce byte-identical reports, and
  the second run is served from cached trials;
* a submission byte-identical to a *currently active* job does not
  enqueue at all — it joins the in-flight job (``deduplicated`` in the
  response);
* ``repro run --worker`` fleets pointed at the same artifacts root drain
  the same trial grid, so HTTP submissions compose with batch workers.

Per-job progress is streamed from the store's ``on_event`` observer
hook: every ``trial`` hit/write advances ``done_units`` (split into
cached vs computed), every cell appended to a trial's cell journal
bumps ``cells_written`` — the same granularity at which a killed job
resumes.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping

from repro import api
from repro.experiments.artifacts import ArtifactStore, key_digest
from repro.experiments.fleet import enumerate_units
from repro.serve.schemas import JOB_STATES, JobProgress, JobView
from repro.utils.specs import SpecError, check_spec_mapping

QUEUED, RUNNING, DONE, FAILED = JOB_STATES

__all__ = ["JobManager", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Submission refused: ``max_pending`` jobs are already queued or running."""


class _Job:
    """Mutable job state; every read/write happens under the manager lock."""

    __slots__ = (
        "id", "digest", "name", "kind", "spec", "request", "state", "error",
        "total_units", "done_units", "cells_written", "trials_computed",
        "trials_cached", "report_paths", "result", "dedup_joins",
    )

    def __init__(self, job_id: str, digest: str, name: str, kind: str) -> None:
        self.id = job_id
        self.digest = digest
        self.name = name
        self.kind = kind
        self.spec = None
        self.request = None
        self.state = QUEUED
        self.error: str | None = None
        self.total_units = 0
        self.done_units = 0
        self.cells_written = 0
        self.trials_computed = 0
        self.trials_cached = 0
        self.report_paths: tuple[Path, ...] = ()
        self.result: dict | None = None
        self.dedup_joins = 0


class JobManager:
    """Validate, deduplicate and execute jobs on a bounded worker pool.

    Parameters
    ----------
    root:
        Artifacts root every job runs against.  Posted specs have their
        ``[artifacts]`` root overridden to this directory — clients share
        the server's cache; they don't pick store locations.
    workers:
        Pool size: jobs running concurrently (each job parallelises
        internally through its own execution backend).
    max_pending:
        Hard cap on queued-plus-running jobs; submissions beyond it raise
        :class:`QueueFullError` (HTTP 429).
    """

    def __init__(self, root: str | Path, *, workers: int = 2, max_pending: int = 32) -> None:
        self.root = Path(root)
        self.store = ArtifactStore(self.root)
        self.max_pending = int(max_pending)
        self._pool = ThreadPoolExecutor(max_workers=int(workers), thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._active: dict[str, str] = {}  # spec digest -> job id, while queued/running
        self._ids = itertools.count(1)
        self._totals = {"hits": 0, "misses": 0, "writes": 0}

    # ------------------------------------------------------------------
    def submit(self, payload: Mapping) -> JobView:
        """Validate and enqueue one job; returns its immediate snapshot.

        Raises :class:`~repro.utils.specs.SpecError` (or its
        :class:`~repro.experiments.pipeline.ConfigError` subclass) on an
        invalid body and :class:`QueueFullError` on a full queue.  A body
        identical to an active job joins it instead of enqueueing
        (``deduplicated=True`` in the returned view).
        """
        payload = check_spec_mapping(payload, "job")
        digest = key_digest("serve-job", dict(payload))
        with self._lock:
            active_id = self._active.get(digest)
            if active_id is not None:
                job = self._jobs[active_id]
                job.dedup_joins += 1
                return self._view(job, deduplicated=True)
        # Validation happens outside the lock (it can touch the dataset
        # registry); rejects never consume queue capacity.
        job = self._prepare(payload, digest)
        with self._lock:
            # Re-check: an identical job may have been enqueued while we
            # were validating.
            active_id = self._active.get(digest)
            if active_id is not None:
                existing = self._jobs[active_id]
                existing.dedup_joins += 1
                return self._view(existing, deduplicated=True)
            pending = sum(
                1 for other in self._jobs.values() if other.state in (QUEUED, RUNNING)
            )
            if pending >= self.max_pending:
                raise QueueFullError(
                    f"job queue is full ({pending} active, max_pending={self.max_pending})"
                )
            job.id = f"job-{next(self._ids)}"
            self._jobs[job.id] = job
            self._active[digest] = job.id
            view = self._view(job)
        self._pool.submit(self._run, job)
        return view

    def _prepare(self, payload: Mapping, digest: str) -> _Job:
        """Validate a request body into an (unregistered) job."""
        if "select" in payload:
            problems = [
                f"job.{key}: unknown key alongside 'select' (a selection request has"
                " exactly one top-level key)"
                for key in payload
                if key != "select"
            ]
            if problems:
                raise SpecError("job", problems)
            request = api.SelectionRequest.from_spec(payload["select"])
            job = _Job("", digest, f"select-{request.algorithm}-{request.dataset}", "select")
            job.request = request
            job.total_units = request.n_trials
            return job
        spec = api.load_spec(payload).with_overrides(artifacts_root=self.root)
        job = _Job("", digest, spec.name, spec.kind)
        job.spec = spec
        job.total_units = len(enumerate_units(spec))
        return job

    def _run(self, job: _Job) -> None:
        with self._lock:
            job.state = RUNNING
        store = ArtifactStore(
            self.root, on_event=lambda event, kind: self._observe(job, event, kind)
        )
        try:
            if job.kind == "select":
                report = api.select_parameter(job.request, store=store)
                result = report.as_dict()
                paths: tuple[Path, ...] = ()
            else:
                pipeline_report = api.run_pipeline(job.spec, store=store)
                result = pipeline_report.as_dict()
                paths = pipeline_report.report_paths
            with self._lock:
                job.result = result
                job.report_paths = paths
                job.state = DONE
        except Exception as exc:  # noqa: BLE001 - the job's error IS the result
            with self._lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
        finally:
            with self._lock:
                self._active.pop(job.digest, None)

    def _observe(self, job: _Job, event: str, kind: str) -> None:
        """Store observer: fold one hit/miss/write into job + server totals."""
        with self._lock:
            key = {"hit": "hits", "miss": "misses", "write": "writes"}[event]
            self._totals[key] += 1
            if kind == "cell" and event == "write":
                job.cells_written += 1
            elif kind == "trial":
                if event == "hit":
                    job.trials_cached += 1
                    job.done_units += 1
                elif event == "write":
                    job.trials_computed += 1
                    job.done_units += 1

    # ------------------------------------------------------------------
    def _view(self, job: _Job, *, deduplicated: bool | None = None) -> JobView:
        """Immutable snapshot; caller must hold the lock."""
        return JobView(
            id=job.id,
            state=job.state,
            name=job.name,
            kind=job.kind,
            digest=job.digest,
            deduplicated=deduplicated if deduplicated is not None else job.dedup_joins > 0,
            progress=JobProgress(
                total_units=job.total_units,
                done_units=job.done_units,
                cells_written=job.cells_written,
                trials_computed=job.trials_computed,
                trials_cached=job.trials_cached,
            ),
            error=job.error,
        )

    def view(self, job_id: str) -> JobView | None:
        """Snapshot of one job, or ``None`` for an unknown id."""
        with self._lock:
            job = self._jobs.get(job_id)
            return self._view(job) if job is not None else None

    def list_views(self) -> list[JobView]:
        """Snapshots of every job, in submission order."""
        with self._lock:
            return [self._view(job) for job in self._jobs.values()]

    def result_of(self, job_id: str) -> dict | None:
        """The finished job's result payload (``None`` unless done)."""
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job.result) if job is not None and job.result is not None else None

    def report_paths_of(self, job_id: str) -> tuple[Path, ...]:
        with self._lock:
            job = self._jobs.get(job_id)
            return job.report_paths if job is not None else ()

    def store_stats(self) -> dict:
        """Server-wide store statistics (the ``/v1/store/stats`` payload)."""
        with self._lock:
            totals = dict(self._totals)
            states = [job.state for job in self._jobs.values()]
        requests = totals["hits"] + totals["misses"]
        return {
            "root": str(self.root),
            "artifacts": self.store.count(),
            "hits": totals["hits"],
            "misses": totals["misses"],
            "writes": totals["writes"],
            "hit_rate": (totals["hits"] / requests) if requests else 0.0,
            "jobs_total": len(states),
            "jobs_active": sum(1 for state in states if state in (QUEUED, RUNNING)),
        }

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        self._pool.shutdown(wait=wait, cancel_futures=True)
