"""Pluggable parallel execution engine for grid and experiment workloads.

The CVCP procedure evaluates an embarrassingly parallel
``|parameter values| × n_folds`` grid, and the experiment drivers repeat
that grid over data sets × algorithms × trials.  This module provides the
substrate both layers submit their work through:

* :class:`Executor` — the abstraction: ``run(fn, tasks)`` applies a callable
  to every task and returns the results *in task order*;
* :class:`SerialExecutor` / :class:`ThreadExecutor` /
  :class:`ProcessExecutor` — stdlib-only backends
  (:mod:`concurrent.futures`; no third-party dependencies);
* :func:`get_executor` — backend factory (``"serial"``, ``"thread"``,
  ``"process"``);
* :func:`derive_seed` — deterministic per-task seed derivation.

Determinism contract
--------------------
Task seeds are derived from a master seed plus the task's *grid coordinates*
(e.g. ``(value_index, fold_index)``) through :class:`numpy.random.SeedSequence`,
never drawn from a shared generator inside the loop.  Results therefore do
not depend on iteration or completion order, and all three backends produce
bit-identical output for the same master seed.

Exceptions raised inside a worker task propagate to the caller of
:meth:`Executor.run` unchanged (for the process backend: with the usual
pickling round-trip of :mod:`concurrent.futures`).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.utils.specs import SpecError, check_spec_mapping, unknown_key_problems

#: The recognised backend names, in order of increasing isolation.
BACKENDS: tuple[str, ...] = ("serial", "thread", "process")


@dataclass(frozen=True)
class ExecutionSpec:
    """The execution engine as one validated, picklable value.

    What :class:`~repro.core.cvcp.CVCP` and
    :func:`~repro.core.cvcp.select_parameter` take as ``execution=spec``;
    also the validated form of the pipeline ``[execution]`` config table
    (minus the pipeline-level ``parallelize`` key).  A deprecated
    ``distance_backend`` alias (``"dense"``) is resolved to its tier here,
    with one ``DeprecationWarning``.

    Every field defaults to ``None`` meaning "inherit the caller's
    default" — ``backend=None`` resolves to ``"serial"`` at the use site,
    ``n_jobs=None`` to all cores, ``distance_backend=None`` to the
    ``REPRO_DISTANCE_BACKEND`` environment fallback — so a default
    ``ExecutionSpec()`` is always a no-op override.

    All *exact* execution engines are bit-identical for a fixed seed, so
    two runs differing only in their ``ExecutionSpec`` share every cached
    artifact.  The one exception is ``distance_backend="neighbors"``: it is
    approximate-by-contract, and its ``epsilon``/``k_neighbors`` knobs
    (``None`` = consult ``REPRO_NEIGHBOR_EPSILON``/``REPRO_NEIGHBOR_K``)
    become part of the trial fingerprint so approximate results never
    shadow exact ones.

    ``metric`` (``None`` = inherit the data set's own metric) overrides the
    distance metric of every density-based fit; it conflicts with
    ``distance_backend="neighbors"`` for anything but ``"euclidean"``
    (the KD-tree is a metric-space index) and that conflict is reported as
    a validation problem here rather than a late runtime error.
    """

    backend: str | None = None
    n_jobs: int | None = None
    distance_backend: str | None = None
    epsilon: float | None = None
    k_neighbors: int | None = None
    metric: str | None = None

    def __post_init__(self) -> None:
        problems = []
        if self.backend is not None and self.backend not in BACKENDS:
            problems.append(
                f"execution.backend: must be one of {', '.join(BACKENDS)}; got {self.backend!r}"
            )
        if self.n_jobs is not None and (
            isinstance(self.n_jobs, bool) or not isinstance(self.n_jobs, int)
        ):
            problems.append(f"execution.n_jobs: must be an integer, got {self.n_jobs!r}")
        if self.distance_backend is not None:
            # Imported lazily to keep this module importable standalone.
            from repro.core.distance_backend import (
                DISTANCE_BACKEND_ALIASES,
                DISTANCE_BACKENDS,
                resolve_distance_backend,
            )

            if isinstance(self.distance_backend, str) and (
                self.distance_backend in DISTANCE_BACKEND_ALIASES
            ):
                object.__setattr__(
                    self, "distance_backend", resolve_distance_backend(self.distance_backend)
                )
            elif self.distance_backend not in DISTANCE_BACKENDS:
                problems.append(
                    "execution.distance_backend: must be one of "
                    f"{', '.join(DISTANCE_BACKENDS)}; got {self.distance_backend!r}"
                )
        if self.epsilon is not None:
            if isinstance(self.epsilon, bool) or not isinstance(self.epsilon, (int, float)):
                problems.append(
                    f"execution.epsilon: must be a number, got {self.epsilon!r}"
                )
            elif not self.epsilon > 0:  # rejects NaN too
                problems.append(
                    f"execution.epsilon: must be positive, got {self.epsilon!r}"
                )
        if self.k_neighbors is not None:
            if isinstance(self.k_neighbors, bool) or not isinstance(self.k_neighbors, int):
                problems.append(
                    f"execution.k_neighbors: must be an integer, got {self.k_neighbors!r}"
                )
            elif self.k_neighbors < 1:
                problems.append(
                    f"execution.k_neighbors: must be >= 1, got {self.k_neighbors!r}"
                )
        if self.metric is not None:
            from repro.clustering.distances import DATASET_METRICS

            if self.metric not in DATASET_METRICS:
                problems.append(
                    "execution.metric: must be one of "
                    f"{', '.join(DATASET_METRICS)}; got {self.metric!r}"
                )
        if (
            self.distance_backend is not None
            and self.distance_backend != "neighbors"
            and (self.epsilon is not None or self.k_neighbors is not None)
        ):
            problems.append(
                "execution.epsilon/k_neighbors: only meaningful with "
                f"distance_backend = \"neighbors\", but distance_backend is "
                f"{self.distance_backend!r}"
            )
        if (
            self.distance_backend == "neighbors"
            and self.metric is not None
            and self.metric != "euclidean"
        ):
            problems.append(
                "execution.metric: distance_backend = \"neighbors\" supports "
                f"metric = \"euclidean\" only (KD-tree index), got "
                f"{self.metric!r}; use an exact distance backend for this metric"
            )
        if problems:
            raise SpecError("execution", problems)

    def to_spec(self) -> dict:
        """JSON/TOML-ready mapping; inherit-the-default fields are omitted."""
        spec: dict[str, object] = {}
        if self.backend is not None:
            spec["backend"] = self.backend
        if self.n_jobs is not None:
            spec["n_jobs"] = self.n_jobs
        if self.distance_backend is not None:
            spec["distance_backend"] = self.distance_backend
        if self.epsilon is not None:
            spec["epsilon"] = self.epsilon
        if self.k_neighbors is not None:
            spec["k_neighbors"] = self.k_neighbors
        if self.metric is not None:
            spec["metric"] = self.metric
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping) -> "ExecutionSpec":
        """Validate a mapping (e.g. an ``[execution]`` table) into a spec.

        Collects every problem before raising :class:`SpecError`.
        """
        spec = check_spec_mapping(spec, "execution")
        known = ("backend", "n_jobs", "distance_backend", "epsilon", "k_neighbors", "metric")
        problems = unknown_key_problems(spec, known, "execution")
        kwargs = {key: spec[key] for key in known if key in spec}
        built = None
        try:
            built = cls(**kwargs)
        except SpecError as exc:
            problems.extend(exc.problems)
        if problems or built is None:
            raise SpecError("execution", problems)
        return built


def derive_seed(master_seed: int, *coordinates: int) -> int:
    """Deterministic child seed for the task at ``coordinates``.

    The seed depends only on ``(master_seed, *coordinates)`` — not on how
    many tasks ran before this one — which is what makes parallel and serial
    execution bit-identical.
    """
    entropy = [int(master_seed) & (2**64 - 1)]
    entropy.extend(int(coordinate) & (2**64 - 1) for coordinate in coordinates)
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, np.uint64)[0] % (2**63 - 1))


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``0`` mean "all cores"; negative values follow the joblib
    convention (``-1`` = all cores, ``-2`` = all but one, ...).
    """
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cores
    if n_jobs < 0:
        return max(1, cores + 1 + n_jobs)
    return int(n_jobs)


class Executor(ABC):
    """Applies a callable to a sequence of independent tasks."""

    #: Backend name (one of :data:`BACKENDS`).
    name: str = ""

    @abstractmethod
    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task, returning results in task order.

        ``on_result(index, result)`` — when given — is invoked in the
        *submitting* process as each task finishes (task order for the
        serial backend, completion order for the pools), which is what
        lets callers persist partial progress incrementally: results
        delivered before an interruption have already been handed over.

        The first exception raised by a task is re-raised here.
        """


def _run_inline(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    on_result: Callable[[int, Any], None] | None,
) -> list[Any]:
    results: list[Any] = []
    for index, task in enumerate(tasks):
        results.append(fn(task))
        if on_result is not None:
            on_result(index, results[-1])
    return results


class SerialExecutor(Executor):
    """In-process, single-threaded execution (the reference backend)."""

    name = "serial"

    def __init__(
        self,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self.initializer = initializer
        self.initargs = initargs

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task inline, in task order."""
        if self.initializer is not None:
            self.initializer(*self.initargs)
        return _run_inline(fn, tasks, on_result)


class _PoolExecutor(Executor):
    """Shared scaffolding for the :mod:`concurrent.futures` backends."""

    def __init__(
        self,
        n_jobs: int | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.initializer = initializer
        self.initargs = initargs

    def _pool(self, max_workers: int):  # pragma: no cover - trivial dispatch
        raise NotImplementedError

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task through the pool, in task order.

        Falls back to inline execution for a single worker or task, uses a
        chunked ``pool.map`` when no ``on_result`` callback is given, and
        per-task submission otherwise so completions stream to the caller.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        max_workers = min(self.n_jobs, len(tasks))
        if max_workers == 1:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return _run_inline(fn, tasks, on_result)
        with self._pool(max_workers) as pool:
            if on_result is None:
                chunksize = max(1, len(tasks) // (max_workers * 4))
                return list(pool.map(fn, tasks, chunksize=chunksize))
            # Per-task submission so every completion can be handed to the
            # caller immediately (chunked map would batch deliveries).
            futures = {pool.submit(fn, task): index for index, task in enumerate(tasks)}
            results: list[Any] = [None] * len(tasks)
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                on_result(index, results[index])
            return results


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution: zero pickling cost, shares the process caches.

    Best when the work releases the GIL (numpy-heavy tasks) or when task
    payloads are large relative to the compute.
    """

    name = "thread"

    def _pool(self, max_workers: int):
        return ThreadPoolExecutor(
            max_workers=max_workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution: true parallelism for pure-Python hot loops.

    Tasks, initargs and results must be picklable.  Shared payloads (e.g.
    the data matrix) belong in ``initializer``/``initargs`` — shipped once
    per worker — rather than in every task.  On fork-based platforms the
    workers additionally inherit caches already warmed in the parent.
    """

    name = "process"

    def _pool(self, max_workers: int):
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )


def get_executor(
    backend: str = "serial",
    n_jobs: int | None = None,
    *,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> Executor:
    """Instantiate the executor for a backend name.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``.
    n_jobs:
        Worker count for the pool backends (``None``/``0`` = all cores,
        negative = joblib-style); ignored by the serial backend.
    initializer / initargs:
        Optional per-worker setup hook (run once inline for the serial
        backend).  Use it to ship payloads shared by all tasks once per
        worker instead of once per task.
    """
    if backend == "serial":
        return SerialExecutor(initializer=initializer, initargs=initargs)
    if backend == "thread":
        return ThreadExecutor(n_jobs, initializer=initializer, initargs=initargs)
    if backend == "process":
        return ProcessExecutor(n_jobs, initializer=initializer, initargs=initargs)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def execute(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    *,
    backend: str = "serial",
    n_jobs: int | None = None,
) -> list[Any]:
    """One-shot convenience wrapper around :func:`get_executor`."""
    return get_executor(backend, n_jobs).run(fn, list(tasks))
