"""Pluggable parallel execution engine for grid and experiment workloads.

The CVCP procedure evaluates an embarrassingly parallel
``|parameter values| × n_folds`` grid, and the experiment drivers repeat
that grid over data sets × algorithms × trials.  This module provides the
substrate both layers submit their work through:

* :func:`run_tasks` — applies a callable to every task on the
  ``"serial"``, ``"thread"`` or ``"process"`` backend (stdlib
  :mod:`concurrent.futures`; no third-party dependencies) and returns the
  results *in task order*;
* :class:`ExecutionSpec` — the engine as one validated value;
* :func:`derive_seed` — deterministic per-task seed derivation.

Determinism contract
--------------------
Task seeds are derived from a master seed plus the task's *grid coordinates*
(e.g. ``(value_index, fold_index)``) through :class:`numpy.random.SeedSequence`,
never drawn from a shared generator inside the loop.  Results therefore do
not depend on iteration or completion order, and all three backends produce
bit-identical output for the same master seed.

Exceptions raised inside a worker task propagate to the caller of
:func:`run_tasks` unchanged (for the process backend: with the usual
pickling round-trip of :mod:`concurrent.futures`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.admissibility import DATASET_METRICS
from repro.utils.specs import SpecError, SpecTable, check_enum

#: The recognised backend names, in order of increasing isolation.
BACKENDS: tuple[str, ...] = ("serial", "thread", "process")


@dataclass(frozen=True)
class ExecutionSpec(SpecTable, table="execution"):
    """The execution engine as one validated, picklable value.

    What :class:`~repro.core.cvcp.CVCP` takes as ``execution=spec`` and
    what :class:`~repro.experiments.config.ExperimentConfig` carries
    as its ``execution`` field; also the validated form of the pipeline
    ``[execution]`` config table (minus the pipeline-level ``parallelize``
    key).

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
    distance metric of every density-based fit; which tiers and algorithms
    it suits is decided by :mod:`repro.core.admissibility`.
    """

    backend: str | None = None
    n_jobs: int | None = None
    distance_backend: str | None = None
    epsilon: float | None = None
    k_neighbors: int | None = None
    metric: str | None = None

    def __post_init__(self) -> None:
        problems = []
        if self.backend is not None:
            check_enum(problems, "execution", "backend", self.backend, BACKENDS)
        if self.n_jobs is not None and (
            isinstance(self.n_jobs, bool) or not isinstance(self.n_jobs, int)
        ):
            problems.append(f"execution.n_jobs: must be an integer, got {self.n_jobs!r}")
        if self.distance_backend is not None:
            # Imported lazily to keep this module importable standalone.
            from repro.core.distance_backend import DISTANCE_BACKENDS

            check_enum(problems, "execution", "distance_backend", self.distance_backend, DISTANCE_BACKENDS)
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
            check_enum(problems, "execution", "metric", self.metric, DATASET_METRICS)
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
        if problems:
            raise SpecError("execution", problems)


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


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    backend: str,
    n_jobs: int | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> list[Any]:
    """Apply ``fn`` to every task on ``backend``; results come back in task order.

    ``backend`` is ``"serial"``, ``"thread"`` or ``"process"``; ``n_jobs``
    sizes the pools (``None``/``0`` = all cores, negative = joblib-style).
    ``on_result(index, result)``, when given, runs in the submitting process
    as each task finishes, so callers can persist partial progress.
    ``initializer(*initargs)`` runs once per worker (once inline when no pool
    starts): ship payloads shared by all tasks there, not in every task.

    The serial backend, and a pool with one effective worker, run inline in
    task order.  A pool runs a chunked ``map`` without ``on_result``, and
    submits per task with it so completions stream to the caller.  The first
    exception raised by a task is re-raised here.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend != "serial":
        max_workers = resolve_n_jobs(n_jobs)
        tasks = list(tasks)
        if not tasks:
            return []
        max_workers = min(max_workers, len(tasks))
    if backend == "serial" or max_workers == 1:
        if initializer is not None:
            initializer(*initargs)
        results: list[Any] = []
        for index, task in enumerate(tasks):
            results.append(fn(task))
            if on_result is not None:
                on_result(index, results[-1])
        return results
    # The pool machinery (multiprocessing for a process pool) loads only when a pool is built.
    from concurrent.futures import as_completed

    if backend == "thread":
        from concurrent.futures import ThreadPoolExecutor as pool_type
    else:
        from concurrent.futures import ProcessPoolExecutor as pool_type
    with pool_type(max_workers=max_workers, initializer=initializer, initargs=initargs) as pool:
        if on_result is None:
            chunksize = max(1, len(tasks) // (max_workers * 4))
            return list(pool.map(fn, tasks, chunksize=chunksize))
        # Per-task submission so every completion can be handed to the
        # caller immediately (chunked map would batch deliveries).
        futures = {pool.submit(fn, task): index for index, task in enumerate(tasks)}
        results = [None] * len(tasks)
        for future in as_completed(futures):
            index = futures[future]
            results[index] = future.result()
            on_result(index, results[index])
        return results
