"""The executor classes ``repro.core.executor.run_tasks`` replaced, vendored verbatim.

``Executor`` (an ABC), ``SerialExecutor``, ``ThreadExecutor``,
``ProcessExecutor``, ``get_executor`` and ``execute`` as they stood before
the one task-runner function took their place.  Each object was built,
``.run()`` once and dropped.  ``tests/test_task_runner_equivalence.py``
proves ``run_tasks`` gives the same results, ``on_result`` sequences,
exceptions and initializer calls on every backend.  ``BACKENDS`` and
``resolve_n_jobs`` are unchanged and imported from the library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from typing import Any, Callable, Iterable, Sequence

from repro.core.executor import BACKENDS, resolve_n_jobs


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
