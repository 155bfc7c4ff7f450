"""``run_tasks`` against the executor classes it replaced.

``executor_oracle`` keeps ``SerialExecutor``, ``ThreadExecutor``,
``ProcessExecutor``, ``get_executor`` and ``execute`` verbatim.  For every
backend, worker count, task list, callback and initializer, both must give
the same results, the same ``on_result`` deliveries (the same sequence
wherever the tasks run inline; the same set in completion order), the same
exception, the same initializer calls and the same pool calls (chunked
``map`` with the same ``chunksize``, or per-task ``submit``).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

import executor_oracle as oracle
from repro.core.executor import BACKENDS, run_tasks

#: Per-process record of initializer calls (appended in whichever process runs it).
_INIT_CALLS: list[str] = []


def _initialize(tag: str) -> None:
    _INIT_CALLS.append(tag)


def _tagged(task: int) -> tuple[int, str | None]:
    """The task's square and the tag the initializer left in this process (if any)."""
    return task * task, _INIT_CALLS[-1] if _INIT_CALLS else None


def _explode_at_three(task: int) -> tuple[int, str | None]:
    if task == 3:
        raise RuntimeError(f"task {task} failed")
    return _tagged(task)


TASK_LISTS = ([], [5], list(range(7)), list(range(40)))


def run(runner, fn, tasks, backend, n_jobs, with_callback, initializer):
    """One run through ``runner``: its outcome, deliveries, initializer calls and pool calls."""
    _INIT_CALLS.clear()
    pool_calls: list[tuple] = []
    delivered: list[tuple] = []
    on_result = (lambda index, result: delivered.append((index, result))) if with_callback else None
    init = (_initialize, ("ready",)) if initializer else (None, ())
    with pytest.MonkeyPatch.context() as patch:
        for pool in (ThreadPoolExecutor, ProcessPoolExecutor):
            original_map, original_submit = pool.map, pool.submit

            def recording_map(self, fn, *iterables, _original=original_map, **kwargs):
                pool_calls.append(("map", kwargs.get("chunksize")))
                return _original(self, fn, *iterables, **kwargs)

            def recording_submit(self, fn, *args, _original=original_submit, **kwargs):
                pool_calls.append(("submit",))
                return _original(self, fn, *args, **kwargs)

            patch.setattr(pool, "map", recording_map)
            patch.setattr(pool, "submit", recording_submit)
        try:
            outcome = ("ok", runner(fn, tasks, backend, n_jobs, on_result, *init))
        except Exception as error:  # both sides must fail the same way
            outcome = ("error", type(error), str(error))
    return outcome, delivered, list(_INIT_CALLS), pool_calls


def new_runner(fn, tasks, backend, n_jobs, on_result, initializer, initargs):
    return run_tasks(
        fn, tasks, backend=backend, n_jobs=n_jobs, on_result=on_result,
        initializer=initializer, initargs=initargs,
    )


def old_runner(fn, tasks, backend, n_jobs, on_result, initializer, initargs):
    executor = oracle.get_executor(backend, n_jobs, initializer=initializer, initargs=initargs)
    return executor.run(fn, tasks, on_result=on_result)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("fn", [_tagged, _explode_at_three], ids=["ok", "raises"])
def test_run_tasks_matches_the_executor_classes(backend, n_jobs, fn):
    for tasks, with_callback, initializer in itertools.product(TASK_LISTS, (False, True), (False, True)):
        case = (tasks, with_callback, initializer)
        new = run(new_runner, fn, tasks, backend, n_jobs, with_callback, initializer)
        old = run(old_runner, fn, tasks, backend, n_jobs, with_callback, initializer)
        outcome, delivered, calls, pool_calls = new
        old_outcome, old_delivered, old_calls, old_pool_calls = old
        assert outcome == old_outcome, case
        assert pool_calls == old_pool_calls, case
        if not pool_calls:  # inline: the exact sequence, and the initializer ran here once
            assert delivered == old_delivered, case
            assert calls == old_calls, case
        elif fn is _tagged:  # completion order: the same deliveries in some order
            assert sorted(delivered) == sorted(old_delivered), case
        if backend == "thread" and pool_calls and initializer:  # once per started worker thread
            assert 1 <= len(calls) <= n_jobs and 1 <= len(old_calls) <= n_jobs, case
            assert set(calls) == set(old_calls), case


def test_an_unknown_backend_gives_the_same_error():
    with pytest.raises(ValueError) as new:
        run_tasks(_tagged, [1], backend="dask")
    with pytest.raises(ValueError) as old:
        oracle.get_executor("dask")
    assert str(new.value) == str(old.value)
