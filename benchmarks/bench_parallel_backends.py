"""Backend parity and scaling smoke for the parallel execution engine.

Runs the fixed small grid from :mod:`repro.bench.parallel` (FOSC-OPTICSDend over
a reduced MinPts range on a 240-point synthetic data set — the same grid the
``repro bench`` regression gate times) once per backend, asserts that every
backend selects the *same* parameter with *identical* per-fold scores, and
lets pytest-benchmark record the wall-clock of each.  CI runs this file
with ``--benchmark-disable`` as its parallel-correctness smoke; locally the
timing table shows the thread/process speed-up (or overhead, at tiny sizes).
"""

from __future__ import annotations

import pytest

from repro.bench.parallel import run_grid
from repro.core.executor import BACKENDS
from repro.utils.cache import clear_distance_cache


def _run_backend(backend: str):
    return run_grid(backend, n_jobs=2)


@pytest.mark.benchmark(group="parallel-backends")
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_selects_identical_parameters(benchmark, backend):
    clear_distance_cache()
    best_params, fold_scores = benchmark.pedantic(
        _run_backend, args=(backend,), rounds=1, iterations=1
    )
    # Selections travel in the --benchmark-json record so the CI
    # bench-regression gate (`repro bench --compare ... --baseline ...`)
    # can reject parameter drift, not just slowdowns.
    benchmark.extra_info["best_params"] = best_params
    serial_best, serial_scores = _run_backend("serial")
    assert best_params == serial_best, (
        f"backend {backend!r} selected {best_params}, serial selected {serial_best}"
    )
    assert fold_scores == serial_scores, (
        f"backend {backend!r} produced different per-fold scores than serial"
    )
