"""``repro bench``: the fixed CVCP grid timed on every execution backend.

Runs the same small grid as ``benchmarks/bench_parallel_backends.py``
(FOSC-OPTICSDend over a reduced MinPts range on a 240-point synthetic data
set) once per backend and records wall-clock and the selected parameter.
Every backend must select the same parameters with the same per-fold
scores as the serial reference before its timing counts.  The committed
``BENCH_parallel.json`` gates the selection (exact) and the wall-clock
(``--max-slowdown``).
"""

from __future__ import annotations

import time

from repro.bench.engine import Spec, make_record
from repro.clustering.fosc import FOSCOpticsDend
from repro.constraints.generation import sample_labeled_objects
from repro.core.cvcp import CVCP
from repro.core.executor import BACKENDS, ExecutionSpec
from repro.datasets.synthetic import make_blobs
from repro.utils.cache import clear_distance_cache

#: The fixed grid every bench run uses (also imported by
#: ``benchmarks/bench_parallel_backends.py``).  Sized so one run takes a
#: substantial fraction of a second: timing a tens-of-milliseconds grid
#: would gate on scheduler noise rather than on the code.
BENCH_SEED = 20140324
BENCH_MINPTS_VALUES = (3, 6, 9, 12)
BENCH_N_FOLDS = 4
BENCH_CLUSTER_SIZES = (80, 80, 80)
BENCH_GRID_DESCRIPTION = (
    "CVCP(FOSCOpticsDend, MinPts {3,6,9,12}, 4 folds) on 240-point blobs, "
    "15% labels, seed 20140324"
)

METRICS = {
    "*/mean_s": Spec("s", "lower", "slowdown"),
    "*/best_params": Spec(gate="exact"),
}


def run_grid(backend: str, n_jobs: int | None = 2) -> tuple[dict, list[list[float]]]:
    """One full CVCP fit on the bench grid; returns (best_params, fold scores)."""
    dataset = make_blobs(
        list(BENCH_CLUSTER_SIZES),
        4,
        center_spread=8.0,
        cluster_std=0.9,
        random_state=5,
        name="bench-parallel",
    )
    side = sample_labeled_objects(dataset.y, 0.15, random_state=1)
    search = CVCP(
        FOSCOpticsDend(),
        parameter_values=list(BENCH_MINPTS_VALUES),
        n_folds=BENCH_N_FOLDS,
        random_state=BENCH_SEED,
        execution=ExecutionSpec(backend=backend, n_jobs=n_jobs),
    )
    search.fit(dataset.X, labeled_objects=side)
    fold_scores = [list(evaluation.fold_scores) for evaluation in search.cv_results_.evaluations]
    return dict(search.best_params_), fold_scores


def run(
    backends: tuple[str, ...] = ("serial", "thread", "process"),
    n_jobs: int = 2,
    rounds: int = 1,
) -> dict:
    """Time the bench grid on every backend and assert cross-backend parity.

    Raises ``ValueError`` on an unknown backend and ``RuntimeError`` when
    any backend selects different parameters or produces different
    per-fold scores than the serial reference (the engine's bit-identical
    guarantee: a violation is always a bug, never noise).
    """
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise ValueError(f"unknown backend(s) {', '.join(unknown)}; expected {', '.join(BACKENDS)}")
    values: dict[str, object] = {}
    reference: tuple[dict, list[list[float]]] | None = None
    for backend in backends:
        best_time = float("inf")
        for _ in range(max(1, rounds)):
            # Cold cache every round: each sample then measures the same
            # thing as every other (and as the recorded baseline protocol),
            # including the O(n^2) distance-matrix cost the cache absorbs.
            clear_distance_cache()
            start = time.perf_counter()
            best_params, fold_scores = run_grid(backend, n_jobs)
            best_time = min(best_time, time.perf_counter() - start)
        if reference is None:
            if backend == "serial":
                reference = (best_params, fold_scores)
            else:
                clear_distance_cache()
                reference = run_grid("serial", n_jobs)
        if (best_params, fold_scores) != reference:
            raise RuntimeError(
                f"backend {backend!r} diverged from the serial reference: "
                f"selected {best_params}, expected {reference[0]}"
            )
        values[f"{backend}/mean_s"] = best_time
        values[f"{backend}/best_params"] = best_params
    context = {"grid": BENCH_GRID_DESCRIPTION, "n_jobs": n_jobs, "rounds": max(1, rounds)}
    return make_record("parallel", values, METRICS, context=context)
