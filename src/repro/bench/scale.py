"""``repro bench scale``: the distance backends at large ``n``.

Times the full density-clustering pipeline (pairwise distances → core
distances → mutual reachability → Prim MST → condensed tree → FOSC
extraction, i.e. one :class:`~repro.clustering.fosc.FOSCOpticsDend` fit)
under each distance backend (see :mod:`repro.core.distance_backend`) at
growing problem sizes, recording **wall-clock and peak RSS** per cell.
Each timed cell runs in a fresh subprocess so ``ru_maxrss`` — a per-process
high-water mark — is meaningful per cell, and each cell gets its own spill
directory so memmap timings are cold.

Parity is asserted **before** any timing is recorded:

* the exact distance backends must produce bit-identical labels
  (checked in-process at a multi-panel size, and re-checked across every
  timed cell via label digests);
* the serial/thread/process executors must select identical parameters
  with identical per-fold scores and final labels under every exact
  distance backend (a small CVCP grid per combination);
* the approximate ``neighbors`` tier must reduce exactly to the exact-tier
  labels in its exhaustive regime (``k = n``, ``epsilon = inf``), under
  all three executors.

The record demonstrates the point of the tiers: the projected dense
working set at ``n = 10000`` (three float64 matrices: distances, mutual
reachability, and the full-matrix partition copy) exceeds a 2 GiB budget,
while the memmap tier completes the same fit with a measured peak RSS
under it — and the sparse ``neighbors`` tier breaks the O(n²) wall
entirely, completing a fit at ``n = 100000`` (dense projection: ~224 GiB)
under the same 2 GiB budget.  Neighbors cells additionally record
``ari_vs_exact`` — the ARI of the approximate labels against an exact-tier
fit of the same data — wherever the exact fit is still tractable
(``n <= 10000``); the gate enforces an ARI floor on those cells.
``BENCH_scale.json`` commits the recorded baseline; fresh records are
gated on parity, wall-clock slowdown, an RSS growth slack
(``--rss-slack``), the ARI floor, and the absolute memory budget for
memmap and neighbors cells.  :func:`checks` compares label digests across
the exact backends inside each record.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.engine import Spec, make_record
from repro.core.distance_backend import (
    DISTANCE_BACKENDS,
    EXACT_DISTANCE_BACKENDS,
    SPILL_DIR_ENV_VAR,
)

#: Benchmark problem sizes (number of objects).
SCALE_SIZES: dict[str, int] = {
    "n1200": 1200, "n5000": 5000, "n10000": 10000, "n100000": 100000,
}

#: Sizes each backend runs by default.  The blockwise tier stops at
#: ``n5000``; the memmap tier takes on ``n10000``, where the projected
#: dense working set blows the memory budget; only the sparse neighbors
#: tier reaches ``n100000``, where even the out-of-core exact tiers are
#: impractical (an 80 GB spill per matrix).
DEFAULT_CELLS: dict[str, tuple[str, ...]] = {
    "blockwise": ("n1200", "n5000"),
    "memmap": ("n1200", "n5000", "n10000"),
    "neighbors": ("n1200", "n5000", "n10000", "n100000"),
}

#: The memory budget the scale story is told against (2 GiB).
MEMORY_BUDGET_BYTES = 2 * 1024**3

#: Neighbour-graph out-degree of the benchmarked ``neighbors`` cells.
NEIGHBOR_BENCH_K = 32

#: Largest size where an exact-tier reference fit is still run to score the
#: neighbors labels (ARI); beyond it ``ari_vs_exact`` is recorded as null.
ARI_MAX_N = 10000

#: ARI-vs-exact floor the gate enforces on neighbors cells that have one.
ARI_FLOOR = 0.95

#: Deterministic input-generation seed.
SCALE_SEED = 20140324
_DATA_SEED = 13

#: MinPts of the benchmarked fit.
_MIN_PTS = 5

#: Size used for the in-process parity pass (two canonical panels).
PARITY_N = 600

_BUDGETED_RSS = Spec("bytes", "lower", "slowdown", budget=MEMORY_BUDGET_BYTES)

METRICS = {
    "*/wall_s": Spec("s", "lower", "slowdown"),
    "memmap/*/peak_rss_bytes": _BUDGETED_RSS,
    "neighbors/*/peak_rss_bytes": _BUDGETED_RSS,
    "*/peak_rss_bytes": Spec("bytes", "lower", "slowdown"),
    "*/ari_vs_exact": Spec("ARI", "higher", "floor", floor=ARI_FLOOR),
    "*/parity": Spec(gate="exact"),
    "*/labels_digest": Spec(),
    "*/n_clusters": Spec("count"),
}


def scale_dataset(n_samples: int):
    """The deterministic blobs data set benchmarked at ``n_samples`` objects."""
    from repro.datasets.synthetic import make_blobs

    third = n_samples // 3
    return make_blobs(
        [third, third, n_samples - 2 * third],
        4,
        center_spread=8.0,
        cluster_std=1.0,
        random_state=_DATA_SEED,
        name=f"bench-scale-{n_samples}",
    )


def labels_digest(labels: np.ndarray) -> str:
    """Content digest of a label vector (the cross-cell parity token)."""
    payload = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
    return hashlib.sha256(payload.tobytes()).hexdigest()


def projected_dense_peak_bytes(n_samples: int) -> int:
    """Projected dense-tier working set: distances + mutual reachability + partition copy."""
    return 3 * 8 * n_samples * n_samples


def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark in bytes.

    On Linux, ``getrusage`` ru_maxrss carries the pre-exec address space's
    high-water mark across fork+exec, so a cell subprocess launched from a
    heavyweight parent would report the *parent's* footprint.  ``VmHWM``
    in ``/proc/self/status`` belongs to the current mm (reset at exec) and
    measures only this process's own peak, which is what the bench wants.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def run_cell(backend: str, n_samples: int) -> dict:
    """One measured fit of the full density pipeline in the current process.

    Neighbors cells fit the sparse tier first and snapshot the RSS
    high-water mark *before* anything else runs, so the recorded peak
    belongs to the approximate fit alone; an exact-tier reference fit (for
    ``ari_vs_exact``) then follows where still tractable.
    """
    from repro.clustering.fosc import FOSCOpticsDend
    from repro.utils.cache import clear_distance_cache

    dataset = scale_dataset(n_samples)
    clear_distance_cache()
    kwargs = {}
    if backend == "neighbors":
        kwargs["k_neighbors"] = NEIGHBOR_BENCH_K
        # The tier loads scipy.spatial and scipy.sparse on first use; import
        # them before the clock starts so wall_s times the fit alone.
        import repro.core.neighbor_graph  # noqa: F401
    start = time.perf_counter()
    model = FOSCOpticsDend(min_pts=_MIN_PTS, distance_backend=backend, **kwargs).fit(dataset.X)
    wall_s = time.perf_counter() - start
    entry = {
        "wall_s": wall_s,
        "peak_rss_bytes": peak_rss_bytes(),
        "labels_digest": labels_digest(model.labels_),
        "n_clusters": int(np.unique(model.labels_[model.labels_ >= 0]).size),
    }
    if backend == "neighbors":
        entry["ari_vs_exact"] = None
        if n_samples <= ARI_MAX_N:
            from repro.evaluation.external import adjusted_rand_index

            clear_distance_cache()
            exact = FOSCOpticsDend(min_pts=_MIN_PTS, distance_backend="blockwise").fit(dataset.X)
            entry["ari_vs_exact"] = float(adjusted_rand_index(exact.labels_, model.labels_))
    return entry


def check_spill_writable() -> Path:
    """Fail fast — with one readable line — when the spill dir is unusable.

    The memmap tier (and any cell subprocess) needs a writable spill
    directory; a bad ``REPRO_DISTANCE_SPILL_DIR`` should surface as a
    single-sentence ``RuntimeError`` at the top of the bench, not as an
    ``OSError`` traceback from deep inside a fit.
    """
    from repro.core.distance_backend import spill_directory

    try:
        spill = spill_directory()
        with tempfile.NamedTemporaryFile(dir=spill, prefix="probe-", suffix=".tmp"):
            pass
    except OSError as exc:
        raise RuntimeError(
            f"distance spill directory is not writable ({exc}); "
            f"set {SPILL_DIR_ENV_VAR} to a writable directory"
        ) from None
    return spill


def _run_cell_subprocess(backend: str, n_samples: int) -> dict:
    """Run one cell in a fresh interpreter (fresh RSS high-water, cold spill)."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    with tempfile.TemporaryDirectory(prefix="repro-scale-spill-") as spill:
        env[SPILL_DIR_ENV_VAR] = spill
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench.scale", "--cell", backend, str(n_samples)],
            env=env,
            capture_output=True,
            text=True,
        )
    if completed.returncode != 0:
        reason = completed.stderr.strip().splitlines()[-1] if completed.stderr.strip() else "no stderr"
        raise RuntimeError(
            f"scale-bench cell ({backend}, n={n_samples}) failed with "
            f"exit code {completed.returncode}: {reason}"
        )
    try:
        return json.loads(completed.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"scale-bench cell ({backend}, n={n_samples}) produced no parseable "
            f"measurement on stdout (stderr: {completed.stderr.strip()[-200:] or 'empty'})"
        ) from None


def assert_distance_backend_parity(n_samples: int = PARITY_N) -> str:
    """Assert the exact backends produce bit-identical labels; returns the digest."""
    from repro.clustering.fosc import FOSCOpticsDend
    from repro.utils.cache import clear_distance_cache

    check_spill_writable()
    dataset = scale_dataset(n_samples)
    digests: dict[str, str] = {}
    for backend in EXACT_DISTANCE_BACKENDS:
        clear_distance_cache()
        model = FOSCOpticsDend(min_pts=_MIN_PTS, distance_backend=backend).fit(dataset.X)
        digests[backend] = labels_digest(model.labels_)
    clear_distance_cache()
    if len(set(digests.values())) != 1:
        raise RuntimeError(
            "distance backends diverged (the contract is bit-identical labels, "
            f"so this is a bug): {digests}"
        )
    return digests["blockwise"]


def assert_neighbor_backend_parity(n_samples: int = PARITY_N) -> str:
    """Assert the neighbors tier reduces to exact labels in its exhaustive regime.

    The approximate-by-contract guarantee (see
    :mod:`repro.core.neighbor_graph`): at ``k_neighbors = n`` and
    ``epsilon = inf`` the sparse graphs hold every pairwise entry, so the
    fitted labels must be bit-identical to the blockwise tier — under all
    three executors.  Returns the shared digest.
    """
    from repro.clustering.fosc import FOSCOpticsDend
    from repro.constraints.generation import sample_labeled_objects
    from repro.core.cvcp import CVCP
    from repro.core.executor import BACKENDS, ExecutionSpec
    from repro.utils.cache import clear_distance_cache

    dataset = scale_dataset(n_samples)
    digests: dict[str, str] = {}
    clear_distance_cache()
    exact = FOSCOpticsDend(min_pts=_MIN_PTS, distance_backend="blockwise").fit(dataset.X)
    digests["blockwise"] = labels_digest(exact.labels_)
    clear_distance_cache()
    sparse = FOSCOpticsDend(
        min_pts=_MIN_PTS, distance_backend="neighbors",
        epsilon=float("inf"), k_neighbors=n_samples,
    ).fit(dataset.X)
    digests["neighbors"] = labels_digest(sparse.labels_)
    if len(set(digests.values())) != 1:
        raise RuntimeError(
            "neighbors tier diverged from blockwise in the exhaustive regime "
            f"(k=n, epsilon=inf must be entry-for-entry equal, so this is a bug): {digests}"
        )

    # A small CVCP grid per executor under the exhaustive neighbors tier
    # must reproduce the exact selections and labels bit-for-bit.
    grid_n = min(n_samples, 240)
    grid_data = scale_dataset(grid_n)
    labeled = sample_labeled_objects(grid_data.y, 0.1, random_state=3)
    reference: dict | None = None
    for distance_backend, executor in (
        [("blockwise", "serial")] + [("neighbors", executor) for executor in BACKENDS]
    ):
        clear_distance_cache()
        spec_kwargs = {"backend": executor, "n_jobs": 2, "distance_backend": distance_backend}
        if distance_backend == "neighbors":
            spec_kwargs.update(epsilon=float("inf"), k_neighbors=grid_n)
        search = CVCP(
            FOSCOpticsDend(min_pts=_MIN_PTS),
            parameter_values=[3, 6, 9],
            n_folds=3,
            random_state=SCALE_SEED,
            execution=ExecutionSpec(**spec_kwargs),
        )
        search.fit(grid_data.X, labeled_objects=labeled)
        observed = {
            "best": search.best_params_,
            "scores": [evaluation.fold_scores for evaluation in search.cv_results_.evaluations],
            "labels": labels_digest(search.labels_),
        }
        if reference is None:
            reference = observed
        elif observed != reference:
            raise RuntimeError(
                "exhaustive-neighbors/executor parity violated at "
                f"(executor={executor}, distance_backend={distance_backend}): "
                f"{observed} != {reference}"
            )
    clear_distance_cache()
    return digests["blockwise"]


def assert_executor_parity(n_samples: int = 240) -> None:
    """Assert serial/thread/process executors agree under every exact backend."""
    from repro.clustering.fosc import FOSCOpticsDend
    from repro.constraints.generation import sample_labeled_objects
    from repro.core.cvcp import CVCP
    from repro.core.executor import BACKENDS, ExecutionSpec
    from repro.utils.cache import clear_distance_cache

    dataset = scale_dataset(n_samples)
    labeled = sample_labeled_objects(dataset.y, 0.1, random_state=3)
    reference: dict | None = None
    for distance_backend in EXACT_DISTANCE_BACKENDS:
        for executor in BACKENDS:
            clear_distance_cache()
            search = CVCP(
                FOSCOpticsDend(min_pts=_MIN_PTS),
                parameter_values=[3, 6, 9],
                n_folds=3,
                random_state=SCALE_SEED,
                execution=ExecutionSpec(
                    backend=executor, n_jobs=2, distance_backend=distance_backend
                ),
            )
            search.fit(dataset.X, labeled_objects=labeled)
            observed = {
                "best": search.best_params_,
                "scores": [evaluation.fold_scores for evaluation in search.cv_results_.evaluations],
                "labels": labels_digest(search.labels_),
            }
            if reference is None:
                reference = observed
            elif observed != reference:
                raise RuntimeError(
                    "executor/distance-backend parity violated at "
                    f"(executor={executor}, distance_backend={distance_backend}): "
                    f"{observed} != {reference}"
                )
    clear_distance_cache()


def run(
    backends: tuple[str, ...] = DISTANCE_BACKENDS,
    sizes: tuple[str, ...] | None = None,
    rounds: int = 1,
    parity_only: bool = False,
) -> dict | None:
    """Run the scale benchmark and return a fresh record.

    Parity (distance backends in-process, executors × backends via small
    CVCP grids, and per-size label digests across the timed cells) is
    asserted before the record is assembled, so a fresh record certifies
    bit-identity, not just speed.  ``sizes`` restricts every backend to the
    named sizes; ``None`` uses :data:`DEFAULT_CELLS`.  With ``parity_only``
    the timed cells are skipped and nothing is recorded (``None``).
    """
    unknown = [name for name in backends if name not in DISTANCE_BACKENDS]
    if unknown:
        raise ValueError(f"unknown backend(s) {', '.join(unknown)}; expected {', '.join(DISTANCE_BACKENDS)}")
    if sizes is not None:
        unknown = [name for name in sizes if name not in SCALE_SIZES]
        if unknown:
            raise ValueError(f"unknown size(s) {', '.join(unknown)}; expected {', '.join(SCALE_SIZES)}")

    # Preflight the spill dir, then parity; timings are only recorded for
    # runs whose labels agree.
    check_spill_writable()
    assert_distance_backend_parity()
    if "neighbors" in backends:
        assert_neighbor_backend_parity()
    assert_executor_parity()
    if parity_only:
        return None

    values: dict[str, object] = {}
    for backend in backends:
        cell_sizes = sizes if sizes is not None else DEFAULT_CELLS[backend]
        for size_name in cell_sizes:
            n_samples = SCALE_SIZES[size_name]
            best: dict | None = None
            for _ in range(max(1, rounds)):
                cell = _run_cell_subprocess(backend, n_samples)
                if best is None or cell["wall_s"] < best["wall_s"]:
                    best = cell
            for leaf, value in best.items():
                values[f"{backend}/{size_name}/{leaf}"] = value
            values[f"{backend}/{size_name}/parity"] = True

    context = {
        "seed": SCALE_SEED,
        "sizes": dict(SCALE_SIZES),
        "budget_bytes": MEMORY_BUDGET_BYTES,
        "dense_projected_bytes": {name: projected_dense_peak_bytes(n) for name, n in SCALE_SIZES.items()},
        "rounds": max(1, rounds),
    }
    record = make_record("scale", values, METRICS, context=context)
    problems = checks(record["metrics"])
    if problems:
        raise RuntimeError(f"distance backends diverged (bit-identity is the contract): {problems[0]}")
    return record


def checks(metrics: dict) -> list[str]:
    """Label digests must agree across the exact backends at every size.

    Only the exact tiers carry the bit-identity contract; the neighbors
    tier is approximate and gated on ARI instead.  Every other cell is
    compared, so the ``dense/*`` cells of records written while
    ``"dense"`` named the ``blockwise`` tier are still checked.
    """
    digests: dict[str, dict[str, str]] = {}
    for name, entry in metrics.items():
        parts = name.split("/")
        if len(parts) == 3 and parts[2] == "labels_digest" and parts[0] != "neighbors":
            digests.setdefault(parts[1], {})[parts[0]] = entry["value"]
    return [
        f"{size}: label digests differ across backends: {per_backend}"
        for size, per_backend in digests.items()
        if len(set(per_backend.values())) > 1
    ]


def _cell_main(argv: list[str]) -> int:
    """Subprocess entry: run one cell and print its JSON measurement.

    Failures (unwritable spill dir, OOM-killed allocations surfacing as
    ``MemoryError``/``OSError``) exit 1 with a one-line reason on stderr,
    which the parent folds into its own one-line ``RuntimeError``.
    """
    backend, n_samples = argv[0], int(argv[1])
    try:
        check_spill_writable()
        measurement = run_cell(backend, n_samples)
    except (RuntimeError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(measurement))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if len(sys.argv) >= 4 and sys.argv[1] == "--cell":
        raise SystemExit(_cell_main(sys.argv[2:]))
    raise SystemExit("usage: python -m repro.bench.scale --cell BACKEND N")
