"""One benchmark workload process: build the inputs, then time cold operations.

``run.py`` starts this file with the checkout's ``src/`` on ``PYTHONPATH``
and a fixed BLAS thread count. It prints one JSON line ``{"ready": ...}``
as soon as the inputs exist and, unless ``--setup-only`` is given, one JSON
line ``{"result": ...}`` when the measurement ends.

Every operation starts cold: the distance and structure memos are cleared
and the garbage collector runs first, and a pipeline pass gets a fresh
artifact store that is deleted afterwards. One untimed warm-up operation on
a small instance of the same shape runs before the first timed one.

``--pin SEED [SEED ...]`` instead runs one operation per workload and seed
and rewrites ``digests.json``, the result digests every run is checked
against.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
from repro.api import open_store, run_pipeline  # noqa: E402
from repro.clustering import FOSCOpticsDend  # noqa: E402
from repro.clustering.hierarchy import clear_structure_cache, structure_cache_stats  # noqa: E402
from repro.constraints.oracles import PerfectOracle  # noqa: E402
from repro.core import CVCP  # noqa: E402
from repro.core.executor import ExecutionSpec  # noqa: E402
from repro.datasets.synthetic import make_blobs  # noqa: E402
from repro.utils.cache import clear_distance_cache, distance_cache_stats  # noqa: E402

from spans import SpanRecorder  # noqa: E402

IMPORTED = time.monotonic()

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SCRATCH = ROOT / ".perfbench"

#: Hard stop for the measurement loop, in seconds since process start.
TIME_CAP = 120.0

MINPTS = (3, 6, 9, 12, 15, 18)
PAPER_MINPTS = (3, 6, 9, 12, 15, 18, 21, 24)

#: (report name, algorithm, scenario, data sets) of the paper_pipeline specs.
PIPELINE_SPECS = (
    ("fosc-labels", "fosc", "labels", ("Iris", "Wine", "Ecoli")),
    ("mpck-constraints", "mpck", "constraints", ("Iris", "Wine")),
)
WORKLOADS = ("structure_n3000", "paper_pipeline")
#: Artifact kinds whose hit ratio the traced run reports.
STORE_KINDS = ("cell", "structure", "trial")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ratio(hits: int, misses: int) -> float:
    """Hit ratio of a cache; 0.0 when it saw no requests."""
    return hits / (hits + misses) if hits + misses else 0.0


class Selection:
    """``structure_n3000``: one ``CVCP(FOSCOpticsDend, MinPts x 6, 10 folds).fit(..., refit=True)``.

    Scenario I on three 8-d blobs with ``n`` objects, 1% of them labelled.
    """

    root_layer = None

    def __init__(self, seed: int, *, n: int = 3000) -> None:
        # Overlapping blobs: fold scores below 1 and noise in the refit labels
        # give the result digest something to discriminate.
        data = make_blobs(
            [n // 3, n // 3, n - 2 * (n // 3)], 8, center_spread=3.0, random_state=seed,
            name="structure_n3000",
        )
        self.X = data.X
        self.labels = PerfectOracle().labeled_objects(data.y, 0.01, random_state=seed + 1)
        self.seed = seed

    def run(self, scratch: Path):
        search = CVCP(
            FOSCOpticsDend(), MINPTS, n_folds=10, refit=True, random_state=self.seed,
            execution=ExecutionSpec(backend="serial"),
        )
        return search.fit(self.X, labeled_objects=self.labels)

    def check(self, search) -> tuple[str, list[str]]:
        """Result digest, and what is wrong with the result on its face."""
        scores = [evaluation.fold_scores for evaluation in search.cv_results_.evaluations]
        labels = np.asarray(search.labels_, dtype=np.int64)
        selected = search.best_params_["min_pts"]
        problems = []
        if selected not in MINPTS:
            problems.append(f"selected min_pts {selected!r} is not in the grid")
        if any(not (math.isfinite(s) and 0.0 <= s <= 1.0) for row in scores for s in row):
            problems.append("a fold score is outside [0, 1]")
        if labels.shape != (self.X.shape[0],):
            problems.append(f"refit labels have shape {labels.shape}")
        record = {
            "selected": int(selected),
            "fold_scores": [[repr(float(s)) for s in row] for row in scores],
            "labels": sha256(labels.tobytes()),
        }
        return sha256(json.dumps(record, sort_keys=True).encode()), problems

    def store_counts(self, search) -> dict:
        return {}


class PaperPipeline:
    """Two paper-shaped comparison specs through ``repro.api.run_pipeline``."""

    root_layer = "pipeline"

    def __init__(self, seed: int, *, small: bool = False) -> None:
        self.seed = seed
        self.small = small

    def mapping(self, name: str, algorithm: str, scenario: str, datasets, root: Path) -> dict:
        return {
            "experiment": {
                "name": name, "kind": "comparison", "algorithm": algorithm,
                "scenario": scenario, "seed": self.seed,
                "amounts": [0.1] if self.small else [0.05, 0.1, 0.2],
                "datasets": list(datasets[:1] if self.small else datasets),
            },
            "parameters": {
                "n_trials": 1,
                "n_folds": 3 if self.small else 10,
                "minpts_range": list(PAPER_MINPTS[:3] if self.small else PAPER_MINPTS),
            },
            "execution": {"backend": "serial"},
            "artifacts": {"root": str(root)},
            "report": {"formats": ["txt", "json"]},
        }

    def run(self, scratch: Path):
        store = open_store(scratch)
        return [
            run_pipeline(self.mapping(*spec, scratch), store=store) for spec in PIPELINE_SPECS
        ]

    def check(self, reports) -> tuple[str, list[str]]:
        summaries = [
            next(path for path in report.report_paths if path.name == "summary.json").read_bytes()
            for report in reports
        ]
        problems = [
            f"{report.spec.name} produced no results"
            for report, summary in zip(reports, summaries)
            if not json.loads(summary)["results"]
        ]
        return sha256(b"".join(summaries)), problems

    def store_counts(self, reports) -> dict:
        by_kind: dict[str, dict[str, int]] = {}
        for report in reports:
            for kind, stats in report.stats["by_kind"].items():
                totals = by_kind.setdefault(kind, {"hits": 0, "misses": 0, "writes": 0})
                for field in totals:
                    totals[field] += stats[field]
        counts = {"store.writes": sum(stats["writes"] for stats in by_kind.values())}
        for kind in STORE_KINDS:
            stats = by_kind.get(kind, {"hits": 0, "misses": 0})
            counts[f"store.hit_ratio.{kind}"] = ratio(stats["hits"], stats["misses"])
        return counts


def make_workload(name: str, seed: int, *, warm_up: bool = False):
    if name == "paper_pipeline":
        return PaperPipeline(seed, small=warm_up)
    return Selection(seed, n=750 if warm_up else 3000)


def cold_state() -> None:
    clear_distance_cache()
    clear_structure_cache()
    gc.collect()


def run_op(workload, recorder: SpanRecorder | None, scratch_root: Path) -> dict:
    """One cold operation; returns its timings, digest and problems.

    The operation gets a fresh directory under ``scratch_root``. The caller
    deletes them all once the measurement ends, so no deletion overlaps a
    timed operation.
    """
    cold_state()
    scratch = Path(tempfile.mkdtemp(prefix="store-", dir=scratch_root))
    traced = recorder is not None
    wall = time.perf_counter()
    cpu = time.process_time()
    with recorder.operation() if traced else nullcontext() as trace_op:
        with recorder.span(workload.root_layer) if traced and workload.root_layer else nullcontext():
            result = workload.run(scratch)
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    digest, problems = workload.check(result)
    op = {"wall": wall, "cpu": cpu, "digest": digest, "problems": problems, "traced": traced}
    if traced:
        op["trace_op"] = trace_op
        structure, distances = structure_cache_stats(), distance_cache_stats()
        op["counts"] = {
            "constraints.pairs_out": recorder.counts["constraints.pairs_out"],
            "mpck.iterations": recorder.counts["mpck.iterations"],
            "store.bytes_written": recorder.counts["store.bytes_written"],
            "store.writes": 0,
            **{f"store.hit_ratio.{kind}": 0.0 for kind in STORE_KINDS},
            "structure.builds": structure.misses,
            "structure.memo_hit_ratio": ratio(structure.hits, structure.misses),
            "distances.cache_hit_ratio": ratio(distances.hits, distances.misses),
            **workload.store_counts(result),
        }
    return op


@contextmanager
def scratch_directory():
    """A directory under ``.perfbench/`` for this process, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def expected_digest(name: str, seed: int) -> str | None:
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return pinned.get(name, {}).get(str(seed))


def measure(args, workload, scratch_root: Path) -> dict:
    """Warm up, then run cold operations for ``args.seconds`` seconds."""
    run_op(make_workload(args.workload, args.seed, warm_up=True), None, scratch_root)
    recorder = SpanRecorder() if args.trace else None
    pinned = expected_digest(args.workload, args.seed)
    ops, attempted, failed = [], {False: 0, True: 0}, 0
    deadline = time.monotonic() + args.seconds
    while time.monotonic() - START < TIME_CAP:
        kinds = (False, True) if args.trace else (False,)
        enough = all(attempted[kind] >= args.min_ops for kind in kinds)
        if enough and time.monotonic() >= deadline:
            break
        traced = bool(args.trace) and attempted[False] > attempted[True]
        attempted[traced] += 1
        try:
            op = run_op(workload, recorder if traced else None, scratch_root)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        reference = pinned or (ops[0]["digest"] if ops else op["digest"])
        if op["problems"] or op["digest"] != reference:
            print(f"op failed its check: {op['problems'] or 'digest ' + op['digest']}", file=sys.stderr)
            failed += 1
            continue
        ops.append(op)
    return {
        "attempted": sum(attempted.values()),
        "failed": failed,
        "digest_pinned": pinned is not None,
        "ops": ops,
        "recorder": recorder,
    }


def summarize(args, measured: dict) -> dict:
    """End-to-end medians, and with tracing the per-layer breakdown of the median traced op."""
    untraced = [op for op in measured["ops"] if not op["traced"]]
    traced = [op for op in measured["ops"] if op["traced"]]
    result = {
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "digest_pinned": measured["digest_pinned"],
        "ops": len(untraced),
        "op_s_all": [op["wall"] for op in untraced],
        "peak_rss_mb": peak_rss_mb(),
        "environment": environment(),
    }
    if untraced:
        result["op_s"] = statistics.median(op["wall"] for op in untraced)
        result["op_cpu_s"] = statistics.median(op["cpu"] for op in untraced)
    recorder = measured["recorder"]
    if recorder is not None and traced and untraced:
        median_op = sorted(traced, key=lambda op: op["wall"])[(len(traced) - 1) // 2]
        layer_metrics = {}
        for layer, totals in recorder.layer_totals(median_op["trace_op"]).items():
            if layer in recorder.absent:
                continue
            layer_metrics[f"{layer}.self_s"] = totals["self_s"]
            layer_metrics[f"{layer}.calls"] = totals["calls"]
        layer_metrics.update(median_op["counts"])
        layer_metrics["trace.op_s"] = median_op["wall"]
        layer_metrics["trace.overhead_frac"] = (
            statistics.median(op["wall"] for op in traced) / result["op_s"] - 1.0
        )
        result["layers"] = layer_metrics
        result["absent_layers"] = recorder.absent
        result["counts_by_op"] = [op["counts"] for op in traced]
        trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": recorder.as_records()}))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through ctypes from the loaded library."""
    import ctypes

    maps = Path("/proc/self/maps").read_text().split()
    for library in sorted({word for word in maps if "openblas" in word and ".so" in word}):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def pin(seeds: list[int]) -> None:
    """Rewrite digests.json with one cold operation per workload and seed."""
    pinned = {}
    for name in WORKLOADS:
        pinned[name] = {}
        for seed in seeds:
            with scratch_directory() as scratch_root:
                op = run_op(make_workload(name, seed), None, scratch_root)
            if op["problems"]:
                raise SystemExit(f"{name} seed {seed}: {op['problems']}")
            pinned[name][str(seed)] = op["digest"]
            print(name, seed, op["digest"], f"{op['wall']:.2f}s", flush=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=5)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"repro was imported from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2
    if args.pin:
        pin(args.pin)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    data_start = time.monotonic()
    workload = make_workload(args.workload, args.seed)
    ready = time.monotonic()
    print(json.dumps({"ready": {
        "at": ready, "import_s": IMPORTED - START, "data_s": ready - data_start,
    }}), flush=True)
    if args.setup_only:
        return 0
    with scratch_directory() as scratch_root:
        measured = measure(args, workload, scratch_root)
    print(json.dumps({"result": summarize(args, measured)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
