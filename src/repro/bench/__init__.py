"""One benchmark harness: the suite registry behind ``repro bench [SUITE]``.

Seven suites guard the repository's committed ``BENCH_*.json`` gates.
Each suite module (``repro.bench.parallel``, ``.kernels``, ``.scale``,
``.fleet``, ``.serve``, ``.online``, ``.text``) holds only its measurement
code, the parity checks it asserts before any timing counts, and a
declaration of its metrics; a few add one ``checks`` function comparing
values inside a single fresh record.  A suite module is imported only when
its suite runs: this registry is plain data, so ``repro run``, ``serve``
and ``status`` never pay for the harness.

Everything the suites share lives in :mod:`repro.bench.engine`: the record
schema, the loader, the gate comparison (subset runs included), the table
formatter and the dashboard reader.

**The record schema.**  A record is one JSON object:

    {"suite": "kernels",
     "machine": {"cpu_count": 1, "python": "3.11.7"},
     "context": {...free-form description of the workload...},
     "metrics": {"fosc/large/speedup": {"value": 8.93, "unit": "x",
                                        "better": "higher", "gate": "floor",
                                        "floor": 1.3}, ...}}

Metric names are ``/``-separated paths.  ``gate`` is one of ``exact``
(equal to the baseline's value), ``floor`` (at least the metric's
``floor``), ``budget`` (at most its ``budget``) or ``slowdown`` (at most
``--max-slowdown`` above the baseline's value; ``--rss-slack`` for byte
counts), or ``null`` for values recorded but not gated.  A ``floor`` or
``budget`` applies whenever the baseline's metric carries one.  A
committed baseline is a recorded run plus its floors and budgets, so fresh
records and baselines have one shape, and only the baseline's gates,
floors and budgets decide a comparison.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType

__all__ = ["DEFAULT_SUITE", "SUITES", "Flag", "Panel", "Suite"]


@dataclass(frozen=True)
class Flag:
    """One run flag of a suite, as ``repro bench SUITE`` parses it.

    ``csv`` flags take a comma-separated list and reach the suite as a
    tuple of strings.  ``subset`` names the metric-path segment the list
    restricts: a run over part of the list is gated only on the metrics it
    covers.
    """

    name: str
    help: str
    default: object = None
    type: type = str
    csv: bool = False
    subset: int | None = None
    switch: bool = False

    @property
    def key(self) -> str:
        """The keyword the suite's ``run`` receives this flag as."""
        return self.name.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Panel:
    """The dashboard bar panel of a suite's records.

    ``rows`` are ``(metric-name pattern, display scale, label suffix)``
    triples, drawn in order; the bars carry each metric's floor marker.
    """

    title: str
    unit: str
    rows: tuple[tuple[str, float, str], ...]


@dataclass(frozen=True)
class Suite:
    """One registered suite: where its code lives and how it is run."""

    module: str
    help: str
    description: str
    max_slowdown: float
    flags: tuple[Flag, ...] = ()
    panel: Panel | None = None

    def load(self) -> ModuleType:
        """Import the suite module (only done when the suite runs or gates)."""
        return importlib.import_module(self.module)


#: The suite ``repro bench`` runs when no suite name is given.
DEFAULT_SUITE = "parallel"

SUITES: dict[str, Suite] = {
    "parallel": Suite(
        module="repro.bench.parallel",
        help="time the CVCP grid per backend and compare against a baseline",
        description=(
            "Run the fixed small benchmark grid on each execution backend, or load a "
            "fresh record with --compare (a repro bench record or pytest-benchmark "
            "JSON), and optionally gate it against the committed BENCH_parallel.json "
            "baseline (exit 1 on a selection mismatch or a slowdown beyond "
            "--max-slowdown)."
        ),
        max_slowdown=0.25,
        flags=(
            Flag(
                "--backends",
                "comma-separated backends to run",
                default=("serial", "thread", "process"),
                csv=True,
                subset=0,
            ),
            Flag("--n-jobs", "workers for the parallel backends", default=2, type=int),
            Flag("--rounds", "timing rounds per backend; best is kept", default=1, type=int),
        ),
        panel=Panel("Executor backends — grid wall-clock", "s", (("*/mean_s", 1.0, ""),)),
    ),
    "kernels": Suite(
        module="repro.bench.kernels",
        help="micro-benchmark the vectorised clustering kernels vs their reference loops",
        description=(
            "Time each of the three hot clustering kernels (single-linkage MST + "
            "dendrogram, FOSC condensed-tree extraction, MPCK-Means assignment) against "
            "its reference oracle at three problem sizes, assert that the two are "
            "bit-identical, and optionally gate the record against the committed "
            "BENCH_kernels.json baseline (exit 1 on a parity mismatch, a slowdown beyond "
            "--max-slowdown, or a speedup below the baseline's per-kernel floor)."
        ),
        max_slowdown=0.25,
        flags=(
            Flag(
                "--sizes",
                "comma-separated problem sizes to run",
                default=("small", "medium", "large"),
                csv=True,
                subset=1,
            ),
            Flag(
                "--rounds",
                "timing rounds per kernel and implementation; best is kept",
                default=1,
                type=int,
            ),
        ),
        panel=Panel("Kernel speedup vs reference loops", "x", (("*/large/speedup", 1.0, ""),)),
    ),
    "scale": Suite(
        module="repro.bench.scale",
        help="benchmark the distance backends at large n (wall-clock + peak RSS)",
        description=(
            "Time one full density-clustering fit per (distance backend × problem size) "
            "cell, each in a fresh subprocess with a cold spill directory, recording "
            "wall-clock and peak RSS. Label bit-identity across backends and across the "
            "serial/thread/process executors is asserted before any timing is recorded. "
            "Optionally gate the record against the committed BENCH_scale.json baseline "
            "(exit 1 on a parity mismatch, a wall-clock slowdown beyond --max-slowdown, "
            "an RSS growth beyond --rss-slack, an ARI below its floor, or a memmap or "
            "neighbors cell above the memory budget)."
        ),
        max_slowdown=0.25,
        flags=(
            Flag(
                "--backends",
                "comma-separated distance backends to run",
                default=("blockwise", "memmap", "neighbors"),
                csv=True,
                subset=0,
            ),
            Flag(
                "--sizes",
                help=(
                    "comma-separated sizes to run for every backend (n1200, n5000, n10000, "
                    "n100000; default: the per-backend schedule: blockwise up to n5000, "
                    "memmap up to n10000, neighbors up to n100000)"
                ),
                csv=True,
                subset=1,
            ),
            Flag("--rounds", "timing rounds per cell; best wall-clock is kept", default=1, type=int),
            Flag(
                "--parity-only",
                "assert backend and executor parity, skip the timed cells (CI smoke)",
                default=False,
                switch=True,
            ),
            Flag("--rss-slack", "allowed fractional peak-RSS growth vs baseline", default=0.35, type=float),
        ),
        panel=Panel("Distance-backend scale tiers — wall-clock", "s", (("*/*/wall_s", 1.0, ""),)),
    ),
    "fleet": Suite(
        module="repro.bench.fleet",
        help="benchmark work-stealing wall-clock vs worker count (1/2/4)",
        description=(
            "Drain a grid of fixed-cost synthetic units through the real lease/steal/store "
            "machinery at several worker counts (each worker a fresh subprocess sharing one "
            "store), recording wall-clock, speedup and store parity; optionally also run the "
            "quickstart pipeline single-process vs 2-worker and assert summary.json "
            "byte-identity. Gate the record against the committed BENCH_fleet.json baseline "
            "(exit 1 when a speedup drops below its floor or any parity bit is false)."
        ),
        max_slowdown=0.75,
        flags=(
            Flag(
                "--workers",
                "comma-separated worker counts to measure",
                default=("1", "2", "4"),
                csv=True,
                subset=0,
            ),
            Flag("--units", "synthetic units in the scheduling grid", default=32, type=int),
            Flag("--unit-cost", "fixed wall-clock cost per unit in seconds", default=0.25, type=float),
            Flag(
                "--no-quickstart",
                "skip the real-grid quickstart parity section (scheduling grid only)",
                default=False,
                switch=True,
            ),
        ),
        panel=Panel("Fleet work-stealing speedup vs 1 worker", "x", (("*/speedup", 1.0, ""),)),
    ),
    "serve": Suite(
        module="repro.bench.serve",
        help="load-benchmark the repro serve HTTP layer (rps, p99, dedup, cache, parity)",
        description=(
            "Spin an in-process server on an ephemeral port and measure the service "
            "contract: health-check throughput and latency percentiles, dedup of "
            "concurrent identical submissions, the cached-rerun hit rate, and report "
            "byte-parity with a batch run of the same spec. Gate the record against the "
            "committed BENCH_serve.json baseline (exit 1 when parity or dedup breaks, a "
            "floor is missed, or p99 regresses beyond --max-slowdown)."
        ),
        max_slowdown=1.0,
        flags=(
            Flag("--clients", "concurrent submitting clients", default=8, type=int),
            Flag("--requests", "health-check round-trips in the latency phase", default=200, type=int),
            Flag("--workers", "server worker-pool size during the bench", default=2, type=int),
        ),
    ),
    "online": Suite(
        module="repro.bench.online",
        help="benchmark incremental constraint-stream re-selection vs cold replays",
        description=(
            "Replay the quickstart constraint stream and, per delta, time the "
            "incremental re-selection (warm structure memo + carried-forward "
            "artifact store) against a from-scratch replay of the accumulated "
            "stream.  Both paths are asserted bit-identical before any timing "
            "counts.  With --baseline, gates the record against the committed "
            "BENCH_online.json floors (exit 1 on divergence or a broken floor)."
        ),
        max_slowdown=1.0,
        flags=(Flag("--deltas", "constraint-stream deltas to replay", default=8, type=int),),
        panel=Panel(
            "Incremental CVCP speedup vs cold replay",
            "x",
            (("delta/*/speedup", 1.0, ""), ("stream/speedup", 1.0, "")),
        ),
    ),
    "text": Suite(
        module="repro.bench.text",
        help="benchmark the sparse text workload (CSR cosine, precomputed, ARI, memory)",
        description=(
            "Benchmark the metric stack on a planted-topic TF-IDF corpus: the CSR "
            "cosine kernel vs its densified run (wall-clock and tracemalloc peaks), "
            "the precomputed pass-through, and the planted-topic ARI of cosine "
            "FOSC-OPTICSDend.  Distance-tier, executor and cosine/precomputed "
            "parity are asserted bit-identical before any timing counts.  With "
            "--baseline, gates the record against the committed BENCH_text.json "
            "floors (exit 1 on a parity break, a broken floor, or a regression)."
        ),
        max_slowdown=1.0,
        flags=(Flag("--rounds", "timing repetitions per kernel", default=3, type=int),),
        panel=Panel(
            "Sparse text workload — cosine + precomputed",
            "",
            (("timings/*", 1e3, " (ms)"), ("quality/ari", 1.0, ""), ("memory/ratio", 1.0, "")),
        ),
    ),
}
