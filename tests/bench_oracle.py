"""Reference harness: the per-suite bench code the ``repro.bench`` engine replaced.

Vendored verbatim from the seven ``repro/cli/bench*.py`` modules (only the
names are prefixed by suite) so the engine can be checked against the code
it replaces, the way ``tests/constraint_oracle.py`` keeps the dict-backed
constraint layer: ``*_normalize_record`` / ``*_compare_records`` are the
old record validation and gate of each suite, read against the frozen
pre-migration baselines in ``tests/data/bench_premigration/``.
:func:`migrate` converts one of those baselines to the one record schema;
``tests/test_bench_conversion.py`` checks that it reproduces the committed
``BENCH_*.json`` files and that both gates agree.
"""

from __future__ import annotations

from repro.bench.engine import Spec
from repro.core.executor import BACKENDS

#: Scale-gate constants of the old harness.  The exact tiers are frozen as
#: the old harness saw them: ``dense`` was a tier of its own then and is a
#: deprecated alias of ``blockwise`` now.
EXACT_DISTANCE_BACKENDS = ("dense", "blockwise", "memmap")
MEMORY_BUDGET_BYTES = 2 * 1024**3
ARI_FLOOR = 0.95


# ---------------------------------------------------------------- parallel
# repro/cli/bench.py

PARALLEL_SECTION = "bench_parallel_backends"


def _backend_from_test_name(name: str) -> str | None:
    if "[" not in name or not name.endswith("]"):
        return None
    candidate = name[name.index("[") + 1 : -1]
    return candidate if candidate in BACKENDS else None


def parallel_normalize_record(record: dict) -> dict[str, dict]:
    """Normalise a fresh record to ``{backend: {mean_s, best_params}}``.

    Accepts the CLI format (``{"kind": "repro-bench", "results": ...}``)
    and pytest-benchmark's ``--benchmark-json`` format.
    """
    if record.get("kind") == "repro-bench":
        return {
            backend: {"mean_s": entry["mean_s"], "best_params": entry.get("best_params", {})}
            for backend, entry in record["results"].items()
        }
    if "benchmarks" in record:
        normalized: dict[str, dict] = {}
        for entry in record["benchmarks"]:
            backend = _backend_from_test_name(entry.get("name", ""))
            if backend is None:
                continue
            normalized[backend] = {
                "mean_s": entry["stats"]["mean"],
                "best_params": entry.get("extra_info", {}).get("best_params", {}),
            }
        if not normalized:
            raise ValueError("pytest-benchmark record contains no recognised backend benchmarks")
        return normalized
    raise ValueError("unrecognised benchmark record (expected repro-bench or pytest-benchmark JSON)")


def parallel_compare_records(
    fresh: dict[str, dict],
    baseline: dict,
    *,
    max_slowdown: float = 0.25,
    expected_backends: tuple[str, ...] | None = None,
) -> list[str]:
    """Regression problems of a fresh record against the committed baseline.

    Returns an empty list when every backend matches the baseline's
    expected parameter selection and is at most ``max_slowdown`` (fraction,
    e.g. ``0.25`` = 25%) slower than the baseline wall-clock.

    ``expected_backends`` names the backends the fresh record was meant to
    cover — baseline backends outside it are not flagged as missing, so a
    deliberate ``--backends thread`` run can still be gated.  ``None``
    (the CI gate) requires every baselined backend to be present.
    """
    section = baseline.get(PARALLEL_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {PARALLEL_SECTION!r} section"]
    expected = section.get("expected_best_params", {})
    baseline_means = section.get("mean_s", {})

    problems: list[str] = []
    for backend, entry in sorted(fresh.items()):
        params = entry.get("best_params", {})
        if expected and params != expected:
            problems.append(f"{backend}: selected parameters {params} do not match baseline {expected}")
        base = baseline_means.get(backend)
        if base is None:
            continue
        slowdown = entry["mean_s"] / base - 1.0
        if slowdown > max_slowdown:
            problems.append(
                f"{backend}: {entry['mean_s']:.4f}s is {slowdown:+.0%} vs baseline "
                f"{base:.4f}s (allowed {max_slowdown:+.0%})"
            )
    for backend in sorted(baseline_means):
        if expected_backends is not None and backend not in expected_backends:
            continue
        if backend not in fresh:
            problems.append(f"{backend}: present in the baseline but missing from the fresh record")
    return problems


# ---------------------------------------------------------------- kernels
# repro/cli/bench_kernels.py

KERNELS_SECTION = "bench_kernels"


def kernels_normalize_record(record: dict) -> dict[str, dict[str, dict]]:
    """Normalise a fresh record to ``{kernel: {size: {..timings..}}}``.

    Raises
    ------
    ValueError
        If the record is not a ``repro-bench-kernels`` JSON or is missing
        its ``results`` section (e.g. a truncated CI artifact).
    """
    if record.get("kind") != "repro-bench-kernels":
        raise ValueError(
            "unrecognised kernel benchmark record (expected repro-bench-kernels JSON)"
        )
    results = record.get("results")
    if not isinstance(results, dict):
        raise ValueError(
            "malformed kernel benchmark record: missing its 'results' section"
        )
    return results


def kernels_compare_records(
    fresh: dict[str, dict[str, dict]],
    baseline: dict,
    *,
    max_slowdown: float = 0.25,
    expected_sizes: tuple[str, ...] | None = None,
) -> list[str]:
    """Regression problems of a fresh kernel record against the baseline.

    Returns an empty list when, for every ``(kernel, size)`` present in
    the baseline: the fresh record covers it with parity intact, its
    vectorized wall-clock is at most ``max_slowdown`` slower than the
    baseline, and its speedup is at least the baseline's per-kernel
    ``speedup_floor`` (a machine-independent ratio gate).

    ``expected_sizes`` names the sizes the fresh record was meant to cover
    — baseline sizes outside it are not flagged as missing, so a
    deliberate ``--sizes small`` run can still be gated (mirroring the
    grid bench's ``expected_backends``).  ``None`` (the CI gate) requires
    every baselined size to be present.
    """
    section = baseline.get(KERNELS_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {KERNELS_SECTION!r} section"]
    baseline_vectorized = section.get("vectorized_s", {})
    floors = section.get("speedup_floor", {})

    problems: list[str] = []
    for kernel in sorted(baseline_vectorized):
        fresh_kernel = fresh.get(kernel)
        if not fresh_kernel:
            problems.append(f"{kernel}: present in the baseline but missing from the fresh record")
            continue
        floor = floors.get(kernel)
        for size, base_s in sorted(baseline_vectorized[kernel].items()):
            if expected_sizes is not None and size not in expected_sizes:
                continue
            entry = fresh_kernel.get(size)
            if entry is None:
                problems.append(f"{kernel}/{size}: missing from the fresh record")
                continue
            vectorized_s = entry.get("vectorized_s")
            speedup = entry.get("speedup")
            if vectorized_s is None or speedup is None:
                problems.append(
                    f"{kernel}/{size}: malformed fresh entry (missing vectorized_s/speedup)"
                )
                continue
            if not entry.get("parity", False):
                problems.append(f"{kernel}/{size}: parity mismatch flagged in the fresh record")
            slowdown = vectorized_s / base_s - 1.0
            if slowdown > max_slowdown:
                problems.append(
                    f"{kernel}/{size}: vectorized {vectorized_s:.4f}s is "
                    f"{slowdown:+.0%} vs baseline {base_s:.4f}s (allowed {max_slowdown:+.0%})"
                )
            if floor is not None and speedup < floor:
                problems.append(
                    f"{kernel}/{size}: speedup {speedup:.2f}x is below the "
                    f"baseline floor {floor:.2f}x"
                )
    return problems


# ---------------------------------------------------------------- scale
# repro/cli/bench_scale.py

SCALE_SECTION = "bench_scale"


def scale_normalize_record(record: dict) -> dict[str, dict[str, dict]]:
    """Normalise a fresh record to ``{backend: {size: {..timings..}}}``.

    Raises
    ------
    ValueError
        If the record is not a ``repro-bench-scale`` JSON or is missing its
        ``results`` section (e.g. a truncated CI artifact).
    """
    if record.get("kind") != "repro-bench-scale":
        raise ValueError("unrecognised scale benchmark record (expected repro-bench-scale JSON)")
    results = record.get("results")
    if not isinstance(results, dict):
        raise ValueError("malformed scale benchmark record: missing its 'results' section")
    for backend, sizes in results.items():
        if not isinstance(sizes, dict) or not all(isinstance(e, dict) for e in sizes.values()):
            raise ValueError(
                f"malformed scale benchmark record: results[{backend!r}] is not a "
                "mapping of size -> cell (truncated artifact?)"
            )
    return results


def scale_compare_records(
    fresh: dict[str, dict[str, dict]],
    baseline: dict,
    *,
    max_slowdown: float = 0.25,
    rss_slack: float = 0.35,
    ari_floor: float = ARI_FLOOR,
    expected_cells: dict[str, tuple[str, ...]] | None = None,
) -> list[str]:
    """Regression problems of a fresh scale record against the baseline.

    For every ``(backend, size)`` cell present in the baseline (and, when
    ``expected_cells`` names a deliberate subset run, covered by it) the
    fresh record must: exist with its parity flag intact, agree on the
    label digest across the *exact* backends per size, stay within
    ``max_slowdown`` of the baseline wall-clock and within ``rss_slack`` of
    the baseline peak RSS — and memmap and neighbors cells must
    additionally stay under the absolute ``budget_bytes`` recorded in the
    baseline (the 2 GiB scale story).  Neighbors cells are exempt from the
    digest-equality check (the tier is approximate by contract) and are
    instead gated on ``ari_vs_exact >= ari_floor`` wherever the baseline
    recorded an exact-reference ARI for that cell.
    """
    section = baseline.get(SCALE_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {SCALE_SECTION!r} section"]
    baseline_wall = section.get("wall_s", {})
    baseline_rss = section.get("peak_rss_bytes", {})
    baseline_ari = section.get("ari_vs_exact", {})
    budget = section.get("budget_bytes", MEMORY_BUDGET_BYTES)

    problems: list[str] = []
    digests: dict[str, dict[str, str]] = {}
    for backend in sorted(baseline_wall):
        for size, base_wall in sorted(baseline_wall[backend].items()):
            if expected_cells is not None and size not in expected_cells.get(backend, ()):
                continue
            entry = fresh.get(backend, {}).get(size)
            if entry is None:
                problems.append(f"{backend}/{size}: missing from the fresh record")
                continue
            wall = entry.get("wall_s")
            rss = entry.get("peak_rss_bytes")
            if wall is None or rss is None:
                problems.append(f"{backend}/{size}: malformed fresh entry (missing wall_s/peak_rss_bytes)")
                continue
            if not entry.get("parity", False):
                problems.append(f"{backend}/{size}: parity mismatch flagged in the fresh record")
            if entry.get("labels_digest") and backend in EXACT_DISTANCE_BACKENDS:
                digests.setdefault(size, {})[backend] = entry["labels_digest"]
            slowdown = wall / base_wall - 1.0
            if slowdown > max_slowdown:
                problems.append(
                    f"{backend}/{size}: wall {wall:.2f}s is {slowdown:+.0%} vs "
                    f"baseline {base_wall:.2f}s (allowed {max_slowdown:+.0%})"
                )
            base_rss = baseline_rss.get(backend, {}).get(size)
            if base_rss:
                growth = rss / base_rss - 1.0
                if growth > rss_slack:
                    problems.append(
                        f"{backend}/{size}: peak RSS {rss / 2**20:.0f} MiB is "
                        f"{growth:+.0%} vs baseline {base_rss / 2**20:.0f} MiB "
                        f"(allowed {rss_slack:+.0%})"
                    )
            if backend in ("memmap", "neighbors") and rss > budget:
                problems.append(
                    f"{backend}/{size}: peak RSS {rss / 2**20:.0f} MiB exceeds the "
                    f"{budget / 2**20:.0f} MiB budget the {backend} tier must hold"
                )
            if backend == "neighbors" and baseline_ari.get(backend, {}).get(size) is not None:
                ari = entry.get("ari_vs_exact")
                if ari is None:
                    problems.append(
                        f"{backend}/{size}: fresh record is missing ari_vs_exact "
                        "(the baseline has an exact-reference ARI for this cell)"
                    )
                elif ari < ari_floor:
                    problems.append(
                        f"{backend}/{size}: ARI vs exact {ari:.3f} is below the "
                        f"{ari_floor:.2f} floor"
                    )
    for size, per_backend in digests.items():
        if len(set(per_backend.values())) > 1:
            problems.append(f"{size}: label digests differ across backends: {per_backend}")
    return problems


# ---------------------------------------------------------------- fleet
# repro/cli/bench_fleet.py

FLEET_SECTION = "bench_fleet"
FLEET_FLOORS: dict[str, float] = {"2": 1.6, "4": 2.4}


def fleet_normalize_record(record: dict) -> dict:
    """Validate the shape of a fresh record; returns it unchanged.

    Raises
    ------
    ValueError
        If the record is not a ``repro-bench-fleet`` JSON or is missing
        its ``workers``/``speedup`` sections (e.g. a truncated artifact).
    """
    if record.get("kind") != "repro-bench-fleet":
        raise ValueError("unrecognised fleet benchmark record (expected repro-bench-fleet JSON)")
    workers = record.get("workers")
    if not isinstance(workers, dict) or not all(isinstance(cell, dict) for cell in workers.values()):
        raise ValueError("malformed fleet benchmark record: missing its 'workers' section")
    if not isinstance(record.get("speedup"), dict):
        raise ValueError("malformed fleet benchmark record: missing its 'speedup' section")
    return record


def fleet_compare_records(
    fresh: dict,
    baseline: dict,
    *,
    max_slowdown: float = 0.75,
    expected_counts: tuple[str, ...] | None = None,
) -> list[str]:
    """Regression problems of a fresh fleet record against the baseline.

    Gates, in order of importance: the per-worker-count speedup floors
    committed in the baseline (machine-independent — the units are
    wall-clock sleeps), the store-parity flag of every measured worker
    count, the quickstart ``summary.json`` parity bit when the section was
    measured, and a generous budget on the serial (1-worker) wall-clock.
    """
    section = baseline.get(FLEET_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {FLEET_SECTION!r} section"]
    floors = section.get("floors", FLEET_FLOORS)

    problems: list[str] = []
    for count, floor in sorted(floors.items()):
        if expected_counts is not None and count not in expected_counts:
            continue
        observed = fresh.get("speedup", {}).get(count)
        if observed is None:
            problems.append(f"{count} workers: missing from the fresh record's speedup section")
            continue
        if observed < floor:
            problems.append(
                f"{count} workers: speedup {observed:.2f}x is below the {floor:.2f}x floor "
                "(work-stealing overhead regression)"
            )
    for count, cell in sorted(fresh.get("workers", {}).items()):
        if not cell.get("parity", False):
            problems.append(f"{count} workers: store parity mismatch (bit-identity is the contract)")
    quickstart = fresh.get("quickstart")
    if isinstance(quickstart, dict) and "skipped" not in quickstart:
        if not quickstart.get("parity", False):
            problems.append(
                "quickstart: multi-worker summary.json differs from the single-process run"
            )
    base_wall = section.get("wall_s", {}).get("1")
    fresh_wall = fresh.get("workers", {}).get("1", {}).get("wall_s")
    if base_wall and fresh_wall:
        slowdown = fresh_wall / base_wall - 1.0
        if slowdown > max_slowdown:
            problems.append(
                f"1 worker: wall {fresh_wall:.2f}s is {slowdown:+.0%} vs baseline "
                f"{base_wall:.2f}s (allowed {max_slowdown:+.0%})"
            )
    return problems


# ---------------------------------------------------------------- serve
# repro/cli/bench_serve.py

SERVE_SECTION = "bench_serve"
SERVE_FLOORS = {"cache_hit_rate": 0.99, "requests_per_s": 25.0}


def serve_normalize_record(record: dict) -> dict:
    """Validate the shape of a fresh serve record; returns it unchanged.

    Raises
    ------
    ValueError
        If the record is not a ``repro bench serve --json`` product.
    """
    if record.get("kind") != "repro-bench-serve":
        raise ValueError(
            "not a serve benchmark record (expected kind 'repro-bench-serve', "
            f"got {record.get('kind')!r})"
        )
    latency = record.get("latency")
    if not isinstance(latency, dict) or not {"requests_per_s", "p50_ms", "p99_ms"} <= set(
        latency
    ):
        raise ValueError("serve record is missing latency.requests_per_s/p50_ms/p99_ms")
    jobs = record.get("jobs")
    required = {
        "duplicates_absorbed",
        "wave_trials_computed",
        "expected_trials",
        "cache_hit_rate",
        "parity",
    }
    if not isinstance(jobs, dict) or not required <= set(jobs):
        raise ValueError(
            "serve record is missing jobs." + "/jobs.".join(sorted(required))
        )
    return record


def serve_compare_records(fresh: dict, baseline: dict, *, max_slowdown: float = 1.0) -> list[str]:
    """Regression problems of a fresh serve record against the baseline.

    Gates, in order of importance: report byte-parity with the batch run
    (the service's core contract), dedup of concurrent identical
    submissions, the cache-hit-rate and requests/sec floors committed in
    the baseline, and a generous p99 latency budget vs the baseline.
    """
    section = baseline.get(SERVE_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {SERVE_SECTION!r} section"]
    floors = section.get("floors", SERVE_FLOORS)

    problems: list[str] = []
    jobs = fresh.get("jobs", {})
    if not jobs.get("parity", False):
        problems.append(
            "served report bytes differ from the batch run's summary.json "
            "(byte-parity is the serve contract)"
        )
    computed = jobs.get("wave_trials_computed")
    expected = jobs.get("expected_trials")
    if computed != expected:
        problems.append(
            f"{jobs.get('clients')} concurrent identical submissions computed {computed} "
            f"trials where the spec holds {expected} (duplicate work: dedup/cache regression)"
        )
    if jobs.get("duplicates_absorbed", 0) < 1:
        problems.append(
            "no concurrent duplicate submission was absorbed into the active job "
            "(in-flight dedup regression)"
        )
    hit_floor = floors.get("cache_hit_rate")
    hit_rate = jobs.get("cache_hit_rate", 0.0)
    if hit_floor is not None and hit_rate < hit_floor:
        problems.append(
            f"cached rerun hit rate {hit_rate:.2f} is below the {hit_floor:.2f} floor "
            "(the second wave recomputed trials)"
        )
    rps_floor = floors.get("requests_per_s")
    rps = fresh.get("latency", {}).get("requests_per_s", 0.0)
    if rps_floor is not None and rps < rps_floor:
        problems.append(
            f"throughput {rps:.0f} req/s is below the {rps_floor:.0f} req/s floor"
        )
    base_p99 = section.get("latency", {}).get("p99_ms")
    fresh_p99 = fresh.get("latency", {}).get("p99_ms")
    if base_p99 and fresh_p99:
        slowdown = fresh_p99 / base_p99 - 1.0
        if slowdown > max_slowdown:
            problems.append(
                f"p99 latency {fresh_p99:.1f}ms is {slowdown:+.0%} vs baseline "
                f"{base_p99:.1f}ms (allowed {max_slowdown:+.0%})"
            )
    return problems


# ---------------------------------------------------------------- online
# repro/cli/bench_online.py

ONLINE_SECTION = "bench_online"
ONLINE_FLOORS = {"speedup": 5.0, "structure_hit_rate": 0.95}


def online_normalize_record(record: dict) -> dict:
    """Validate the shape of a fresh online record; returns it unchanged.

    Raises
    ------
    ValueError
        If the record is not a ``repro bench online --json`` product.
    """
    if record.get("kind") != "repro-bench-online":
        raise ValueError(
            "not an online benchmark record (expected kind 'repro-bench-online', "
            f"got {record.get('kind')!r})"
        )
    deltas = record.get("deltas")
    if not isinstance(deltas, list) or len(deltas) < 2:
        raise ValueError("online record needs a deltas list of at least 2 steps")
    for entry in deltas:
        if not isinstance(entry, dict) or not {
            "step",
            "cold_s",
            "incremental_s",
            "equivalent",
        } <= set(entry):
            raise ValueError(
                "every deltas entry needs step/cold_s/incremental_s/equivalent"
            )
    aggregate = record.get("aggregate")
    required = {"cold_s", "incremental_s", "speedup", "structure_hit_rate", "equivalent"}
    if not isinstance(aggregate, dict) or not required <= set(aggregate):
        raise ValueError(
            "online record is missing aggregate." + "/aggregate.".join(sorted(required))
        )
    return record


def online_compare_records(fresh: dict, baseline: dict, *, max_slowdown: float = 1.0) -> list[str]:
    """Regression problems of a fresh online record against the baseline.

    Gates, in order of importance: delta-equivalence with the cold runs
    (the incremental machinery's core contract), the steady-state
    speedup and structure-hit-rate floors committed in the baseline, and
    a generous incremental wall-clock budget vs the baseline.
    """
    section = baseline.get(ONLINE_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {ONLINE_SECTION!r} section"]
    floors = section.get("floors", ONLINE_FLOORS)

    problems: list[str] = []
    aggregate = fresh.get("aggregate", {})
    if not aggregate.get("equivalent", False):
        steps = [
            record.get("step") for record in fresh.get("deltas", []) if not record.get("equivalent")
        ]
        problems.append(
            f"incremental re-selection diverged from the cold run at deltas {steps} "
            "(delta-equivalence is the online contract)"
        )
    speedup_floor = floors.get("speedup")
    speedup = aggregate.get("speedup", 0.0)
    if speedup_floor is not None and speedup < speedup_floor:
        problems.append(
            f"steady-state speedup {speedup:.1f}x is below the {speedup_floor:.1f}x floor "
            "(incremental re-selection no longer beats the cold grid rerun)"
        )
    hit_floor = floors.get("structure_hit_rate")
    hit_rate = aggregate.get("structure_hit_rate", 0.0)
    if hit_floor is not None and hit_rate < hit_floor:
        problems.append(
            f"structure cache-hit rate {hit_rate:.2f} after the first delta is below the "
            f"{hit_floor:.2f} floor (incremental deltas are rebuilding tree structures)"
        )
    base_wall = section.get("aggregate", {}).get("incremental_s")
    fresh_wall = aggregate.get("incremental_s")
    if base_wall and fresh_wall:
        slowdown = fresh_wall / base_wall - 1.0
        if slowdown > max_slowdown:
            problems.append(
                f"incremental wall-clock {fresh_wall:.3f}s is {slowdown:+.0%} vs baseline "
                f"{base_wall:.3f}s (allowed {max_slowdown:+.0%})"
            )
    return problems


# ---------------------------------------------------------------- text
# repro/cli/bench_text.py

TEXT_SECTION = "bench_text"
TEXT_FLOORS = {"ari": 0.75, "memory_ratio": 1.5}


def text_normalize_record(record: dict) -> dict:
    """Validate the shape of a fresh text record; returns it unchanged.

    Raises
    ------
    ValueError
        If the record is not a ``repro bench text --json`` product.
    """
    if record.get("kind") != "repro-bench-text":
        raise ValueError(
            "not a text benchmark record (expected kind 'repro-bench-text', "
            f"got {record.get('kind')!r})"
        )
    parity = record.get("parity")
    required_parity = {
        "tiers_identical", "executors_identical", "precomputed_identical",
        "sparse_dense_close",
    }
    if not isinstance(parity, dict) or not required_parity <= set(parity):
        raise ValueError(
            "text record is missing parity." + "/parity.".join(sorted(required_parity))
        )
    if not isinstance(record.get("quality"), dict) or "ari" not in record["quality"]:
        raise ValueError("text record is missing quality.ari")
    timings = record.get("timings")
    required_timings = {"cosine_csr_s", "cosine_dense_s", "precomputed_s"}
    if not isinstance(timings, dict) or not required_timings <= set(timings):
        raise ValueError(
            "text record is missing timings." + "/timings.".join(sorted(required_timings))
        )
    memory = record.get("memory")
    if not isinstance(memory, dict) or not {"csr_peak_bytes", "dense_peak_bytes", "ratio"} <= set(memory):
        raise ValueError("text record is missing memory.csr_peak_bytes/dense_peak_bytes/ratio")
    return record


def text_compare_records(fresh: dict, baseline: dict, *, max_slowdown: float = 1.0) -> list[str]:
    """Regression problems of a fresh text record against the baseline.

    Gates, in order of importance: the parity flags (bit-identity across
    tiers/executors and the cosine/precomputed agreement are the metric
    stack's core contract), the ARI and memory-ratio floors committed in
    the baseline, and a generous wall-clock budget vs the baseline.
    """
    section = baseline.get(TEXT_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {TEXT_SECTION!r} section"]
    floors = section.get("floors", TEXT_FLOORS)

    problems: list[str] = []
    parity = fresh.get("parity", {})
    for flag, meaning in (
        ("tiers_identical", "the exact distance tiers diverged on sparse cosine"),
        ("executors_identical", "serial and process executors diverged on the text trial"),
        ("precomputed_identical", "metric='precomputed' no longer reproduces the cosine labels"),
        ("sparse_dense_close", "the CSR cosine kernel drifted from the dense kernel"),
    ):
        if not parity.get(flag, False):
            problems.append(f"parity.{flag} is false ({meaning})")

    ari_floor = floors.get("ari")
    ari = fresh.get("quality", {}).get("ari", 0.0)
    if ari_floor is not None and ari < ari_floor:
        problems.append(
            f"planted-topic ARI {ari:.3f} is below the {ari_floor:.2f} floor "
            "(cosine FOSC no longer recovers the topics)"
        )

    ratio_floor = floors.get("memory_ratio")
    ratio = fresh.get("memory", {}).get("ratio", 0.0)
    if ratio_floor is not None and ratio < ratio_floor:
        problems.append(
            f"dense/CSR peak-memory ratio {ratio:.2f} is below the {ratio_floor:.2f} floor "
            "(the sparse cosine path is densifying its input)"
        )

    for key in ("cosine_csr_s", "precomputed_s"):
        base_wall = section.get("timings", {}).get(key)
        fresh_wall = fresh.get("timings", {}).get(key)
        if base_wall and fresh_wall:
            slowdown = fresh_wall / base_wall - 1.0
            if slowdown > max_slowdown:
                problems.append(
                    f"{key} {fresh_wall:.4f}s is {slowdown:+.0%} vs baseline "
                    f"{base_wall:.4f}s (allowed {max_slowdown:+.0%})"
                )
    return problems


# ---------------------------------------------------------------- migration

#: Metric declarations of cells a suite has retired since the migration
#: (``repro.bench.kernels`` no longer times OPTICS); the frozen baselines
#: still hold those cells, so their migration needs the old declaration.
RETIRED_METRICS = {"kernels": {"optics/*/speedup": Spec("x", "higher", "floor", floor=1.5)}}


def migrate(old: dict, suite: str) -> dict:
    """Convert a pre-migration ``BENCH_<suite>.json`` to the one record schema.

    Every value of the old file lands in the new record: gated and measured
    numbers as metrics (declared by the suite module, so a migrated
    baseline has exactly the shape of a fresh record), descriptions and
    inputs in ``context``.  Parity flags the old gates implied for every
    baselined cell (kernels, scale) become explicit ``exact`` metrics.
    """
    from repro.bench import SUITES
    from repro.bench.engine import make_record

    section = old[f"bench_{'parallel_backends' if suite == 'parallel' else suite}"]
    context = {key: section[key] for key in ("grid", "protocol", "note") if key in section}
    values: dict[str, object] = {}
    if suite == "parallel":
        expected = section.get("expected_best_params", {})
        for backend, mean_s in sorted(section["mean_s"].items()):
            values[f"{backend}/mean_s"] = mean_s
            if expected:
                values[f"{backend}/best_params"] = expected
        context["fig5_fig6_history"] = {
            key: value for key, value in old.items() if key != "bench_parallel_backends"
        }
    elif suite == "kernels":
        sizes = section["sizes"]
        for kernel in sorted(section["vectorized_s"]):
            for size in sorted(section["vectorized_s"][kernel], key=sizes.get):
                for leaf in ("reference_s", "vectorized_s", "speedup"):
                    values[f"{kernel}/{size}/{leaf}"] = section[leaf][kernel][size]
                values[f"{kernel}/{size}/parity"] = True
        context["sizes"] = sizes
    elif suite == "scale":
        for backend in sorted(section["wall_s"]):
            for size in sorted(section["wall_s"][backend]):
                for leaf in ("wall_s", "peak_rss_bytes", "labels_digest", "ari_vs_exact"):
                    if size in section.get(leaf, {}).get(backend, {}):
                        values[f"{backend}/{size}/{leaf}"] = section[leaf][backend][size]
                values[f"{backend}/{size}/parity"] = True
        for key in ("sizes", "budget_bytes", "dense_projected_bytes"):
            context[key] = section[key]
    elif suite == "fleet":
        for count in sorted(section["wall_s"], key=int):
            values[f"{count}/wall_s"] = section["wall_s"][count]
            if count in section["speedup"]:
                values[f"{count}/speedup"] = section["speedup"][count]
            for name, total in section["steals"][count].items():
                values[f"{count}/{name}"] = total
        quickstart = section["quickstart"]
        for key in ("single_wall_s", "fleet_wall_s", "parity"):
            values[f"quickstart/{key}"] = quickstart[key]
        context.update(n_units=section["n_units"], unit_cost_s=section["unit_cost_s"])
        context["quickstart"] = {key: quickstart[key] for key in ("config", "n_workers")}
    elif suite == "serve":
        for group in ("latency", "jobs"):
            for key, value in section[group].items():
                values[f"{group}/{key}"] = value
    elif suite == "online":
        for delta in section["deltas"]:
            for key, value in delta.items():
                if key != "step":
                    values[f"delta/{delta['step']}/{key}"] = value
        for key, value in section["aggregate"].items():
            values[f"stream/{key}"] = value
        settings = section["settings"]
        context["grid"] = (
            f"{settings['dataset']}, {settings['n_deltas']} deltas, "
            "incremental re-selection vs cold accumulated replay"
        )
        context["settings"] = settings
    elif suite == "text":
        for group in ("parity", "quality", "timings", "memory"):
            for key, value in section[group].items():
                values[f"{group}/{key}"] = value
        settings = section["settings"]
        context["grid"] = (
            f"{settings['n_documents']} docs x {settings['vocabulary_size']} terms, "
            f"density {settings['density']:.3f}; parity asserted before timing"
        )
        context["settings"] = settings
    metrics = {**SUITES[suite].load().METRICS, **RETIRED_METRICS.get(suite, {})}
    machine = section.get("recorded_on", section.get("machine"))
    return make_record(suite, values, metrics, context=context, machine=machine)


def old_fresh_record(record: dict) -> dict:
    """Render a record of the one schema in its suite's old fresh-record format."""
    suite = record["suite"]
    tree: dict = {}
    for name, entry in record["metrics"].items():
        *groups, leaf = name.split("/")
        node = tree
        for group in groups:
            node = node.setdefault(group, {})
        node[leaf] = entry["value"]
    if suite in ("parallel", "kernels", "scale"):
        kind = "repro-bench" if suite == "parallel" else f"repro-bench-{suite}"
        return {"kind": kind, "results": tree}
    if suite == "fleet":
        quickstart = tree.pop("quickstart", None)
        fresh = {
            "kind": "repro-bench-fleet",
            "workers": {
                count: {
                    "wall_s": cell.get("wall_s"),
                    "parity": cell.get("parity"),
                    "stats": {key: cell[key] for key in ("claimed", "stolen", "already_done", "waits")
                              if key in cell},
                }
                for count, cell in tree.items()
            },
            "speedup": {count: cell["speedup"] for count, cell in tree.items() if "speedup" in cell},
        }
        if quickstart is not None:
            fresh["quickstart"] = quickstart
        return fresh
    if suite == "online":
        return {
            "kind": "repro-bench-online",
            "deltas": [{"step": int(step), **delta} for step, delta in tree.get("delta", {}).items()],
            "aggregate": tree.get("stream", {}),
        }
    return {"kind": f"repro-bench-{suite}", **tree}


#: The old gate of each suite, with the keyword that names a subset run.
OLD_GATES = {
    "parallel": (parallel_normalize_record, parallel_compare_records, "expected_backends"),
    "kernels": (kernels_normalize_record, kernels_compare_records, "expected_sizes"),
    "scale": (scale_normalize_record, scale_compare_records, "expected_cells"),
    "fleet": (fleet_normalize_record, fleet_compare_records, "expected_counts"),
    "serve": (serve_normalize_record, serve_compare_records, None),
    "online": (online_normalize_record, online_compare_records, None),
    "text": (text_normalize_record, text_compare_records, None),
}


def old_problems(record: dict, old_baseline: dict, **kwargs) -> list[str]:
    """The old harness's gate on ``record`` (rendered in its old format).

    Only the three suites whose ``normalize_record`` reshaped a record are
    normalised first; the others validated an unchanged record, and the
    gate is read directly as ``compare_records`` sees it.
    """
    suite = record["suite"]
    normalize, compare, _ = OLD_GATES[suite]
    fresh = old_fresh_record(record)
    if suite in ("parallel", "kernels", "scale"):
        fresh = normalize(fresh)
    return compare(fresh, old_baseline, **kwargs)
