"""The one-schema BENCH files and the bench engine against the harness they replaced.

Three properties, per suite:

* the frozen pre-migration baselines in ``tests/data/bench_premigration/``
  migrate to exactly the ``BENCH_*.json`` files committed by the migration,
  with every old value carried over (``BENCH_scale.json`` has since lost
  its ``dense/*`` cells and ``BENCH_kernels.json`` its ``optics/*`` cells,
  so those migrated files are frozen in ``tests/data/bench_migrated/`` and
  each committed one must equal its frozen copy minus those cells);
* the old gate (``tests/bench_oracle.py``) and :func:`repro.bench.engine.compare`
  reach the same pass/fail decision on each committed baseline replayed as
  a fresh record, and on perturbed copies: every gated value pushed just
  past and just inside its threshold, every parity flag flipped, every
  subset-run exemption exercised;
* the only disagreement is intended: a gated metric missing from a full
  run fails the new gate, where several old gates let it pass.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from pathlib import Path

import pytest

from bench_oracle import OLD_GATES, migrate, old_problems
from repro.bench import SUITES
from repro.bench.engine import compare, subset_filter

REPO_ROOT = Path(__file__).resolve().parent.parent
FROZEN = Path(__file__).resolve().parent / "data" / "bench_premigration"
#: ``BENCH_scale.json`` and ``BENCH_kernels.json`` as the migration wrote
#: them (both have lost cells since).
MIGRATED = Path(__file__).resolve().parent / "data" / "bench_migrated"
#: The suites whose committed file has lost cells since the migration.
SHRUNK_SUITES = ("scale", "kernels")
SUITE_NAMES = tuple(SUITES)

#: Gated metrics whose absence the old gates passed (``if base and fresh:``).
OLD_MISSING_PASSES = {
    ("fleet", "1/wall_s"),
    ("serve", "latency/p99_ms"),
    ("online", "stream/incremental_s"),
    ("text", "timings/cosine_csr_s"),
    ("text", "timings/precomputed_s"),
}


def frozen(suite: str) -> dict:
    return json.loads((FROZEN / f"BENCH_{suite}.json").read_text(encoding="utf-8"))


def committed(suite: str) -> dict:
    """The committed record as the migration wrote it."""
    root = MIGRATED if suite in SHRUNK_SUITES else REPO_ROOT
    return json.loads((root / f"BENCH_{suite}.json").read_text(encoding="utf-8"))


def replayed(suite: str) -> dict:
    """The committed baseline as a fresh record; fleet runs always record store parity."""
    record = committed(suite)
    if suite == "fleet":
        for count in ("1", "2", "4"):
            record["metrics"][f"{count}/parity"] = {"value": True, "unit": "", "better": None, "gate": None}
    return record


def leaves(value: object) -> list[str]:
    """Every scalar in a JSON document; a record kind or a delta's step is a name, not a value."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() if key not in ("kind", "step") for leaf in leaves(item)]
    if isinstance(value, list):
        return [leaf for item in value for leaf in leaves(item)]
    return [json.dumps(value)]


def old_options(suite: str, subset: dict | None) -> dict:
    options = {"max_slowdown": SUITES[suite].max_slowdown}
    keyword = OLD_GATES[suite][2]
    if subset is not None and keyword is not None:
        if suite == "scale":
            sizes = subset.get("sizes")
            cells = committed(suite)["metrics"]
            options[keyword] = {
                backend: tuple(
                    name.split("/")[1]
                    for name in cells
                    if name.startswith(backend + "/") and (sizes is None or name.split("/")[1] in sizes)
                )
                for backend in subset["backends"]
            }
        else:
            options[keyword] = tuple(next(iter(subset.values())))
    return options


def decisions(suite: str, record: dict, subset: dict | None = None) -> tuple[bool, bool]:
    """(old gate passes, new gate passes) for a fresh ``record``."""
    try:
        old_pass = not old_problems(record, frozen(suite), **old_options(suite, subset))
    except (KeyError, TypeError, ValueError):
        old_pass = False
    flags = SUITES[suite].flags
    ran = subset_filter(flags, subset) if subset is not None else None
    checks = getattr(SUITES[suite].load(), "checks", None)
    problems = compare(
        record,
        committed(suite),
        max_slowdown=SUITES[suite].max_slowdown,
        rss_slack=0.35 if suite == "scale" else None,
        ran=ran,
        checks=checks,
    )
    return old_pass, not problems


def perturbations(suite: str):
    """(label, record) pairs around every threshold and parity flag."""
    baseline = committed(suite)["metrics"]
    allowed = SUITES[suite].max_slowdown
    for name, base in baseline.items():
        value = base["value"]
        if value is None:
            continue
        bounds = []
        if base["gate"] == "slowdown":
            limit = value * (1 + (0.35 if base["unit"] == "bytes" else allowed))
            bounds += [("past", limit * (1 + 1e-6)), ("inside", limit * (1 - 1e-6))]
        if base.get("floor") is not None:
            floor = base["floor"]
            bounds += [("past", floor - 1e-6 * max(1.0, abs(floor))), ("inside", floor)]
        if base.get("budget") is not None:
            bounds += [("past", base["budget"] * (1 + 1e-6)), ("inside", base["budget"])]
        if base["gate"] == "exact":
            bounds.append(("flipped", not value) if isinstance(value, bool) else ("changed", {"min_pts": 6}))
        for label, new_value in bounds:
            record = replayed(suite)
            record["metrics"][name]["value"] = new_value
            yield f"{name} {label}", record
    record = replayed(suite)
    for name in list(record["metrics"]):
        if name.endswith("/parity") and suite == "fleet":
            flipped = copy.deepcopy(record)
            flipped["metrics"][name]["value"] = False
            yield f"{name} flipped", flipped
        if name.endswith("/labels_digest") and name.split("/")[0] != "neighbors":
            changed = copy.deepcopy(record)
            changed["metrics"][name]["value"] = "0" * 64
            yield f"{name} changed", changed
    if suite == "serve":
        extra = copy.deepcopy(record)
        extra["metrics"]["jobs/wave_trials_computed"]["value"] += 1
        yield "jobs/wave_trials_computed duplicated", extra


#: Subset runs: (suite, options as the CLI parses them, metric-name prefixes the run covers).
SUBSETS = [
    ("parallel", {"backends": ("serial",)}, ("serial/",)),
    ("parallel", {"backends": ("thread", "process")}, ("thread/", "process/")),
    ("kernels", {"sizes": ("small",)}, ("*/small/",)),
    ("kernels", {"sizes": ("small", "large")}, ("*/small/", "*/large/")),
    ("scale", {"backends": ("neighbors",), "sizes": ("n1200",)}, ("neighbors/n1200/",)),
    ("scale", {"backends": ("neighbors",), "sizes": None}, ("neighbors/",)),
    ("scale", {"backends": ("dense", "memmap"), "sizes": ("n1200", "n5000")},
     ("dense/n1200/", "dense/n5000/", "memmap/n1200/", "memmap/n5000/")),
    ("fleet", {"workers": ("1", "2")}, ("1/", "2/")),
]


def covered(name: str, prefixes: tuple[str, ...]) -> bool:
    from fnmatch import fnmatchcase

    return any(fnmatchcase(name, prefix + "*") for prefix in prefixes)


class TestMigration:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_frozen_baseline_migrates_to_the_committed_file(self, suite):
        assert migrate(frozen(suite), suite) == committed(suite)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_every_old_value_is_carried_over(self, suite):
        missing = Counter(leaves(frozen(suite))) - Counter(leaves(committed(suite)))
        assert not missing, f"values lost in migration: {sorted(missing)}"

    def test_committed_scale_file_is_the_migrated_one_without_dense_cells(self):
        migrated = committed("scale")
        migrated["metrics"] = {
            name: entry for name, entry in migrated["metrics"].items() if not name.startswith("dense/")
        }
        current = json.loads((REPO_ROOT / "BENCH_scale.json").read_text(encoding="utf-8"))
        assert current == migrated

    def test_committed_kernels_metrics_are_the_migrated_ones_without_optics_cells(self):
        migrated = committed("kernels")["metrics"]
        current = json.loads((REPO_ROOT / "BENCH_kernels.json").read_text(encoding="utf-8"))
        retired = sorted(set(migrated) - set(current["metrics"]))
        assert retired == sorted(
            f"optics/{size}/{metric}"
            for size in ("small", "medium", "large")
            for metric in ("reference_s", "vectorized_s", "speedup", "parity")
        )
        assert current["metrics"] == {
            name: entry for name, entry in migrated.items() if name not in retired
        }

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_committed_file_has_the_shape_of_a_fresh_record(self, suite):
        record = committed(suite)
        assert set(record) == {"suite", "machine", "context", "metrics"}
        assert record["suite"] == suite
        assert set(record["machine"]) == {"cpu_count", "python"}
        for entry in record["metrics"].values():
            assert {"value", "unit", "better", "gate"} <= set(entry) <= {
                "value", "unit", "better", "gate", "floor", "budget",
            }


class TestGateDecisions:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_committed_baseline_replayed_passes_both_gates(self, suite):
        assert decisions(suite, replayed(suite)) == (True, True)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_perturbed_copies_get_the_same_decision(self, suite):
        seen = Counter()
        for label, record in perturbations(suite):
            old_pass, new_pass = decisions(suite, record)
            assert old_pass == new_pass, label
            seen[label.rsplit(" ", 1)[1], new_pass] += 1
        # Every threshold was crossed both ways.
        assert not seen["past", True] and not seen["flipped", True]
        if seen["past", False]:
            assert seen["inside", True]

    @pytest.mark.parametrize(("suite", "subset", "prefixes"), SUBSETS)
    def test_subset_runs_are_exempt_only_from_what_they_did_not_run(self, suite, subset, prefixes):
        record = replayed(suite)
        record["metrics"] = {
            name: entry for name, entry in record["metrics"].items() if covered(name, prefixes)
        }
        assert decisions(suite, record, subset) == (True, True)
        # The same record as a full run is missing the rest of the baseline.
        assert decisions(suite, record) == (False, False)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_missing_gated_metric_fails_the_new_gate(self, suite):
        baseline = committed(suite)["metrics"]
        for name, base in baseline.items():
            if base["gate"] is None or base["value"] is None:
                continue
            record = replayed(suite)
            del record["metrics"][name]
            old_pass, new_pass = decisions(suite, record)
            assert not new_pass, name
            assert old_pass == ((suite, name) in OLD_MISSING_PASSES), name
