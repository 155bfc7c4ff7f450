"""The bench engine: one record schema, loader, gate, table and panel reader.

Every suite in :data:`repro.bench.SUITES` builds its record with
:func:`make_record`, and every record file (a fresh run, a committed
baseline, or pytest-benchmark JSON) is read through :func:`load_record`.
:func:`compare` gates a fresh record against a baseline, :func:`format_table`
prints one, and :func:`load_panels` turns a directory of ``BENCH_*.json``
files into the dashboard's bar panels.  The module uses the standard
library only, so the dashboard can import it without loading any suite.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, Mapping

from repro.bench import SUITES, Flag

__all__ = [
    "RecordError",
    "Spec",
    "compare",
    "format_table",
    "load_panels",
    "load_record",
    "make_record",
    "subset_filter",
]


@dataclass(frozen=True)
class Spec:
    """How one metric is reported and gated: its unit, direction and bounds.

    ``better`` is ``"lower"``, ``"higher"`` or ``None`` (values that only
    compare equal); ``gate`` is ``"exact"``, ``"floor"``, ``"budget"``,
    ``"slowdown"`` or ``None`` (recorded, not gated).
    """

    unit: str = ""
    better: str | None = None
    gate: str | None = None
    floor: float | None = None
    budget: float | None = None


class RecordError(ValueError):
    """A file that cannot be read as a bench record (missing, not JSON, wrong shape)."""


def make_record(
    suite: str,
    values: Mapping[str, object],
    specs: Mapping[str, Spec],
    *,
    context: dict,
    machine: dict | None = None,
) -> dict:
    """Assemble a record from measured ``values``.

    Each metric takes the first spec in ``specs`` whose name pattern
    (:func:`fnmatch.fnmatchcase`) matches it; floors and budgets are only
    attached to measured (non-``None``) values.
    """
    metrics: dict[str, dict] = {}
    for name, value in values.items():
        spec = next((spec for pattern, spec in specs.items() if fnmatchcase(name, pattern)), None)
        if spec is None:
            raise KeyError(f"{suite} suite declares no metric matching {name!r}")
        entry = {"value": value, "unit": spec.unit, "better": spec.better, "gate": spec.gate}
        if value is not None and spec.floor is not None:
            entry["floor"] = spec.floor
        if value is not None and spec.budget is not None:
            entry["budget"] = spec.budget
        metrics[name] = entry
    if machine is None:
        machine = {"cpu_count": os.cpu_count(), "python": platform.python_version()}
    return {"suite": suite, "machine": machine, "context": context, "metrics": metrics}


def load_record(path: str | os.PathLike[str], suite: str | None = None) -> dict:
    """Read one record file; ``suite`` (when given) must match its suite.

    pytest-benchmark ``--benchmark-json`` output is read as a ``parallel``
    record: each parametrised test ``name[param]`` contributes
    ``param/mean_s`` and one ``param/KEY`` metric per ``extra_info`` entry.

    Raises
    ------
    RecordError
        With a one-line reason, when the file is missing or unreadable, is
        not JSON, or is not a bench record of the requested suite.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise RecordError(f"cannot read bench record {path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecordError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(raw, dict) and isinstance(raw.get("benchmarks"), list):
        raw = _from_pytest_benchmark(raw, path)
    if not isinstance(raw, dict) or not isinstance(raw.get("suite"), str):
        kind = "object" if isinstance(raw, dict) else type(raw).__name__
        raise RecordError(
            f"{path} is not a bench record (expected a JSON object with 'suite' and "
            f"'metrics', got a JSON {'array' if kind == 'list' else kind})"
        )
    metrics = raw.get("metrics")
    entries = metrics.values() if isinstance(metrics, dict) else [None]
    if not all(isinstance(entry, dict) and "value" in entry for entry in entries):
        raise RecordError(
            f"{path}: malformed {raw['suite']} record: 'metrics' must map each name to "
            "{value, unit, better, gate} (truncated file?)"
        )
    if suite is not None and raw["suite"] != suite:
        raise RecordError(f"{path} is a {raw['suite']!r} bench record, not a {suite!r} one")
    return raw


def _from_pytest_benchmark(raw: dict, path: object) -> dict:
    values: dict[str, object] = {}
    for entry in raw["benchmarks"]:
        name = entry.get("name", "") if isinstance(entry, dict) else ""
        if "[" not in name or not name.endswith("]"):
            continue
        param = name[name.index("[") + 1 : -1]
        values[f"{param}/mean_s"] = entry.get("stats", {}).get("mean")
        for key, value in entry.get("extra_info", {}).items():
            values[f"{param}/{key}"] = value
    if not values:
        raise RecordError(f"{path}: pytest-benchmark record holds no parametrised benchmarks")
    specs = {"*/mean_s": Spec("s", "lower"), "*": Spec()}
    return make_record("parallel", values, specs, context={"source": "pytest-benchmark"}, machine={})


def subset_filter(flags: tuple[Flag, ...], options: Mapping[str, object]) -> Callable[[str], bool]:
    """Which metric names a run with ``options`` covers.

    A ``subset`` flag restricts one path segment to the values it was given
    (``--sizes small`` covers ``optics/small/speedup`` but not
    ``optics/large/speedup``); a flag left unset restricts nothing.
    """
    limits = [
        (flag.subset, set(options[flag.key]))
        for flag in flags
        if flag.subset is not None and options.get(flag.key) is not None
    ]

    def covers(name: str) -> bool:
        parts = name.split("/")
        return all(len(parts) > index and parts[index] in allowed for index, allowed in limits)

    return covers


def compare(
    fresh: dict,
    baseline: dict,
    *,
    max_slowdown: float,
    rss_slack: float | None = None,
    ran: Callable[[str], bool] | None = None,
    checks: Callable[[dict], list[str]] | None = None,
) -> list[str]:
    """Regression problems of a fresh record against a baseline.

    Every gated baseline metric with a value is checked: present in the
    fresh record (unless ``ran`` says this run did not cover it), equal for
    ``exact``, within ``max_slowdown`` (``rss_slack`` for byte counts) for
    ``slowdown``, and at or above its ``floor`` / at or below its
    ``budget`` where the baseline carries one.  ``checks`` adds the
    suite's comparisons inside the fresh record.  An empty list passes.
    """
    metrics = fresh["metrics"]
    problems: list[str] = []
    for name, base in baseline["metrics"].items():
        gate, reference = base.get("gate"), base.get("value")
        if gate is None or reference is None:
            continue
        value = metrics.get(name, {}).get("value")
        if value is None:
            if ran is None or ran(name):
                problems.append(f"{name}: in the baseline but missing from the fresh record")
            continue
        unit = base.get("unit", "")
        subject = f"{name}: {_text(value, unit)}"
        if gate != "exact" and not _is_number(value):
            problems.append(f"{subject} is not a number")
            continue
        if gate == "exact" and value != reference:
            problems.append(f"{subject} differs from the baseline's {_text(reference, unit)}")
        if gate == "slowdown" and reference:
            allowed = rss_slack if unit == "bytes" and rss_slack is not None else max_slowdown
            change = value / reference - 1.0
            if change > allowed:
                problems.append(
                    f"{subject} is {change:+.0%} vs baseline {_text(reference, unit)} "
                    f"(allowed {allowed:+.0%})"
                )
        if base.get("floor") is not None and value < base["floor"]:
            problems.append(f"{subject} is below the {_text(base['floor'], unit)} floor")
        if base.get("budget") is not None and value > base["budget"]:
            problems.append(f"{subject} exceeds the {_text(base['budget'], unit)} budget")
    if checks is not None:
        problems.extend(checks(metrics))
    return problems


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _text(value: object, unit: str = "") -> str:
    """One metric value for tables and problem lines."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if _is_number(value):
        if unit == "bytes":
            return f"{value / 2**20:.0f} MiB"
        if unit == "s":
            return f"{value:.4f}s"
        if unit in ("ms", "x"):
            return f"{value:.2f}{unit}"
        return f"{value:g}" + (f" {unit}" if unit else "")
    if isinstance(value, str):
        return value if len(value) <= 16 else value[:12] + "..."
    return json.dumps(value, sort_keys=True)


def _gate_text(entry: dict, fresh_value: object = None) -> str:
    """The gate column: the gate, the change vs the baseline, and any bounds."""
    gate = entry.get("gate")
    unit = entry.get("unit", "")
    if gate is None:
        return ""
    parts = [gate]
    if gate == "slowdown" and _is_number(fresh_value) and entry.get("value"):
        parts.append(f"{fresh_value / entry['value'] - 1.0:+.0%}")
    if entry.get("floor") is not None:
        parts.append(f">= {_text(entry['floor'], unit)}")
    if entry.get("budget") is not None:
        parts.append(f"<= {_text(entry['budget'], unit)}")
    return " ".join(parts)


def format_table(record: dict, baseline: dict | None = None) -> str:
    """Fixed-width table of a record's metrics (with baseline and gate columns)."""
    reference = baseline["metrics"] if baseline is not None else {}
    rows = [("metric", "value", "baseline", "gate")]
    for name, entry in record["metrics"].items():
        unit = entry.get("unit", "")
        base = reference.get(name)
        shown = "-" if base is None else _text(base["value"], unit)
        gate = _gate_text(entry) if base is None else _gate_text(base, entry["value"])
        rows.append((name, _text(entry["value"], unit), shown, gate))
    width = [max(len(row[column]) for row in rows) for column in range(3)]
    return "\n".join(
        f"{name:<{width[0]}}  {value:>{width[1]}}  {shown:>{width[2]}}  {gate}".rstrip()
        for name, value, shown, gate in rows
    )


def load_panels(bench_dir: str | os.PathLike[str]) -> list[dict]:
    """One dashboard bar panel per readable ``BENCH_*.json`` record.

    Baselines and fresh records alike: each panel is ``{title, unit, note,
    rows: [(label, value, floor)]}``, with rows chosen by the suite's
    :class:`~repro.bench.Panel`.  Unreadable files and suites without a
    panel are skipped; the dashboard reports what exists, it does not gate.
    """
    panels: list[dict] = []
    for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
        try:
            record = load_record(path)
        except RecordError:
            continue
        suite = SUITES.get(record["suite"])
        panel = suite.panel if suite is not None else None
        if panel is None:
            continue
        rows = [
            (name + suffix, float(entry["value"]) * scale, entry.get("floor"))
            for pattern, scale, suffix in panel.rows
            for name, entry in record["metrics"].items()
            if fnmatchcase(name, pattern) and _is_number(entry["value"])
        ]
        if rows:
            context = record.get("context")
            note = str(context.get("grid", "")) if isinstance(context, dict) else ""
            panels.append(dict(title=f"{panel.title} ({path.name})", unit=panel.unit, note=note, rows=rows))
    return panels
