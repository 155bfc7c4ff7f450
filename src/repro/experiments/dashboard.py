"""Static-HTML quality dashboard over bench baselines and fleet state.

``repro dashboard`` renders one self-contained HTML file (inline CSS +
SVG, no external assets, no JavaScript) aggregating:

* **Bench trajectory** — every ``BENCH_*.json`` record in the bench
  directory, committed baselines and fresh runs alike (parallel backends,
  kernel speedups, scale tiers, fleet speedups, online and text
  workloads), as one bar panel per record with per-row floor markers;
* **Fleet state** — per-grid completion, per-worker liveness and steal
  counters, lease health and cache hit/miss rates read from an artifact
  store's ``fleet/`` registry (when ``--artifacts-root`` is given);
* **Selection-accuracy drift** — robustness ``summary.json`` reports
  plotted as accuracy-vs-flip-rate lines per algorithm.

Every chart ships a table view (the accessibility fallback and the
mitigation for light-surface series colors), native ``<title>`` hover
tooltips, and a light/dark palette validated for color-vision-deficiency
separation.  Sections whose inputs are absent are omitted, so the same
command works in CI (bench files only) and beside a live fleet.
"""

from __future__ import annotations

import html
import json
import math
import os
import time
from pathlib import Path

from repro.experiments.artifacts import ArtifactStore
from repro.experiments.fleet import DEFAULT_LEASE_TTL_S, LeaseManager, read_worker_records

#: Fixed-order categorical slots (validated light *and* dark; see the
#: palette block in :data:`_CSS` — identity is never color-alone because
#: every panel direct-labels its rows and ships a table view).
_SERIES_CLASSES = ("s1", "s2", "s3")

_CHART_W = 640
_GUTTER = 170


# ----------------------------------------------------------------------
# Collectors


def collect_fleet_state(artifacts_root: str | os.PathLike[str]) -> dict | None:
    """Worker registry, lease health, completion and cache totals of a store."""
    root = Path(artifacts_root)
    if not root.is_dir():
        return None
    store = ArtifactStore(root)
    workers = read_worker_records(root, ttl_s=DEFAULT_LEASE_TTL_S)
    leases = LeaseManager(root, "dashboard").list_leases()
    n_units = max((record.get("n_units", 0) for record in workers), default=0)
    trial_count = store.count("trial")
    cache = {"hits": 0, "misses": 0, "writes": 0}
    steals = {"claimed": 0, "stolen": 0, "already_done": 0, "waits": 0}
    for record in workers:
        for name in cache:
            cache[name] += record.get("store", {}).get(name, 0)
        for name in steals:
            steals[name] += record.get("stats", {}).get(name, 0)
    return {
        "workers": workers,
        "leases": leases,
        "stale_leases": sum(1 for lease in leases.values() if lease["stale"]),
        "n_units": n_units,
        "done_units": min(trial_count, n_units) if n_units else trial_count,
        "trial_artifacts": trial_count,
        "cell_artifacts": store.count("cell"),
        "cache": cache,
        "steals": steals,
    }


def collect_drift(artifacts_root: str | os.PathLike[str]) -> list[dict]:
    """Selection-accuracy-vs-flip-rate series from robustness summaries.

    Returns one entry per robustness report found under
    ``<root>/reports/*/summary.json``:
    ``{report, series: {algorithm: [(flip_rate, mean_accuracy)]}}`` with
    the accuracy averaged across data sets and side-information amounts.
    """
    drifts: list[dict] = []
    for path in sorted(Path(artifacts_root).glob("reports/*/summary.json")):
        try:
            summary = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if summary.get("kind") != "robustness":
            continue
        series: dict[str, list[tuple[float, float]]] = {}
        for algorithm, per_amount in sorted(summary.get("results", {}).items()):
            accumulator: dict[float, list[float]] = {}
            for per_dataset in per_amount.values():
                for per_rate in per_dataset.values():
                    for rate, cell in per_rate.items():
                        accuracy = cell.get("selection_accuracy")
                        if accuracy is not None:
                            accumulator.setdefault(float(rate), []).append(float(accuracy))
            if accumulator:
                series[algorithm] = [
                    (rate, sum(values) / len(values)) for rate, values in sorted(accumulator.items())
                ]
        if series:
            drifts.append({"report": summary.get("name", path.parent.name), "series": series})
    return drifts


# ----------------------------------------------------------------------
# SVG building blocks


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 4.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for multiple in (1.0, 2.0, 5.0, 10.0):
        if raw <= multiple * magnitude:
            return multiple * magnitude
    return 10.0 * magnitude


def _fmt(value: float) -> str:
    return f"{value:g}" if value < 100 else f"{value:,.0f}"


def _hbar_path(x: float, y: float, width: float, height: float) -> str:
    # 4px rounded data-end, square at the baseline (left edge).
    radius = min(4.0, width, height / 2.0)
    return (
        f"M{x:.1f},{y:.1f} h{width - radius:.1f} "
        f"a{radius:.1f},{radius:.1f} 0 0 1 {radius:.1f},{radius:.1f} "
        f"v{height - 2 * radius:.1f} "
        f"a{radius:.1f},{radius:.1f} 0 0 1 {-radius:.1f},{radius:.1f} "
        f"h{-(width - radius):.1f} z"
    )


def _svg_bar_panel(rows: list[tuple[str, float, float | None]], unit: str) -> str:
    """Horizontal bar chart: 18px bars, rounded data-ends, floor ticks."""
    bar_h, row_h, top, bottom = 18, 26, 8, 26
    plot_w = _CHART_W - _GUTTER - 56
    height = top + row_h * len(rows) + bottom
    max_value = max((value for _, value, _ in rows), default=1.0)
    max_value = max(max_value, max((floor or 0.0 for _, _, floor in rows), default=0.0), 1e-9)
    step = _nice_step(max_value)
    axis_max = step * math.ceil(max_value / step)
    scale = plot_w / axis_max

    parts = [
        f'<svg viewBox="0 0 {_CHART_W} {height}" role="img" '
        f'font-family="system-ui, sans-serif" font-size="12">'
    ]
    tick = step
    while tick <= axis_max + 1e-9:
        x = _GUTTER + tick * scale
        parts.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{height - bottom}" class="grid"/>'
            f'<text x="{x:.1f}" y="{height - 8}" text-anchor="middle" class="muted">'
            f"{_fmt(tick)}{unit}</text>"
        )
        tick += step
    parts.append(
        f'<line x1="{_GUTTER}" y1="{top}" x2="{_GUTTER}" y2="{height - bottom}" class="axis"/>'
    )
    for index, (label, value, floor) in enumerate(rows):
        y = top + index * row_h + (row_h - bar_h) / 2
        width = max(1.0, value * scale)
        series = _SERIES_CLASSES[index % len(_SERIES_CLASSES)]
        tooltip = f"{label}: {value:.2f}{unit}"
        if floor is not None:
            tooltip += f" (floor {floor:g}{unit})"
        parts.append("<g>")
        parts.append(f"<title>{html.escape(tooltip)}</title>")
        parts.append(
            f'<text x="{_GUTTER - 8}" y="{y + bar_h - 5}" text-anchor="end" class="ink">'
            f"{html.escape(label)}</text>"
        )
        parts.append(f'<path d="{_hbar_path(_GUTTER, y, width, bar_h)}" class="{series}"/>')
        parts.append(
            f'<text x="{_GUTTER + width + 6}" y="{y + bar_h - 5}" class="ink">'
            f"{value:.2f}{unit}</text>"
        )
        if floor is not None:
            x = _GUTTER + floor * scale
            parts.append(
                f'<line x1="{x:.1f}" y1="{y - 2}" x2="{x:.1f}" y2="{y + bar_h + 2}" class="floor"/>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "".join(parts)


def _svg_line_panel(series: dict[str, list[tuple[float, float]]]) -> str:
    """Accuracy-vs-rate lines: 2px strokes, ringed 4.5px markers, end labels."""
    top, bottom, right = 12, 34, 96
    height, plot_h = 240, 240 - 12 - 34
    plot_w = _CHART_W - _GUTTER // 2 - right
    left = _GUTTER // 2
    xs = sorted({x for points in series.values() for x, _ in points})
    x_max = max(xs) if xs else 1.0
    x_scale = plot_w / x_max if x_max else plot_w

    def sx(x: float) -> float:
        return left + x * x_scale

    def sy(y: float) -> float:
        return top + (1.0 - y) * plot_h

    parts = [
        f'<svg viewBox="0 0 {_CHART_W} {height}" role="img" '
        f'font-family="system-ui, sans-serif" font-size="12">'
    ]
    for value in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(value)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" class="grid"/>'
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" class="muted">{value:g}</text>'
        )
    for x in xs:
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - 14}" text-anchor="middle" class="muted">{x:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 1}" text-anchor="middle" class="muted">'
        "constraint flip rate</text>"
    )
    for index, (name, points) in enumerate(sorted(series.items())):
        stroke = _SERIES_CLASSES[index % len(_SERIES_CLASSES)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" class="{stroke}-line" '
            'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
        for x, y in points:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4.5" class="{stroke} ring">'
                f"<title>{html.escape(name)} @ {x:g}: {y:.3f}</title></circle>"
            )
        if points:
            x, y = points[-1]
            parts.append(
                f'<text x="{sx(x) + 10:.1f}" y="{sy(y) + 4:.1f}" class="ink">'
                f"{html.escape(name)}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _svg_meter(fraction: float) -> str:
    """Completion meter: sequential fill over a lighter track of the same hue."""
    fraction = min(1.0, max(0.0, fraction))
    width, height = _CHART_W - 32, 18
    fill_w = width * fraction
    parts = [
        f'<svg viewBox="0 0 {_CHART_W} 28" role="img">',
        f"<title>grid completion {fraction:.0%}</title>",
        f'<rect x="16" y="5" width="{width}" height="{height}" rx="4" class="track"/>',
    ]
    if fill_w >= 1:
        parts.append(f'<path d="{_hbar_path(16, 5, fill_w, height)}" class="fill"/>')
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# HTML assembly

_CSS = """
:root { color-scheme: light dark; }
body.viz-root {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink-1: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  --seq-track: #cde2fb; --seq-fill: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --seq-track: #0d366b; --seq-fill: #3987e5;
  }
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; font-size: 13px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 16px 16px 10px; margin: 0 auto 16px; max-width: 680px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; max-width: 680px; margin: 0 auto 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 14px; min-width: 112px;
}
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 24px; font-weight: 600; }
.hero { font-size: 48px; font-weight: 600; line-height: 1.1; }
.note { color: var(--muted); font-size: 12px; margin: 6px 0 0; }
svg { display: block; width: 100%; height: auto; }
svg .grid { stroke: var(--gridline); stroke-width: 1; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg .floor { stroke: var(--ink-2); stroke-width: 1.5; }
svg .muted { fill: var(--muted); }
svg .ink { fill: var(--ink-1); }
svg .s1 { fill: var(--series-1); } svg .s1-line { stroke: var(--series-1); }
svg .s2 { fill: var(--series-2); } svg .s2-line { stroke: var(--series-2); }
svg .s3 { fill: var(--series-3); } svg .s3-line { stroke: var(--series-3); }
svg .ring { stroke: var(--surface-1); stroke-width: 2; }
svg .track { fill: var(--seq-track); } svg .fill { fill: var(--seq-fill); }
table { border-collapse: collapse; font-size: 13px; width: 100%; margin-top: 8px; }
th, td { text-align: left; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--gridline); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
details summary { color: var(--ink-2); font-size: 12px; cursor: pointer; margin-top: 6px; }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink-2); margin: 0 0 6px; }
.legend .chip { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 5px; }
.status-ok { color: var(--status-good); font-weight: 600; }
.status-lost { color: var(--status-critical); font-weight: 600; }
footer { max-width: 680px; margin: 20px auto 0; color: var(--muted); font-size: 12px; }
"""


def _bench_section(panels: list[dict]) -> list[str]:
    blocks: list[str] = []
    for panel in panels:
        rows = panel["rows"]
        unit = panel["unit"]
        table_rows = "".join(
            f"<tr><td>{html.escape(label)}</td><td class='num'>{value:.3f}{unit}</td>"
            f"<td class='num'>{f'{floor:g}{unit}' if floor is not None else '-'}</td></tr>"
            for label, value, floor in rows
        )
        blocks.append(
            "<section class='panel'>"
            f"<h2>{html.escape(panel['title'])}</h2>"
            + _svg_bar_panel(rows, unit)
            + (f"<p class='note'>{html.escape(panel['note'])}</p>" if panel["note"] else "")
            + "<details><summary>table view</summary><table>"
            "<tr><th>row</th><th class='num'>value</th><th class='num'>floor</th></tr>"
            f"{table_rows}</table></details></section>"
        )
    return blocks


def _fleet_section(state: dict) -> list[str]:
    cache = state["cache"]
    steals = state["steals"]
    requests = cache["hits"] + cache["misses"]
    hit_rate = f"{cache['hits'] / requests:.0%}" if requests else "n/a"
    alive = sum(1 for worker in state["workers"] if worker.get("alive"))
    fraction = state["done_units"] / state["n_units"] if state["n_units"] else 0.0

    tiles = [
        ("grid completion", f"{fraction:.0%}" if state["n_units"] else "n/a", True),
        ("workers alive", f"{alive}/{len(state['workers'])}", False),
        ("cache hit rate", hit_rate, False),
        ("units stolen", str(steals["stolen"]), False),
        ("trial artifacts", f"{state['trial_artifacts']:,}", False),
        ("cell artifacts", f"{state['cell_artifacts']:,}", False),
        ("stale leases", str(state["stale_leases"]), False),
    ]
    tile_html = "".join(
        f"<div class='tile'><div class='label'>{html.escape(label)}</div>"
        f"<div class='{'hero' if hero else 'value'}'>{html.escape(value)}</div></div>"
        for label, value, hero in tiles
    )
    blocks = [f"<section class='tiles'>{tile_html}</section>"]

    if state["n_units"]:
        blocks.append(
            "<section class='panel'><h2>Grid completion "
            f"({state['done_units']}/{state['n_units']} stealable units)</h2>"
            + _svg_meter(fraction)
            + "</section>"
        )

    worker_rows = []
    for record in sorted(state["workers"], key=lambda r: r.get("worker", "")):
        stats = record.get("stats", {})
        store_stats = record.get("store", {})
        alive_cell = (
            "<span class='status-ok'>&#9679; alive</span>"
            if record.get("alive")
            else "<span class='status-lost'>&#10007; LOST</span>"
        )
        worker_rows.append(
            f"<tr><td>{html.escape(str(record.get('worker', '?')))}</td>"
            f"<td>{html.escape(str(record.get('phase', '?')))}</td>"
            f"<td>{alive_cell}</td>"
            f"<td class='num'>{record.get('age_s', 0.0):.0f}s</td>"
            f"<td class='num'>{stats.get('claimed', 0)}</td>"
            f"<td class='num'>{stats.get('stolen', 0)}</td>"
            f"<td class='num'>{stats.get('already_done', 0)}</td>"
            f"<td class='num'>{store_stats.get('hits', 0)}</td>"
            f"<td class='num'>{store_stats.get('misses', 0)}</td></tr>"
        )
    if worker_rows:
        blocks.append(
            "<section class='panel'><h2>Worker liveness</h2><table>"
            "<tr><th>worker</th><th>phase</th><th>status</th><th class='num'>last seen</th>"
            "<th class='num'>claimed</th><th class='num'>stolen</th><th class='num'>reused</th>"
            "<th class='num'>hits</th><th class='num'>misses</th></tr>"
            + "".join(worker_rows)
            + "</table></section>"
        )
    return blocks


def _drift_section(drifts: list[dict]) -> list[str]:
    blocks: list[str] = []
    for drift in drifts:
        series = drift["series"]
        legend = "".join(
            f"<span><span class='chip' style='background: var(--series-{index + 1})'></span>"
            f"{html.escape(name)}</span>"
            for index, name in enumerate(sorted(series))
        )
        table_rows = "".join(
            f"<tr><td>{html.escape(name)}</td><td class='num'>{rate:g}</td>"
            f"<td class='num'>{accuracy:.3f}</td></tr>"
            for name in sorted(series)
            for rate, accuracy in series[name]
        )
        blocks.append(
            "<section class='panel'>"
            f"<h2>Selection-accuracy drift — {html.escape(drift['report'])}</h2>"
            f"<div class='legend'>{legend}</div>"
            + _svg_line_panel(series)
            + "<details><summary>table view</summary><table>"
            "<tr><th>algorithm</th><th class='num'>flip rate</th>"
            "<th class='num'>selection accuracy</th></tr>"
            f"{table_rows}</table></details></section>"
        )
    return blocks


def render_dashboard(
    *,
    bench_dir: str | os.PathLike[str] = ".",
    artifacts_root: str | os.PathLike[str] | None = None,
) -> str:
    """The full dashboard as one self-contained HTML document."""
    # Imported here so that importing the package does not load the bench
    # registry; the engine itself never loads a suite module.
    from repro.bench.engine import load_panels

    panels = load_panels(bench_dir)
    state = collect_fleet_state(artifacts_root) if artifacts_root else None
    drifts = collect_drift(artifacts_root) if artifacts_root else []

    body: list[str] = []
    if state is not None:
        body.extend(_fleet_section(state))
    body.extend(_drift_section(drifts))
    body.extend(_bench_section(panels))
    if not body:
        body.append(
            "<section class='panel'><h2>Nothing to report</h2>"
            "<p class='note'>No BENCH_*.json files in the bench directory and no "
            "artifact store given — run from the repository root or pass "
            "--bench-dir / --artifacts-root.</p></section>"
        )

    generated = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        "<title>repro quality dashboard</title>"
        f"<style>{_CSS}</style></head><body class='viz-root'>"
        "<header><h1>repro quality dashboard</h1>"
        "<p class='sub'>CVCP reproduction (Pourrajabi et al., EDBT 2014) &middot; "
        f"generated {generated}</p></header>"
        + "".join(body)
        + "<footer>Bars cap at their gated floor markers where a bench enforces one; "
        "every chart has a table view; colors follow a CVD-validated fixed-order "
        "palette in both light and dark mode.</footer></body></html>"
    )


def write_dashboard(
    out: str | os.PathLike[str],
    *,
    bench_dir: str | os.PathLike[str] = ".",
    artifacts_root: str | os.PathLike[str] | None = None,
) -> Path:
    """Render the dashboard and write it to ``out``; returns the path."""
    path = Path(out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        render_dashboard(bench_dir=bench_dir, artifacts_root=artifacts_root),
        encoding="utf-8",
    )
    return path
