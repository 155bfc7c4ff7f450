"""``repro bench fleet``: work-stealing wall-clock against the worker count.

Measures how close the work-stealing layer (:mod:`repro.experiments.fleet`)
gets to the ideal 1/N wall-clock as the worker count grows, in a way that
is honest on any machine — including single-core CI runners:

* **Scheduling grid** — ``N_UNITS`` synthetic units of a fixed, known cost
  (a plain ``time.sleep``, which consumes no CPU) are drained through the
  *real* machinery: every worker is a fresh subprocess running
  :class:`~repro.experiments.fleet.LeaseManager` claims,
  :func:`~repro.experiments.fleet.work_steal` passes and content-addressed
  completion writes against a shared
  :class:`~repro.experiments.artifacts.ArtifactStore`.  Because the unit
  cost is wall-clock rather than CPU, N workers genuinely finish in
  ~1/N of the serial time on *one* core, so the measured speedup isolates
  exactly what this bench is about: claim/steal/heartbeat/poll overhead.
  Workers synchronise on a shared start barrier and the recorded wall is
  the longest *drain* phase — interpreter startup is a fixed per-process
  cost that amortizes to nothing on real grids, so including it would
  gate numpy's import time instead of the scheduler.
  The resulting store must be byte-identical across worker counts.
* **Quickstart parity** — the real quickstart pipeline is run once
  single-process and once with two ``repro run --worker`` processes
  sharing a store; the two ``summary.json`` files must be byte-identical
  (wall-clocks are recorded as context, not gated: real units are
  CPU-bound, so their scaling is machine-dependent).

``BENCH_fleet.json`` commits the recorded baseline; fresh records are
gated on the per-worker-count speedup floors (machine-independent) and a
generous serial wall-clock budget.  :func:`checks` requires every parity
flag inside the record to hold: the store parity of each measured worker
count and, when it ran, the quickstart ``summary.json`` parity.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.bench.engine import Spec, make_record
from repro.experiments.artifacts import ArtifactStore, key_digest
from repro.experiments.fleet import LeaseManager, work_steal

#: Synthetic scheduling-grid shape: units × fixed per-unit wall cost.
N_UNITS = 32
UNIT_COST_S = 0.25

#: Lease TTL inside the bench workers (stealing is not the point here,
#: but a crashed bench run must not poison the next one's store).
_BENCH_TTL_S = 15.0

#: Artifact kind of the synthetic units.
UNIT_KIND = "fleetbench"

METRICS = {
    "1/wall_s": Spec("s", "lower", "slowdown"),
    # Minimum speedup per worker count (vs 1 worker).
    "2/speedup": Spec("x", "higher", "floor", floor=1.6),
    "4/speedup": Spec("x", "higher", "floor", floor=2.4),
    "*/speedup": Spec("x", "higher"),
    "*_s": Spec("s", "lower"),
    "*/parity": Spec(),
    "*/store_digest": Spec(),
    "*": Spec("count"),
}


def synthetic_unit_keys(n_units: int, unit_cost_s: float) -> list[dict]:
    """Content-addressed keys of the synthetic scheduling units."""
    cost_ms = int(round(unit_cost_s * 1000))
    return [
        {"bench": "fleet-steal", "unit": index, "n_units": int(n_units), "cost_ms": cost_ms}
        for index in range(n_units)
    ]


def store_digest(root: str | Path) -> str:
    """Content digest of every synthetic-unit artifact (the parity token)."""
    import hashlib

    kind_dir = Path(root) / UNIT_KIND
    digest = hashlib.sha256()
    for path in sorted(kind_dir.rglob("*.json")):
        digest.update(path.relative_to(kind_dir).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    return env


def _spawn_worker(root: Path, n_units: int, unit_cost_s: float, worker_id: str) -> subprocess.Popen:
    cost_ms = int(round(unit_cost_s * 1000))
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.bench.fleet",
            "--worker",
            str(root),
            str(n_units),
            str(cost_ms),
            str(_BENCH_TTL_S),
            worker_id,
        ],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _await_barrier(root: Path, n_workers: int, procs: list[subprocess.Popen]) -> None:
    """Wait until every worker posted its ready file, then release them."""
    deadline = time.monotonic() + 120.0
    while sum(1 for _ in root.glob("ready-*")) < n_workers:
        if any(proc.poll() not in (None, 0) for proc in procs):
            break  # a worker died before the barrier; _drain_workers reports it
        if time.monotonic() > deadline:
            for proc in procs:
                proc.kill()
            raise RuntimeError("fleet bench workers did not reach the start barrier within 120s")
        time.sleep(0.01)
    (root / "go").touch()


def _drain_workers(procs: list[subprocess.Popen], *, what: str) -> list[dict]:
    """Wait for every worker; returns their printed stats records."""
    stats: list[dict] = []
    failures: list[str] = []
    for proc in procs:
        try:
            stdout, stderr = proc.communicate(timeout=600)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            failures.append(f"{what}: worker timed out; stderr: {stderr.strip()[-400:]}")
            continue
        if proc.returncode != 0:
            failures.append(
                f"{what}: worker exited with code {proc.returncode}; "
                f"stderr: {stderr.strip()[-400:]}"
            )
            continue
        lines = stdout.strip().splitlines()
        try:
            stats.append(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            failures.append(f"{what}: worker produced no parseable stats line")
    if failures:
        raise RuntimeError("; ".join(failures))
    return stats


def run_scheduling_grid(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    *,
    n_units: int = N_UNITS,
    unit_cost_s: float = UNIT_COST_S,
) -> tuple[dict[str, dict], dict[str, float]]:
    """Drain the synthetic grid at each worker count; returns (cells, speedup)."""
    for count in worker_counts:
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"worker counts must be positive integers, got {count!r}")
    cells: dict[str, dict] = {}
    reference_digest: str | None = None
    for count in worker_counts:
        with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as root_name:
            root = Path(root_name)
            procs = [
                _spawn_worker(root, n_units, unit_cost_s, f"bench-w{count}-{index}")
                for index in range(count)
            ]
            _await_barrier(root, count, procs)
            worker_stats = _drain_workers(procs, what=f"{count}-worker grid")
            # All workers left the barrier within one 10ms poll of each
            # other, so the slowest drain IS the fleet's wall-clock.
            wall_s = max(record.get("drain_s", 0.0) for record in worker_stats)
            store = ArtifactStore(root)
            done = store.count(UNIT_KIND)
            if done != n_units:
                raise RuntimeError(
                    f"{count}-worker grid finished with {done}/{n_units} units completed"
                )
            digest = store_digest(root)
        if reference_digest is None:
            reference_digest = digest
        totals = {
            "claimed": sum(s.get("claimed", 0) for s in worker_stats),
            "stolen": sum(s.get("stolen", 0) for s in worker_stats),
            "already_done": sum(s.get("already_done", 0) for s in worker_stats),
            "waits": sum(s.get("waits", 0) for s in worker_stats),
        }
        cells[str(count)] = {
            "wall_s": wall_s,
            "parity": digest == reference_digest,
            "store_digest": digest,
            "stats": totals,
        }
    base_wall = cells[str(worker_counts[0])]["wall_s"]
    speedup = {
        name: base_wall / cell["wall_s"] for name, cell in cells.items() if name != str(worker_counts[0])
    }
    return cells, speedup


def discover_quickstart_config() -> Path | None:
    """The quickstart pipeline config, from the CWD or the source tree."""
    for candidate in (
        Path("examples/quickstart.toml"),
        Path(__file__).resolve().parent.parent.parent.parent / "examples" / "quickstart.toml",
    ):
        if candidate.is_file():
            return candidate
    return None


def run_quickstart_parity(config_path: Path, *, n_workers: int = 2) -> dict:
    """Real-grid parity: 2 shared-store workers vs one single-process run.

    Returns the measured walls and whether the two ``summary.json`` files
    are byte-identical.  Raises ``RuntimeError`` when any run fails.
    """

    def summary_bytes(root: Path) -> bytes:
        summaries = sorted(root.glob("reports/*/summary.json"))
        if len(summaries) != 1:
            raise RuntimeError(f"expected exactly one summary.json under {root}, found {len(summaries)}")
        return summaries[0].read_bytes()

    env = _subprocess_env()
    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-qs-") as parent:
        single_root = Path(parent) / "single"
        fleet_root = Path(parent) / "fleet"
        base = [sys.executable, "-m", "repro", "run", str(config_path), "--quiet"]
        start = time.perf_counter()
        completed = subprocess.run(
            base + ["--artifacts-root", str(single_root)],
            env=env,
            capture_output=True,
            text=True,
        )
        single_wall_s = time.perf_counter() - start
        if completed.returncode != 0:
            raise RuntimeError(
                f"single-process quickstart run failed: {completed.stderr.strip()[-400:]}"
            )
        start = time.perf_counter()
        procs = [
            subprocess.Popen(
                base
                + [
                    "--artifacts-root",
                    str(fleet_root),
                    "--worker",
                    "--worker-id",
                    f"bench-qs-{index}",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for index in range(n_workers)
        ]
        failures = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=600)
            if proc.returncode != 0:
                failures.append(f"worker exited {proc.returncode}: {stderr.strip()[-400:]}")
        fleet_wall_s = time.perf_counter() - start
        if failures:
            raise RuntimeError("quickstart fleet run failed: " + "; ".join(failures))
        parity = summary_bytes(single_root) == summary_bytes(fleet_root)
    return {
        "config": str(config_path),
        "n_workers": int(n_workers),
        "single_wall_s": single_wall_s,
        "fleet_wall_s": fleet_wall_s,
        "parity": parity,
    }


def run(
    workers: tuple[str, ...] = ("1", "2", "4"),
    units: int = N_UNITS,
    unit_cost: float = UNIT_COST_S,
    no_quickstart: bool = False,
    config_path: str | Path | None = None,
) -> dict:
    """Run the fleet benchmark and return a fresh record."""
    try:
        counts = tuple(int(token) for token in workers)
    except ValueError:
        raise ValueError(f"--workers must be comma-separated integers, got {','.join(workers)!r}") from None
    cells, speedup = run_scheduling_grid(counts, n_units=units, unit_cost_s=unit_cost)
    values: dict[str, object] = {}
    for count, cell in cells.items():
        values[f"{count}/wall_s"] = cell["wall_s"]
        if count in speedup:
            values[f"{count}/speedup"] = speedup[count]
        values[f"{count}/parity"] = cell["parity"]
        values[f"{count}/store_digest"] = cell["store_digest"]
        for name, total in cell["stats"].items():
            values[f"{count}/{name}"] = total
    context: dict[str, object] = {
        "n_units": int(units),
        "unit_cost_s": float(unit_cost),
        "grid": (
            f"{units} fixed-cost ({unit_cost:g}s wall, zero CPU) units drained through "
            "the real LeaseManager/work_steal/ArtifactStore path, one fresh subprocess per "
            "worker sharing one store; speedup therefore measures orchestration overhead, "
            "not CPU parallelism, and holds on single-core runners"
        ),
    }
    if not no_quickstart:
        config = Path(config_path) if config_path is not None else discover_quickstart_config()
        if config is None:
            context["quickstart"] = {"skipped": "no quickstart config found (run from the repo root)"}
        else:
            quickstart = run_quickstart_parity(config)
            context["quickstart"] = {key: quickstart[key] for key in ("config", "n_workers")}
            for key in ("single_wall_s", "fleet_wall_s", "parity"):
                values[f"quickstart/{key}"] = quickstart[key]
    return make_record("fleet", values, METRICS, context=context)


def checks(metrics: dict) -> list[str]:
    """Every measured parity flag must hold, baselined or not.

    ``N/parity``: the store after N workers drained the grid is
    byte-identical to the first count's; ``quickstart/parity``: the
    multi-worker ``summary.json`` equals the single-process one.
    """
    return [
        f"{name} is false (bit-identity is the fleet's contract)"
        for name, entry in metrics.items()
        if name.endswith("/parity") and not entry["value"]
    ]


def _worker_main(argv: list[str]) -> int:
    """Subprocess entry: drain the synthetic grid as one fleet worker."""
    root, n_units, cost_ms, ttl_s, worker_id = (
        Path(argv[0]),
        int(argv[1]),
        int(argv[2]),
        float(argv[3]),
        argv[4],
    )
    store = ArtifactStore(root)
    manager = LeaseManager(store.root, worker_id, ttl_s=ttl_s)
    manager.sweep_orphans()
    keys = synthetic_unit_keys(n_units, cost_ms / 1000.0)
    by_digest = {key_digest(UNIT_KIND, key): key for key in keys}

    def is_done(digest: str) -> bool:
        return store.path_for(UNIT_KIND, by_digest[digest]).is_file()

    def compute(digest: str) -> None:
        key = by_digest[digest]
        if store.get(UNIT_KIND, key) is not None:
            return
        time.sleep(key["cost_ms"] / 1000.0)
        store.put(UNIT_KIND, key, {"unit": key["unit"], "token": digest[:16]})

    # Start barrier: post ready, then spin until the parent says go, so
    # every worker's timed drain starts together and interpreter startup
    # stays out of the measurement.
    (root / f"ready-{worker_id}").touch()
    deadline = time.monotonic() + 120.0
    while not (root / "go").exists():
        if time.monotonic() > deadline:
            print("start barrier never released", file=sys.stderr)
            return 1
        time.sleep(0.01)

    start = time.perf_counter()
    stats = work_steal(
        list(by_digest),
        manager=manager,
        is_done=is_done,
        compute=compute,
        poll_interval_s=0.05,
    )
    drain_s = time.perf_counter() - start
    print(json.dumps({"drain_s": drain_s, **stats.as_dict()}))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if len(sys.argv) >= 7 and sys.argv[1] == "--worker":
        raise SystemExit(_worker_main(sys.argv[2:]))
    raise SystemExit("usage: python -m repro.bench.fleet --worker ROOT N_UNITS COST_MS TTL ID")
