"""Fleet-scale work stealing: many workers, one artifact store, zero scheduler.

The CVCP evaluation grid is embarrassingly parallel: every *(trial × cell)*
unit is keyed by a content address (see
:mod:`repro.experiments.artifacts`) and its result is bit-identical no
matter which process computes it, because per-cell seed derivation is
position-based.  That makes the artifact store itself a sufficient
coordination substrate — this module adds only the thin claim/steal layer
on top:

* **Leases** — a worker claims a unit by creating
  ``<root>/fleet/leases/<digest>.lease`` with ``O_CREAT | O_EXCL`` (atomic
  on POSIX and NFSv3+); while computing, a heartbeat thread refreshes the
  lease mtime.  A lease whose mtime is older than the TTL is *stale* and
  may be reclaimed by any worker: the stealer atomically ``rename``\\ s the
  stale lease to a unique per-stealer name (exactly one concurrent
  renamer succeeds) and then claims afresh.
* **Idempotent completion** — a unit is *done* when its trial artifact
  exists.  Leases are purely an anti-duplication optimisation: in the
  worst interleavings (a SIGKILL between refreshes, clocks drifting
  between machines) work may be duplicated, but results are never wrong,
  because every write is an atomic rename of content-addressed JSON.
* **Worker registry** — each worker maintains
  ``<root>/fleet/workers/<worker_id>.json`` (atomic replace; the file
  mtime doubles as the liveness signal for ``repro status`` and the
  dashboard).

:func:`enumerate_units` reads the pipeline's own trial plan
(:func:`~repro.experiments.pipeline.trial_batches`, the batches every
experiment driver runs, expanded by
:func:`~repro.experiments.runner.trial_plan`, the seeds and keys
``run_trials`` computes), so the set of unit keys a worker steals over is
the set of trial artifacts a single-process
:func:`~repro.experiments.pipeline.run_pipeline` writes — by construction,
not by a mirror of the drivers' draw order.  After the steal loop drains,
every worker runs the pipeline normally — entirely from cache — and
therefore emits a byte-identical ``summary.json``.

The ``curves``, ``ablation`` and ``online`` kinds do single-trial/figure
work with no per-trial units; for them the steal loop is empty and every
worker simply runs the (idempotent, store-backed) pipeline.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.constraints.oracles import ConstraintOracle
from repro.experiments.artifacts import ArtifactStore, key_digest
from repro.experiments.runner import run_trial, trial_plan
from repro.utils.specs import SpecError, SpecTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datasets.base import Dataset
    from repro.experiments.pipeline import PipelineResult, PipelineSpec

#: Environment override for the worker identity (tests, orchestrators).
WORKER_ID_ENV_VAR = "REPRO_WORKER_ID"

#: Subdirectory of the artifact-store root holding all fleet state.
FLEET_DIRNAME = "fleet"

DEFAULT_LEASE_TTL_S = 60.0
DEFAULT_POLL_INTERVAL_S = 0.5


@dataclass(frozen=True)
class FleetSettings(SpecTable, table="fleet"):
    """The ``[fleet]`` pipeline-config table.

    Attributes
    ----------
    lease_ttl_s:
        Seconds without a heartbeat after which a lease counts as stale
        and its unit may be reclaimed.  Must comfortably exceed the
        heartbeat interval (TTL / 4) plus worst-case filesystem latency.
    poll_interval_s:
        How long a worker sleeps after a full pass over the remaining
        units makes no progress (everything leased by others).
    """

    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    poll_interval_s: float = DEFAULT_POLL_INTERVAL_S

    def __post_init__(self) -> None:
        problems = []
        for key in ("lease_ttl_s", "poll_interval_s"):
            value = getattr(self, key)
            # The upper bound rejects inf and an int too large for a float; NaN fails both.
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 < value <= sys.float_info.max
            ):
                problems.append(f"fleet.{key}: must be a positive number of seconds, got {value!r}")
            else:
                object.__setattr__(self, key, float(value))
        if problems:
            raise SpecError("fleet", problems)


def default_worker_id() -> str:
    """A unique worker identity: env override, or host-pid-nonce."""
    configured = os.environ.get(WORKER_ID_ENV_VAR, "").strip()
    if configured:
        return configured
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class FleetStats:
    """What one worker's steal loop did."""

    #: Units acquired through a fresh ``O_EXCL`` claim and computed.
    claimed: int = 0
    #: Units acquired by reclaiming another worker's stale lease.
    stolen: int = 0
    #: Units found already completed (by this run or an earlier one).
    already_done: int = 0
    #: Idle passes (every remaining unit was leased by a live worker).
    waits: int = 0

    @property
    def completed(self) -> int:
        """Units this worker computed (claimed + stolen)."""
        return self.claimed + self.stolen

    def as_dict(self) -> dict[str, int]:
        return {
            "claimed": self.claimed,
            "stolen": self.stolen,
            "completed": self.completed,
            "already_done": self.already_done,
            "waits": self.waits,
        }


class LeaseManager:
    """Atomic lease files under ``<root>/fleet/leases``.

    Claiming uses ``O_CREAT | O_EXCL`` so exactly one concurrent claimer
    wins; stealing a stale lease uses ``rename`` to a unique name so
    exactly one concurrent stealer wins.  Staleness is judged from the
    lease file's mtime: a heartbeat is an ``os.utime`` refresh, and mtimes
    in the future (clock skew between machines sharing a store) count as
    freshly refreshed rather than negative-age.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        worker_id: str,
        *,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        self.root = Path(root)
        self.worker_id = str(worker_id)
        self.ttl_s = float(ttl_s)
        self.leases_dir = self.root / FLEET_DIRNAME / "leases"

    # ------------------------------------------------------------------
    def lease_path(self, digest: str) -> Path:
        return self.leases_dir / f"{digest}.lease"

    def claim(self, digest: str) -> bool:
        """Try to acquire the lease for ``digest``; never blocks."""
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.lease_path(digest), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        payload = {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "digest": digest,
        }
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))
        return True

    def refresh(self, digest: str) -> bool:
        """Heartbeat: bump the lease mtime; False if the lease vanished."""
        try:
            os.utime(self.lease_path(digest))
        except OSError:
            return False
        return True

    def release(self, digest: str) -> bool:
        """Drop the lease (done or failed); False if already gone."""
        try:
            self.lease_path(digest).unlink()
        except OSError:
            return False
        return True

    def lease_age_s(self, digest: str) -> float | None:
        """Seconds since the last heartbeat, or ``None`` when unleased.

        Clamped at zero: an mtime in the future (another machine's clock
        runs ahead) reads as *just refreshed*, so clock skew can delay a
        reclaim but never triggers a premature one.
        """
        try:
            mtime = self.lease_path(digest).stat().st_mtime
        except OSError:
            return None
        return max(0.0, time.time() - mtime)

    def is_stale(self, digest: str) -> bool:
        age = self.lease_age_s(digest)
        return age is not None and age > self.ttl_s

    def steal(self, digest: str) -> bool:
        """Reclaim a stale lease; exactly one concurrent stealer wins.

        The decider is the atomic ``rename`` of the stale lease file to a
        name unique to this stealer: every loser either fails the rename
        or finds the lease already gone.  The winner then claims afresh.
        A worker that was merely *slow* (refreshed between our staleness
        check and the rename) loses its lease and may duplicate work —
        its heartbeat re-claims on the next beat — but completion stays
        idempotent, so results are unaffected.
        """
        return self.retire_stale(digest) and self.claim(digest)

    def retire_stale(self, digest: str) -> bool:
        """Remove the lease on ``digest`` iff it is stale; one caller wins."""
        if not self.is_stale(digest):
            return False
        retired = self.leases_dir / f"{digest}.stale-{self.worker_id}-{uuid.uuid4().hex[:8]}"
        if not self._retire_if_stale(self.lease_path(digest), retired):
            return False
        retired.unlink(missing_ok=True)
        return True

    def _retire_if_stale(self, lease: Path, retired: Path) -> bool:
        """Atomically move ``lease`` aside iff it is still stale.

        The rename is the race decider, but it grabs whatever file sits at
        the lease path *now* — a concurrent winner may already have
        re-claimed, leaving a fresh lease there.  So staleness is verified
        on the grabbed file (rename preserves mtime) and a fresh grab is
        put back where it came from.
        """
        try:
            os.rename(lease, retired)
        except OSError:
            return False
        try:
            age = max(time.time() - retired.stat().st_mtime, 0.0)
        except OSError:
            return False
        if age <= self.ttl_s:
            try:
                os.rename(retired, lease)
            except OSError:
                retired.unlink(missing_ok=True)
            return False
        return True

    def sweep_orphans(self) -> int:
        """Drop every stale lease and stealing leftover; returns the count.

        Run at worker startup so a store littered by a crashed fleet
        starts clean instead of waiting out per-unit steals.
        """
        removed = 0
        if not self.leases_dir.is_dir():
            return 0
        for path in list(self.leases_dir.iterdir()):
            if path.suffix == ".lease":
                if self.retire_stale(path.stem):
                    removed += 1
            elif ".stale-" in path.name:
                # A stealer killed between its rename and unlink.
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def read_lease(self, digest: str) -> dict | None:
        """The claim payload of a held lease (best effort; ``None`` if gone)."""
        try:
            return json.loads(self.lease_path(digest).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def list_leases(self) -> dict[str, dict]:
        """Every held lease: ``{digest: {worker, age_s, stale}}``."""
        leases: dict[str, dict] = {}
        if not self.leases_dir.is_dir():
            return leases
        for path in sorted(self.leases_dir.glob("*.lease")):
            digest = path.stem
            age = self.lease_age_s(digest)
            if age is None:
                continue
            payload = self.read_lease(digest) or {}
            leases[digest] = {
                "worker": payload.get("worker", "?"),
                "age_s": age,
                "stale": age > self.ttl_s,
            }
        return leases

    @contextmanager
    def holding(self, digest: str) -> Iterator[None]:
        """Run a unit's computation under a heartbeat on its lease.

        The background thread refreshes the mtime every TTL/4 seconds; if
        the lease vanished (swept or stolen while we were slow), it
        re-claims best-effort so observers see the unit as in-flight.
        """
        stop = threading.Event()
        interval = max(0.05, self.ttl_s / 4.0)

        def beat() -> None:
            while not stop.wait(interval):
                if not self.refresh(digest):
                    self.claim(digest)

        thread = threading.Thread(target=beat, name=f"lease-heartbeat-{digest[:8]}", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


# ----------------------------------------------------------------------
# Unit enumeration


@dataclass(frozen=True, eq=False)
class TrialUnit:
    """One stealable unit: a single keyed trial of the pipeline's grid."""

    dataset: "Dataset"
    dataset_name: str
    algorithm: str
    scenario: str
    amount: float
    trial_seed: int
    oracle: ConstraintOracle | None
    key: dict
    digest: str


def enumerate_units(spec: "PipelineSpec") -> list[TrialUnit]:
    """All keyed trial units a pipeline run will need, deduplicated.

    Reads the pipeline's own trial plan: every batch of
    :func:`~repro.experiments.pipeline.trial_batches`, expanded by
    :func:`~repro.experiments.runner.trial_plan` — the derivation
    ``run_trials`` itself uses — so the returned keys are precisely the
    trial artifacts the single-process pipeline writes
    (``tests/test_experiments_fleet.py`` locks this in by diffing against
    a real run's store).  Kinds without per-trial units (``curves``,
    ``ablation``, ``online``) return an empty list.
    """
    from repro.experiments.pipeline import trial_batches

    units: list[TrialUnit] = []
    seen: set[str] = set()
    for batch in trial_batches(spec):
        for trial_seed, key in trial_plan(batch, spec.config, spec.config.n_trials):
            digest = key_digest("trial", key)
            if digest in seen:
                continue
            seen.add(digest)
            units.append(
                TrialUnit(
                    dataset=batch.dataset,
                    dataset_name=batch.name,
                    algorithm=batch.algorithm,
                    scenario=batch.scenario,
                    amount=float(batch.amount),
                    trial_seed=trial_seed,
                    oracle=batch.oracle,
                    key=key,
                    digest=digest,
                )
            )
    return units


# ----------------------------------------------------------------------
# The steal loop


def work_steal(
    digests: Sequence[str],
    *,
    manager: LeaseManager,
    is_done: Callable[[str], bool],
    compute: Callable[[str], None],
    poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
    stats: FleetStats | None = None,
    on_unit: Callable[[str, str], None] | None = None,
) -> FleetStats:
    """Drain a set of units cooperatively: claim, steal stale, poll.

    Each pass walks the remaining units — starting at an offset derived
    from the worker id, so concurrent workers fan out instead of herding —
    and for each one: skip if done, claim if unleased, steal if the lease
    is stale, otherwise leave it for the holder.  A done unit still under
    another worker's fresh lease stays pending too (its holder may have
    died between writing the result and releasing the lease); once the
    lease is released or stale it is retired and the unit skipped.  A
    pass that makes no progress sleeps ``poll_interval_s`` (some other
    worker is computing the stragglers; its units come back to us if its
    lease expires).
    ``on_unit(digest, outcome)`` is called after every resolved unit with
    outcome ``claimed``/``stolen``/``done``.
    """
    stats = stats if stats is not None else FleetStats()
    pending = list(digests)
    if pending:
        seed = int.from_bytes(hashlib.sha256(manager.worker_id.encode("utf-8")).digest()[:4], "big")
        offset = seed % len(pending)
        pending = pending[offset:] + pending[:offset]
    while pending:
        progressed = False
        remaining: list[str] = []
        for digest in pending:
            if is_done(digest):
                if manager.lease_age_s(digest) is not None and not manager.retire_stale(digest):
                    remaining.append(digest)
                    continue
                stats.already_done += 1
                progressed = True
                if on_unit is not None:
                    on_unit(digest, "done")
                continue
            if manager.claim(digest):
                outcome = "claimed"
            elif manager.steal(digest):
                outcome = "stolen"
            else:
                remaining.append(digest)
                continue
            try:
                with manager.holding(digest):
                    compute(digest)
            finally:
                manager.release(digest)
            if outcome == "claimed":
                stats.claimed += 1
            else:
                stats.stolen += 1
            progressed = True
            if on_unit is not None:
                on_unit(digest, outcome)
        pending = remaining
        if pending and not progressed:
            stats.waits += 1
            time.sleep(poll_interval_s)
    return stats


# ----------------------------------------------------------------------
# Worker registry


def worker_record_path(root: str | os.PathLike[str], worker_id: str) -> Path:
    return Path(root) / FLEET_DIRNAME / "workers" / f"{worker_id}.json"


def write_worker_record(
    root: str | os.PathLike[str],
    worker_id: str,
    *,
    phase: str,
    stats: FleetStats,
    n_units: int,
    store_stats: dict | None = None,
) -> Path:
    """Atomically publish a worker's liveness/progress record.

    The file mtime is the liveness signal; the payload carries the steal
    and cache counters the status view and dashboard aggregate.
    """
    path = worker_record_path(root, worker_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "worker": worker_id,
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "phase": phase,
        "n_units": int(n_units),
        "stats": stats.as_dict(),
        "store": dict(store_stats or {}),
    }
    tmp = path.with_name(f"{path.name}.tmp-{uuid.uuid4().hex[:8]}")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_worker_records(root: str | os.PathLike[str], *, ttl_s: float = DEFAULT_LEASE_TTL_S) -> list[dict]:
    """Every published worker record, annotated with age and liveness."""
    workers_dir = Path(root) / FLEET_DIRNAME / "workers"
    records: list[dict] = []
    if not workers_dir.is_dir():
        return records
    now = time.time()
    for path in sorted(workers_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            mtime = path.stat().st_mtime
        except (OSError, json.JSONDecodeError):
            continue
        age = max(0.0, now - mtime)
        payload["age_s"] = age
        # A worker that reported "done" is finished, not dead; only a
        # mid-run worker whose heartbeats stopped counts as lost.
        payload["alive"] = payload.get("phase") == "done" or age <= ttl_s
        records.append(payload)
    return records


# ----------------------------------------------------------------------
# The worker entry point


@dataclass
class WorkerRunReport:
    """What one ``repro run --worker`` process did, start to finish."""

    worker_id: str
    n_units: int
    swept: int
    stats: FleetStats
    result: "PipelineResult"


def run_worker(
    spec: "PipelineSpec",
    *,
    store: ArtifactStore | None = None,
    settings: FleetSettings | None = None,
    worker_id: str | None = None,
    log: Callable[[str], None] | None = None,
) -> WorkerRunReport:
    """Run one fleet worker over a pipeline spec, end to end.

    Sweeps orphaned leases, enumerates the stealable units, drains them
    through :func:`work_steal` (computing each via the store-backed
    :func:`~repro.experiments.runner.run_trial`, so a stolen half-finished
    trial resumes from its persisted cells), then runs the full pipeline —
    served entirely from cache — to produce the same reports and
    byte-identical ``summary.json`` as a single-process run.
    """
    from repro.experiments.pipeline import run_pipeline

    settings = settings or getattr(spec, "fleet", None) or FleetSettings()
    store = store if store is not None else ArtifactStore(spec.artifacts_root)
    worker_id = worker_id or default_worker_id()
    emit = log if log is not None else (lambda message: None)

    manager = LeaseManager(store.root, worker_id, ttl_s=settings.lease_ttl_s)
    swept = manager.sweep_orphans()
    if swept:
        emit(f"swept {swept} orphaned lease file(s)")
    units = enumerate_units(spec)
    by_digest = {unit.digest: unit for unit in units}
    emit(f"worker {worker_id}: {len(units)} stealable unit(s) for kind={spec.kind!r}")

    stats = FleetStats()
    write_worker_record(store.root, worker_id, phase="stealing", stats=stats, n_units=len(units))

    def unit_done(digest: str) -> bool:
        return store.path_for("trial", by_digest[digest].key).is_file()

    def compute(digest: str) -> None:
        unit = by_digest[digest]
        run_trial(
            unit.dataset,
            unit.algorithm,
            unit.scenario,
            unit.amount,
            config=spec.config,
            random_state=unit.trial_seed,
            store=store,
            oracle=unit.oracle,
        )

    def publish(digest: str, outcome: str) -> None:
        write_worker_record(
            store.root,
            worker_id,
            phase="stealing",
            stats=stats,
            n_units=len(units),
            store_stats=store.stats.as_dict(),
        )

    work_steal(
        [unit.digest for unit in units],
        manager=manager,
        is_done=unit_done,
        compute=compute,
        poll_interval_s=settings.poll_interval_s,
        stats=stats,
        on_unit=publish,
    )
    emit(
        f"worker {worker_id}: {stats.claimed} claimed, {stats.stolen} stolen, "
        f"{stats.already_done} already done, {stats.waits} idle wait(s)"
    )

    write_worker_record(
        store.root,
        worker_id,
        phase="reporting",
        stats=stats,
        n_units=len(units),
        store_stats=store.stats.as_dict(),
    )
    result = run_pipeline(spec, store=store)
    write_worker_record(
        store.root,
        worker_id,
        phase="done",
        stats=stats,
        n_units=len(units),
        store_stats=store.stats.as_dict(),
    )
    return WorkerRunReport(
        worker_id=worker_id,
        n_units=len(units),
        swept=swept,
        stats=stats,
        result=result,
    )


# ----------------------------------------------------------------------
# Status


@dataclass
class FleetStatus:
    """A point-in-time view of one pipeline's fleet progress."""

    name: str
    kind: str
    total_units: int
    done: int
    leased: int
    stale: int
    workers: list[dict]
    trial_artifacts: int
    cell_artifacts: int

    @property
    def remaining(self) -> int:
        return max(0, self.total_units - self.done)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "total_units": self.total_units,
            "done": self.done,
            "remaining": self.remaining,
            "leased": self.leased,
            "stale": self.stale,
            "workers": list(self.workers),
            "trial_artifacts": self.trial_artifacts,
            "cell_artifacts": self.cell_artifacts,
        }


def fleet_status(spec: "PipelineSpec", store: ArtifactStore | None = None) -> FleetStatus:
    """Measure grid completion, lease health and worker liveness."""
    store = store if store is not None else ArtifactStore(spec.artifacts_root)
    settings = getattr(spec, "fleet", None) or FleetSettings()
    units = enumerate_units(spec)
    done = sum(1 for unit in units if store.path_for("trial", unit.key).is_file())
    manager = LeaseManager(store.root, "status", ttl_s=settings.lease_ttl_s)
    leases = manager.list_leases()
    stale = sum(1 for lease in leases.values() if lease["stale"])
    return FleetStatus(
        name=spec.name,
        kind=spec.kind,
        total_units=len(units),
        done=done,
        leased=len(leases) - stale,
        stale=stale,
        workers=read_worker_records(store.root, ttl_s=settings.lease_ttl_s),
        trial_artifacts=store.count("trial"),
        cell_artifacts=store.count("cell"),
    )


def format_fleet_status(status: FleetStatus) -> str:
    """Terminal rendering of a :class:`FleetStatus` (``repro status``)."""
    lines = [f"{status.name} ({status.kind})"]
    if status.total_units:
        percent = 100.0 * status.done / status.total_units
        lines.append(
            f"  units: {status.done}/{status.total_units} done ({percent:.0f}%), "
            f"{status.leased} leased, {status.stale} stale lease(s)"
        )
    else:
        lines.append(
            f"  units: no stealable trial units for kind={status.kind!r} "
            "(workers run the pipeline idempotently)"
        )
    lines.append(f"  store: {status.trial_artifacts} trial, {status.cell_artifacts} in-flight cell(s)")
    if status.workers:
        for record in status.workers:
            stats = record.get("stats", {})
            liveness = "alive" if record.get("alive") else "LOST"
            lines.append(
                f"  worker {record.get('worker', '?')}: {record.get('phase', '?')} "
                f"[{liveness}, {record.get('age_s', 0.0):.0f}s ago] "
                f"{stats.get('claimed', 0)} claimed, {stats.get('stolen', 0)} stolen, "
                f"{stats.get('already_done', 0)} reused"
            )
    else:
        lines.append("  workers: none registered")
    return "\n".join(lines)
