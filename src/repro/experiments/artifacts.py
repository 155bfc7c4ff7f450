"""Content-addressed, resumable artifact store for experiment results.

Every expensive unit of experimental work — one trial of one algorithm on
one data set with one amount of side information, or one ablation run — is
persisted as a small JSON *artifact* keyed by the exact inputs that
determine its result:

* a fingerprint of the :class:`~repro.experiments.config.ExperimentConfig`
  fields that influence a single trial (fold count, parameter ranges,
  estimator budgets — *not* the execution backend, which is bit-identical
  by construction);
* a fingerprint of the data set content (name, feature matrix, labels);
* the algorithm, scenario and amount of side information;
* the trial's derived seed (every per-value, per-fold grid cell inside the
  trial derives deterministically from it, so the seed pins the whole
  ``value_index × fold`` grid).

Interrupted or re-run grids therefore skip completed work: the experiment
drivers ask the store before computing and write through it after, and the
store counts hits/misses so a resumed run can report exactly how much work
it reused.

While a trial (or an online replay step) is in flight, its finished grid
cells are appended to one :class:`CellJournal` per scope — one compact JSON
line per cell, one ``os.write`` on an ``O_APPEND`` descriptor — and the
journal is unlinked once the scope's own artifact lands.

Layout on disk (artifact writes are atomic rename-into-place)::

    <root>/
        <kind>/<digest[:2]>/<digest>.json       # one artifact per key
        journal/<digest[:2]>/<digest>.jsonl     # in-flight cells of one scope
        reports/<name>/                         # rendered reports (see reporting)
        fleet/leases/<digest>.lease             # work-stealing leases (see fleet)
        fleet/workers/<worker_id>.json          # worker liveness registry

where ``digest`` is the SHA-256 of the canonical JSON encoding of the key,
i.e. the store is content-addressed by *key*, and artifact payloads
round-trip exactly (Python's JSON float encoding is shortest-roundtrip, so
cached results are bit-identical to freshly computed ones).  Artifacts are
written as compact JSON; readers accept any whitespace, so artifacts of
older, indented stores still hit.  A ``cell/`` directory left by older
versions (one file per cell) is never read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.core.distance_backend import approx_key_entry
from repro.utils.cache import array_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datasets.base import Dataset
    from repro.experiments.config import ExperimentConfig

#: Bumped whenever the artifact schema changes incompatibly; part of every
#: key, so stale artifacts from older schemas simply never hit.
SCHEMA_VERSION = 1

#: ``ExperimentConfig`` fields that change the outcome of a *single* trial.
#: Everything else (trial counts, data-set lists, side-information menus,
#: the execution engine) only selects *which* trials run, so excluding it
#: lets e.g. an ``n_trials`` bump reuse every already-computed trial.
TRIAL_CONFIG_FIELDS: tuple[str, ...] = (
    "n_folds",
    "minpts_range",
    "max_k",
    "mpck_n_init",
    "mpck_max_iter",
)

#: Subdirectory of the store root holding the cell journals.
JOURNAL_DIRNAME = "journal"

#: Directories under the store root that hold no ``<kind>/*/*.json``
#: artifacts: rendered reports, fleet leases/registry, cell journals, and
#: the per-cell files of older versions (never read).
_NON_ARTIFACT_DIRS = ("reports", "fleet", JOURNAL_DIRNAME, "cell")

#: The two cell phases of a journal: CVCP grid cells and per-value
#: external fits (the latter have no fold).
_CELL_PHASES = ("grid", "external")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for key hashing and summaries."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def key_digest(kind: str, key: dict[str, Any]) -> str:
    """SHA-256 content address of an artifact key."""
    record = {"schema": SCHEMA_VERSION, "kind": kind, "key": key}
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


def trial_config_fingerprint(config: "ExperimentConfig") -> str:
    """Fingerprint of the config fields that determine a single trial."""
    fields = {name: getattr(config, name) for name in TRIAL_CONFIG_FIELDS}
    for name, value in fields.items():
        if isinstance(value, tuple):
            fields[name] = list(value)
    return hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()


def dataset_fingerprint(dataset: "Dataset") -> str:
    """Content fingerprint of a data set (name, features, labels, metric).

    The metric joins the fingerprint only when it is not the historical
    Euclidean default, so every pre-existing euclidean artifact keeps its
    key.  A ``metric="precomputed"`` data set is content-addressed through
    its matrix bytes — change one entry of a user-supplied matrix and every
    trial fingerprint changes with it (no stale artifact can be served).
    """
    parts = f"{dataset.name}|{array_fingerprint(dataset.X)}|{array_fingerprint(dataset.y)}"
    metric = getattr(dataset, "metric", "euclidean")
    if metric != "euclidean":
        parts += f"|metric={metric}"
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


def experiment_key(
    config: "ExperimentConfig", dataset: "Dataset", algorithm: str, amount: float, **fields: Any
) -> dict[str, Any]:
    """Artifact-store key of one experiment unit: a trial, an online step or an ablation.

    Every such key pins the trial-relevant config fields, the data-set
    content, the algorithm and the amount of side information; ``fields``
    adds the per-kind entries (the scenario, the oracle spec, seeds, the
    stream position, the ablation name).  The exact distance tiers
    (blockwise/memmap) are bit-identical and deliberately share keys.
    The ``neighbors`` tier is approximate, so its keys carry an extra
    ``approx`` entry — the tier name and the resolved ``epsilon`` /
    ``k_neighbors`` — and can never shadow (or be shadowed by) an
    exact-tier entry.
    """
    execution = config.execution
    return {
        "config": trial_config_fingerprint(config),
        "dataset": dataset_fingerprint(dataset),
        "algorithm": str(algorithm),
        "amount": float(amount),
        **fields,
        **approx_key_entry(execution.distance_backend, execution.epsilon, execution.k_neighbors),
    }


@dataclasses.dataclass
class StoreStats:
    """Hit/miss/write accounting of one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}


class ArtifactStore:
    """Content-addressed JSON store with resume semantics.

    Parameters
    ----------
    root:
        Directory holding the artifacts; created on first write.
    refresh:
        When true, every lookup misses (but writes still land), forcing a
        recomputation that overwrites stale artifacts in place.
    on_event:
        Optional observer called as ``on_event(event, kind)`` with
        ``event`` one of ``"hit"``/``"miss"``/``"write"`` after the
        corresponding store operation.  The serve layer streams per-cell
        job progress through this hook.  Called from whatever thread
        performed the operation, and must not raise — an observer
        exception would masquerade as a store failure mid-trial.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        refresh: bool = False,
        on_event: Callable[[str, str], None] | None = None,
    ) -> None:
        self.root = Path(root)
        self.refresh = bool(refresh)
        self.on_event = on_event
        self.stats = StoreStats()
        self._stats_by_kind: dict[str, StoreStats] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: dict[str, Any]) -> Path:
        """Where the artifact for ``key`` lives (whether or not it exists)."""
        digest = key_digest(kind, key)
        return self.root / kind / digest[:2] / f"{digest}.json"

    def get(self, kind: str, key: dict[str, Any]) -> Any | None:
        """Return the stored payload for ``key``, or ``None`` on a miss.

        A record filed under another key's path is a miss.  Key digests are
        compared, not dicts, because JSON turns tuples into lists.
        """
        path = self.path_for(kind, key)
        if self.refresh or not path.is_file():
            self._count(misses=1, kind=kind)
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # A truncated artifact (e.g. a hard kill mid-write on a
            # filesystem without atomic rename) counts as absent.
            self._count(misses=1, kind=kind)
            return None
        if (
            record.get("schema") != SCHEMA_VERSION
            or record.get("kind") != kind
            or key_digest(kind, record.get("key")) != path.stem
        ):
            self._count(misses=1, kind=kind)
            return None
        self._count(hits=1, kind=kind)
        return record["payload"]

    def contains(self, kind: str, key: dict[str, Any]) -> bool:
        """Whether an artifact for ``key`` exists, counted as a hit/miss.

        A cheap existence probe (no read, no JSON parse) for callers that
        already hold the decoded value in a process-local memo but still
        want the per-kind accounting to record the reuse — the structure
        cache's warm path.  ``refresh`` mode reports absence, like
        :meth:`get`.
        """
        if not self.refresh and self.path_for(kind, key).is_file():
            self._count(hits=1, kind=kind)
            return True
        self._count(misses=1, kind=kind)
        return False

    def put(self, kind: str, key: dict[str, Any], payload: Any) -> Path:
        """Persist ``payload`` under ``key`` atomically and return its path."""
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"schema": SCHEMA_VERSION, "kind": kind, "key": key, "payload": payload}
        text = canonical_json(record)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count(writes=1, kind=kind)
        return path

    def fetch(self, kind: str, key: dict[str, Any]) -> Any | None:
        """:meth:`get`, dropping the key's cell journal on a hit.

        A kill between an artifact's :meth:`land` and its journal removal
        leaves the journal behind; the hit path self-heals the store.
        """
        payload = self.get(kind, key)
        if payload is not None:
            self.journal(key).remove()
        return payload

    def land(self, kind: str, key: dict[str, Any], payload: Any) -> None:
        """:meth:`put` a finished unit's artifact, then drop its cell journal."""
        self.put(kind, key, payload)
        self.journal(key).remove()

    def journal(self, scope: dict[str, Any]) -> "CellJournal":
        """The cell journal of one in-flight scope (a trial or step key)."""
        return CellJournal(self, scope)

    def delete(self, kind: str, key: dict[str, Any]) -> bool:
        """Remove the artifact for ``key``; returns whether it existed."""
        path = self.path_for(kind, key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def count(self, kind: str | None = None) -> int:
        """Number of stored artifacts (of one kind, or overall).

        ``"cell"`` counts the valid in-flight cells of every journal.
        """
        if not self.root.is_dir():
            return 0
        if kind == "cell":
            return self._count_journal_cells()
        if kind is not None:
            return sum(1 for _ in (self.root / kind).glob("*/*.json"))
        total = self._count_journal_cells()
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name not in _NON_ARTIFACT_DIRS:
                total += sum(1 for _ in entry.glob("*/*.json"))
        return total

    def _count_journal_cells(self) -> int:
        return sum(
            len(_read_journal(path, path.stem))
            for path in (self.root / JOURNAL_DIRNAME).glob("*/*.jsonl")
        )

    def report_dir(self, name: str) -> Path:
        """Directory for rendered reports of the pipeline run ``name``."""
        path = self.root / "reports" / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = StoreStats()
            self._stats_by_kind = {}

    def stats_for(self, kind: str) -> StoreStats:
        """Hit/miss/write accounting restricted to one artifact kind.

        Kinds never asked for return all-zero stats.  The structure-cache
        regression tests read this to prove e.g. that two runs differing
        only in oracle spec share their ``"structure"`` artifacts.
        """
        with self._lock:
            stats = self._stats_by_kind.get(kind)
            return (
                StoreStats(hits=stats.hits, misses=stats.misses, writes=stats.writes)
                if stats is not None
                else StoreStats()
            )

    def stats_by_kind(self) -> dict[str, dict[str, int]]:
        """Per-kind hit/miss/write counters as plain nested dicts."""
        with self._lock:
            return {
                kind: stats.as_dict()
                for kind, stats in sorted(self._stats_by_kind.items())
            }

    def describe_stats(self) -> str:
        """Human summary printed by the CLI after every run.

        The headline line aggregates every kind; one indented line per kind
        follows whenever more than one kind saw traffic, so shared
        ``"structure"`` reuse never masks (or inflates) trial-level resume
        accounting.
        """
        stats = self.stats
        lines = [
            f"artifact store: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.writes} written (root: {self.root})"
        ]
        by_kind = {kind: c for kind, c in self.stats_by_kind().items() if kind}
        if len(by_kind) > 1:
            for kind, counters in by_kind.items():
                lines.append(
                    f"  {kind}: {counters['hits']} hits, "
                    f"{counters['misses']} misses, {counters['writes']} written"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _count(
        self, *, hits: int = 0, misses: int = 0, writes: int = 0, kind: str = ""
    ) -> None:
        with self._lock:
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.writes += writes
            per_kind = self._stats_by_kind.setdefault(kind, StoreStats())
            per_kind.hits += hits
            per_kind.misses += misses
            per_kind.writes += writes
        if self.on_event is not None:
            event = "hit" if hits else ("write" if writes else "miss")
            self.on_event(event, kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={str(self.root)!r}, refresh={self.refresh})"


class CellJournal:
    """Append-only journal of the finished cells of one in-flight scope.

    A scope is a trial key or an online step key; its journal lives at
    ``<root>/journal/<digest[:2]>/<digest>.jsonl``, with the digest
    computed once per journal object.  Each finished cell is one compact
    JSON line ``{"digest", "phase", "value_index", "fold", "payload"}``
    written with a single ``os.write`` on an ``O_APPEND`` descriptor, so
    concurrent appenders (a fleet steal racing a live stale worker, two
    serve threads) never interleave within a line.

    The journal is read once, on the first :meth:`get`.  A line that fails
    to decode (a torn tail, or a torn fragment a later append was glued
    onto), lacks a field or carries another journal's digest is skipped,
    so its cell is recomputed; of duplicate cells the first copy wins
    (cells are deterministic, so copies are equal).  Accounting matches
    the store's per-kind counters: one ``cell`` hit or miss per
    :meth:`get` and one ``cell`` write per :meth:`put`.  In ``refresh``
    mode every lookup misses and the old journal is discarded.
    """

    def __init__(self, store: ArtifactStore, scope: dict[str, Any]) -> None:
        self.store = store
        self.digest = key_digest(JOURNAL_DIRNAME, scope)
        self.path = store.root / JOURNAL_DIRNAME / self.digest[:2] / f"{self.digest}.jsonl"
        self._cells: dict[tuple, Any] | None = None

    def _loaded(self) -> dict[tuple, Any]:
        if self._cells is None:
            if self.store.refresh:
                self._cells = {}
                self.path.unlink(missing_ok=True)
            else:
                self._cells = _read_journal(self.path, self.digest)
        return self._cells

    def has(self, phase: str, value_index: int, fold: int | None = None) -> bool:
        """Whether one cell is journalled; unlike :meth:`get`, counts nothing."""
        return self._loaded().get((phase, value_index, fold)) is not None

    def get(self, phase: str, value_index: int, fold: int | None = None) -> Any | None:
        """The journalled payload of one cell, or ``None`` on a miss."""
        payload = self._loaded().get((phase, value_index, fold))
        if payload is None:
            self.store._count(misses=1, kind="cell")
        else:
            self.store._count(hits=1, kind="cell")
        return payload

    def put(self, phase: str, value_index: int, fold: int | None, payload: Any) -> None:
        """Append one finished cell."""
        line = json.dumps(
            {
                "digest": self.digest,
                "phase": phase,
                "value_index": value_index,
                "fold": fold,
                "payload": payload,
            },
            separators=(",", ":"),
        )
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        try:
            fd = os.open(self.path, flags, 0o644)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o644)
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        self.store._count(writes=1, kind="cell")

    def remove(self) -> None:
        """Drop the journal: its scope's artifact has landed."""
        self.path.unlink(missing_ok=True)


def _read_journal(path: Path, digest: str) -> dict[tuple, Any]:
    """``{(phase, value_index, fold): payload}`` of the valid lines of a journal."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    cells: dict[tuple, Any] = {}
    for line in data.splitlines():
        try:
            record = json.loads(line)
            coordinates = (record["phase"], record["value_index"], record["fold"])
            payload = record["payload"]
            valid = record["digest"] == digest
        except (ValueError, KeyError, TypeError):
            continue
        phase, value_index, fold = coordinates
        if (
            valid
            and payload is not None
            and phase in _CELL_PHASES
            and type(value_index) is int
            and (fold is None or type(fold) is int)
        ):
            cells.setdefault(coordinates, payload)
    return cells
