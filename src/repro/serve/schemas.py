"""Request/response schemas of the serve layer.

Everything the HTTP surface exchanges with clients is defined here as
frozen dataclasses with explicit ``as_dict`` (responses) or the shared
``to_spec``/``from_spec`` (config, :class:`~repro.utils.specs.SpecTable`)
conversions, so the wire format is a
stable, documented contract rather than whatever the handlers happen to
serialise.  The module is deliberately import-light (stdlib +
:mod:`repro.utils.specs` only): :mod:`repro.experiments.pipeline` imports
:class:`ServeSettings` for the ``[serve]`` config table without pulling in
the HTTP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.specs import SpecError, SpecTable, check_positive_int

#: Lifecycle states a submitted job moves through, in order.
JOB_STATES: tuple[str, ...] = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class ServeSettings(SpecTable, table="serve"):
    """The ``[serve]`` config table: knobs of the ``repro serve`` layer.

    Attributes
    ----------
    host:
        Interface the server binds (loopback by default — the API is
        unauthenticated, so exposing it wider is an explicit choice).
    port:
        TCP port; ``0`` asks the OS for an ephemeral port (the CLI prints
        the bound address, tests rely on this).
    workers:
        Bounded worker-pool size: how many jobs run concurrently.  Each
        job already parallelises internally through the executor
        backends, so a small pool is the right default.
    max_pending:
        Submissions beyond this many queued-or-running jobs are refused
        with HTTP 429 instead of growing an unbounded queue.
    """

    host: str = "127.0.0.1"
    port: int = 8601
    workers: int = 2
    max_pending: int = 32

    def __post_init__(self) -> None:
        problems = []
        if not isinstance(self.host, str) or not self.host:
            problems.append(f"serve.host: must be a non-empty host string, got {self.host!r}")
        if (
            isinstance(self.port, bool)
            or not isinstance(self.port, int)
            or not 0 <= self.port <= 65535
        ):
            problems.append(
                f"serve.port: must be an integer in [0, 65535] (0 = ephemeral), got {self.port!r}"
            )
        for key in ("workers", "max_pending"):
            check_positive_int(problems, "serve", key, getattr(self, key))
        if problems:
            raise SpecError("serve", problems)


@dataclass(frozen=True)
class JobProgress:
    """Per-cell progress of one job, streamed from the artifact store.

    ``done_units`` counts completed work units (trials for grid kinds,
    dataset×amount cells otherwise) out of ``total_units``; the trial
    counters split completed units into computed-fresh vs served-from-
    cache, and ``cells_written`` counts the cells (CVCP grid cells and
    per-value external fits) appended to in-flight trials' cell journals
    (the resume granularity).
    """

    total_units: int = 0
    done_units: int = 0
    cells_written: int = 0
    trials_computed: int = 0
    trials_cached: int = 0

    def as_dict(self) -> dict:
        return {
            "total_units": self.total_units,
            "done_units": self.done_units,
            "cells_written": self.cells_written,
            "trials_computed": self.trials_computed,
            "trials_cached": self.trials_cached,
        }


@dataclass(frozen=True)
class JobView:
    """An immutable snapshot of one job, as the API returns it.

    ``digest`` is the content digest of the submitted spec — identical
    submissions share it, which is how duplicates are detected;
    ``deduplicated`` marks a submission that joined an already-active
    identical job instead of enqueueing a new one.
    """

    id: str
    state: str
    name: str
    kind: str
    digest: str
    deduplicated: bool
    progress: JobProgress
    error: str | None = None

    def as_dict(self) -> dict:
        payload = {
            "id": self.id,
            "state": self.state,
            "name": self.name,
            "kind": self.kind,
            "digest": self.digest,
            "deduplicated": self.deduplicated,
            "progress": self.progress.as_dict(),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload
