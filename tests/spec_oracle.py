"""Frozen spec-table methods: the oracle for ``tests/test_spec_equivalence.py``.

A verbatim copy of the hand-written ``to_spec``, ``from_spec`` and
``with_overrides`` methods of the five settings types — ``ExecutionSpec``
(``repro.core.executor``), ``StreamSpec`` (``repro.experiments.online``),
``FleetSettings`` (``repro.experiments.fleet``), ``ServeSettings``
(``repro.serve.schemas``) and ``SelectionRequest`` (``repro.api``) — as
they were before :class:`repro.utils.specs.SpecTable` wrote the protocol
once from the dataclass fields.

Each method is lifted to a module-level function named after its table
(``stream_from_spec``); ``self`` is a library value and ``cls`` the
library type, so both sides build the same objects.  The one edit to a
body: ``SelectionRequest.from_spec`` calls the lifted
``execution_from_spec`` where it called ``ExecutionSpec.from_spec``.
``ExecutionSpec`` and ``SelectionRequest`` had no ``with_overrides``.

Only the methods are frozen here: the constructors are the library's,
so a value these functions build passes the library's ``__post_init__``
checks.  Nothing here is imported by the library.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.api import SelectionRequest
from repro.core.executor import ExecutionSpec
from repro.experiments.fleet import FleetSettings
from repro.experiments.online import STREAM_ORDERS, StreamSpec
from repro.serve.schemas import ServeSettings
from repro.utils.specs import SpecError, check_positive_int, check_spec_mapping, unknown_key_problems


def execution_to_spec(self) -> dict:
    """JSON/TOML-ready mapping; inherit-the-default fields are omitted."""
    spec: dict[str, object] = {}
    if self.backend is not None:
        spec["backend"] = self.backend
    if self.n_jobs is not None:
        spec["n_jobs"] = self.n_jobs
    if self.distance_backend is not None:
        spec["distance_backend"] = self.distance_backend
    if self.epsilon is not None:
        spec["epsilon"] = self.epsilon
    if self.k_neighbors is not None:
        spec["k_neighbors"] = self.k_neighbors
    if self.metric is not None:
        spec["metric"] = self.metric
    return spec

def execution_from_spec(cls, spec: Mapping) -> "ExecutionSpec":
    """Validate a mapping (e.g. an ``[execution]`` table) into a spec.

    Collects every problem before raising :class:`SpecError`.
    """
    spec = check_spec_mapping(spec, "execution")
    known = ("backend", "n_jobs", "distance_backend", "epsilon", "k_neighbors", "metric")
    problems = unknown_key_problems(spec, known, "execution")
    kwargs = {key: spec[key] for key in known if key in spec}
    built = None
    try:
        built = cls(**kwargs)
    except SpecError as exc:
        problems.extend(exc.problems)
    if problems or built is None:
        raise SpecError("execution", problems)
    return built


def stream_with_overrides(self, **overrides) -> "StreamSpec":
    """A copy with the given fields replaced (CLI flag overrides)."""
    return replace(self, **{key: value for key, value in overrides.items() if value is not None})

def stream_to_spec(self) -> dict:
    """JSON/TOML-ready ``[stream]`` table (the shared spec protocol)."""
    return {"n_deltas": self.n_deltas, "order": self.order}

def stream_from_spec(cls, spec: dict) -> "StreamSpec":
    """Validate a ``[stream]`` table mapping into a spec.

    Collects every problem before raising
    :class:`~repro.utils.specs.SpecError`.
    """
    spec = check_spec_mapping(spec, "stream")
    known = ("n_deltas", "order")
    problems = unknown_key_problems(spec, known, "stream")
    kwargs: dict[str, object] = {}
    if "n_deltas" in spec and check_positive_int(problems, "stream", "n_deltas", spec["n_deltas"]):
        kwargs["n_deltas"] = spec["n_deltas"]
    if "order" in spec:
        value = spec["order"]
        if not isinstance(value, str) or value not in STREAM_ORDERS:
            problems.append(
                f"stream.order: must be one of {', '.join(STREAM_ORDERS)}, got {value!r}"
            )
        else:
            kwargs["order"] = value
    if problems:
        raise SpecError("stream", problems)
    return cls(**kwargs)


def fleet_with_overrides(self, **overrides: float) -> "FleetSettings":
    """A copy with the given fields replaced (CLI flag overrides)."""
    return replace(self, **{key: value for key, value in overrides.items() if value is not None})

def fleet_to_spec(self) -> dict:
    """JSON/TOML-ready ``[fleet]`` table (the shared spec protocol)."""
    return {"lease_ttl_s": self.lease_ttl_s, "poll_interval_s": self.poll_interval_s}

def fleet_from_spec(cls, spec: dict) -> "FleetSettings":
    """Validate a ``[fleet]`` table mapping into settings.

    Collects every problem before raising
    :class:`~repro.utils.specs.SpecError`.
    """
    spec = check_spec_mapping(spec, "fleet")
    known = ("lease_ttl_s", "poll_interval_s")
    problems = unknown_key_problems(spec, known, "fleet")
    kwargs: dict[str, float] = {}
    for key in known:
        if key not in spec:
            continue
        value = spec[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"fleet.{key}: must be a positive number of seconds, got {value!r}")
        else:
            kwargs[key] = float(value)
    if problems:
        raise SpecError("fleet", problems)
    return cls(**kwargs)


def serve_with_overrides(
    self,
    *,
    host: str | None = None,
    port: int | None = None,
    workers: int | None = None,
    max_pending: int | None = None,
) -> "ServeSettings":
    """Copy with the given fields replaced (CLI flag overrides); ``None`` keeps."""
    updates = {
        key: value
        for key, value in (
            ("host", host),
            ("port", port),
            ("workers", workers),
            ("max_pending", max_pending),
        )
        if value is not None
    }
    return replace(self, **updates) if updates else self

def serve_to_spec(self) -> dict:
    """JSON/TOML-ready ``[serve]`` table mapping."""
    return {
        "host": self.host,
        "port": self.port,
        "workers": self.workers,
        "max_pending": self.max_pending,
    }

def serve_from_spec(cls, spec: Mapping) -> "ServeSettings":
    """Validate a ``[serve]`` table mapping, collecting every problem."""
    spec = check_spec_mapping(spec, "serve")
    known = ("host", "port", "workers", "max_pending")
    problems = unknown_key_problems(spec, known, "serve")
    kwargs = {key: spec[key] for key in known if key in spec}
    built = None
    try:
        built = cls(**kwargs)
    except SpecError as exc:
        problems.extend(exc.problems)
    if problems or built is None:
        raise SpecError("serve", problems)
    return built


def select_to_spec(self) -> dict:
    """JSON-ready mapping (the serve POST body under ``"select"``)."""
    spec: dict = {
        "algorithm": self.algorithm,
        "dataset": self.dataset,
        "scenario": self.scenario,
        "amount": self.amount,
        "n_trials": self.n_trials,
        "n_folds": self.n_folds,
        "seed": self.seed,
    }
    execution = self.execution.to_spec()
    if execution:
        spec["execution"] = execution
    return spec

def select_from_spec(cls, spec: Mapping) -> "SelectionRequest":
    """Validate a request mapping, collecting every problem."""
    spec = check_spec_mapping(spec, "select")
    known = (
        "algorithm", "dataset", "scenario", "amount", "n_trials", "n_folds", "seed",
        "execution",
    )
    problems = unknown_key_problems(spec, known, "select")
    kwargs: dict = {key: spec[key] for key in known if key in spec and key != "execution"}
    if "execution" in spec:
        try:
            kwargs["execution"] = execution_from_spec(ExecutionSpec, spec["execution"])
        except SpecError as exc:
            problems.extend(f"select.{problem}" for problem in exc.problems)
    built = None
    try:
        built = cls(**kwargs)
    except SpecError as exc:
        problems.extend(exc.problems)
    if problems or built is None:
        raise SpecError("select", problems)
    return built


#: Library type -> its frozen ``(to_spec, from_spec, with_overrides)``.
METHODS = {
    ExecutionSpec: (execution_to_spec, execution_from_spec, None),
    StreamSpec: (stream_to_spec, stream_from_spec, stream_with_overrides),
    FleetSettings: (fleet_to_spec, fleet_from_spec, fleet_with_overrides),
    ServeSettings: (serve_to_spec, serve_from_spec, serve_with_overrides),
    SelectionRequest: (select_to_spec, select_from_spec, None),
}
