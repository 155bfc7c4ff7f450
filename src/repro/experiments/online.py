"""Incremental CVCP: replay a constraint stream over cached tree structures.

The paper's CVCP procedure treats the constraint set as fixed.  In
practice constraints *arrive*: an oracle answers queries over time, and
after every batch of answers the practitioner wants the currently best
parameter value.  Rerunning the full grid from scratch on every batch
wastes almost all of its work — for FOSC the expensive phase (core
distances, the mutual-reachability MST, the condensed tree) does
not depend on the constraints at all, only the FOSC extraction and the
fold scoring do.

This module replays such a stream deterministically:

1. the oracle's full constraint set for the configured amount is drawn
   once (the same draw a batch trial would make) and put in a
   deterministic order (``sorted`` by the normalised constraint tuple,
   or ``shuffled`` by the stream's own seeded permutation);
2. the stream is cut into ``n_deltas`` cumulative prefixes — delta ``t``
   re-runs CVCP selection on the first ``counts[t]`` constraints;
3. every delta is a *full, honest* CVCP fit (per-step seed derived
   up-front via :func:`~repro.utils.rng.spawn_seeds`), so its selection
   is bit-identical to a cold CVCP run on the same accumulated
   constraint set — the structure cache
   (:func:`repro.clustering.hierarchy.cached_tree_structure`) merely
   turns the per-delta refits into cheap re-extractions;
4. with an :class:`~repro.experiments.artifacts.ArtifactStore`, every
   completed delta persists one ``"online"`` artifact (and its CVCP
   grid appends its finished cells to the step's cell journal while in
   flight), so a replay killed mid-stream resumes exactly where it died
   and produces a byte-identical report.

The replay reports the selection-stability-vs-queries curve: for every
delta, the number of constraints seen so far, the selected parameter
value, whether the selection changed, and whether it already agrees
with the final selection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import ceil
from typing import TYPE_CHECKING

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.constraints.constraint import ConstraintSet
from repro.constraints.oracles import ConstraintOracle, PerfectOracle
from repro.core.cvcp import CVCP
from repro.experiments.artifacts import ArtifactStore, experiment_key
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import make_side_information, selection_template
from repro.utils.rng import RandomStateLike, check_random_state, spawn_seeds
from repro.utils.specs import SpecError, SpecTable, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datasets.base import Dataset

__all__ = [
    "STREAM_ORDERS",
    "OnlineReplay",
    "OnlineStep",
    "StreamSpec",
    "replay_constraint_stream",
    "stream_prefix_sizes",
    "stream_step_key",
]

#: Deterministic orderings a constraint stream can arrive in.
STREAM_ORDERS: tuple[str, ...] = ("sorted", "shuffled")

DEFAULT_N_DELTAS = 4


@dataclass(frozen=True)
class StreamSpec(SpecTable, table="stream"):
    """The ``[stream]`` pipeline-config table (``kind = "online"`` only).

    Attributes
    ----------
    n_deltas:
        Number of cumulative constraint batches the stream is cut into;
        every delta triggers one incremental re-selection.
    order:
        Arrival order of the constraints: ``"sorted"`` (the normalised
        constraint-tuple order — reproducible across platforms) or
        ``"shuffled"`` (a permutation drawn from the replay's own seed).
    """

    n_deltas: int = DEFAULT_N_DELTAS
    order: str = "sorted"

    def __post_init__(self) -> None:
        problems: list[str] = []
        check_positive_int(problems, "stream", "n_deltas", self.n_deltas)
        if not isinstance(self.order, str) or self.order not in STREAM_ORDERS:
            problems.append(
                f"stream.order: must be one of {', '.join(STREAM_ORDERS)}, got {self.order!r}"
            )
        if problems:
            raise SpecError("stream", problems)


@dataclass
class OnlineStep:
    """One incremental re-selection after a constraint delta.

    ``fold_scores`` holds the full CVCP grid of this step (one list of
    per-fold internal scores per parameter value) and ``labels`` the
    partition of the refit at the selected value — together with
    ``value`` these are the three quantities the delta-equivalence
    contract pins bit-identically to a cold run.
    """

    step: int
    queries: int
    value: int
    fold_scores: list[list[float]]
    labels: list[int]

    @property
    def mean_scores(self) -> list[float]:
        """Mean internal score per parameter value, in sweep order."""
        return [float(np.mean(scores)) if scores else 0.0 for scores in self.fold_scores]

    @property
    def labels_digest(self) -> str:
        """SHA-256 of the selected partition (summaries stay small)."""
        array = np.asarray(self.labels, dtype=np.int64)
        return hashlib.sha256(array.tobytes()).hexdigest()

    def to_payload(self) -> dict:
        """JSON-serialisable form (exact float round-trip; see artifacts)."""
        return {
            "step": self.step,
            "queries": self.queries,
            "value": self.value,
            "fold_scores": [list(scores) for scores in self.fold_scores],
            "labels": [int(label) for label in self.labels],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "OnlineStep":
        """Rebuild a step from :meth:`to_payload` output (or a JSON load)."""
        return cls(
            step=int(payload["step"]),
            queries=int(payload["queries"]),
            value=int(payload["value"]),
            fold_scores=[[float(v) for v in scores] for scores in payload["fold_scores"]],
            labels=[int(label) for label in payload["labels"]],
        )


@dataclass
class OnlineReplay:
    """The full selection-stability-vs-queries record of one stream."""

    dataset: str
    amount: float
    stream: StreamSpec
    parameter_values: list[int]
    total_constraints: int
    steps: list[OnlineStep] = field(default_factory=list)

    @property
    def final_value(self) -> int:
        """The selection after the whole stream arrived."""
        if not self.steps:
            raise ValueError("the replay recorded no steps")
        return self.steps[-1].value

    @property
    def stability(self) -> float:
        """Fraction of deltas whose selection already equals the final one."""
        if not self.steps:
            return 0.0
        final = self.final_value
        return float(np.mean([step.value == final for step in self.steps]))

    def as_summary(self) -> dict:
        """Deterministic JSON summary (part of ``summary.json``)."""
        final = self.final_value
        previous: int | None = None
        steps = []
        for step in self.steps:
            steps.append(
                {
                    "step": step.step,
                    "queries": step.queries,
                    "value": step.value,
                    "changed": previous is not None and step.value != previous,
                    "agrees_with_final": step.value == final,
                    "mean_scores": step.mean_scores,
                    "labels_digest": step.labels_digest,
                }
            )
            previous = step.value
        return {
            "n_deltas": self.stream.n_deltas,
            "order": self.stream.order,
            "total_constraints": self.total_constraints,
            "parameter_values": list(self.parameter_values),
            "steps": steps,
            "final_value": final,
            "stability": self.stability,
        }


def stream_prefix_sizes(total: int, n_deltas: int) -> list[int]:
    """Cumulative prefix sizes of a stream cut into ``n_deltas`` batches.

    The last prefix always covers the whole stream; with fewer
    constraints than deltas some consecutive prefixes coincide (their
    re-selection is then served from the per-step artifact).
    """
    if n_deltas < 1:
        raise ValueError(f"n_deltas must be positive, got {n_deltas}")
    return [ceil(total * (index + 1) / n_deltas) for index in range(n_deltas)]


def stream_step_key(
    config: ExperimentConfig,
    dataset: "Dataset",
    amount: float,
    stream: StreamSpec,
    step: int,
    step_seed: int,
    oracle: ConstraintOracle | None = None,
) -> dict:
    """Artifact-store key of one online re-selection step.

    An :func:`~repro.experiments.artifacts.experiment_key` of a FOSC
    constraint selection that also pins the oracle spec, the stream shape
    and the step's position and derived seed.
    """
    oracle = oracle if oracle is not None else PerfectOracle()
    return experiment_key(
        config,
        dataset,
        "fosc",
        amount,
        scenario="constraints",
        oracle=oracle.spec(),
        stream={"n_deltas": int(stream.n_deltas), "order": str(stream.order)},
        step=int(step),
        step_seed=int(step_seed),
    )


def ordered_stream(
    constraints: ConstraintSet, order: str, rng: np.random.Generator
) -> list:
    """The stream's deterministic arrival order over a constraint set.

    ``rng`` is consumed only by ``"shuffled"``; the draw happens for
    every order so the downstream seed stream does not depend on it.
    """
    if order not in STREAM_ORDERS:
        raise ValueError(f"order must be one of {STREAM_ORDERS}, got {order!r}")
    base = sorted(constraints)
    permutation = rng.permutation(len(base))
    if order == "shuffled":
        return [base[index] for index in permutation]
    return base


@dataclass(frozen=True)
class StreamPlan:
    """Everything one constraint stream's replay draws up-front, in draw order.

    The one derivation of a stream, read by
    :func:`replay_constraint_stream`, the delta-equivalence suite and
    ``repro bench online``: the oracle's constraints in arrival order,
    the FOSC template and its MinPts grid, one seed and one prefix size
    per step.  :meth:`run_step` is the one re-selection of a step.
    """

    dataset: "Dataset"
    amount: float
    config: ExperimentConfig
    stream: StreamSpec
    oracle: ConstraintOracle | None
    arrivals: list
    estimator: BaseClusterer
    values: list[int]
    step_seeds: list[int]
    counts: list[int]

    @classmethod
    def draw(
        cls,
        dataset: "Dataset",
        amount: float,
        config: ExperimentConfig,
        stream: StreamSpec,
        oracle: ConstraintOracle | None = None,
        random_state: RandomStateLike = None,
    ) -> "StreamPlan":
        """Draw the plan from ``random_state`` (``None`` = ``config.seed``)."""
        rng = check_random_state(random_state if random_state is not None else config.seed)
        side = make_side_information(dataset, "constraints", amount, random_state=rng, oracle=oracle)
        arrivals = ordered_stream(side.constraints, stream.order, rng)
        estimator, values = selection_template("fosc", dataset, config, rng)
        step_seeds = spawn_seeds(rng, stream.n_deltas)
        counts = stream_prefix_sizes(len(arrivals), stream.n_deltas)
        return cls(
            dataset, amount, config, stream, oracle, arrivals, estimator, values, step_seeds, counts
        )

    def step_key(self, index: int) -> dict:
        """The ``"online"`` artifact key of step ``index``."""
        return stream_step_key(
            self.config, self.dataset, self.amount, self.stream, index, self.step_seeds[index], self.oracle
        )

    def run_step(self, index: int, store: ArtifactStore | None = None) -> "OnlineStep":
        """Re-select on the first ``counts[index]`` arrivals: a full CVCP fit, refit included.

        With a ``store`` the step is served from its ``"online"`` artifact
        when present; otherwise its grid journals each finished cell and
        the step lands as one artifact.  Without one it is the cold,
        store-free reference selection.
        """
        key = self.step_key(index) if store is not None else None
        if key is not None:
            cached = store.fetch("online", key)
            if cached is not None:
                return OnlineStep.from_payload(cached)
        config = self.config
        search = CVCP(
            self.estimator,
            self.values,
            n_folds=config.n_folds,
            refit=True,
            random_state=self.step_seeds[index],
            execution=config.execution,
            artifact_store=store,
            artifact_scope=key,
        )
        search.fit(self.dataset.X, constraints=ConstraintSet(self.arrivals[: self.counts[index]]))
        step = OnlineStep(
            step=index,
            queries=self.counts[index],
            value=int(search.cv_results_.best_value),
            fold_scores=[
                [float(score) for score in evaluation.fold_scores]
                for evaluation in search.cv_results_.evaluations
            ],
            labels=[int(label) for label in search.labels_],
        )
        if key is not None:
            store.land("online", key, step.to_payload())
        return step


def replay_constraint_stream(
    dataset: "Dataset",
    amount: float,
    *,
    config: ExperimentConfig | None = None,
    stream: StreamSpec | None = None,
    oracle: ConstraintOracle | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> OnlineReplay:
    """Replay one oracle constraint stream through incremental CVCP.

    Every delta runs a full CVCP selection (refit included) on the
    accumulated constraint prefix with a per-step derived seed, so the
    selected value, the per-cell scores and the refit labels are
    bit-identical to a cold CVCP run on the same accumulated set — the
    structure cache only removes the redundant refitting work.  With a
    ``store``, completed steps are served from their ``"online"``
    artifacts (and in-flight grids resume per cell), so a killed replay
    restarted over the same store root reports byte-identical results.
    """
    config = config or default_config()
    stream = stream or StreamSpec()
    plan = StreamPlan.draw(dataset, amount, config, stream, oracle, random_state)
    return OnlineReplay(
        dataset=dataset.name,
        amount=float(amount),
        stream=stream,
        parameter_values=list(plan.values),
        total_constraints=len(plan.arrivals),
        steps=[plan.run_step(index, store) for index in range(stream.n_deltas)],
    )
