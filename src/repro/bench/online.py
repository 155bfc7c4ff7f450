"""``repro bench online``: incremental re-selection against cold replays.

``repro bench online`` measures what the incremental CVCP machinery
(:mod:`repro.experiments.online`) actually buys on the quickstart grid
(Iris, ``minpts_range = [3, 6, 9]``, 3 folds): it replays one constraint
stream and, for every delta, times

* **cold** — what refreshing the online report without the subsystem
  costs: every process-wide cache cleared, an *empty* artifact store,
  and the whole accumulated replay (all prefixes up to and including
  the new delta) re-run from scratch, structure phase included;
* **incremental** — only the new delta, the regime ``kind = "online"``
  actually runs in: the process-local structure memo is warm, earlier
  steps live in their ``"online"`` artifacts, so the delta is an
  extraction-phase CVCP pass over the carried-forward store.

Both paths run the very same store-backed step machinery (per-cell
persistence and compaction included), so the ratio isolates what the
cached structures and completed steps save — not a bookkeeping
difference between the two sides.

Before any timing counts, both paths are asserted bit-identical on the
new delta (selected value, per-cell fold scores, refit labels) — a
speedup from a wrong answer is not a speedup.  The gates cover the
steady state *after the first delta* (the first delta is where the
structures are built and persisted; every later delta is the
incremental regime the paper's practitioner lives in):

* ``speedup`` — summed steady-state cold wall-clock over summed
  steady-state incremental wall-clock, floored at 5x (the per-delta
  ratio keeps growing with the stream, so the floor is conservative);
* ``structure_hit_rate`` — store hits over structure requests, floored
  at 0.95 (an incremental delta should never rebuild a structure).

The fresh record is gated against the committed ``BENCH_online.json``
baseline: equivalence and the floors are hard requirements (the floors
travel inside the baseline), and the absolute incremental wall-clock gets
a generous ``--max-slowdown`` budget because CI runners share cores.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.engine import Spec, make_record

#: Constraint-stream deltas replayed by default.  Eight steps give the
#: steady-state aggregate enough late-stream deltas (where the cold
#: replay cost has grown linearly) to clear the speedup floor with
#: margin on a shared CI core.
N_DELTAS = 8

#: Amount of side information (the quickstart grid's single amount).
AMOUNT = 0.10

#: ``stream/*`` aggregates cover the steady state after the first delta;
#: ``stream/equivalent`` covers every delta.
METRICS = {
    "stream/incremental_s": Spec("s", "lower", "slowdown"),
    "stream/speedup": Spec("x", "higher", "floor", floor=5.0),
    "stream/structure_hit_rate": Spec("ratio", "higher", "floor", floor=0.95),
    "stream/equivalent": Spec(gate="exact"),
    "*_s": Spec("s", "lower"),
    "*/speedup": Spec("x", "higher"),
    "*/equivalent": Spec(),
    "*/value": Spec(),
    "*": Spec("count"),
}


def _bench_config():
    """The quickstart CVCP grid (Iris, three MinPts values, three folds)."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        n_trials=1,
        n_folds=3,
        minpts_range=(3, 6, 9),
        datasets=("Iris",),
        seed=20140324,
    )


def run(deltas: int = N_DELTAS, amount: float = AMOUNT) -> dict:
    """Run the cold-vs-incremental replay benchmark and return a record.

    The incremental path uses a throwaway artifact store that persists
    across the stream's deltas (that *is* the mechanism under test); the
    cold path gets a fresh, empty store per delta and a cleared
    process-wide memo, so neither side smuggles warm state past the
    clock and both pay the identical per-step persistence bill.
    """
    from repro.constraints.constraint import ConstraintSet
    from repro.core.cvcp import CVCP
    from repro.datasets.registry import get_dataset
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.online import (
        StreamSpec,
        _compact_step_cells,
        ordered_stream,
        stream_prefix_sizes,
        stream_step_key,
    )
    from repro.experiments.runner import (
        algorithm_factory,
        make_side_information,
        parameter_values_for,
    )
    from repro.utils.cache import clear_distance_cache
    from repro.utils.rng import check_random_state, spawn_seeds

    if deltas < 2:
        raise ValueError(
            f"--deltas must be at least 2 (the gates cover the steady state "
            f"after the first delta), got {deltas}"
        )
    config = _bench_config()
    stream = StreamSpec(n_deltas=deltas, order="sorted")
    dataset = get_dataset("Iris", random_state=config.seed)

    # Mirror replay_constraint_stream's rng discipline exactly so the
    # bench exercises the very seeds a real `kind = "online"` run uses.
    rng = check_random_state(config.seed)
    side = make_side_information(dataset, "constraints", amount, random_state=rng)
    arrivals = ordered_stream(side.constraints, stream.order, rng)
    estimator = algorithm_factory("fosc", config, random_state=rng)
    values = parameter_values_for("fosc", dataset, config)
    step_seeds = spawn_seeds(rng, stream.n_deltas)
    counts = stream_prefix_sizes(len(arrivals), stream.n_deltas)

    def run_step(store: "ArtifactStore", index: int) -> "CVCP":
        """One store-backed replay step, exactly as ``kind = "online"`` runs it."""
        key = stream_step_key(config, dataset, amount, stream, index, step_seeds[index])
        search = CVCP(
            estimator,
            values,
            n_folds=config.n_folds,
            refit=True,
            random_state=step_seeds[index],
            execution=config.execution_spec(),
            artifact_store=store,
            artifact_scope=key,
        )
        search.fit(dataset.X, constraints=ConstraintSet(arrivals[: counts[index]]))
        _compact_step_cells(store, key, len(values), config.n_folds)
        return search

    def selection_of(search: "CVCP") -> tuple[int, list[list[float]], list[int]]:
        return (
            int(search.cv_results_.best_value),
            [
                [float(score) for score in evaluation.fold_scores]
                for evaluation in search.cv_results_.evaluations
            ],
            [int(label) for label in search.labels_],
        )

    delta_records: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-online-") as tmp:
        store = ArtifactStore(Path(tmp) / "store")
        clear_distance_cache()
        for index, count in enumerate(counts):
            # Incremental: only the new delta, over the warm memo + store
            # state the previous deltas left behind (the `kind = "online"`
            # steady state).
            before = store.stats_for("structure")
            tick = time.perf_counter()
            search = run_step(store, index)
            incremental_s = time.perf_counter() - tick
            after = store.stats_for("structure")
            incremental = selection_of(search)

            # Cold: replay the whole accumulated stream from scratch —
            # cleared memo, empty store, structure phase and every earlier
            # step included.  The last step doubles as the
            # delta-equivalence oracle.
            cold_store = ArtifactStore(Path(tmp) / f"cold-{index}")
            clear_distance_cache()
            tick = time.perf_counter()
            for cold_index in range(index + 1):
                cold_search = run_step(cold_store, cold_index)
            cold_s = time.perf_counter() - tick
            cold = selection_of(cold_search)

            # Guarantee the warm-memo steady state the next delta starts
            # from (the cold replay above cleared the process-local memo;
            # its own structure builds normally refill it, but the next
            # incremental timing must not depend on that side effect).
            for value in values:
                estimator.clone(**{estimator.tuned_parameter: value}).warm_structure(
                    dataset.X, store=None
                )

            delta_records.append(
                {
                    "step": index,
                    "queries": int(count),
                    "value": incremental[0],
                    "cold_s": cold_s,
                    "incremental_s": incremental_s,
                    "speedup": cold_s / incremental_s if incremental_s > 0 else 0.0,
                    "structure_hits": after.hits - before.hits,
                    "structure_misses": after.misses - before.misses,
                    "equivalent": incremental == cold,
                }
            )
    clear_distance_cache()

    steady = delta_records[1:]
    cold_total = sum(record["cold_s"] for record in steady)
    incremental_total = sum(record["incremental_s"] for record in steady)
    hits = sum(record["structure_hits"] for record in steady)
    requests = hits + sum(record["structure_misses"] for record in steady)
    measured: dict[str, object] = {}
    for record in delta_records:
        for key, value in record.items():
            if key != "step":
                measured[f"delta/{record['step']}/{key}"] = value
    measured.update(
        {
            "stream/cold_s": cold_total,
            "stream/incremental_s": incremental_total,
            "stream/speedup": cold_total / incremental_total if incremental_total > 0 else 0.0,
            "stream/structure_hit_rate": hits / requests if requests else 0.0,
            "stream/equivalent": all(record["equivalent"] for record in delta_records),
        }
    )
    context = {
        "grid": f"Iris, {deltas} deltas, incremental re-selection vs cold accumulated replay",
        "settings": {
            "dataset": "Iris",
            "amount": float(amount),
            "n_deltas": int(deltas),
            "order": stream.order,
            "minpts_range": [int(value) for value in config.minpts_range],
            "n_folds": int(config.n_folds),
            "total_constraints": len(arrivals),
        },
    }
    return make_record("online", measured, METRICS, context=context)
