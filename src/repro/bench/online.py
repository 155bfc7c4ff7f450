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
    from repro.datasets.registry import get_dataset
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.online import StreamPlan, StreamSpec
    from repro.utils.cache import clear_distance_cache

    if deltas < 2:
        raise ValueError(
            f"--deltas must be at least 2 (the gates cover the steady state "
            f"after the first delta), got {deltas}"
        )
    config = _bench_config()
    stream = StreamSpec(n_deltas=deltas, order="sorted")
    dataset = get_dataset("Iris", random_state=config.seed)
    # The very plan and step a `kind = "online"` run draws and runs.
    plan = StreamPlan.draw(dataset, amount, config, stream)
    estimator = plan.estimator

    delta_records: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-online-") as tmp:
        store = ArtifactStore(Path(tmp) / "store")
        clear_distance_cache()
        for index, count in enumerate(plan.counts):
            # Incremental: only the new delta, over the warm memo + store
            # state the previous deltas left behind (the `kind = "online"`
            # steady state).
            before = store.stats_for("structure")
            tick = time.perf_counter()
            incremental = plan.run_step(index, store)
            incremental_s = time.perf_counter() - tick
            after = store.stats_for("structure")

            # Cold: replay the whole accumulated stream from scratch —
            # cleared memo, empty store, structure phase and every earlier
            # step included.  The last step doubles as the
            # delta-equivalence oracle.
            cold_store = ArtifactStore(Path(tmp) / f"cold-{index}")
            clear_distance_cache()
            tick = time.perf_counter()
            for cold_index in range(index + 1):
                cold = plan.run_step(cold_index, cold_store)
            cold_s = time.perf_counter() - tick

            # Guarantee the warm-memo steady state the next delta starts
            # from (the cold replay above cleared the process-local memo;
            # its own structure builds normally refill it, but the next
            # incremental timing must not depend on that side effect).
            estimator.warm_structures(
                dataset.X, [estimator.clone(**{estimator.tuned_parameter: value}) for value in plan.values]
            )

            delta_records.append(
                {
                    "step": index,
                    "queries": int(count),
                    "value": incremental.value,
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
            "total_constraints": len(plan.arrivals),
        },
    }
    return make_record("online", measured, METRICS, context=context)
