"""``repro bench text``: the sparse text workload through the metric stack.

``repro bench text`` measures what the CSR cosine kernels and the
precomputed-metric path cost on a planted-topic TF-IDF corpus
(:func:`repro.datasets.text.make_text_blobs`):

* **parity first** — before any timing counts, the record asserts that
  the exact distance tiers (blockwise, memmap) are
  bit-identical on the sparse cosine matrix, that serial and process
  executors produce bit-identical CVCP trials on the sparse data set,
  and that ``metric = "precomputed"`` fed the cosine distance matrix
  reproduces the cosine labels exactly — a fast wrong answer is not a
  speedup;
* **quality** — FOSC-OPTICSDend under cosine must recover the planted
  topics (ARI floored in the committed baseline);
* **wall-clock** — the CSR cosine kernel, the same computation on the
  densified array, and the precomputed pass-through;
* **memory** — tracemalloc peaks of the CSR kernel vs the densified
  run; the ratio is floored so a silent densify inside the sparse path
  (the exact regression the CSR support exists to prevent) breaks CI.

The fresh record is gated against the committed ``BENCH_text.json``
baseline: parity, the ARI floor and the memory ratio are hard
requirements (the floors travel inside the baseline), and the absolute
wall-clocks get a generous ``--max-slowdown`` budget because CI runners
share cores.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.bench.engine import Spec, make_record

#: Corpus shape: enough documents for a stable ARI, a vocabulary wide
#: enough that the densified array dwarfs its CSR form (so the memory
#: gate has signal), small enough for seconds-scale CI runs.
N_DOCUMENTS = 256
N_TOPICS = 4
VOCABULARY_SIZE = 2048
WORDS_PER_DOCUMENT = 120

#: Timing repetitions per kernel (the minimum is recorded).
ROUNDS = 3

METRICS = {
    "parity/*": Spec(gate="exact"),
    "quality/ari": Spec("ARI", "higher", "floor", floor=0.75),
    "memory/ratio": Spec("x", "higher", "floor", floor=1.5),
    "memory/*": Spec("bytes", "lower"),
    # The densified run is context for the CSR kernel, not a gated path.
    "timings/cosine_dense_s": Spec("s", "lower"),
    "timings/*": Spec("s", "lower", "slowdown"),
}


def _bench_config():
    """A small CVCP grid over the text corpus (two MinPts values, 3 folds)."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        n_trials=1,
        n_folds=3,
        minpts_range=(3, 6),
        datasets=("Text",),
        seed=20140324,
    )


def _timed(function, *, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        tick = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - tick)
    return best


def _peak_bytes(function) -> int:
    tracemalloc.start()
    try:
        function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def run(rounds: int = ROUNDS) -> dict:
    """Run the sparse text-workload benchmark and return a record.

    Raises ``RuntimeError`` if any parity assertion fails — timings of a
    diverging kernel are meaningless and must never land in a baseline.
    """
    import numpy as np

    from repro.core.distance_backend import EXACT_DISTANCE_BACKENDS
    from repro.clustering.distances import pairwise_distances
    from repro.datasets.text import make_text_blobs
    from repro.evaluation import adjusted_rand_index
    from repro.experiments.runner import algorithm_factory, run_trials
    from repro.utils.cache import clear_distance_cache

    config = _bench_config()
    dataset = make_text_blobs(
        n_documents=N_DOCUMENTS,
        n_topics=N_TOPICS,
        vocabulary_size=VOCABULARY_SIZE,
        words_per_document=WORDS_PER_DOCUMENT,
        random_state=config.seed,
    )
    X_csr = dataset.X
    X_dense = np.ascontiguousarray(X_csr.toarray())

    # --- Parity, asserted before any timing -----------------------------
    per_tier = {}
    for tier in EXACT_DISTANCE_BACKENDS:
        clear_distance_cache()
        trial_config = config.with_execution(distance_backend=tier)
        per_tier[tier] = run_trials(
            dataset, "fosc", "labels", 0.10, 1,
            config=trial_config, random_state=trial_config.seed,
        )[0].to_dict()
    tiers_identical = all(
        per_tier[tier] == per_tier[EXACT_DISTANCE_BACKENDS[0]] for tier in EXACT_DISTANCE_BACKENDS
    )

    per_executor = {}
    for backend in ("serial", "process"):
        clear_distance_cache()
        trial_config = config.with_execution(backend=backend, n_jobs=2)
        per_executor[backend] = run_trials(
            dataset, "fosc", "labels", 0.10, 1,
            config=trial_config, random_state=trial_config.seed,
        )[0].to_dict()
    executors_identical = per_executor["serial"] == per_executor["process"]

    clear_distance_cache()
    distances = pairwise_distances(X_csr, metric="cosine")
    dense_distances = pairwise_distances(X_dense, metric="cosine")
    estimator = algorithm_factory("fosc", config, random_state=config.seed, metric="cosine")
    cosine_labels = estimator.clone(min_pts=5).fit(X_csr).labels_
    precomputed_estimator = algorithm_factory(
        "fosc", config, random_state=config.seed, metric="precomputed"
    )
    precomputed_labels = precomputed_estimator.clone(min_pts=5).fit(distances).labels_
    precomputed_identical = bool(np.array_equal(cosine_labels, precomputed_labels))
    sparse_dense_close = bool(np.allclose(distances, dense_distances, atol=1e-10))

    parity = {
        "tiers_identical": bool(tiers_identical),
        "executors_identical": bool(executors_identical),
        "precomputed_identical": precomputed_identical,
        "sparse_dense_close": sparse_dense_close,
    }
    if not all(parity.values()):
        failed = ", ".join(name for name, ok in parity.items() if not ok)
        raise RuntimeError(f"text benchmark parity failed before timing: {failed}")

    ari = float(adjusted_rand_index(dataset.y, cosine_labels))

    # --- Wall-clock -----------------------------------------------------
    timings = {
        "cosine_csr_s": _timed(
            lambda: pairwise_distances(X_csr, metric="cosine"), rounds=rounds
        ),
        "cosine_dense_s": _timed(
            lambda: pairwise_distances(X_dense, metric="cosine"), rounds=rounds
        ),
        "precomputed_s": _timed(
            lambda: pairwise_distances(distances, metric="precomputed"), rounds=rounds
        ),
    }

    # --- Memory ---------------------------------------------------------
    csr_peak = _peak_bytes(lambda: pairwise_distances(X_csr, metric="cosine"))
    dense_peak = _peak_bytes(
        lambda: pairwise_distances(np.asarray(X_csr.todense()), metric="cosine")
    )
    clear_distance_cache()

    memory = {
        "csr_peak_bytes": csr_peak,
        "dense_peak_bytes": dense_peak,
        "ratio": dense_peak / csr_peak if csr_peak else 0.0,
    }
    values = {f"parity/{key}": value for key, value in parity.items()}
    values["quality/ari"] = ari
    values.update((f"timings/{key}", value) for key, value in timings.items())
    values.update((f"memory/{key}", value) for key, value in memory.items())
    density = float(dataset.meta["density"])
    context = {
        "grid": (
            f"{N_DOCUMENTS} docs x {VOCABULARY_SIZE} terms, density {density:.3f}; "
            "parity asserted before timing"
        ),
        "settings": {
            "n_documents": int(N_DOCUMENTS),
            "n_topics": int(N_TOPICS),
            "vocabulary_size": int(VOCABULARY_SIZE),
            "words_per_document": int(WORDS_PER_DOCUMENT),
            "density": density,
            "minpts_range": [int(value) for value in config.minpts_range],
            "n_folds": int(config.n_folds),
            "rounds": int(rounds),
        },
    }
    return make_record("text", values, METRICS, context=context)
