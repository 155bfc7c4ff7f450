"""Metric-matrix parity: every metric through every tier and executor.

The CI ``metric-matrix`` job runs this module once per metric
({euclidean, cosine, precomputed}); each run asserts that the exact
distance tiers (blockwise, memmap — plus the deprecated ``"dense"`` alias
of blockwise) and the serial/process executors all produce
*bit-identical* CVCP trials on the sparse
planted-topic corpus — before any benchmark in the repo is allowed to
time those paths.  A final cross-metric check pins the semantic link:
``metric = "precomputed"`` fed the cosine distance matrix must
reproduce the cosine trial's selection and labels exactly.
"""

import numpy as np
import pytest

from repro.clustering.distances import pairwise_distances
from repro.core.distance_backend import DISTANCE_BACKEND_ALIASES, EXACT_DISTANCE_BACKENDS
from repro.datasets.base import Dataset
from repro.datasets.text import make_text_blobs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_trials
from repro.utils.cache import clear_distance_cache

SEED = 20140324

CONFIG = ExperimentConfig(
    n_trials=1,
    n_folds=3,
    minpts_range=(3, 6),
    datasets=("Text",),
    seed=SEED,
)

METRICS = ("euclidean", "cosine", "precomputed")
EXECUTORS = ("serial", "process")


@pytest.fixture(scope="module")
def corpus():
    """A small sparse planted-topic corpus (the shared workload)."""
    return make_text_blobs(
        n_documents=90,
        n_topics=3,
        vocabulary_size=180,
        words_per_document=80,
        random_state=SEED,
    )


def _dataset_for(corpus: Dataset, metric: str) -> Dataset:
    """The corpus under one metric (precomputed = its cosine distances)."""
    if metric == "precomputed":
        distances = pairwise_distances(corpus.X, metric="cosine")
        return Dataset(
            name="text-precomputed",
            X=distances,
            y=corpus.y,
            description="cosine distances of the text corpus",
            metric="precomputed",
        )
    return corpus.with_metric(metric)


def _trial(
    dataset: Dataset, *, distance_backend: str = "blockwise", backend: str = "serial"
) -> dict:
    clear_distance_cache()
    config = CONFIG.with_execution(
        distance_backend=distance_backend, backend=backend,
        n_jobs=2 if backend != "serial" else None,
    )
    trials = run_trials(
        dataset, "fosc", "labels", 0.10, 1, config=config, random_state=SEED
    )
    return trials[0].to_dict()


@pytest.fixture(scope="module")
def reference(corpus):
    """Blockwise/serial reference trial per metric."""
    return {
        metric: _trial(_dataset_for(corpus, metric)) for metric in METRICS
    }


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("tier", EXACT_DISTANCE_BACKENDS + tuple(DISTANCE_BACKEND_ALIASES))
@pytest.mark.filterwarnings("ignore:distance_backend='dense' is deprecated:DeprecationWarning")
class TestTierParity:
    def test_tier_bit_identical_to_blockwise(self, corpus, reference, metric, tier):
        trial = _trial(_dataset_for(corpus, metric), distance_backend=tier)
        assert trial == reference[metric]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("executor", EXECUTORS)
class TestExecutorParity:
    def test_executor_bit_identical_to_serial(self, corpus, reference, metric, executor):
        trial = _trial(_dataset_for(corpus, metric), backend=executor)
        assert trial == reference[metric]


@pytest.mark.parametrize("metric", METRICS)
class TestCrossMetric:
    def test_precomputed_reproduces_cosine(self, reference, metric):
        """The cross-metric contract rides along with every metric's run."""
        if metric != "precomputed":
            pytest.skip("cross-metric check runs once, under the precomputed id")
        assert reference["precomputed"] == reference["cosine"]

    def test_distinct_metrics_key_distinct_artifacts(self, corpus, metric):
        """Same matrix bytes under different metrics never share a key."""
        from repro.experiments.runner import trial_artifact_key

        dataset = _dataset_for(corpus, metric)
        key = trial_artifact_key(CONFIG, dataset, "fosc", "labels", 0.10, SEED)
        other = _dataset_for(corpus, "euclidean" if metric != "euclidean" else "cosine")
        other_key = trial_artifact_key(CONFIG, other, "fosc", "labels", 0.10, SEED)
        assert key != other_key


class TestPrecomputedCacheMiss:
    def test_changed_matrix_never_hits_stale_artifact(self, corpus, tmp_path):
        """Editing the matrix re-keys the trial: no stale artifact is served."""
        from repro.experiments.artifacts import ArtifactStore

        dataset = _dataset_for(corpus, "precomputed")
        store = ArtifactStore(tmp_path / "store")
        first = run_trials(
            dataset, "fosc", "labels", 0.10, 1,
            config=CONFIG, random_state=SEED, store=store,
        )[0].to_dict()
        assert store.stats_for("trial").misses == 1

        # A second identical run is served entirely from cache...
        again = run_trials(
            dataset, "fosc", "labels", 0.10, 1,
            config=CONFIG, random_state=SEED, store=store,
        )[0].to_dict()
        assert again == first
        assert store.stats_for("trial").hits == 1

        # ...but perturbing one matrix entry (symmetrically) re-keys the
        # trial and recomputes: the changed matrix can never hit the old
        # artifact, because the matrix bytes are part of the key.
        perturbed = np.array(dataset.X, copy=True)
        i, j = 0, perturbed.shape[0] - 1
        perturbed[i, j] = perturbed[j, i] = perturbed[i, j] * 1.5 + 0.01
        changed = Dataset(
            name=dataset.name, X=perturbed, y=dataset.y,
            description=dataset.description, metric="precomputed",
        )
        hits_before = store.stats_for("trial").hits
        run_trials(
            changed, "fosc", "labels", 0.10, 1,
            config=CONFIG, random_state=SEED, store=store,
        )
        assert store.stats_for("trial").hits == hits_before
        assert store.stats_for("trial").misses == 2
