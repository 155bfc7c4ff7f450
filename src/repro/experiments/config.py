"""Experiment configuration: the paper's setup and scaled-down defaults.

The paper's setup (Section 4.1):

* FOSC-OPTICSDend sweeps ``MinPts ∈ {3, 6, 9, 12, 15, 18, 21, 24}``;
* MPCKMeans sweeps ``k ∈ {2, ..., M}`` with ``M`` a reasonable upper bound
  per data set (we use ``number of classes + 3``, capped at 10, which gives
  the ranges shown in Figures 6/8);
* label scenario: 5%, 10%, 20% of objects labelled;
* constraint scenario: a pool from 10% of each class, of which 10%, 20%,
  50% is given to the algorithm;
* every cell is averaged over 50 independent trials; the ALOI column is
  additionally averaged over the 100 data sets of the collection.

Running 50 trials over 100 ALOI data sets is hours of compute in pure
Python, so the benchmark harness defaults to :data:`QUICK_CONFIG` (fewer
trials, a handful of ALOI data sets, 5 folds); setting the environment
variable ``REPRO_FULL=1`` switches to :data:`PAPER_CONFIG`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.core.executor import ExecutionSpec
from repro.datasets.base import Dataset

#: MinPts values swept for FOSC-OPTICSDend (Section 4.1).
MINPTS_RANGE: tuple[int, ...] = (3, 6, 9, 12, 15, 18, 21, 24)

#: Fractions of labelled objects in the label scenario.
LABEL_FRACTIONS: tuple[float, ...] = (0.05, 0.10, 0.20)

#: Fractions of the constraint pool in the constraint scenario.
CONSTRAINT_FRACTIONS: tuple[float, ...] = (0.10, 0.20, 0.50)

#: Data sets in the order used by the paper's tables.
TABLE_DATASETS: tuple[str, ...] = ("ALOI", "Iris", "Wine", "Ionosphere", "Ecoli", "Zyeast")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    Attributes
    ----------
    n_trials:
        Independent repetitions per cell (the paper uses 50).
    n_folds:
        Cross-validation folds inside CVCP (the paper follows the usual
        10-fold convention; the quick configuration uses 5).
    n_aloi_datasets:
        How many data sets of the ALOI collection to average over
        (paper: 100).
    minpts_range:
        MinPts values for FOSC-OPTICSDend.
    label_fractions / constraint_fractions:
        Amounts of side information to evaluate.
    max_k:
        Hard upper cap on the swept ``k`` range.
    mpck_n_init / mpck_max_iter:
        Restart and iteration budget of MPCKMeans (reduced in the quick
        configuration to keep the benchmarks responsive).
    datasets:
        Data-set names to include (paper order).
    seed:
        Master seed; every trial derives its own child seed from it.
    backend:
        Execution backend for the CVCP grid and the trial loops
        (``"serial"``, ``"thread"`` or ``"process"``); see
        :mod:`repro.core.executor`.  All backends are bit-identical for a
        fixed seed.
    n_jobs:
        Worker count for the parallel backends (``None`` = all cores).
    distance_backend:
        Distance-matrix storage tier (``"blockwise"``, ``"memmap"`` or
        ``"neighbors"``; see :mod:`repro.core.distance_backend`).  ``None``
        defers to ``REPRO_DISTANCE_BACKEND``/the blockwise default.  The exact tiers are
        bit-identical, so they are deliberately *not* part of the trial
        artifact fingerprint — stores are shared across them.  The
        ``neighbors`` tier is approximate and *is* fingerprinted (together
        with ``epsilon``/``k_neighbors``), so its trials never shadow
        exact ones.
    epsilon / k_neighbors:
        Neighbour-graph radius and out-degree for the ``neighbors`` tier
        (``None`` defers to ``REPRO_NEIGHBOR_EPSILON`` /
        ``REPRO_NEIGHBOR_K``); ignored by the exact tiers.
    metric:
        Distance metric every resolved data set is evaluated under
        (``"euclidean"``, ``"cosine"`` or ``None``).  ``None`` keeps each
        data set's own default (euclidean for the UCI-style sets, cosine
        for ``"Text"``).  Non-Euclidean metrics become part of the trial
        artifact fingerprint, so cosine trials never shadow euclidean ones.
    """

    n_trials: int = 50
    n_folds: int = 10
    n_aloi_datasets: int = 100
    minpts_range: tuple[int, ...] = MINPTS_RANGE
    label_fractions: tuple[float, ...] = LABEL_FRACTIONS
    constraint_fractions: tuple[float, ...] = CONSTRAINT_FRACTIONS
    max_k: int = 10
    mpck_n_init: int = 3
    mpck_max_iter: int = 30
    datasets: tuple[str, ...] = TABLE_DATASETS
    seed: int = 20140324  # EDBT 2014 conference start date
    backend: str = "serial"
    n_jobs: int | None = None
    distance_backend: str | None = None
    epsilon: float | None = None
    k_neighbors: int | None = None
    metric: str | None = None

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def with_execution(
        self,
        backend: str | None = None,
        n_jobs: int | None = None,
        distance_backend: str | None = None,
        epsilon: float | None = None,
        k_neighbors: int | None = None,
        metric: str | None = None,
    ) -> "ExperimentConfig":
        """Copy with the execution engine overridden where arguments are given."""
        if (
            backend is None and n_jobs is None and distance_backend is None
            and epsilon is None and k_neighbors is None and metric is None
        ):
            return self
        return replace(
            self,
            backend=backend if backend is not None else self.backend,
            n_jobs=n_jobs if n_jobs is not None else self.n_jobs,
            distance_backend=(
                distance_backend if distance_backend is not None else self.distance_backend
            ),
            epsilon=epsilon if epsilon is not None else self.epsilon,
            k_neighbors=k_neighbors if k_neighbors is not None else self.k_neighbors,
            metric=metric if metric is not None else self.metric,
        )

    def execution_spec(self) -> ExecutionSpec:
        """The execution engine fields as one validated ``ExecutionSpec``."""
        return ExecutionSpec(
            backend=self.backend, n_jobs=self.n_jobs,
            distance_backend=self.distance_backend,
            epsilon=self.epsilon, k_neighbors=self.k_neighbors,
            metric=self.metric,
        )


#: The paper-scale configuration (50 trials, 100 ALOI data sets, 10 folds).
PAPER_CONFIG = ExperimentConfig()

#: A laptop-friendly configuration used by the benchmarks by default.
QUICK_CONFIG = ExperimentConfig(
    n_trials=2,
    n_folds=4,
    n_aloi_datasets=2,
    minpts_range=(3, 6, 9, 12, 15, 18),
    mpck_n_init=1,
    mpck_max_iter=10,
)


def default_config() -> ExperimentConfig:
    """Select the configuration from environment variables.

    ``REPRO_FULL=1`` switches to the paper-scale configuration;
    ``REPRO_BACKEND`` (``serial``/``thread``/``process``) and
    ``REPRO_N_JOBS`` select the execution engine without touching code,
    which is how the benchmark harness and CI exercise the parallel paths.
    (``REPRO_DISTANCE_BACKEND`` needs no plumbing here: a ``None``
    ``distance_backend`` defers to the environment at every use site — see
    :func:`repro.core.distance_backend.resolve_distance_backend`.)
    """
    if os.environ.get("REPRO_FULL", "").strip() in {"1", "true", "yes"}:
        config = PAPER_CONFIG
    else:
        config = QUICK_CONFIG
    backend = os.environ.get("REPRO_BACKEND", "").strip() or None
    n_jobs_raw = os.environ.get("REPRO_N_JOBS", "").strip()
    n_jobs = None
    if n_jobs_raw:
        try:
            n_jobs = int(n_jobs_raw)
        except ValueError:
            raise ValueError(
                f"REPRO_N_JOBS must be an integer, got {n_jobs_raw!r}"
            ) from None
    return config.with_execution(backend=backend, n_jobs=n_jobs)


def k_range_for_dataset(dataset: Dataset, *, max_k: int = 10) -> list[int]:
    """Candidate ``k`` values for a data set: ``2 .. min(n_classes + 3, max_k)``.

    The paper describes the range as ``[2, M]`` with ``M`` "an upper bound
    for the number of clusters that a user would reasonably specify"; the
    representative ALOI figures use 2–10 (label scenario) and 2–9
    (constraint scenario) for 5 true classes, i.e. roughly true k + 4/5.
    """
    upper = min(dataset.n_classes + 3, max_k)
    upper = max(upper, 3)
    return list(range(2, upper + 1))
