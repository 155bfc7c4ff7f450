"""Quality-comparison experiments (Tables 5–16 and Figures 9–12).

For every data set and amount of side information the mean and standard
deviation (over trials) of the external Overall F-Measure is reported for

* **CVCP** — the parameter selected by cross-validated constraint
  classification,
* **Expected** — the average over the whole parameter range (guessing),
* **Silhouette** — the parameter with the best Silhouette coefficient
  (reported for MPCKMeans, as in the paper).

The winner of each row is flagged when its advantage is statistically
significant under a paired t-test at α = 0.05, mirroring the bold entries
of the paper's tables.  :func:`aloi_distribution` returns the raw per-trial
quality values on the ALOI collection, i.e. the data behind the box plots
of Figures 9–12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.constraints.oracles import ConstraintOracle
from repro.datasets.registry import get_dataset_collection
from repro.evaluation.significance import paired_t_test
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import AlgorithmName, ScenarioName, TrialBatch, run_batches
from repro.utils.rng import RandomStateLike, check_random_state


@dataclass
class ComparisonRow:
    """One data-set row of a comparison table.

    ``cvcp``, ``expected`` and ``silhouette`` hold the per-trial external
    qualities; means/stds and the significance flag are derived properties.
    """

    dataset: str
    cvcp: list[float]
    expected: list[float]
    silhouette: list[float] = field(default_factory=list)
    #: CVCP-selected parameter value per trial (MinPts or k), in trial
    #: order — what the resumable pipeline compares across re-runs to
    #: prove cached artifacts reproduce the original selections.
    cvcp_values: list[int] = field(default_factory=list)

    @property
    def cvcp_mean(self) -> float:
        return float(np.mean(self.cvcp))

    @property
    def cvcp_std(self) -> float:
        return float(np.std(self.cvcp, ddof=1)) if len(self.cvcp) > 1 else 0.0

    @property
    def expected_mean(self) -> float:
        return float(np.mean(self.expected))

    @property
    def expected_std(self) -> float:
        return float(np.std(self.expected, ddof=1)) if len(self.expected) > 1 else 0.0

    @property
    def silhouette_mean(self) -> float:
        return float(np.mean(self.silhouette)) if self.silhouette else float("nan")

    @property
    def silhouette_std(self) -> float:
        return float(np.std(self.silhouette, ddof=1)) if len(self.silhouette) > 1 else 0.0

    @property
    def methods(self) -> dict[str, list[float]]:
        named = {"CVCP": self.cvcp, "Expected": self.expected}
        if self.silhouette:
            named["Silhouette"] = self.silhouette
        return named

    @property
    def winner(self) -> str:
        """Name of the method with the best mean quality."""
        named = self.methods
        return max(named, key=lambda name: float(np.mean(named[name])))

    @property
    def winner_significant(self) -> bool:
        """Whether the winner beats every alternative at α = 0.05 (paired t-test)."""
        named = self.methods
        winner = self.winner
        winning_scores = named[winner]
        if len(winning_scores) < 2:
            return False
        for name, scores in named.items():
            if name == winner:
                continue
            result = paired_t_test(winning_scores, scores)
            if not result.significant() or result.mean_difference <= 0:
                return False
        return True


@dataclass
class ComparisonTable:
    """One of Tables 5–16."""

    algorithm: AlgorithmName
    scenario: ScenarioName
    amount: float
    rows: list[ComparisonRow] = field(default_factory=list)

    def row_for(self, dataset: str) -> ComparisonRow:
        for row in self.rows:
            if row.dataset == dataset:
                return row
        raise KeyError(f"no row for data set {dataset!r}")


def table_batches(
    names: Sequence[str],
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    config: ExperimentConfig,
    random_state: RandomStateLike,
    oracle: ConstraintOracle | None = None,
) -> Iterator[tuple[str, list[TrialBatch]]]:
    """``(name, batches)`` of one table row per data-set name, in draw order.

    Per name, the generator draws one data-set seed — the ALOI column is a
    collection of ``config.n_aloi_datasets`` members, every other name a
    single data set — then one batch seed per member (an int
    ``random_state`` starts a fresh generator; a generator is consumed in
    place).  The comparison and correlation tables and
    :func:`repro.experiments.pipeline.trial_batches` all read it.
    """
    rng = check_random_state(random_state)
    for name in names:
        members = get_dataset_collection(
            name, n_datasets=config.n_aloi_datasets, random_state=int(rng.integers(0, 2**31 - 1))
        )
        yield name, [
            TrialBatch(
                name, dataset, algorithm, scenario, amount, int(rng.integers(0, 2**31 - 1)), oracle
            )
            for dataset in members
        ]


def comparison_table(
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    *,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    include_silhouette: bool | None = None,
    store: ArtifactStore | None = None,
    parallelize: str = "grid",
    oracle: ConstraintOracle | None = None,
) -> ComparisonTable:
    """Compute one comparison table.

    Paper mapping (label scenario): Tables 5/6/7 are
    ``("fosc", "labels", 0.05/0.10/0.20)``, Tables 8/9/10 are
    ``("mpck", "labels", ...)``; constraint scenario: Tables 11/12/13 are
    ``("fosc", "constraints", 0.10/0.20/0.50)`` and Tables 14/15/16 are
    ``("mpck", "constraints", ...)``.  With a ``store``, per-trial artifacts
    are reused and written through (see :mod:`repro.experiments.artifacts`).
    """
    config = config or default_config()
    rng = check_random_state(random_state if random_state is not None else config.seed)
    if include_silhouette is None:
        include_silhouette = algorithm == "mpck"

    table = ComparisonTable(algorithm=algorithm, scenario=scenario, amount=amount)
    for name, batches in table_batches(config.datasets, algorithm, scenario, amount, config, rng, oracle):
        trials = run_batches(batches, config, store=store, parallelize=parallelize)
        table.rows.append(
            ComparisonRow(
                dataset=name,
                cvcp=[trial.cvcp_quality for trial in trials],
                expected=[trial.expected_quality for trial in trials],
                silhouette=(
                    [trial.silhouette_quality for trial in trials]
                    if include_silhouette else []
                ),
                cvcp_values=[trial.cvcp_value for trial in trials],
            )
        )
    return table


def aloi_distribution(
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    *,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    include_silhouette: bool | None = None,
    store: ArtifactStore | None = None,
    parallelize: str = "grid",
    oracle: ConstraintOracle | None = None,
) -> dict[str, list[float]]:
    """Per-trial quality distributions on the ALOI collection (Figures 9–12).

    Returns a mapping from box label (e.g. ``"CVCP-10"``, ``"Exp-10"``,
    ``"Sil-10"``) to the list of Overall F-Measure values whose distribution
    the corresponding box plot shows.
    """
    config = config or default_config()
    rng = check_random_state(random_state if random_state is not None else config.seed)
    if include_silhouette is None:
        include_silhouette = algorithm == "mpck"
    distribution: dict[str, list[float]] = {}
    for amount in config.amounts_for(scenario):
        [(_, batches)] = table_batches(["ALOI"], algorithm, scenario, amount, config, rng, oracle)
        trials = run_batches(batches, config, store=store, parallelize=parallelize)
        tag = int(round(amount * 100))
        distribution[f"CVCP-{tag}"] = [trial.cvcp_quality for trial in trials]
        distribution[f"Exp-{tag}"] = [trial.expected_quality for trial in trials]
        if include_silhouette:
            distribution[f"Sil-{tag}"] = [trial.silhouette_quality for trial in trials]
    return distribution
