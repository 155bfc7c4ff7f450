"""Correlation experiments (Tables 1–4 of the paper).

For every data set and every amount of side information, the Pearson
correlation between the CVCP internal classification scores and the
external Overall F-Measure is computed per trial (across the parameter
range) and averaged over trials.  For the ALOI column the average also runs
over the data sets of the collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constraints.oracles import ConstraintOracle
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.comparison import table_batches
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import AlgorithmName, ScenarioName, run_batches
from repro.utils.rng import RandomStateLike, check_random_state


@dataclass
class CorrelationTable:
    """One of Tables 1–4.

    Attributes
    ----------
    algorithm / scenario:
        Which algorithm and which scenario the table describes.
    amounts:
        Row keys (label fractions or constraint-pool fractions).
    datasets:
        Column keys (data-set names).
    values:
        ``values[amount][dataset]`` = mean correlation.
    """

    algorithm: AlgorithmName
    scenario: ScenarioName
    amounts: list[float]
    datasets: list[str]
    values: dict[float, dict[str, float]] = field(default_factory=dict)

    def row(self, amount: float) -> list[float]:
        """The correlations of one row, in ``datasets`` order."""
        return [self.values[amount][name] for name in self.datasets]

    def as_rows(self) -> list[list[object]]:
        """Rows ready for text formatting: ``[amount, corr, corr, ...]``."""
        return [[amount, *self.row(amount)] for amount in self.amounts]


def correlation_table(
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    *,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
    parallelize: str = "grid",
    oracle: ConstraintOracle | None = None,
) -> CorrelationTable:
    """Compute the correlation table for one algorithm and one scenario.

    Table 1 = ``("fosc", "labels")``, Table 2 = ``("mpck", "labels")``,
    Table 3 = ``("fosc", "constraints")``, Table 4 = ``("mpck", "constraints")``.
    With a ``store``, per-trial artifacts are reused and written through.
    """
    config = config or default_config()
    rng = check_random_state(random_state if random_state is not None else config.seed)
    amounts = config.amounts_for(scenario)

    table = CorrelationTable(
        algorithm=algorithm,
        scenario=scenario,
        amounts=amounts,
        datasets=list(config.datasets),
    )
    for amount in amounts:
        table.values[amount] = {}
        for name, batches in table_batches(config.datasets, algorithm, scenario, amount, config, rng, oracle):
            trials = run_batches(batches, config, store=store, parallelize=parallelize)
            table.values[amount][name] = float(np.mean([trial.correlation for trial in trials]))
    return table
