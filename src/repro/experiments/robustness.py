"""Noise-robustness experiments: how much annotator error can CVCP absorb?

The paper evaluates CVCP under a perfect oracle.  This extension sweeps a
per-query flip rate through :class:`~repro.constraints.oracles.NoisyOracle`
and measures, per algorithm and data set,

* **selection accuracy** — the fraction of trials in which CVCP under the
  noisy oracle selects the *same* parameter value it selects under the
  perfect oracle at the same trial seed (flip rate 0 is the baseline, so
  its accuracy is 1 by construction);
* **selection quality** — the mean external Overall F-Measure of the
  selected parameter, which shows how much of the noise-induced selection
  drift actually costs clustering quality.

Trials at different flip rates share their trial seeds *and* their random
streams (the noisy oracle advances its generator by the same number of
draws at every rate, and rate 0 runs through the noisy oracle too), so the
comparison is strictly paired: folds, estimator seeds and refit seeds are
identical across rates and only the corrupted answers differ.  Each
(algorithm, data set, flip rate) cell is cached independently in the
artifact store — the oracle spec is part of every trial key — so
re-running a sweep with one extra rate reuses every already-computed rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.constraints.oracles import ConstraintOracle, NoisyOracle
from repro.datasets.registry import get_dataset
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import AlgorithmName, ScenarioName, TrialBatch, TrialResult, run_batches
from repro.utils.rng import RandomStateLike, check_random_state

#: Flip rates swept when the caller does not specify any.
DEFAULT_FLIP_RATES: tuple[float, ...] = (0.0, 0.1, 0.25)


@dataclass
class RobustnessRow:
    """One (data set, flip rate) cell of a noise-robustness table."""

    dataset: str
    flip_rate: float
    #: Per-trial parameter selections under this flip rate, trial order.
    selected_values: list[int] = field(default_factory=list)
    #: Per-trial selections of the rate-0 baseline (same trial seeds).
    baseline_values: list[int] = field(default_factory=list)
    #: Per-trial external quality of the selected parameter.
    qualities: list[float] = field(default_factory=list)

    @property
    def selection_accuracy(self) -> float:
        """Fraction of trials agreeing with the perfect-oracle selection."""
        if not self.selected_values:
            return float("nan")
        matches = sum(
            1 for noisy, clean in zip(self.selected_values, self.baseline_values) if noisy == clean
        )
        return matches / len(self.selected_values)

    @property
    def quality_mean(self) -> float:
        return float(np.mean(self.qualities)) if self.qualities else float("nan")

    @property
    def quality_std(self) -> float:
        return float(np.std(self.qualities, ddof=1)) if len(self.qualities) > 1 else 0.0

    def as_summary(self) -> dict:
        """JSON-ready summary of this cell (used by ``summary.json``)."""
        return {
            "flip_rate": float(self.flip_rate),
            "selection_accuracy": self.selection_accuracy,
            "cvcp_quality_mean": self.quality_mean,
            "cvcp_quality_std": self.quality_std,
            "selected_values": list(self.selected_values),
        }


@dataclass
class NoiseRobustnessTable:
    """Selection accuracy and quality vs. flip rate for one algorithm."""

    algorithm: AlgorithmName
    scenario: ScenarioName
    amount: float
    repair: bool
    flip_rates: list[float]
    datasets: list[str]
    rows: list[RobustnessRow] = field(default_factory=list)

    def rows_for(self, dataset: str) -> list[RobustnessRow]:
        """The rows of one data set, in ascending flip-rate order."""
        return [row for row in self.rows if row.dataset == dataset]


def _oracle_for(flip_rate: float, repair: bool) -> ConstraintOracle:
    """Every arm — including the rate-0 baseline — uses the noisy oracle.

    ``NoisyOracle`` advances the random stream by the same number of draws
    at every flip probability, so trials at different rates share their
    folds, estimator seeds and refit seeds and differ *only* in the
    corrupted answers.  Using ``PerfectOracle`` for the baseline would
    consume fewer draws and silently attribute rng-stream divergence to
    noise.
    """
    return NoisyOracle(flip_probability=flip_rate, repair=repair)


def swept_flip_rates(flip_rates: Iterable[float]) -> list[float]:
    """The flip rates a sweep runs: ``flip_rates`` plus the rate-0 baseline, ascending."""
    return sorted({0.0} | {float(rate) for rate in flip_rates})


def robustness_batches(
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    rates: Sequence[float],
    repair: bool,
    config: ExperimentConfig,
    random_state: RandomStateLike,
) -> Iterator[tuple[str, list[TrialBatch]]]:
    """``(name, batches)`` per data set, one batch per flip rate of ``rates``.

    Per name, the generator of ``random_state`` draws one data-set seed and
    one batch seed that every rate shares.  :func:`noise_robustness_table`
    and :func:`repro.experiments.pipeline.trial_batches` both read it.
    """
    rng = check_random_state(random_state)
    for name in config.datasets:
        dataset = get_dataset(name, random_state=int(rng.integers(0, 2**31 - 1)))
        seed = int(rng.integers(0, 2**31 - 1))
        yield name, [
            TrialBatch(name, dataset, algorithm, scenario, amount, seed, _oracle_for(rate, repair))
            for rate in rates
        ]


def noise_robustness_table(
    algorithm: AlgorithmName,
    scenario: ScenarioName,
    amount: float,
    *,
    flip_rates: tuple[float, ...] | list[float] = DEFAULT_FLIP_RATES,
    repair: bool = False,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
    parallelize: str = "grid",
) -> NoiseRobustnessTable:
    """Sweep the oracle flip rate and measure CVCP selection robustness.

    Parameters
    ----------
    algorithm / scenario / amount:
        The trial configuration whose robustness is measured, exactly as in
        :func:`repro.experiments.runner.run_trials`.
    flip_rates:
        Per-query corruption probabilities to sweep.  Rate ``0.0`` (the
        perfect-oracle baseline every accuracy is measured against) is
        always included, whether or not it is listed.
    repair:
        Whether the noisy oracle repairs closure consistency after
        flipping (see
        :func:`repro.constraints.oracles.repair_closure_consistency`).
    config / random_state / store / parallelize:
        As in the other experiment drivers.  Every data set draws one trial
        seed that is shared across all flip rates, which makes the accuracy
        comparison paired per trial.
    """
    config = config or default_config()
    rng = check_random_state(random_state if random_state is not None else config.seed)
    rates = swept_flip_rates(flip_rates)
    for rate in rates:
        if not 0 <= rate <= 1:
            raise ValueError(f"flip rates must be in [0, 1], got {rate!r}")

    table = NoiseRobustnessTable(
        algorithm=algorithm,
        scenario=scenario,
        amount=amount,
        repair=bool(repair),
        flip_rates=rates,
        datasets=list(config.datasets),
    )
    for name, batches in robustness_batches(algorithm, scenario, amount, rates, repair, config, rng):
        baseline: list[TrialResult] | None = None
        for rate, batch in zip(rates, batches):
            trials = run_batches([batch], config, store=store, parallelize=parallelize)
            if baseline is None:
                baseline = trials
            table.rows.append(
                RobustnessRow(
                    dataset=name,
                    flip_rate=rate,
                    selected_values=[trial.cvcp_value for trial in trials],
                    baseline_values=[trial.cvcp_value for trial in baseline],
                    qualities=[trial.cvcp_quality for trial in trials],
                )
            )
    return table
