"""Design-choice ablations (beyond the paper's reported experiments).

The paper motivates three design decisions that are easy to get wrong when
re-implementing CVCP; each ablation quantifies the effect of reversing one
of them:

* :func:`closure_leakage_ablation` — split *constraints* naively instead of
  splitting *objects* and re-closing per side (Section 3.1 / Figure 2).  The
  naive split leaks derived constraints into the test fold, so its internal
  scores are inflated relative to the leak-free protocol.
* :func:`fold_count_ablation` — how the number of folds affects the quality
  of the parameter CVCP selects.
* :func:`scorer_ablation` — class-averaged F-measure versus plain constraint
  accuracy as the internal score (Section 3.2 argues for the F-measure
  because the two constraint classes are usually very imbalanced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import ConstraintSet
from repro.core.cvcp import CVCP
from repro.core.folds import CVCPFold
from repro.core.scoring import score_partition
from repro.datasets.base import Dataset
from repro.evaluation.external import overall_f_measure
from repro.experiments.artifacts import ArtifactStore, experiment_key
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import (
    AlgorithmName,
    ScenarioName,
    SideInformation,
    make_side_information,
    selection_template,
)
from repro.utils.rng import RandomStateLike, check_random_state


@dataclass
class AblationResult:
    """A named collection of comparable measurements."""

    name: str
    measurements: dict[str, float]

    def as_rows(self) -> list[tuple[str, float]]:
        return sorted(self.measurements.items())


def _run_ablation(
    name: str,
    scenario: ScenarioName,
    measure: Callable[[np.random.Generator, SideInformation, BaseClusterer, list[int]], dict],
    dataset: Dataset,
    algorithm: AlgorithmName,
    amount: float,
    config: ExperimentConfig,
    random_state: RandomStateLike,
    store: ArtifactStore | None,
    **fields,
) -> AblationResult:
    """One ablation: served from its ``"ablation"`` artifact, else measured and landed.

    ``measure(rng, side, estimator, values)`` returns the measurements;
    it receives the generator after the side information of ``scenario``
    and the template have been drawn from it.  A generator
    ``random_state`` cannot be serialised into a stable key, so such
    ablations always recompute; no seed (``config.seed``) or an integer is
    cacheable.  ``fields`` are the ablation's own key entries.
    """
    seed = random_state if random_state is not None else config.seed
    key = None
    if store is not None and isinstance(seed, (int, np.integer)):
        key = experiment_key(config, dataset, algorithm, amount, ablation=name, seed=int(seed), **fields)
        cached = store.fetch("ablation", key)
        if cached is not None:
            return AblationResult(name=cached["name"], measurements=dict(cached["measurements"]))
    rng = check_random_state(seed)
    side = make_side_information(dataset, scenario, amount, random_state=rng)
    estimator, values = selection_template(algorithm, dataset, config, rng)
    result = AblationResult(name=name, measurements=measure(rng, side, estimator, values))
    if key is not None:
        store.land("ablation", key, {"name": result.name, "measurements": result.measurements})
    return result


def _naive_constraint_folds(
    constraints: ConstraintSet, n_folds: int, rng: np.random.Generator
) -> list[CVCPFold]:
    """Fold construction that splits constraints instead of objects.

    This is the flawed protocol Section 3.1 warns about: the transitive
    closure of the training constraints can contain constraints that also
    sit in the test fold, so test information is implicitly available during
    training.
    """
    all_constraints = list(constraints)
    rng.shuffle(all_constraints)
    folds: list[list] = [[] for _ in range(n_folds)]
    for position, constraint in enumerate(all_constraints):
        folds[position % n_folds].append(constraint)

    results = []
    for fold_index in range(n_folds):
        test = ConstraintSet(folds[fold_index])
        training = ConstraintSet(
            c for other in range(n_folds) if other != fold_index for c in folds[other]
        )
        results.append(
            CVCPFold(
                index=fold_index,
                training_constraints=transitive_closure(training, strict=False),
                test_constraints=test,
                training_objects=training.involved_objects(),
                test_objects=test.involved_objects(),
            )
        )
    return results


def closure_leakage_ablation(
    dataset: Dataset,
    *,
    algorithm: AlgorithmName = "fosc",
    amount: float = 0.20,
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """Internal-score inflation of the naive constraint split vs the proper one.

    Returns the mean internal score of the best parameter under the proper
    object-split protocol and under the naive constraint-split protocol.
    The naive protocol's score is expected to be higher (optimistically
    biased) because derived test constraints are implicitly available at
    training time.
    """
    config = config or default_config()

    def measure(rng, side, estimator, values) -> dict:
        proper = CVCP(estimator, values, n_folds=config.n_folds, refit=False, random_state=rng,
                      execution=config.execution)
        side.fit(proper, dataset.X)

        naive_folds = _naive_constraint_folds(
            transitive_closure(side.constraints, strict=False), proper.cv_results_.n_folds, rng
        )
        naive_best = -np.inf
        for value in values:
            fold_scores = []
            for fold in naive_folds:
                model = estimator.clone(**{estimator.tuned_parameter: value})
                if "random_state" in model.get_params():
                    model.set_params(random_state=int(rng.integers(0, 2**31 - 1)))
                model.fit(dataset.X, constraints=fold.training_constraints)
                fold_scores.append(
                    score_partition(model.labels_, fold.test_constraints, scoring="average_f")
                )
            naive_best = max(naive_best, float(np.mean(fold_scores)))

        return {
            "proper_best_internal_score": float(proper.cv_results_.best_score),
            "naive_best_internal_score": float(naive_best),
            "inflation": float(naive_best - proper.cv_results_.best_score),
        }

    return _run_ablation(
        "closure-leakage", "constraints", measure, dataset, algorithm, amount, config, random_state, store
    )


def fold_count_ablation(
    dataset: Dataset,
    *,
    algorithm: AlgorithmName = "fosc",
    amount: float = 0.10,
    fold_counts: tuple[int, ...] = (2, 3, 5, 10),
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """External quality of the CVCP-selected parameter for several fold counts."""
    config = config or default_config()

    def measure(rng, side, estimator, values) -> dict:
        measurements: dict[str, float] = {}
        for n_folds in fold_counts:
            search = CVCP(estimator, values, n_folds=n_folds, refit=True,
                          random_state=int(rng.integers(0, 2**31 - 1)),
                          execution=config.execution)
            side.fit(search, dataset.X)
            measurements[f"n_folds={n_folds}"] = overall_f_measure(
                dataset.y, search.labels_, exclude=side.involved_objects
            )
        return measurements

    return _run_ablation(
        "fold-count",
        "labels",
        measure,
        dataset,
        algorithm,
        amount,
        config,
        random_state,
        store,
        fold_counts=[int(count) for count in fold_counts],
    )


def scorer_ablation(
    dataset: Dataset,
    *,
    algorithm: AlgorithmName = "fosc",
    amount: float = 0.10,
    scorers: tuple[str, ...] = ("average_f", "accuracy", "must_link_f"),
    config: ExperimentConfig | None = None,
    random_state: RandomStateLike = None,
    store: ArtifactStore | None = None,
) -> AblationResult:
    """External quality of the parameter chosen under different internal scorers."""
    config = config or default_config()

    def measure(rng, side, estimator, values) -> dict:
        measurements: dict[str, float] = {}
        for scoring in scorers:
            search = CVCP(estimator, values, n_folds=config.n_folds, scoring=scoring,
                          refit=True, random_state=int(rng.integers(0, 2**31 - 1)),
                          execution=config.execution)
            side.fit(search, dataset.X)
            measurements[scoring] = overall_f_measure(
                dataset.y, search.labels_, exclude=side.involved_objects
            )
        return measurements

    return _run_ablation(
        "internal-scorer",
        "labels",
        measure,
        dataset,
        algorithm,
        amount,
        config,
        random_state,
        store,
        scorers=[str(scoring) for scoring in scorers],
    )
