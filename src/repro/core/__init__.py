"""CVCP — Cross-Validation for finding Clustering Parameters.

The paper's primary contribution: a model-selection framework for
semi-supervised clustering.  The workflow (Section 3) is

1. build constraint-aware cross-validation folds from the available side
   information (:mod:`repro.core.folds`, Scenario I for labelled objects,
   Scenario II for raw pairwise constraints);
2. for every candidate parameter value, cluster with the training-fold
   information and score the partition as a classifier over the test-fold
   constraints (:mod:`repro.core.scoring`);
3. select the parameter with the best cross-validated score and refit with
   all available information (:class:`repro.core.cvcp.CVCP`).

:mod:`repro.core.model_selection` holds the result containers and the
"expected performance" reference used in the paper's comparison; the
Silhouette baseline is computed per trial in :mod:`repro.experiments.runner`.
"""

from repro.core.folds import (
    CVCPFold,
    label_scenario_folds,
    constraint_scenario_folds,
    make_folds,
)
from repro.core.scoring import (
    constraint_f_score,
    constraint_accuracy_score,
    score_partition,
    SCORERS,
)
from repro.core.model_selection import (
    ParameterEvaluation,
    CVCPResult,
    expected_quality,
)
from repro.core.cvcp import CVCP, NoTestConstraintsWarning
from repro.core.distance_backend import (
    DISTANCE_BACKENDS,
    clear_spill_directory,
    resolve_distance_backend,
    spill_directory,
)
from repro.core.executor import (
    BACKENDS,
    ExecutionSpec,
    derive_seed,
    resolve_n_jobs,
    run_tasks,
)
from repro.core.algorithm_selection import (
    AlgorithmCandidate,
    AlgorithmSelectionResult,
    CVCPAlgorithmSelector,
)

__all__ = [
    "AlgorithmCandidate",
    "AlgorithmSelectionResult",
    "CVCPAlgorithmSelector",
    "CVCPFold",
    "label_scenario_folds",
    "constraint_scenario_folds",
    "make_folds",
    "constraint_f_score",
    "constraint_accuracy_score",
    "score_partition",
    "SCORERS",
    "ParameterEvaluation",
    "CVCPResult",
    "expected_quality",
    "CVCP",
    "NoTestConstraintsWarning",
    "DISTANCE_BACKENDS",
    "clear_spill_directory",
    "resolve_distance_backend",
    "spill_directory",
    "BACKENDS",
    "ExecutionSpec",
    "derive_seed",
    "resolve_n_jobs",
    "run_tasks",
]
