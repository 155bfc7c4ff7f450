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

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AlgorithmCandidate": ".algorithm_selection",
        "AlgorithmSelectionResult": ".algorithm_selection",
        "CVCPAlgorithmSelector": ".algorithm_selection",
        "CVCPFold": ".folds",
        "label_scenario_folds": ".folds",
        "constraint_scenario_folds": ".folds",
        "make_folds": ".folds",
        "constraint_f_score": ".scoring",
        "constraint_accuracy_score": ".scoring",
        "score_partition": ".scoring",
        "SCORERS": ".scoring",
        "ParameterEvaluation": ".model_selection",
        "CVCPResult": ".model_selection",
        "expected_quality": ".model_selection",
        "CVCP": ".cvcp",
        "NoTestConstraintsWarning": ".cvcp",
        "DISTANCE_BACKENDS": ".distance_backend",
        "clear_spill_directory": ".distance_backend",
        "resolve_distance_backend": ".distance_backend",
        "spill_directory": ".distance_backend",
        "BACKENDS": ".executor",
        "ExecutionSpec": ".executor",
        "derive_seed": ".executor",
        "resolve_n_jobs": ".executor",
        "run_tasks": ".executor",
    },
)
