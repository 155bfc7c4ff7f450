"""Experiment harness reproducing the paper's evaluation (Section 4).

* :mod:`repro.experiments.config` — the paper's parameter ranges, side
  information amounts and reference values, plus the scaled-down defaults
  the benchmarks use.
* :mod:`repro.experiments.runner` — single-trial drivers: run one
  algorithm on one data set with one amount of side information, returning
  internal scores, external scores, and the CVCP / Expected / Silhouette
  selections.
* :mod:`repro.experiments.correlation` — Tables 1–4 (correlation of
  internal scores with the Overall F-Measure).
* :mod:`repro.experiments.comparison` — Tables 5–16 and Figures 9–12
  (CVCP vs Expected vs Silhouette performance).
* :mod:`repro.experiments.figures` — Figures 5–8 (score curves over the
  parameter range for a representative ALOI data set).
* :mod:`repro.experiments.robustness` — noise-robustness sweeps: CVCP
  selection accuracy and quality as the oracle flip rate grows.
* :mod:`repro.experiments.ablation` — extra design-choice ablations.
* :mod:`repro.experiments.reporting` — plain-text table rendering and
  report emission through the artifact store.
* :mod:`repro.experiments.artifacts` — content-addressed, resumable
  artifact store persisting per-trial results.
* :mod:`repro.experiments.pipeline` — declarative TOML/JSON pipeline specs
  and the driver behind the ``repro`` CLI.
* :mod:`repro.experiments.fleet` — work-stealing fleet orchestration:
  lease files over the artifact store, unit enumeration, worker registry
  and the ``repro run --worker`` / ``repro status`` machinery.
* :mod:`repro.experiments.dashboard` — the static-HTML quality dashboard
  behind ``repro dashboard``.
"""

from repro.experiments.artifacts import (
    ArtifactStore,
    StoreStats,
    trial_config_fingerprint,
)

from repro.experiments.config import (
    ExperimentConfig,
    PAPER_CONFIG,
    QUICK_CONFIG,
    default_config,
    k_range_for_dataset,
    MINPTS_RANGE,
    LABEL_FRACTIONS,
    CONSTRAINT_FRACTIONS,
)
from repro.experiments.pipeline import (
    ConfigError,
    PipelineResult,
    PipelineSpec,
    load_pipeline_spec,
    pipeline_spec_from_mapping,
    run_pipeline,
    validate_pipeline_file,
)
from repro.experiments.runner import (
    TrialResult,
    run_trial,
    run_trials,
    make_side_information,
    algorithm_factory,
    trial_artifact_key,
)
from repro.experiments.correlation import correlation_table, CorrelationTable
from repro.experiments.comparison import (
    comparison_table,
    ComparisonRow,
    ComparisonTable,
    aloi_distribution,
)
from repro.experiments.figures import parameter_curves, ParameterCurves
from repro.experiments.robustness import (
    NoiseRobustnessTable,
    RobustnessRow,
    noise_robustness_table,
)
from repro.experiments.ablation import (
    closure_leakage_ablation,
    fold_count_ablation,
    scorer_ablation,
)
from repro.experiments.dashboard import render_dashboard, write_dashboard
from repro.experiments.fleet import (
    FleetSettings,
    FleetStats,
    FleetStatus,
    LeaseManager,
    TrialUnit,
    WorkerRunReport,
    enumerate_units,
    fleet_status,
    format_fleet_status,
    run_worker,
    work_steal,
)
from repro.experiments.reporting import (
    format_table,
    format_correlation_table,
    format_comparison_table,
    format_boxplot_summary,
    format_robustness_table,
    render_report,
    write_report,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "trial_config_fingerprint",
    "ConfigError",
    "PipelineResult",
    "PipelineSpec",
    "load_pipeline_spec",
    "pipeline_spec_from_mapping",
    "run_pipeline",
    "validate_pipeline_file",
    "trial_artifact_key",
    "render_report",
    "write_report",
    "ExperimentConfig",
    "PAPER_CONFIG",
    "QUICK_CONFIG",
    "default_config",
    "k_range_for_dataset",
    "MINPTS_RANGE",
    "LABEL_FRACTIONS",
    "CONSTRAINT_FRACTIONS",
    "TrialResult",
    "run_trial",
    "run_trials",
    "make_side_information",
    "algorithm_factory",
    "correlation_table",
    "CorrelationTable",
    "comparison_table",
    "ComparisonRow",
    "ComparisonTable",
    "aloi_distribution",
    "parameter_curves",
    "ParameterCurves",
    "NoiseRobustnessTable",
    "RobustnessRow",
    "noise_robustness_table",
    "closure_leakage_ablation",
    "fold_count_ablation",
    "scorer_ablation",
    "format_table",
    "format_correlation_table",
    "format_comparison_table",
    "format_boxplot_summary",
    "format_robustness_table",
    "FleetSettings",
    "FleetStats",
    "FleetStatus",
    "LeaseManager",
    "TrialUnit",
    "WorkerRunReport",
    "enumerate_units",
    "fleet_status",
    "format_fleet_status",
    "run_worker",
    "work_steal",
    "render_dashboard",
    "write_dashboard",
]
