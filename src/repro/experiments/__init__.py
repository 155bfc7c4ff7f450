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

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ArtifactStore": ".artifacts",
        "StoreStats": ".artifacts",
        "trial_config_fingerprint": ".artifacts",
        "ConfigError": ".pipeline",
        "PipelineResult": ".pipeline",
        "PipelineSpec": ".pipeline",
        "load_pipeline_spec": ".pipeline",
        "pipeline_spec_from_mapping": ".pipeline",
        "run_pipeline": ".pipeline",
        "validate_pipeline_file": ".pipeline",
        "trial_artifact_key": ".runner",
        "render_report": ".reporting",
        "write_report": ".reporting",
        "ExperimentConfig": ".config",
        "PAPER_CONFIG": ".config",
        "QUICK_CONFIG": ".config",
        "default_config": ".config",
        "k_range_for_dataset": ".config",
        "MINPTS_RANGE": ".config",
        "LABEL_FRACTIONS": ".config",
        "CONSTRAINT_FRACTIONS": ".config",
        "TrialResult": ".runner",
        "run_trial": ".runner",
        "run_trials": ".runner",
        "make_side_information": ".runner",
        "algorithm_factory": ".runner",
        "correlation_table": ".correlation",
        "CorrelationTable": ".correlation",
        "comparison_table": ".comparison",
        "ComparisonRow": ".comparison",
        "ComparisonTable": ".comparison",
        "aloi_distribution": ".comparison",
        "parameter_curves": ".figures",
        "ParameterCurves": ".figures",
        "NoiseRobustnessTable": ".robustness",
        "RobustnessRow": ".robustness",
        "noise_robustness_table": ".robustness",
        "closure_leakage_ablation": ".ablation",
        "fold_count_ablation": ".ablation",
        "scorer_ablation": ".ablation",
        "format_table": ".reporting",
        "format_correlation_table": ".reporting",
        "format_comparison_table": ".reporting",
        "format_boxplot_summary": ".reporting",
        "format_robustness_table": ".reporting",
        "FleetSettings": ".fleet",
        "FleetStats": ".fleet",
        "FleetStatus": ".fleet",
        "LeaseManager": ".fleet",
        "TrialUnit": ".fleet",
        "WorkerRunReport": ".fleet",
        "enumerate_units": ".fleet",
        "fleet_status": ".fleet",
        "format_fleet_status": ".fleet",
        "run_worker": ".fleet",
        "work_steal": ".fleet",
        "render_dashboard": ".dashboard",
        "write_dashboard": ".dashboard",
    },
)
