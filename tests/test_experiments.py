"""Tests for the experiment harness (runner, tables, figures, ablations, reporting).

These use a deliberately tiny configuration so the whole module runs in a
few seconds; the full-scale reproduction lives in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.core.executor import ExecutionSpec
from repro.datasets import make_aloi_k5_like, make_blobs
from repro.experiments import (
    QUICK_CONFIG,
    ExperimentConfig,
    aloi_distribution,
    comparison_table,
    correlation_table,
    default_config,
    k_range_for_dataset,
    make_side_information,
    parameter_curves,
    run_trial,
    run_trials,
)
from repro.experiments.ablation import (
    closure_leakage_ablation,
    fold_count_ablation,
    scorer_ablation,
)
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.reporting import (
    format_boxplot_summary,
    format_comparison_table,
    format_correlation_table,
    format_curves,
    format_table,
)
from repro.utils.specs import SpecError

TINY = ExperimentConfig(
    n_trials=1,
    n_folds=3,
    n_aloi_datasets=1,
    minpts_range=(3, 6, 9),
    mpck_n_init=1,
    mpck_max_iter=8,
    max_k=5,
    datasets=("Iris",),
    seed=0,
)


@pytest.fixture(scope="module")
def aloi_dataset():
    return make_aloi_k5_like(random_state=0)


class TestConfig:
    def test_paper_config_matches_section_4_1(self):
        assert PAPER_CONFIG.n_trials == 50
        assert PAPER_CONFIG.n_aloi_datasets == 100
        assert PAPER_CONFIG.minpts_range == (3, 6, 9, 12, 15, 18, 21, 24)
        assert PAPER_CONFIG.label_fractions == (0.05, 0.10, 0.20)
        assert PAPER_CONFIG.constraint_fractions == (0.10, 0.20, 0.50)

    def test_default_config_without_env_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert default_config() == QUICK_CONFIG

    def test_default_config_with_env_is_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_config() == PAPER_CONFIG

    def test_default_config_rejects_an_unknown_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(SpecError, match=r"execution\.backend"):
            default_config()

    def test_with_execution_overlays_the_engine(self):
        config = QUICK_CONFIG.with_execution(n_jobs=2, distance_backend="neighbors")
        assert config.execution == ExecutionSpec(
            backend="serial", n_jobs=2, distance_backend="neighbors"
        )
        assert config.with_execution(backend=None, metric=None) is config
        with pytest.raises(SpecError, match=r"execution\.metric"):
            config.with_execution(metric="cosine")
        precomputed = ExperimentConfig(execution=ExecutionSpec(metric="precomputed"))
        with pytest.raises(SpecError, match="cannot override the metric of a precomputed"):
            precomputed.with_execution(metric="euclidean")

    def test_with_overrides(self):
        assert QUICK_CONFIG.with_overrides(n_trials=7).n_trials == 7

    def test_k_range_for_dataset(self):
        data = make_blobs([10, 10, 10], 2, random_state=0)
        assert k_range_for_dataset(data, max_k=10) == [2, 3, 4, 5, 6]
        assert k_range_for_dataset(data, max_k=4) == [2, 3, 4]


class TestSideInformation:
    def test_label_scenario(self, aloi_dataset):
        side = make_side_information(aloi_dataset, "labels", 0.10, random_state=0)
        assert side.scenario == "labels"
        assert len(side.labeled_objects) == round(0.10 * aloi_dataset.n_samples)
        assert len(side.training_constraints()) > 0
        assert side.involved_objects == sorted(side.labeled_objects)

    def test_constraint_scenario(self, aloi_dataset):
        side = make_side_information(aloi_dataset, "constraints", 0.20, random_state=0)
        assert side.scenario == "constraints"
        assert len(side.constraints) > 0
        assert side.training_constraints() == side.constraints

    def test_unknown_scenario(self, aloi_dataset):
        with pytest.raises(ValueError):
            make_side_information(aloi_dataset, "oracle", 0.1)


class TestRunTrial:
    @pytest.mark.parametrize("algorithm", ["fosc", "mpck"])
    def test_trial_result_structure(self, aloi_dataset, algorithm):
        trial = run_trial(aloi_dataset, algorithm, "labels", 0.10,
                          config=TINY, random_state=0)
        n_values = len(trial.parameter_values)
        assert len(trial.internal_scores) == n_values
        assert len(trial.external_scores) == n_values
        assert trial.cvcp_value in trial.parameter_values
        assert trial.silhouette_value in trial.parameter_values
        assert 0.0 <= trial.cvcp_quality <= 1.0
        assert 0.0 <= trial.expected_quality <= 1.0
        assert -1.0 <= trial.correlation <= 1.0

    def test_cvcp_quality_is_external_score_of_selected_value(self, aloi_dataset):
        trial = run_trial(aloi_dataset, "fosc", "labels", 0.10, config=TINY, random_state=1)
        index = trial.parameter_values.index(trial.cvcp_value)
        assert trial.cvcp_quality == pytest.approx(trial.external_scores[index])

    def test_expected_quality_is_mean(self, aloi_dataset):
        trial = run_trial(aloi_dataset, "mpck", "constraints", 0.20, config=TINY, random_state=2)
        assert trial.expected_quality == pytest.approx(float(np.mean(trial.external_scores)))

    def test_run_trials_count_and_independence(self, aloi_dataset):
        trials = run_trials(aloi_dataset, "fosc", "labels", 0.10, 2,
                            config=TINY, random_state=3)
        assert len(trials) == 2
        # Different trials use different side information, so the scores
        # generally differ.
        assert trials[0].internal_scores != trials[1].internal_scores or (
            trials[0].external_scores != trials[1].external_scores
        )


class TestTablesAndFigures:
    def test_correlation_table_structure(self):
        table = correlation_table("fosc", "labels", config=TINY, random_state=0)
        assert table.datasets == ["Iris"]
        assert table.amounts == list(TINY.label_fractions)
        for amount in table.amounts:
            value = table.values[amount]["Iris"]
            assert -1.0 <= value <= 1.0
        rows = table.as_rows()
        assert len(rows) == 3

    def test_comparison_table_structure(self):
        table = comparison_table("mpck", "labels", 0.10, config=TINY, random_state=0)
        assert [row.dataset for row in table.rows] == ["Iris"]
        row = table.row_for("Iris")
        assert 0.0 <= row.cvcp_mean <= 1.0
        assert 0.0 <= row.expected_mean <= 1.0
        assert row.silhouette  # MPCK includes the silhouette baseline
        assert row.winner in {"CVCP", "Expected", "Silhouette"}
        with pytest.raises(KeyError):
            table.row_for("Wine")

    def test_comparison_table_fosc_has_no_silhouette(self):
        table = comparison_table("fosc", "constraints", 0.20, config=TINY, random_state=0)
        assert not table.rows[0].silhouette
        assert np.isnan(table.rows[0].silhouette_mean)

    def test_aloi_distribution_keys(self):
        config = TINY.with_overrides(datasets=("ALOI",), label_fractions=(0.10,))
        distribution = aloi_distribution("fosc", "labels", config=config, random_state=0)
        assert set(distribution) == {"CVCP-10", "Exp-10"}
        assert all(len(values) == 1 for values in distribution.values())

    def test_parameter_curves(self, aloi_dataset):
        curves = parameter_curves("fosc", "labels", amount=0.10,
                                  dataset=aloi_dataset, config=TINY, random_state=0)
        assert curves.parameter_name == "MinPts"
        assert len(curves.internal_scores) == len(curves.parameter_values)
        assert len(curves.as_series()) == len(curves.parameter_values)


class TestAblations:
    def test_closure_leakage(self, aloi_dataset):
        result = closure_leakage_ablation(aloi_dataset, config=TINY, random_state=0)
        assert set(result.measurements) == {
            "proper_best_internal_score",
            "naive_best_internal_score",
            "inflation",
        }

    def test_fold_count(self, aloi_dataset):
        result = fold_count_ablation(aloi_dataset, fold_counts=(2, 3),
                                     config=TINY, random_state=0)
        assert set(result.measurements) == {"n_folds=2", "n_folds=3"}
        assert all(0.0 <= v <= 1.0 for v in result.measurements.values())

    def test_scorer_ablation(self, aloi_dataset):
        result = scorer_ablation(aloi_dataset, scorers=("average_f", "accuracy"),
                                 config=TINY, random_state=0)
        assert set(result.measurements) == {"average_f", "accuracy"}


class TestReporting:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [[1, 0.5], ["x", 0.25]], title="T")
        assert "T" in text and "0.5000" in text and "x" in text

    def test_format_correlation_table(self):
        table = correlation_table("fosc", "labels", config=TINY, random_state=0)
        text = format_correlation_table(table)
        assert "FOSC" in text and "Iris" in text

    def test_format_comparison_table(self):
        table = comparison_table("mpck", "labels", 0.10, config=TINY, random_state=0)
        text = format_comparison_table(table)
        assert "CVCP mean" in text and "Silh mean" in text

    def test_format_curves(self, aloi_dataset):
        curves = parameter_curves("mpck", "labels", amount=0.10, dataset=aloi_dataset,
                                  config=TINY, random_state=0)
        text = format_curves(curves)
        assert "correlation coefficient" in text

    def test_format_boxplot_summary(self):
        text = format_boxplot_summary({"CVCP-10": [0.8, 0.9], "Exp-10": [0.6, 0.7]})
        assert "median" in text and "CVCP-10" in text
