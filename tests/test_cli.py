"""End-to-end tests for the ``repro`` CLI and the pipeline subsystem."""

import json

import pytest

from repro.cli.main import main
from repro.experiments.pipeline import (
    ConfigError,
    load_pipeline_spec,
    run_pipeline,
    validate_pipeline_file,
    validate_pipeline_mapping,
)

GOOD_TOML = """\
[experiment]
name = "tiny"
kind = "trials"
algorithm = "fosc"
scenario = "labels"
amounts = [0.1]
datasets = ["Iris"]
seed = 11

[parameters]
n_trials = 2
n_folds = 3
minpts_range = [3, 6, 9]

[artifacts]
root = "{root}"
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(GOOD_TOML.format(root=tmp_path / "artifacts"), encoding="utf-8")
    return path


class TestSpecValidation:
    def test_good_toml_loads(self, tiny_config):
        spec = load_pipeline_spec(tiny_config)
        assert spec.name == "tiny"
        assert spec.kind == "trials"
        assert spec.datasets == ("Iris",)
        assert spec.config.n_trials == 2
        assert spec.config.label_fractions == (0.1,)

    def test_json_config_loads(self, tmp_path):
        path = tmp_path / "tiny.json"
        payload = {
            "experiment": {"name": "tiny-json", "kind": "trials", "datasets": ["wine"]},
            "parameters": {"n_trials": 1, "n_folds": 3},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        spec = load_pipeline_spec(path)
        assert spec.datasets == ("Wine",)  # canonicalised

    def test_all_problems_are_collected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            """\
[experiment]
kind = "nope"
datasets = ["Atlantis"]

[parameters]
n_trials = -1
typo_key = 3

[mystery]
x = 1
""",
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        text = "\n".join(problems)
        assert "experiment.name" in text
        assert "experiment.kind" in text
        assert "Atlantis" in text
        assert "parameters.n_trials" in text
        assert "parameters.typo_key" in text
        assert "unknown table [mystery]" in text

    def test_non_utf8_config_is_reported_not_raised(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\x80\x81 not utf-8")
        problems = validate_pipeline_file(path)
        assert problems and "UTF-8" in problems[0]

    def test_scenario_rejected_for_ablation_kind(self, tmp_path):
        path = tmp_path / "ablation.toml"
        path.write_text(
            '[experiment]\nname = "a"\nkind = "ablation"\nscenario = "constraints"\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        assert any("not configurable" in problem for problem in problems)

    def test_parallelize_rejected_for_single_trial_kinds(self, tmp_path):
        path = tmp_path / "curves.toml"
        path.write_text(
            '[experiment]\nname = "c"\nkind = "curves"\n\n[execution]\nparallelize = "trials"\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        assert any("has no effect" in problem for problem in problems)

    def test_oracle_table_configures_the_supervision_source(self, tmp_path):
        from repro.constraints.oracles import BudgetedOracle

        path = tmp_path / "oracle.toml"
        path.write_text(
            GOOD_TOML.format(root=tmp_path / "artifacts")
            + '\n[oracle]\nname = "budgeted"\nbudget = 50\nordering = "min_max"\n',
            encoding="utf-8",
        )
        spec = load_pipeline_spec(path)
        assert spec.oracle == BudgetedOracle(budget=50, ordering="min_max")

    def test_oracle_problems_reported_alongside_other_tables(self, tmp_path):
        """All problems across all tables surface in one validation pass."""
        path = tmp_path / "bad.toml"
        path.write_text(
            """\
[experiment]
name = "multi"
kind = "trials"

[parameters]
typo_key = 3

[oracle]
name = "noisy"
bogus = 1
nope = 2

[execution]
weird = true
""",
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        text = "\n".join(problems)
        assert "parameters.typo_key" in text
        assert "bogus" in text and "nope" in text  # both unknown oracle keys
        assert "execution.weird" in text

    def test_serve_table_validated_with_other_tables(self, tmp_path):
        """[serve] problems surface in the same pass as everything else."""
        path = tmp_path / "bad.toml"
        path.write_text(
            GOOD_TOML.format(root=tmp_path / "artifacts")
            + '\n[serve]\nport = 99999\nworkers = 0\nbogus = "x"\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        text = "\n".join(problems)
        assert "serve.port" in text
        assert "serve.workers" in text
        assert "serve.bogus: unknown key" in text

    def test_serve_table_configures_the_server_settings(self, tmp_path):
        from repro.serve.schemas import ServeSettings

        path = tmp_path / "good.toml"
        path.write_text(
            GOOD_TOML.format(root=tmp_path / "artifacts")
            + '\n[serve]\nhost = "0.0.0.0"\nport = 9000\nworkers = 4\nmax_pending = 8\n',
            encoding="utf-8",
        )
        spec = load_pipeline_spec(path)
        assert spec.serve == ServeSettings(host="0.0.0.0", port=9000, workers=4, max_pending=8)

    def test_unknown_oracle_name_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            '[experiment]\nname = "o"\nkind = "trials"\n\n[oracle]\nname = "psychic"\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        assert any("oracle.name" in problem for problem in problems)

    def test_oracle_rejected_for_ablation_kind(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            '[experiment]\nname = "o"\nkind = "ablation"\n\n[oracle]\nname = "noisy"\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        assert any("not configurable" in problem for problem in problems)

    def test_robustness_kind_oracle_keys(self, tmp_path):
        path = tmp_path / "robust.toml"
        path.write_text(
            '[experiment]\nname = "r"\nkind = "robustness"\n\n'
            "[oracle]\nflip_rates = [0.0, 0.2]\nrepair = true\n",
            encoding="utf-8",
        )
        spec = load_pipeline_spec(path)
        assert spec.flip_rates == (0.0, 0.2) and spec.oracle_repair is True

    def test_robustness_kind_rejects_oracle_name_and_algorithm(self, tmp_path):
        path = tmp_path / "robust.toml"
        path.write_text(
            '[experiment]\nname = "r"\nkind = "robustness"\nalgorithm = "fosc"\n\n'
            '[oracle]\nname = "noisy"\nflip_rates = [2.0]\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        text = "\n".join(problems)
        assert "experiment.algorithm" in text
        assert "oracle.name" in text  # unknown key for the robustness kind
        assert "oracle.flip_rates" in text  # 2.0 out of range

    def test_toml_syntax_error_is_reported(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[experiment\nname=", encoding="utf-8")
        with pytest.raises(ConfigError, match="TOML parse error"):
            load_pipeline_spec(path)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("kind: trials", encoding="utf-8")
        with pytest.raises(ConfigError, match="unsupported config extension"):
            load_pipeline_spec(path)


class TestValidateCommand:
    def test_valid_exit_code_zero(self, tiny_config, capsys):
        assert main(["validate-config", str(tiny_config)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_exit_code_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[experiment]\nkind = 'nope'\n", encoding="utf-8")
        assert main(["validate-config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "INVALID" in out and "experiment.kind" in out

    def test_missing_file_is_invalid(self, tmp_path, capsys):
        assert main(["validate-config", str(tmp_path / "absent.toml")]) == 2


class TestConfigLoading:
    """``run``, ``report``, ``serve`` and ``status`` report an unloadable config alike."""

    COMMANDS = ("run", "report", "serve", "status")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file(self, command, tmp_path, capsys):
        path = tmp_path / "absent.toml"
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot read config {path}: [Errno 2] No such file or directory: '{path}'\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_invalid_file(self, command, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[experiment]\nkind = 'nope'\n", encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"invalid pipeline config {path}:\n"
            "  - experiment.name: required; must be letters/digits/._- "
            "(used as the report directory name), got None\n"
            "  - experiment.kind: must be one of comparison, correlation, curves, trials, "
            "ablation, robustness, online; got 'nope'\n"
        )


class TestDatasetsCommand:
    def test_list_prints_registry(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("ALOI", "Iris", "Wine", "Ionosphere", "Ecoli", "Zyeast"):
            assert name in out

    def test_list_includes_size_and_feature_summary(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        for column in ("n_samples", "n_features", "n_classes", "class_sizes", "feature_std"):
            assert column in out
        assert "50/50/50" in out  # Iris class balance
        iris_row = next(line for line in out.splitlines() if line.startswith("Iris"))
        assert "150" in iris_row and ".." in iris_row  # sample count + std spread


class TestRunCommand:
    def test_fresh_then_resumed_run(self, tiny_config, tmp_path, capsys):
        assert main(["run", str(tiny_config)]) == 0
        first_out = capsys.readouterr().out
        assert "0 hits" in first_out and "0 misses" not in first_out

        summary_path = tmp_path / "artifacts" / "reports" / "tiny" / "summary.json"
        report_path = tmp_path / "artifacts" / "reports" / "tiny" / "report.txt"
        assert summary_path.is_file() and report_path.is_file()
        first_summary = summary_path.read_bytes()

        assert main(["run", str(tiny_config)]) == 0
        second_out = capsys.readouterr().out
        assert "2 hits" in second_out and "0 misses" in second_out
        assert summary_path.read_bytes() == first_summary

    def test_resume_after_deleting_one_cell(self, tiny_config, tmp_path, capsys):
        assert main(["run", str(tiny_config), "--quiet"]) == 0
        capsys.readouterr()
        summary_path = tmp_path / "artifacts" / "reports" / "tiny" / "summary.json"
        first_summary = summary_path.read_bytes()
        cells = sorted((tmp_path / "artifacts" / "trial").glob("*/*.json"))
        assert len(cells) == 2
        cells[0].unlink()
        assert main(["run", str(tiny_config), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 hits" in out
        assert summary_path.read_bytes() == first_summary

    def test_force_recomputes(self, tiny_config, capsys):
        assert main(["run", str(tiny_config), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["run", str(tiny_config), "--quiet", "--force"]) == 0
        out = capsys.readouterr().out
        assert "0 hits" in out

    def test_artifacts_root_override(self, tiny_config, tmp_path, capsys):
        override = tmp_path / "elsewhere"
        assert main(["run", str(tiny_config), "--quiet", "--artifacts-root", str(override)]) == 0
        assert (override / "reports" / "tiny" / "summary.json").is_file()

    def test_selections_recorded_in_summary(self, tiny_config, tmp_path):
        assert main(["run", str(tiny_config), "--quiet"]) == 0
        summary = json.loads(
            (tmp_path / "artifacts" / "reports" / "tiny" / "summary.json").read_text()
        )
        trials = summary["results"]["Iris"]["0.1"]
        assert len(trials) == 2
        assert all(trial["cvcp_value"] in trial["parameter_values"] for trial in trials)

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[experiment]\nkind = 'nope'\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_report_command_after_run(self, tiny_config, tmp_path, capsys):
        assert main(["run", str(tiny_config), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "2 hits" in out and "report.txt" in out


class TestPipelineKinds:
    @pytest.mark.parametrize("kind", ["comparison", "correlation", "curves", "ablation"])
    def test_every_kind_runs_and_resumes(self, kind, tmp_path):
        raw = {
            "experiment": {
                "name": f"kind-{kind}",
                "kind": kind,
                "algorithm": "fosc",
                "scenario": "labels",
                "amounts": [0.1],
                "datasets": ["Iris"],
                "seed": 3,
            },
            "parameters": {"n_trials": 1, "n_folds": 3, "minpts_range": [3, 6, 9]},
            "artifacts": {"root": str(tmp_path / "artifacts")},
        }
        if kind == "ablation":  # each ablation fixes its own scenario
            del raw["experiment"]["scenario"]
        spec, problems = validate_pipeline_mapping(raw, "inline")
        assert spec is not None, problems
        fresh = run_pipeline(spec)
        # A fresh run may legitimately reuse "structure" artifacts across
        # its own trials; every other kind must be computed from scratch.
        reused = {
            kind: counters["hits"]
            for kind, counters in fresh.stats["by_kind"].items()
            if kind != "structure" and counters["hits"]
        }
        assert not reused and fresh.stats["misses"] > 0
        assert fresh.summary["kind"] == kind and fresh.summary["results"]
        assert fresh.report_text.startswith(f"kind-{kind}")
        resumed = run_pipeline(spec)
        assert resumed.stats["misses"] == 0 and resumed.stats["hits"] > 0
        assert resumed.summary == fresh.summary


class TestDistanceBackendConfig:
    """The execution.distance_backend schema key and CLI override."""

    def test_valid_value_reaches_the_config(self, tmp_path):
        path = tmp_path / "tiered.toml"
        path.write_text(
            GOOD_TOML.format(root=tmp_path / "artifacts")
            + '\n[execution]\ndistance_backend = "blockwise"\n',
            encoding="utf-8",
        )
        spec = load_pipeline_spec(path)
        assert spec.config.execution.distance_backend == "blockwise"

    def test_unset_key_defers_to_the_environment(self, tiny_config):
        spec = load_pipeline_spec(tiny_config)
        assert spec.config.execution.distance_backend is None

    def test_invalid_value_is_reported(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            '[experiment]\nname = "b"\nkind = "trials"\n\n'
            '[execution]\ndistance_backend = "ssd"\n',
            encoding="utf-8",
        )
        problems = validate_pipeline_file(path)
        assert any(
            "execution.distance_backend" in problem and "memmap" in problem
            for problem in problems
        )

    def test_cli_override_and_cross_tier_artifact_reuse(self, tiny_config, tmp_path, capsys):
        """Tiers are bit-identical, so artifacts written under one are hits under another."""
        assert main(["run", str(tiny_config), "--quiet", "--distance-backend", "blockwise"]) == 0
        capsys.readouterr()
        summary_path = tmp_path / "artifacts" / "reports" / "tiny" / "summary.json"
        first_summary = summary_path.read_bytes()
        assert main(["run", str(tiny_config), "--quiet", "--distance-backend", "memmap"]) == 0
        out = capsys.readouterr().out
        assert "2 hits" in out and "0 misses" in out
        assert summary_path.read_bytes() == first_summary
