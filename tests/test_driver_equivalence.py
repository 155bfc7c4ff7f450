"""Every pipeline kind through the one selection recipe matches the drivers it replaced.

``tests/driver_oracle.py`` vendors the drivers that each kept their own
copy of the template, grid, side-information, key and store-landing
steps.  Each pipeline kind runs twice on Iris (euclidean, the blockwise
tier): once with the oracle drivers patched in at the module attributes
the pipelines read, once through the library.  Both runs must write the
same ``summary.json`` bytes and the same sorted list of relative file
paths into their stores; the paths are key digests, so a changed key
field, seed or artifact kind fails the comparison.  On Iris (euclidean)
and an exact tier the two intended differences of the recipe (the data
set's own metric, tier-keyed ablations) are no-ops.
"""

from __future__ import annotations

import pytest

import driver_oracle
from repro.experiments import figures, pipeline, runner
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.pipeline import pipeline_spec_from_mapping, run_pipeline
from repro.utils.cache import clear_distance_cache

#: ``(module, attribute)`` of every driver a pipeline kind reaches, patched
#: to the oracle's copy for the reference run.
PATCHES = (
    (runner, "run_trial"),
    (runner, "run_trials"),
    (figures, "run_trial"),
    (pipeline, "replay_constraint_stream"),
    (pipeline, "closure_leakage_ablation"),
    (pipeline, "fold_count_ablation"),
    (pipeline, "scorer_ablation"),
)

#: The per-kind tables of each spec; every kind runs on Iris alone.
KIND_TABLES = {
    "comparison": {"experiment": {"algorithm": "fosc", "scenario": "labels", "amounts": [0.1]}},
    "correlation": {"experiment": {"algorithm": "mpck", "scenario": "constraints"}},
    "curves": {"experiment": {"algorithm": "fosc", "scenario": "constraints", "amounts": [0.2]}},
    "trials": {"experiment": {"algorithm": "mpck", "scenario": "labels", "amounts": [0.1, 0.2]}},
    "ablation": {"experiment": {"algorithm": "fosc", "amounts": [0.2]}},
    "robustness": {
        "experiment": {"scenario": "labels", "amounts": [0.2]},
        "oracle": {"flip_rates": [0.0, 0.2]},
    },
    "online": {
        "experiment": {"algorithm": "fosc", "amounts": [0.2]},
        "stream": {"n_deltas": 3, "order": "shuffled"},
    },
}

#: Kinds whose trials can run through the trial-level pool.
BATCH_KINDS = ("comparison", "correlation", "trials", "robustness")

CASES = [
    pytest.param(kind, backend, placement, id=f"{kind}-{backend}-{placement}")
    for kind in KIND_TABLES
    for backend in ("serial", "process")
    for placement in (("grid", "trials") if kind in BATCH_KINDS else ("grid",))
]


def make_spec(kind, backend, placement):
    tables = KIND_TABLES[kind]
    experiment = {"name": f"equivalence-{kind}", "kind": kind, "datasets": ["Iris"], "seed": 7}
    experiment.update(tables["experiment"])
    execution = {"backend": backend, "distance_backend": "blockwise"}
    if backend == "process":
        execution["n_jobs"] = 2
    if kind in BATCH_KINDS:
        execution["parallelize"] = placement
    mapping = {
        "experiment": experiment,
        "parameters": {"n_trials": 2, "n_folds": 3, "minpts_range": [3, 6, 9], "max_k": 4},
        "execution": execution,
        "report": {"formats": ["txt", "json"]},
    }
    mapping.update({name: table for name, table in tables.items() if name != "experiment"})
    return pipeline_spec_from_mapping(mapping)


def run_into(spec, root):
    clear_distance_cache()
    run_pipeline(spec, store=ArtifactStore(root))
    summary = (root / "reports" / spec.name / "summary.json").read_bytes()
    files = sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())
    return summary, files


@pytest.mark.parametrize(("kind", "backend", "placement"), CASES)
def test_kind_matches_the_replaced_drivers(kind, backend, placement, tmp_path, monkeypatch):
    spec = make_spec(kind, backend, placement)
    with monkeypatch.context() as patch:
        for module, name in PATCHES:
            patch.setattr(module, name, getattr(driver_oracle, name))
        expected_summary, expected_files = run_into(spec, tmp_path / "oracle")
    summary, files = run_into(spec, tmp_path / "recipe")
    assert summary == expected_summary
    assert files == expected_files
    assert any(path.startswith(("trial/", "online/", "ablation/")) for path in files)
