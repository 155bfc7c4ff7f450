"""What the one selection recipe fixes across the experiment drivers.

* Every driver builds its template under the data set's own metric: on
  the registry's cosine ``"Text"`` set, the grid cells of the
  ``trials``, ``curves``, ``ablation`` and ``online`` kinds all run under
  cosine (the ablation and online drivers used to build a Euclidean
  template).
* Ablation keys carry the distance tier's ``approx`` entry like trial
  and online keys do, so a ``neighbors`` ablation never reads what a
  ``blockwise`` ablation stored.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cvcp import CVCP
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.pipeline import pipeline_spec_from_mapping, run_pipeline
from repro.utils.cache import clear_distance_cache

KIND_TABLES = {
    "trials": {"experiment": {"scenario": "labels", "amounts": [0.1]}},
    "curves": {"experiment": {"scenario": "labels", "amounts": [0.1]}},
    "ablation": {"experiment": {"amounts": [0.2]}},
    "online": {"experiment": {"amounts": [0.1]}, "stream": {"n_deltas": 2}},
}


def spec_for(kind, dataset, execution=None, name=None):
    experiment = {
        "name": name or f"recipe-{kind}",
        "kind": kind,
        "algorithm": "fosc",
        "datasets": [dataset],
        "seed": 20140324,
    }
    experiment.update(KIND_TABLES[kind]["experiment"])
    mapping = {
        "experiment": experiment,
        "parameters": {"n_trials": 1, "n_folds": 3, "minpts_range": [3, 6, 9]},
        "execution": {"backend": "serial", **(execution or {})},
    }
    mapping.update({table: value for table, value in KIND_TABLES[kind].items() if table != "experiment"})
    return pipeline_spec_from_mapping(mapping)


@pytest.mark.parametrize("kind", sorted(KIND_TABLES))
def test_every_driver_selects_under_the_registry_metric(kind, tmp_path, monkeypatch):
    metrics = []
    effective_metric = CVCP._effective_metric

    def recording(self):
        metric = effective_metric(self)
        metrics.append(metric)
        return metric

    monkeypatch.setattr(CVCP, "_effective_metric", recording)
    clear_distance_cache()
    run_pipeline(spec_for(kind, "Text"), store=ArtifactStore(tmp_path / "store"), write_reports=False)
    assert metrics and set(metrics) == {"cosine"}


def ablation_results(store, tier):
    spec = spec_for("ablation", "Iris", execution={"distance_backend": tier}, name=f"ablation-{tier}")
    clear_distance_cache()
    return run_pipeline(spec, store=store, write_reports=False).summary["results"]


def test_a_neighbors_ablation_misses_what_a_blockwise_ablation_stored(tmp_path):
    shared = ArtifactStore(tmp_path / "shared")
    ablation_results(shared, "blockwise")
    assert shared.stats_for("ablation").writes == 3
    served = ablation_results(shared, "neighbors")
    ablation = shared.stats_for("ablation")
    assert (ablation.hits, ablation.misses, ablation.writes) == (0, 3, 3)
    fresh = ablation_results(ArtifactStore(tmp_path / "fresh"), "neighbors")
    assert json.dumps(served, sort_keys=True) == json.dumps(fresh, sort_keys=True)
