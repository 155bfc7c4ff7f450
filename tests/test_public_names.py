"""Every ``__all__`` in the package is whole: each entry resolves, and appears once.

A half-done retirement (a name deleted but still listed) breaks
``from repro.x import *``; a name listed twice hides a merge slip.
"""

from __future__ import annotations

import collections
import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__")
)
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_packages_export_names():
    assert {"repro", "repro.core", "repro.clustering", "repro.utils", "repro.api"} <= set(EXPORTING)


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_entry_resolves_once(module_name):
    module = importlib.import_module(module_name)
    listed = collections.Counter(module.__all__)
    assert [name for name, count in listed.items() if count > 1] == []
    assert [name for name in listed if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert set(listed) <= set(namespace)


@pytest.mark.parametrize(
    "module_name, retired",
    [
        ("repro", "select_parameter"),
        ("repro.core", "select_parameter"),
        ("repro.core", "get_executor"),
        ("repro.core", "execute"),
        ("repro.core", "Executor"),
        ("repro.core", "SerialExecutor"),
        ("repro.core", "ThreadExecutor"),
        ("repro.core", "ProcessExecutor"),
        ("repro.core.cvcp", "select_parameter"),
        ("repro.core.executor", "get_executor"),
        ("repro.clustering", "DensityHierarchy"),
        ("repro.clustering.hierarchy", "DensityHierarchy"),
        ("repro.utils", "configure_distance_cache"),
        ("repro.utils.cache", "configure_distance_cache"),
        ("repro", "must_link"),
        ("repro", "cannot_link"),
        ("repro", "SilhouetteSelector"),
        ("repro", "normalized_mutual_information"),
        ("repro.core", "SilhouetteSelector"),
        ("repro.core", "DistanceBackend"),
        ("repro.core", "get_distance_backend"),
        ("repro.core.model_selection", "SilhouetteSelector"),
        ("repro.core.model_selection", "parameter_range_for_k"),
        ("repro.core.distance_backend", "DistanceBackend"),
        ("repro.core.distance_backend", "BlockwiseBackend"),
        ("repro.core.distance_backend", "MemmapBackend"),
        ("repro.core.distance_backend", "NeighborsBackend"),
        ("repro.core.distance_backend", "get_distance_backend"),
        ("repro.constraints", "ConstraintGraph"),
        ("repro.constraints.graph", "ConstraintGraph"),
        ("repro.constraints.graph", "graph_from_pairs"),
        ("repro.constraints.closure", "closure_size"),
        ("repro.constraints.closure", "closure_of_labels"),
        ("repro.constraints.closure", "restrict_and_close"),
        ("repro.constraints.closure", "derived_constraints"),
        ("repro.evaluation", "normalized_mutual_information"),
        ("repro.evaluation", "pairwise_f_measure"),
        ("repro.evaluation", "simplified_silhouette"),
        ("repro.evaluation", "davies_bouldin_index"),
        ("repro.evaluation.external", "normalized_mutual_information"),
        ("repro.evaluation.external", "pairwise_f_measure"),
        ("repro.evaluation.internal", "simplified_silhouette"),
        ("repro.evaluation.internal", "davies_bouldin_index"),
        ("repro.evaluation.significance", "best_is_significant"),
        ("repro.clustering", "diagonal_mahalanobis_distances"),
        ("repro.clustering.distances", "diagonal_mahalanobis_distances"),
        ("repro.clustering.distances", "weighted_squared_distance"),
        ("repro.clustering.base", "relabel_compact"),
        ("repro.datasets", "make_anisotropic_blobs"),
        ("repro.datasets", "make_nested_circles"),
        ("repro.datasets.synthetic", "make_anisotropic_blobs"),
        ("repro.datasets.synthetic", "make_nested_circles"),
        ("repro.utils.rng", "spawn_rng"),
    ],
)
def test_retired_names_fail_to_import(module_name, retired):
    with pytest.raises(ImportError):
        exec(f"from {module_name} import {retired}", {})
