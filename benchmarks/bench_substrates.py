"""Micro-benchmarks of the substrates (not tied to a specific table).

These time the individual building blocks on paper-sized inputs so
regressions in the expensive kernels (constraint closure, fold
construction, MPCK-Means assignment sweeps, density hierarchy
construction) are visible in the pytest-benchmark summary.
"""

import pytest

from repro.clustering import FOSCOpticsDend, MPCKMeans
from repro.constraints import (
    build_constraint_pool,
    constraints_from_labels,
    sample_labeled_objects,
    transitive_closure,
)
from repro.core import CVCP, constraint_scenario_folds, label_scenario_folds
from repro.datasets import make_aloi_k5_like, make_ionosphere_like


@pytest.fixture(scope="module")
def aloi():
    return make_aloi_k5_like(random_state=0)


@pytest.fixture(scope="module")
def ionosphere():
    return make_ionosphere_like(random_state=0)


@pytest.fixture(scope="module")
def aloi_side(aloi):
    return sample_labeled_objects(aloi.y, 0.20, random_state=0)


@pytest.mark.benchmark(group="substrates-constraints")
def test_bench_transitive_closure(benchmark, ionosphere):
    labeled = sample_labeled_objects(ionosphere.y, 0.20, random_state=0)
    constraints = constraints_from_labels(labeled)
    closure = benchmark(transitive_closure, constraints, strict=False)
    assert len(closure) >= len(constraints)


@pytest.mark.benchmark(group="substrates-constraints")
def test_bench_constraint_pool(benchmark, ionosphere):
    pool = benchmark(build_constraint_pool, ionosphere.y, random_state=0)
    assert len(pool) > 0


@pytest.mark.benchmark(group="substrates-folds")
def test_bench_label_scenario_folds(benchmark, aloi_side):
    folds = benchmark(label_scenario_folds, aloi_side, 10, random_state=0)
    assert len(folds) == 10


@pytest.mark.benchmark(group="substrates-folds")
def test_bench_constraint_scenario_folds(benchmark, aloi, aloi_side):
    constraints = constraints_from_labels(aloi_side)
    folds = benchmark(constraint_scenario_folds, constraints, 10, random_state=0)
    # Scenario II caps the fold count so every test fold keeps a few objects
    # (at least three), so with 25 involved objects fewer than 10 folds remain.
    assert 2 <= len(folds) <= 10
    assert all(fold.has_test_information() for fold in folds)


@pytest.mark.benchmark(group="substrates-clustering")
def test_bench_mpckmeans_fit(benchmark, aloi, aloi_side):
    constraints = constraints_from_labels(aloi_side)
    model = MPCKMeans(n_clusters=5, n_init=1, max_iter=10, random_state=0)
    fitted = benchmark.pedantic(
        model.clone().fit, args=(aloi.X,), kwargs={"constraints": constraints},
        rounds=3, iterations=1,
    )
    assert fitted.labels_.shape == (aloi.n_samples,)


@pytest.mark.benchmark(group="substrates-clustering")
def test_bench_fosc_fit(benchmark, aloi, aloi_side):
    constraints = constraints_from_labels(aloi_side)
    model = FOSCOpticsDend(min_pts=9)
    fitted = benchmark.pedantic(
        model.clone().fit, args=(aloi.X,), kwargs={"constraints": constraints},
        rounds=3, iterations=1,
    )
    assert fitted.labels_.shape == (aloi.n_samples,)


@pytest.mark.benchmark(group="substrates-cvcp")
def test_bench_cvcp_search_fosc(benchmark, aloi, aloi_side):
    def run():
        search = CVCP(FOSCOpticsDend(), [3, 9, 15], n_folds=3, refit=False, random_state=0)
        search.fit(aloi.X, labeled_objects=aloi_side)
        return search

    search = benchmark.pedantic(run, rounds=1, iterations=1)
    assert search.best_params_["min_pts"] in [3, 9, 15]
