"""The lock-step grid structure phase against the per-MinPts code it replaced.

``minimum_spanning_tree`` grows one tree per row of an ``(m, n)`` stack of
core distances in a single Prim loop, and ``cached_tree_structure`` builds
every structure of a CVCP grid in one pass.  ``tests/prim_oracle.py`` keeps
the one-tree kernel verbatim; every stacked tree must equal the tree it
builds for that row alone, byte for byte, and every grid-built structure
must serialise to the same bytes as its per-value ``build_tree_structure``.
The count tests pin the memo and store traffic of a grid: one build per
distinct effective MinPts, and the store hits, misses and writes the
per-value warm-up recorded on a half-filled store.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.clustering.hierarchy as hierarchy
from repro.clustering.distances import core_distance_table, pairwise_distances
from repro.clustering.fosc import FOSCOpticsDend
from repro.clustering.hierarchy import (
    build_tree_structure,
    cached_tree_structure,
    structure_cache_stats,
    structure_payload,
)
from repro.clustering.kernels import minimum_spanning_tree
from repro.constraints import sample_labeled_objects
from repro.core import CVCP
from repro.core.executor import ExecutionSpec
from repro.datasets import make_blobs
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.runner import ExperimentConfig, run_trial
from repro.utils.cache import clear_distance_cache

from prim_oracle import minimum_spanning_tree as oracle_minimum_spanning_tree

parity = settings(max_examples=12, deadline=None)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_distance_cache()
    yield
    clear_distance_cache()


def draw_points(draw, n_samples):
    """Gaussian points, or duplicate-heavy points drawn from a small integer pool."""
    n_features = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.integers(-3, 4, size=(max(2, n_samples // 8), n_features))
        return pool[rng.integers(0, pool.shape[0], size=n_samples)].astype(np.float64)
    return rng.normal(scale=4.0, size=(n_samples, n_features))


@st.composite
def stacked_cores(draw):
    """A distance matrix and an ``(m, n)`` stack of its core-distance columns.

    The MinPts of the rows may repeat and, once ``n > 32``, pass the default
    core-table width.
    """
    n_samples = draw(st.sampled_from([2, 3, 511, 513]))
    n_trees = draw(st.sampled_from([1, 2, 8]))
    distances = pairwise_distances(draw_points(draw, n_samples))
    values = draw(st.lists(st.integers(1, n_samples), min_size=n_trees, max_size=n_trees))
    table = core_distance_table(distances, max(values))
    return distances, np.ascontiguousarray(table[:, [value - 1 for value in values]].T)


def assert_bytes_equal(observed: np.ndarray, expected: np.ndarray) -> None:
    assert observed.dtype == expected.dtype and observed.shape == expected.shape
    assert observed.tobytes() == expected.tobytes()


class TestStackedPrim:
    @parity
    @given(stacked_cores())
    def test_every_row_is_its_one_tree_prim(self, case):
        distances, cores = case
        stacked = minimum_spanning_tree(distances, cores)
        assert stacked.shape == (cores.shape[0], distances.shape[0] - 1, 3)
        for row, core in enumerate(cores):
            assert_bytes_equal(stacked[row], oracle_minimum_spanning_tree(distances, core))

    @parity
    @given(stacked_cores())
    def test_one_dimensional_and_plain_calls_are_unchanged(self, case):
        distances, cores = case
        assert_bytes_equal(
            minimum_spanning_tree(distances, cores[0]),
            oracle_minimum_spanning_tree(distances, cores[0]),
        )
        assert_bytes_equal(minimum_spanning_tree(distances), oracle_minimum_spanning_tree(distances))

    @parity
    @given(st.data())
    def test_one_row_disconnected_and_one_not(self, data):
        # Object ``lonely`` has one finite neighbour: its MinPts = 2 core
        # distance is finite, its MinPts = 3 one is +inf, so only the second
        # tree has to join it through an (0, r, inf) edge.
        n_samples = data.draw(st.one_of(st.integers(4, 40), st.sampled_from([511, 513])))
        matrix = pairwise_distances(draw_points(data.draw, n_samples))
        matrix = np.maximum(matrix, matrix.T)
        lonely, partner = data.draw(
            st.lists(st.integers(0, n_samples - 1), min_size=2, max_size=2, unique=True)
        )
        matrix[lonely, :] = matrix[:, lonely] = np.inf
        matrix[lonely, lonely] = 0.0
        matrix[lonely, partner] = matrix[partner, lonely] = 1.0
        values = data.draw(st.permutations([2, 3]))
        table = core_distance_table(matrix, 3)
        cores = np.ascontiguousarray(table[:, [value - 1 for value in values]].T)
        stacked = minimum_spanning_tree(matrix, cores)
        for row, (value, core) in enumerate(zip(values, cores)):
            assert_bytes_equal(stacked[row], oracle_minimum_spanning_tree(matrix, core))
            assert np.isinf(stacked[row][:, 2]).any() == (value == 3)

    @parity
    @given(st.data())
    def test_unreachable_pairs(self, data):
        n_samples = data.draw(st.sampled_from([2, 3, 511, 513]))
        matrix = pairwise_distances(draw_points(data.draw, n_samples))
        matrix = np.maximum(matrix, matrix.T)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = rng.integers(0, n_samples, size=n_samples)
        cols = rng.integers(0, n_samples, size=n_samples)
        off_diagonal = rows != cols
        matrix[rows[off_diagonal], cols[off_diagonal]] = np.inf
        matrix[cols[off_diagonal], rows[off_diagonal]] = np.inf
        values = data.draw(st.lists(st.integers(1, n_samples), min_size=1, max_size=8))
        table = core_distance_table(matrix, max(values))
        cores = np.ascontiguousarray(table[:, [value - 1 for value in values]].T)
        stacked = minimum_spanning_tree(matrix, cores)
        for row, core in enumerate(cores):
            assert_bytes_equal(stacked[row], oracle_minimum_spanning_tree(matrix, core))


def payload_bytes(structure) -> bytes:
    return json.dumps(structure_payload(structure), sort_keys=True).encode()


@st.composite
def grids(draw):
    """Data and a MinPts grid with repeats, values past 32 and values past n."""
    n_samples = draw(st.one_of(st.integers(4, 60), st.sampled_from([511, 513])))
    values = draw(st.lists(st.integers(1, n_samples + 10), min_size=1, max_size=8))
    values.append(draw(st.sampled_from(values)))
    return draw_points(draw, n_samples), values


class TestGridStructures:
    @parity
    @given(grids(), st.sampled_from(["blockwise", "memmap", "precomputed"]))
    def test_grid_payloads_equal_per_value_builds(self, case, tier):
        X, values = case
        metric = "euclidean"
        if tier == "precomputed":
            matrix = pairwise_distances(X)
            X, metric = np.maximum(matrix, matrix.T), "precomputed"
        backend = "memmap" if tier == "memmap" else "blockwise"
        effective = [min(value, X.shape[0]) for value in values]
        clear_distance_cache()
        grid = cached_tree_structure(X, effective, metric=metric, distance_backend=backend)
        assert [structure.min_pts for structure in grid] == effective
        for value, structure in zip(effective, grid):
            clear_distance_cache()
            alone = build_tree_structure(X, value, metric=metric, distance_backend=backend)
            assert payload_bytes(structure) == payload_bytes(alone)

    @parity
    @given(grids())
    def test_estimator_warm_up_clamps_and_dedupes(self, case):
        X, values = case
        estimators = [FOSCOpticsDend(min_pts=value) for value in values]
        clear_distance_cache()
        FOSCOpticsDend.warm_structures(X, estimators)
        effective = sorted({estimator._effective_min_pts(X) for estimator in estimators})
        assert structure_cache_stats().misses == len(effective)
        warmed = [cached_tree_structure(X, value) for value in effective]
        assert structure_cache_stats().misses == len(effective)
        for value, structure in zip(effective, warmed):
            clear_distance_cache()
            assert payload_bytes(structure) == payload_bytes(build_tree_structure(X, value))

    def test_single_value_is_the_one_value_grid(self):
        X = np.random.default_rng(0).normal(size=(40, 2))
        (structure,) = cached_tree_structure(X, [5])
        assert cached_tree_structure(X, 5) is structure


@pytest.fixture()
def blobs():
    data = make_blobs([20, 20, 20], 2, center_spread=10.0, cluster_std=0.6, random_state=7)
    return data.X, sample_labeled_objects(data.y, 0.2, random_state=3)


def spy_builds(monkeypatch) -> list[list[int]]:
    """Record the MinPts list of every grid build."""
    builds: list[list[int]] = []
    original = hierarchy.build_tree_structures

    def recording(X, min_pts_values, **settings):
        builds.append(list(min_pts_values))
        return original(X, min_pts_values, **settings)

    monkeypatch.setattr(hierarchy, "build_tree_structures", recording)
    return builds


class TestBuildCounts:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_one_build_per_distinct_effective_min_pts(self, backend, blobs, monkeypatch):
        X, side = blobs
        builds = spy_builds(monkeypatch)
        # 60 objects: 100 and 200 both clamp to 59, and 5 repeats.
        search = CVCP(
            FOSCOpticsDend(), [3, 5, 5, 100, 200], n_folds=3, random_state=0,
            execution=ExecutionSpec(backend=backend, n_jobs=2 if backend == "thread" else None),
        )
        search.fit(X, labeled_objects=side)
        assert structure_cache_stats().misses == 3
        assert builds == [[3, 5, 59]]

    def test_a_grid_above_the_memo_bound_builds_each_structure_once(self, monkeypatch):
        X = np.random.default_rng(1).normal(size=(100, 2))
        builds = spy_builds(monkeypatch)
        values = list(range(2, 72))
        assert len(values) > hierarchy._structure_cache.max_items
        structures = cached_tree_structure(X, values)
        assert [structure.min_pts for structure in structures] == values
        assert sorted(value for build in builds for value in build) == values
        assert all(len(build) <= hierarchy._structure_cache.max_items for build in builds)
        assert structure_cache_stats().misses == len(values)


def structure_counts(store):
    stats = store.stats_for("structure")
    return stats.hits, stats.misses, stats.writes


class TestHalfFilledStore:
    """``structure`` traffic of a grid over a store holding some of its values.

    The pinned ``(hits, misses, writes)`` were measured with the per-value
    warm-up this grid call replaced, on the same runs.
    """

    def test_cvcp_grid(self, tmp_path):
        data = make_blobs([25, 25, 25], 3, center_spread=8.0, random_state=0, name="store-test")
        side = sample_labeled_objects(data.y, 0.2, random_state=1)
        store = ArtifactStore(tmp_path / "store")

        def grid(values):
            clear_distance_cache()
            CVCP(
                FOSCOpticsDend(), values, n_folds=3, random_state=0, refit=True,
                artifact_store=store,
            ).fit(data.X, labeled_objects=side)

        grid([3, 9, 15])
        store.reset_stats()
        grid([3, 6, 9, 12, 15, 18])
        assert structure_counts(store) == (4, 3, 3)

    def test_trial_grid_and_external_fits(self, tmp_path):
        data = make_blobs([25, 25, 25], 3, center_spread=8.0, random_state=0, name="store-test")
        store = ArtifactStore(tmp_path / "store")
        config = ExperimentConfig(
            n_trials=1, n_folds=3, minpts_range=(3, 9), mpck_n_init=1, mpck_max_iter=8,
            max_k=5, datasets=("Iris",),
        )
        run_trial(data, "fosc", "labels", 0.1, config=config, random_state=7, store=store)
        store.reset_stats()
        clear_distance_cache()
        run_trial(
            data, "fosc", "labels", 0.1,
            config=dataclasses.replace(config, minpts_range=(3, 6, 9, 12)),
            random_state=7, store=store,
        )
        assert structure_counts(store) == (6, 2, 2)
