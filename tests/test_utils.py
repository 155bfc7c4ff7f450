"""Unit tests for the shared utilities (disjoint set, RNG handling, validation)."""

import numpy as np
import pytest

from repro.utils import (
    DisjointSet,
    check_array_2d,
    check_fraction,
    check_labels,
    check_positive_int,
    check_random_state,
)
from repro.utils.validation import unique_labels


class TestDisjointSet:
    def test_singletons(self):
        ds = DisjointSet([1, 2, 3])
        assert ds.n_components == 3
        assert not ds.connected(1, 2)

    def test_union_and_find(self):
        ds = DisjointSet()
        ds.union(1, 2)
        ds.union(2, 3)
        assert ds.connected(1, 3)
        assert ds.n_components == 1
        assert ds.group_size(1) == 3

    def test_union_idempotent(self):
        ds = DisjointSet()
        ds.union(1, 2)
        root = ds.union(1, 2)
        assert ds.n_components == 1
        assert root == ds.find(1)

    def test_groups(self):
        ds = DisjointSet()
        ds.union("a", "b")
        ds.add("c")
        groups = {frozenset(group) for group in ds.groups()}
        assert groups == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_lazy_registration(self):
        ds = DisjointSet()
        assert ds.find(42) == 42
        assert 42 in ds
        assert len(ds) == 1

    def test_many_unions_single_component(self):
        ds = DisjointSet()
        for index in range(99):
            ds.union(index, index + 1)
        assert ds.n_components == 1
        assert ds.group_size(50) == 100


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_is_reproducible(self):
        a = check_random_state(7).integers(0, 1000, 5)
        b = check_random_state(7).integers(0, 1000, 5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert check_random_state(generator) is generator

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            check_random_state("seed")

class TestValidation:
    def test_check_array_2d_accepts_lists(self):
        array = check_array_2d([[1, 2], [3, 4]])
        assert array.shape == (2, 2)
        assert array.dtype == np.float64

    def test_check_array_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            check_array_2d([1, 2, 3])

    def test_check_array_2d_rejects_nan(self):
        with pytest.raises(ValueError):
            check_array_2d([[1.0, np.nan]])

    def test_check_labels_length_mismatch(self):
        with pytest.raises(ValueError):
            check_labels([0, 1], 3)

    def test_check_labels_accepts_integral_floats(self):
        labels = check_labels([0.0, 1.0, 2.0])
        assert labels.dtype == np.int64

    def test_check_labels_rejects_non_integral_floats(self):
        with pytest.raises(ValueError):
            check_labels([0.5, 1.0])

    def test_check_fraction_bounds(self):
        assert check_fraction(0.5) == 0.5
        assert check_fraction(1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction(0.0)
        assert check_fraction(0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_fraction(1.2)

    def test_check_positive_int(self):
        assert check_positive_int(3) == 3
        with pytest.raises(ValueError):
            check_positive_int(0)
        with pytest.raises(TypeError):
            check_positive_int(2.5)
        with pytest.raises(TypeError):
            check_positive_int(True)

    def test_unique_labels_ignores_noise(self):
        assert unique_labels([0, 1, -1, 1]).tolist() == [0, 1]
        assert unique_labels([0, 1, -1, 1], ignore_noise=False).tolist() == [-1, 0, 1]
