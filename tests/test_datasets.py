"""Unit tests for the data substrates (container, generators, loaders, registry)."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    get_dataset,
    get_dataset_collection,
    load_csv_dataset,
    make_aloi_collection,
    make_aloi_k5_like,
    make_blobs,
    make_ecoli_like,
    make_ionosphere_like,
    make_iris_like,
    make_two_moons,
    make_wine_like,
    make_zyeast_like,
)
from repro.datasets.loaders import load_real_dataset
from repro.datasets.registry import DATASET_NAMES
from repro.datasets.synthetic import embed_in_higher_dimension


class TestDatasetContainer:
    def test_basic_properties(self):
        data = Dataset("toy", np.zeros((4, 3)), np.array([0, 0, 1, 1]))
        assert data.n_samples == 4
        assert data.n_features == 3
        assert data.n_classes == 2
        assert data.class_sizes == {0: 2, 1: 2}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((4, 3)), np.array([0, 1]))

    def test_standardized(self):
        rng = np.random.default_rng(0)
        data = Dataset("toy", rng.normal(5.0, 3.0, size=(50, 4)), np.zeros(50, dtype=int))
        standard = data.standardized()
        assert np.allclose(standard.X.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(standard.X.std(axis=0), 1.0, atol=1e-10)
        # Original untouched.
        assert not np.allclose(data.X.mean(axis=0), 0.0)

    def test_standardized_with_constant_feature(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        data = Dataset("toy", X, np.zeros(5, dtype=int))
        standard = data.standardized()
        assert np.allclose(standard.X[:, 1], 0.0)

    def test_subsample(self):
        data = make_blobs([10, 10], 2, random_state=0)
        subset = data.subsample(np.arange(5))
        assert subset.n_samples == 5
        assert (subset.y == data.y[:5]).all()


class TestSyntheticGenerators:
    def test_blobs_shapes_and_classes(self):
        data = make_blobs([10, 20, 30], 5, random_state=0)
        assert data.n_samples == 60
        assert data.n_features == 5
        assert data.class_sizes == {0: 10, 1: 20, 2: 30}

    def test_blobs_reproducible(self):
        a = make_blobs([10, 10], 3, random_state=1)
        b = make_blobs([10, 10], 3, random_state=1)
        assert np.allclose(a.X, b.X)

    def test_two_moons(self):
        data = make_two_moons(101, random_state=0)
        assert data.n_samples == 101
        assert data.n_features == 2
        assert data.n_classes == 2

    def test_embed_in_higher_dimension(self):
        base = make_two_moons(50, random_state=0)
        embedded = embed_in_higher_dimension(base, 20, random_state=0)
        assert embedded.n_features == 20
        assert embedded.n_samples == base.n_samples
        with pytest.raises(ValueError):
            embed_in_higher_dimension(base, 1)


class TestUCILikeGenerators:
    @pytest.mark.parametrize(
        "factory, n_samples, n_features, n_classes",
        [
            (make_iris_like, 150, 4, 3),
            (make_wine_like, 178, 13, 3),
            (make_ionosphere_like, 351, 34, 2),
            (make_ecoli_like, 336, 7, 8),
            (make_zyeast_like, 205, 20, 4),
        ],
    )
    def test_shapes_match_the_paper(self, factory, n_samples, n_features, n_classes):
        data = factory(random_state=0)
        assert data.n_samples == n_samples
        assert data.n_features == n_features
        assert data.n_classes == n_classes

    def test_deterministic_given_seed(self):
        assert np.allclose(make_wine_like(random_state=3).X, make_wine_like(random_state=3).X)

    def test_different_seeds_differ(self):
        assert not np.allclose(make_iris_like(random_state=0).X, make_iris_like(random_state=1).X)


class TestALOI:
    def test_single_dataset_shape(self):
        data = make_aloi_k5_like(random_state=0)
        assert data.n_samples == 125
        assert data.n_features == 144
        assert data.n_classes == 5
        assert all(size == 25 for size in data.class_sizes.values())

    def test_collection(self):
        collection = make_aloi_collection(4, random_state=0)
        assert len(collection) == 4
        assert len({dataset.name for dataset in collection}) == 4
        # Members differ from each other.
        assert not np.allclose(collection[0].X, collection[1].X)

    def test_collection_reproducible(self):
        a = make_aloi_collection(2, random_state=5)
        b = make_aloi_collection(2, random_state=5)
        assert np.allclose(a[1].X, b[1].X)


class TestLoaders:
    def test_load_csv(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        data = load_csv_dataset(path)
        assert data.n_samples == 3
        assert data.n_features == 2
        assert data.n_classes == 2
        assert data.meta["label_map"] == {"a": 0, "b": 1}

    def test_load_csv_with_header(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv_dataset(path)
        assert data.n_samples == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_dataset(tmp_path / "absent.csv")
        assert load_real_dataset("absent", data_dir=tmp_path) is None

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,a\n3.0,b\n")
        with pytest.raises(ValueError):
            load_csv_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            load_csv_dataset(path)

    def test_real_dataset_preferred_when_present(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("1.0,2.0,x\n3.0,4.0,y\n5.0,6.0,x\n7.0,8.0,y\n")
        data = get_dataset("Iris", data_dir=tmp_path)
        assert data.n_samples == 4  # the tiny CSV, not the 150-object analogue


class TestRegistry:
    def test_all_paper_names_resolve(self):
        for name in DATASET_NAMES:
            data = get_dataset(name, random_state=0, prefer_real=False)
            assert data.n_samples > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_dataset("mnist")

    def test_collection_for_aloi(self):
        collection = get_dataset_collection("ALOI", n_datasets=3, random_state=0)
        assert len(collection) == 3

    def test_collection_for_single_dataset(self):
        collection = get_dataset_collection("Iris", random_state=0)
        assert len(collection) == 1
        assert collection[0].n_samples == 150
