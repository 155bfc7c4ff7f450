"""Sparse text workloads: generator, CSR kernels, precomputed validation.

Covers the text-scenario surfaces end to end: the planted-topic TF-IDF
generator, the sparse cosine/euclidean distance kernels (including the
no-densify memory guard), precomputed-matrix validation failure modes,
the ``.npz`` loader, and the ``[dataset]`` config table through
``validate-config`` — every defect must surface as a problem string, not
a traceback.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.clustering.distances import (
    SPARSE_METRICS,
    pairwise_distances,
    precomputed_distance_problems,
    similarity_to_distance,
    validate_precomputed_distances,
)
from repro.datasets import load_precomputed_dataset, make_text_blobs
from repro.datasets.base import DATASET_METRICS
from repro.datasets.registry import get_dataset
from repro.experiments.pipeline import ConfigError, pipeline_spec_from_mapping
from repro.utils.cache import array_fingerprint, cached_pairwise_distances, clear_distance_cache
from repro.utils.validation import check_array_2d

SEED = 20140324


# ----------------------------------------------------------------------
# Generator


class TestMakeTextBlobs:
    def test_shapes_labels_and_sparsity(self):
        dataset = make_text_blobs(n_documents=50, n_topics=3, random_state=SEED)
        assert sparse.issparse(dataset.X)
        assert dataset.X.format == "csr"
        assert dataset.X.shape == (50, 500)
        assert dataset.y.shape == (50,)
        assert set(dataset.y) == {0, 1, 2}
        # Evenly split with the remainder on the first topics: 17/17/16.
        assert sorted(np.bincount(dataset.y), reverse=True) == [17, 17, 16]
        assert dataset.metric == "cosine"
        assert dataset.is_sparse
        assert 0.0 < dataset.meta["density"] < 1.0

    def test_rows_are_l2_normalised(self):
        dataset = make_text_blobs(n_documents=30, random_state=SEED)
        norms = np.sqrt(dataset.X.multiply(dataset.X).sum(axis=1)).A1
        assert np.allclose(norms, 1.0)

    def test_deterministic_per_seed(self):
        first = make_text_blobs(n_documents=40, random_state=SEED)
        second = make_text_blobs(n_documents=40, random_state=SEED)
        assert (first.X != second.X).nnz == 0
        assert np.array_equal(first.y, second.y)
        third = make_text_blobs(n_documents=40, random_state=SEED + 1)
        assert (first.X != third.X).nnz > 0

    def test_registered_in_the_registry(self):
        dataset = get_dataset("Text", random_state=SEED)
        assert sparse.issparse(dataset.X)
        assert dataset.metric == "cosine"
        override = get_dataset("Text", random_state=SEED, metric="euclidean")
        assert override.metric == "euclidean"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_topics": 1}, "n_topics"),
            ({"n_documents": 3, "n_topics": 4}, "n_documents"),
            ({"vocabulary_size": 2, "n_topics": 4}, "vocabulary_size"),
        ],
    )
    def test_parameter_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            make_text_blobs(**kwargs)


# ----------------------------------------------------------------------
# Sparse kernels


class TestSparseKernels:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_text_blobs(n_documents=60, vocabulary_size=200, random_state=SEED)

    @pytest.mark.parametrize("metric", SPARSE_METRICS)
    def test_sparse_matches_dense(self, corpus, metric):
        dense = np.asarray(corpus.X.todense())
        expected = pairwise_distances(dense, metric=metric)
        actual = pairwise_distances(corpus.X, metric=metric)
        assert actual.dtype == np.float64
        assert np.allclose(actual, expected, atol=1e-10)

    def test_manhattan_rejected_for_sparse(self, corpus):
        with pytest.raises(ValueError, match="manhattan"):
            pairwise_distances(corpus.X, metric="manhattan")

    def test_precomputed_rejected_for_sparse(self, corpus):
        with pytest.raises(ValueError, match="precomputed|dense"):
            pairwise_distances(corpus.X, metric="precomputed")

    def test_cached_pairwise_distances_accepts_csr(self, corpus):
        clear_distance_cache()
        first = cached_pairwise_distances(corpus.X, metric="cosine")
        second = cached_pairwise_distances(corpus.X, metric="cosine")
        assert first is second  # served from the structure cache
        assert np.allclose(first, pairwise_distances(corpus.X, metric="cosine"))
        clear_distance_cache()

    def test_cosine_never_densifies_the_operand(self):
        """Peak traced memory stays far below one dense copy of X."""
        corpus = make_text_blobs(
            n_documents=400, vocabulary_size=4000, words_per_document=40,
            random_state=SEED,
        )
        dense_bytes = corpus.X.shape[0] * corpus.X.shape[1] * 8  # 12.8 MB
        tracemalloc.start()
        try:
            distances = pairwise_distances(corpus.X, metric="cosine")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (n, n) output plus per-panel Gram blocks are unavoidable;
        # a densified operand is not.
        output_bytes = distances.nbytes
        assert peak < output_bytes + dense_bytes / 2


# ----------------------------------------------------------------------
# Precomputed validation failure modes


def _valid_distances(n: int = 6) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    points = rng.normal(size=(n, 3))
    return pairwise_distances(points, metric="euclidean")


class TestPrecomputedProblems:
    def test_valid_matrix_has_no_problems(self):
        assert precomputed_distance_problems(_valid_distances()) == []

    def test_non_square(self):
        problems = precomputed_distance_problems(np.zeros((4, 5)))
        assert len(problems) == 1
        assert "square" in problems[0]

    def test_asymmetric(self):
        matrix = _valid_distances()
        matrix[0, 1] += 0.5
        assert any("not symmetric" in p for p in precomputed_distance_problems(matrix))

    def test_negative_entries(self):
        matrix = _valid_distances()
        matrix[0, 1] = matrix[1, 0] = -0.25
        assert any("negative" in p for p in precomputed_distance_problems(matrix))

    def test_nan_entries(self):
        matrix = _valid_distances()
        matrix[2, 3] = matrix[3, 2] = np.nan
        problems = precomputed_distance_problems(matrix)
        assert problems == ["X contains NaN entries"]

    def test_nonzero_diagonal(self):
        matrix = _valid_distances()
        matrix[1, 1] = 0.75
        assert any("non-zero diagonal" in p for p in precomputed_distance_problems(matrix))

    def test_similarity_orientation_is_called_out(self):
        similarity = np.exp(-_valid_distances())  # diagonal holds the maximum (1.0)
        problems = precomputed_distance_problems(similarity)
        assert any("similarity" in p and "similarity_to_distance" in p for p in problems)

    def test_sparse_matrix_rejected(self):
        problems = precomputed_distance_problems(sparse.eye(4, format="csr"))
        assert any("dense" in p for p in problems)

    def test_validate_raises_with_joined_problems(self):
        with pytest.raises(ValueError, match="square"):
            validate_precomputed_distances(np.zeros((4, 5)))

    def test_multiple_problems_reported_at_once(self):
        matrix = _valid_distances()
        matrix[0, 1] = -1.0  # negative AND asymmetric
        problems = precomputed_distance_problems(matrix)
        assert len(problems) == 2


class TestSimilarityToDistance:
    def test_conversion_is_valid_precomputed_input(self):
        distances = _valid_distances()
        similarity = distances.max() - distances
        converted = similarity_to_distance(similarity)
        assert precomputed_distance_problems(converted) == []
        assert np.allclose(np.diagonal(converted), 0.0)
        # Monotone: larger similarity -> smaller distance, ordering preserved.
        flat_s = similarity[np.triu_indices(6, 1)]
        flat_d = converted[np.triu_indices(6, 1)]
        assert np.array_equal(np.argsort(flat_s), np.argsort(-flat_d))


# ----------------------------------------------------------------------
# .npz loader


def _write_npz(path: Path, matrix: np.ndarray) -> Path:
    np.savez(path, matrix=matrix, labels=np.arange(matrix.shape[0]) % 2)
    return path


class TestLoadPrecomputedDataset:
    def test_distance_form_roundtrip(self, tmp_path):
        matrix = _valid_distances()
        path = _write_npz(tmp_path / "d.npz", matrix)
        dataset = load_precomputed_dataset(path)
        assert dataset.name == "d"
        assert dataset.metric == "precomputed"
        assert np.allclose(dataset.X, matrix)
        assert dataset.meta["form"] == "distance"

    def test_similarity_form_is_converted(self, tmp_path):
        distances = _valid_distances()
        similarity = distances.max() - distances
        path = _write_npz(tmp_path / "s.npz", similarity)
        dataset = load_precomputed_dataset(path, form="similarity", name="sim")
        assert dataset.name == "sim"
        assert precomputed_distance_problems(dataset.X) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_precomputed_dataset(tmp_path / "absent.npz")

    def test_missing_arrays(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ValueError, match="matrix, labels"):
            load_precomputed_dataset(path)

    def test_invalid_form(self, tmp_path):
        path = _write_npz(tmp_path / "d.npz", _valid_distances())
        with pytest.raises(ValueError, match="form"):
            load_precomputed_dataset(path, form="affinity")

    def test_invalid_matrix_names_the_file(self, tmp_path):
        path = _write_npz(tmp_path / "lopsided.npz", np.zeros((4, 5)))
        with pytest.raises(ValueError, match="lopsided.npz:matrix"):
            load_precomputed_dataset(path)


# ----------------------------------------------------------------------
# Validation/fingerprint plumbing for CSR operands


class TestSparsePlumbing:
    def test_check_array_2d_passes_csr_through(self):
        X = sparse.random(20, 30, density=0.2, format="coo", random_state=SEED)
        checked = check_array_2d(X, name="X")
        assert sparse.issparse(checked)
        assert checked.format == "csr"
        assert checked.dtype == np.float64

    def test_check_array_2d_rejects_nonfinite_sparse(self):
        X = sparse.csr_matrix(np.array([[1.0, np.nan], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="finite"):
            check_array_2d(X, name="X")

    def test_csr_fingerprint_is_content_addressed(self):
        X = make_text_blobs(n_documents=20, random_state=SEED).X
        fingerprint = array_fingerprint(X)
        assert fingerprint.startswith("csr:")
        assert array_fingerprint(X.copy()) == fingerprint
        assert array_fingerprint(np.asarray(X.todense())) != fingerprint
        perturbed = X.copy()
        perturbed.data[0] += 1.0
        assert array_fingerprint(perturbed) != fingerprint


# ----------------------------------------------------------------------
# The [dataset] config table, through validate-config


def _spec(tmp_path: Path, matrix: np.ndarray, *, form: str = "distance", **dataset_keys) -> dict:
    path = _write_npz(tmp_path / "m.npz", matrix)
    table = {"metric": "precomputed", "path": str(path), "form": form}
    table.update(dataset_keys)
    return {
        "experiment": {
            "name": "precomputed-check",
            "kind": "trials",
            "algorithm": "fosc",
            "scenario": "labels",
            "amounts": [0.2],
            "seed": SEED,
        },
        "parameters": {"n_trials": 1, "n_folds": 3, "minpts_range": [3]},
        "dataset": table,
    }


def _problems(raw: dict, tmp_path: Path) -> list[str]:
    with pytest.raises(ConfigError) as excinfo:
        pipeline_spec_from_mapping(raw, base_dir=tmp_path)
    return list(excinfo.value.problems)


class TestDatasetTableValidation:
    def test_valid_precomputed_spec_loads(self, tmp_path):
        spec = pipeline_spec_from_mapping(
            _spec(tmp_path, _valid_distances(), name="mat"), base_dir=tmp_path
        )
        assert spec.precomputed is not None
        assert spec.precomputed.name == "mat"
        assert spec.config.execution.metric == "precomputed"

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (np.zeros((4, 5)), "square"),
            (np.array([[0.0, 1.0], [2.0, 0.0]]), "not symmetric"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "negative"),
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), "NaN"),
        ],
    )
    def test_matrix_defects_become_config_problems(self, tmp_path, matrix, expected):
        problems = _problems(_spec(tmp_path, matrix), tmp_path)
        assert any(p.startswith("dataset.path:") and expected in p for p in problems)

    def test_similarity_passed_as_distance_is_a_problem(self, tmp_path):
        distances = _valid_distances()
        similarity = distances.max() - distances
        problems = _problems(_spec(tmp_path, similarity, form="distance"), tmp_path)
        assert any("similarity" in p for p in problems)
        # ...and the fix the message suggests actually works.
        pipeline_spec_from_mapping(
            _spec(tmp_path, similarity, form="similarity"), base_dir=tmp_path
        )

    def test_missing_matrix_file_is_a_problem(self, tmp_path):
        raw = _spec(tmp_path, _valid_distances())
        raw["dataset"]["path"] = "absent.npz"
        problems = _problems(raw, tmp_path)
        assert any("dataset.path" in p and "not found" in p for p in problems)

    def test_path_requires_precomputed_metric(self, tmp_path):
        raw = _spec(tmp_path, _valid_distances())
        raw["dataset"]["metric"] = "cosine"
        problems = _problems(raw, tmp_path)
        assert any("precomputed" in p for p in problems)

    def test_unknown_metric_lists_choices(self, tmp_path):
        raw = _spec(tmp_path, _valid_distances())
        raw["dataset"]["metric"] = "jaccard"
        problems = _problems(raw, tmp_path)
        assert any(all(m in p for m in DATASET_METRICS) for p in problems)

    def test_path_conflicts_with_experiment_datasets(self, tmp_path):
        raw = _spec(tmp_path, _valid_distances())
        raw["experiment"]["datasets"] = ["Iris"]
        problems = _problems(raw, tmp_path)
        assert any("experiment.datasets" in p for p in problems)

    def test_metric_conflicts_with_neighbors_backend_as_problem(self, tmp_path):
        raw = {
            "experiment": {
                "name": "t", "kind": "trials", "algorithm": "fosc",
                "scenario": "labels", "amounts": [0.2], "datasets": ["Text"],
                "seed": SEED,
            },
            "parameters": {"n_trials": 1, "n_folds": 3, "minpts_range": [3]},
            "dataset": {"metric": "cosine"},
            "execution": {"distance_backend": "neighbors"},
        }
        problems = _problems(raw, tmp_path)
        assert any("neighbors" in p for p in problems)

    def test_example_configs_validate_through_the_cli(self):
        from repro.cli.main import main

        root = Path(__file__).resolve().parent.parent
        assert (
            main([
                "validate-config",
                str(root / "examples" / "text_cosine.toml"),
                str(root / "examples" / "precomputed_similarity.toml"),
            ])
            == 0
        )

    def test_cli_reports_matrix_defects_without_traceback(self, tmp_path, capsys):
        from repro.cli.main import main

        raw = _spec(tmp_path, np.zeros((4, 5)))
        config = tmp_path / "bad.toml"
        table = "\n".join(
            f'{key} = "{value}"' for key, value in raw["dataset"].items()
        )
        config.write_text(
            "[experiment]\n"
            'name = "bad"\nkind = "trials"\nalgorithm = "fosc"\n'
            f'scenario = "labels"\namounts = [0.2]\nseed = {SEED}\n'
            "[parameters]\n"
            "n_trials = 1\nn_folds = 3\nminpts_range = [3]\n"
            f"[dataset]\n{table}\n",
            encoding="utf-8",
        )
        assert main(["validate-config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "square" in captured.out + captured.err
