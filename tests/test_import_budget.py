"""Cold-start budget: a run imports only what it calls.

``import repro`` sits in front of every CVCP selection, fleet worker and
``repro serve`` start-up.  ``scipy.stats`` is only needed by the paired
t-test, ``scipy.sparse`` only by CSR inputs and the ``neighbors`` tier, so
the package, the API, the CLI and a dense selection must load none of
them.  The packages export lazily (:mod:`repro.utils.exports`), so the
package, the API and a dense selection load no experiment, serve, bench or
CLI module either, and no executor pool machinery.  The import checks run
in a fresh interpreter, because the test process itself has long since
imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.clustering import distances
from repro.clustering.distances import pairwise_distances
from repro.utils.cache import array_fingerprint, clear_distance_cache
from repro.utils.validation import check_array_2d, is_sparse

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules no import and no dense selection may load.
HEAVY_MODULES = (
    "scipy.stats",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.optimize",
    "scipy.linalg",
    "repro.core.neighbor_graph",
)

#: Module families that ``import repro``, ``import repro.api`` and a dense
#: selection never call, so must not load.
UNCALLED_MODULES = (
    "repro.experiments",
    "repro.serve",
    "repro.bench",
    "repro.cli",
    "multiprocessing",
    "concurrent.futures",
)

#: package -> ``__all__`` name -> the file that defines it.
ORIGINS = json.loads((REPO_ROOT / "tests" / "data" / "export_origins.json").read_text(encoding="utf-8"))

DENSE_FIT = """
from repro import CVCP, FOSCOpticsDend, make_iris_like, sample_labeled_objects
from repro.utils.cache import clear_distance_cache

data = make_iris_like(random_state=0)
labels = sample_labeled_objects(data.y, 0.2, random_state=0)
search = CVCP(FOSCOpticsDend(), [3, 6], n_folds=3, random_state=0)
search.fit(data.X, labeled_objects=labels)
clear_distance_cache()
"""


def modules_after(code: str, families: tuple[str, ...] = HEAVY_MODULES) -> list[str]:
    """The modules of ``families`` a fresh interpreter holds after running ``code``.

    A family is a module and its submodules.
    """
    script = (
        f"import sys\n{code}\n"
        "import json\n"
        f"print(json.dumps(sorted(m for m in sys.modules for f in {families!r} "
        "if m == f or m.startswith(f + '.'))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("target", ["repro", "repro.api", "repro.cli.main"])
def test_import_loads_no_heavy_module(target):
    assert modules_after(f"import {target}") == []


def test_dense_selection_and_cache_clear_load_no_heavy_module():
    assert modules_after(DENSE_FIT) == []


@pytest.mark.parametrize(
    "code",
    ["import repro", "import repro.api", "import repro.api\n" + DENSE_FIT],
    ids=["repro", "repro.api", "dense-selection"],
)
def test_setup_loads_no_uncalled_module(code):
    assert modules_after(code, UNCALLED_MODULES) == []


def module_of(path: str) -> str:
    parts = path.removeprefix("src/").removesuffix(".py").split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("package_name", sorted(ORIGINS))
def test_every_export_is_its_defining_modules_object(package_name):
    package = importlib.import_module(package_name)
    origins = ORIGINS[package_name]
    assert sorted(package.__all__) == sorted(origins)
    listed = dir(package)
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    for name, path in origins.items():
        defined = getattr(importlib.import_module(module_of(path)), name)
        assert getattr(package, name) is defined, name
        assert name in listed, name
        assert namespace[name] is defined, name


def test_paired_t_test_loads_scipy_stats_only_when_called():
    code = """
from repro.evaluation import paired_t_test
first, second = [0.9, 0.85, 0.92, 0.88, 0.91], [0.5, 0.52, 0.48, 0.51, 0.49]
assert "scipy.stats" not in sys.modules
result = paired_t_test(first, second)
assert "scipy.stats" in sys.modules
from scipy import stats
reference = stats.ttest_rel(first, second)
assert abs(result.statistic - reference.statistic) <= 1e-9 * abs(reference.statistic)
assert abs(result.p_value - reference.pvalue) <= 1e-9 * reference.pvalue
"""
    assert "scipy.stats" in modules_after(code)


class TestSparsePath:
    def test_csr_input_takes_the_sparse_kernel(self, monkeypatch):
        calls = []
        original = distances._sparse_euclidean

        def recording(X, *args, **kwargs):
            calls.append(sparse.issparse(X))
            return original(X, *args, **kwargs)

        monkeypatch.setattr(distances, "_sparse_euclidean", recording)
        dense = np.random.default_rng(0).random((12, 5))
        dense[dense < 0.5] = 0.0
        observed = pairwise_distances(sparse.csr_matrix(dense))
        assert calls == [True]
        np.testing.assert_allclose(observed, pairwise_distances(dense), atol=1e-12)

    def test_csr_input_is_validated_and_fingerprinted_without_densifying(self):
        matrix = sparse.csr_matrix(np.eye(4))
        assert sparse.issparse(check_array_2d(matrix))
        assert array_fingerprint(matrix).startswith("csr:")
        assert not array_fingerprint(np.eye(4)).startswith("csr:")


def test_clear_distance_cache_empties_a_loaded_neighbor_graph_memo():
    from repro.core.neighbor_graph import cached_neighbor_graph, neighbor_graph_cache_stats

    clear_distance_cache()  # graphs an earlier test in this process left behind
    X = np.random.default_rng(0).normal(size=(20, 2))
    cached_neighbor_graph(X, epsilon=2.0, k_neighbors=5)
    assert neighbor_graph_cache_stats().size == 1
    clear_distance_cache()
    assert neighbor_graph_cache_stats().size == 0


class TestIsSparse:
    def test_dense_arrays_are_not_sparse(self, tmp_path):
        assert not is_sparse(np.zeros((3, 2)))
        memmap = np.memmap(tmp_path / "x.dat", dtype=np.float64, mode="w+", shape=(3, 2))
        assert not is_sparse(memmap)
        assert not is_sparse([[1.0, 2.0]])

    def test_scipy_sparse_matrices_and_arrays_are_sparse(self):
        assert is_sparse(sparse.csr_matrix(np.eye(3)))
        assert is_sparse(sparse.csr_array(np.eye(3)))

    def test_is_sparse_does_not_import_scipy_sparse(self):
        code = (
            "import numpy as np\n"
            "from repro.utils.validation import is_sparse\n"
            "assert not is_sparse(np.eye(2))"
        )
        assert modules_after(code) == []
