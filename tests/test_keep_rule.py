"""The keep rule as a ratchet: every exported name is reached, or says who reads it.

``docs/architecture.md`` ("What stays public: the keep rule") keeps a public
name when a pipeline kind, the CLI, ``repro serve``, ``repro.api``, a paper
benchmark or one of the two extensions reaches it.  This test checks a
static stand-in for that rule on every package ``__all__``: each entry must
appear in ``src/`` outside the module that defines it and outside the
package ``__init__``s, or in ``benchmarks/`` or ``perfbench/``.  Examples,
like tests, only demonstrate a name; they do not keep it.  The defining
module of a name is read from its package's export table.

A name the static pass misses stays only with an ``ALLOWLIST`` entry whose
value is the test, doc or extension example that reads it.  Stale entries
fail too, so the list only shrinks as names become reached or go.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
REACHING_DIRS = (SRC, REPO / "benchmarks", REPO / "perfbench")

#: name -> the test, doc or extension example that reads it.
ALLOWLIST = {
    # The "other semi-supervised clusterers" and "choosing between
    # algorithms" extensions, which the paper's conclusion names.
    "SeededKMeans": "docs/architecture.md",
    "ConstrainedKMeans": "docs/architecture.md",
    "CVCPAlgorithmSelector": "examples/algorithm_selection.py",
    "AlgorithmCandidate": "tests/test_core_algorithm_selection.py",
    "make_two_moons": "examples/algorithm_selection.py",
    # Return types, warnings and errors of reached names.
    "ClusteringResult": "docs/architecture.md",
    "AlgorithmSelectionResult": "docs/architecture.md",
    "NoTestConstraintsWarning": "docs/architecture.md",
    "InconsistentConstraintsError": "docs/architecture.md",
    "ConstraintConfusion": "docs/architecture.md",
    "PairedTTestResult": "docs/architecture.md",
    "CacheStats": "docs/architecture.md",
    "StoreStats": "docs/architecture.md",
    "ComparisonRow": "docs/architecture.md",
    "RobustnessRow": "docs/architecture.md",
    "FleetStats": "docs/architecture.md",
    "FleetStatus": "docs/architecture.md",
    "TrialUnit": "docs/architecture.md",
    "WorkerRunReport": "docs/architecture.md",
    "ReproServer": "docs/architecture.md",
    "ServeError": "docs/architecture.md",
    "render_dashboard": "docs/architecture.md",
    "PAPER_CONFIG": "docs/architecture.md",
    "MINPTS_RANGE": "docs/architecture.md",
    # Helpers that reached names call inside their own module.
    "constraint_f_score": "tests/test_core_scoring.py",
    "constraint_accuracy_score": "tests/test_core_scoring.py",
    "silhouette_samples": "tests/test_silhouette_parity.py",
    "build_single_linkage_tree": "tests/test_clustering_hierarchy.py",
    "evaluation_mask": "tests/test_evaluation_external.py",
    "resolve_n_jobs": "tests/test_core_executor.py",
    # Tests read these as checks or oracles of reached names.
    "must_link": "docs/architecture.md",
    "cannot_link": "docs/architecture.md",
    "is_consistent": "tests/test_constraint_layer_equivalence.py",
    # Documented user entry points.
    "clear_spill_directory": "docs/performance.md",
    "load_csv_dataset": "tests/test_datasets.py",
    "BudgetedOracle": "docs/oracles.md",
    "ActiveOracle": "docs/oracles.md",
    "oracle_from_spec": "docs/oracles.md",
    "register_oracle": "docs/oracles.md",
}


#: package -> ``__all__`` name -> defining file, recorded from the package
#: re-exports as they stood before every package exported through
#: ``lazy_exports``.  A name added to or removed from an ``__all__`` updates
#: this map.
ORIGINS = json.loads((REPO / "tests" / "data" / "export_origins.json").read_text(encoding="utf-8"))


def module_file(module: str) -> Path:
    path = SRC / (module.replace(".", "/") + ".py")
    return path if path.exists() else SRC / module.replace(".", "/") / "__init__.py"


def package_name(init: Path) -> str:
    return ".".join(init.relative_to(SRC).parent.parts)


def package_exports(init: Path) -> tuple[list[str], dict[str, str]]:
    """A package ``__init__``'s ``__all__``, and each name -> the module it comes from.

    Reads a ``lazy_exports`` table (name -> relative module), or else a
    literal ``__all__`` and the ``from … import …`` statements.
    """
    names: list[str] = []
    origins: dict[str, str] = {}
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if getattr(node.value.func, "id", None) == "lazy_exports":
                table = ast.literal_eval(node.value.args[1])
                names = list(table)
                origins.update(
                    (name, importlib.util.resolve_name(module, package_name(init)))
                    for name, module in table.items()
                )
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names = ast.literal_eval(node.value)
    return names, origins


def defining_file(path: Path, name: str) -> Path:
    """The file that defines ``name``, following re-exports through ``__init__``s."""
    module = package_exports(path)[1].get(name)
    if module is None:
        return path
    origin = module_file(module)
    if origin.name == "__init__.py" and origin != path:
        return defining_file(origin, name)
    return origin


def export_origins() -> dict[str, dict[str, str]]:
    """Every package -> its ``__all__`` entries -> the file that defines each."""
    return {
        package_name(init): {
            name: str(defining_file(init, name).relative_to(REPO))
            for name in package_exports(init)[0]
        }
        for init in sorted(SRC.rglob("__init__.py"))
    }


def exported_names() -> dict[str, set[Path]]:
    """Every package ``__all__`` entry -> the files that define it."""
    exported: dict[str, set[Path]] = {}
    for names in export_origins().values():
        for name, path in names.items():
            exported.setdefault(name, set()).add(REPO / path)
    return exported


def unreached_names() -> set[str]:
    words = {
        path: set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
        for root in REACHING_DIRS
        for path in root.rglob("*.py")
        if not (root == SRC and path.name == "__init__.py")
    }
    return {
        name
        for name, owners in exported_names().items()
        if not any(name in found for path, found in words.items() if path not in owners)
    }


@pytest.fixture(scope="module")
def unreached():
    return unreached_names()


def test_every_exported_name_is_reached_or_allowlisted(unreached):
    assert sorted(unreached - ALLOWLIST.keys()) == []


def test_allowlist_has_no_stale_entries(unreached):
    assert sorted(ALLOWLIST.keys() - unreached) == []


def test_every_export_resolves_to_its_recorded_defining_file():
    """Reading the export tables must find the files the eager imports named."""
    assert export_origins() == ORIGINS


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_allowlist_entry_names_a_reader(name):
    reader = REPO / ALLOWLIST[name]
    assert reader.is_file(), f"{name}: {ALLOWLIST[name]} does not exist"
    assert re.search(rf"\b{name}\b", reader.read_text(encoding="utf-8")), (
        f"{ALLOWLIST[name]} does not mention {name}"
    )
