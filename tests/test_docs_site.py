"""Structural checks for the MkDocs documentation site.

CI builds the site with ``mkdocs build --strict`` (broken nav entries and
cross-references fail the build); these tests catch the same classes of
breakage without needing the mkdocs toolchain installed, so they run in
the tier-1 suite:

* every page referenced from ``mkdocs.yml``'s nav exists;
* every relative markdown link between docs pages resolves to a file;
* every ``::: module`` mkdocstrings directive names an importable module;
* the config documentation stays in sync with the pipeline schema.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"

_NAV_PAGE = re.compile(r":\s*([A-Za-z0-9_./-]+\.md)\s*$")
_MD_LINK = re.compile(r"\]\(([^)#\s]+)(#[^)\s]*)?\)")
_MKDOCSTRINGS_DIRECTIVE = re.compile(r"^:::\s+([A-Za-z0-9_.]+)\s*$", re.MULTILINE)


def _docs_pages() -> list[Path]:
    pages = sorted(DOCS_DIR.rglob("*.md"))
    assert pages, "docs/ must contain markdown pages"
    return pages


class TestMkdocsConfig:
    def test_mkdocs_yml_exists(self):
        assert MKDOCS_YML.is_file()

    def test_every_nav_page_exists(self):
        nav_pages = [
            match.group(1)
            for line in MKDOCS_YML.read_text(encoding="utf-8").splitlines()
            if (match := _NAV_PAGE.search(line))
        ]
        assert nav_pages, "mkdocs.yml nav must reference pages"
        for page in nav_pages:
            assert (DOCS_DIR / page).is_file(), f"nav references missing page {page}"

    def test_every_docs_page_is_in_nav(self):
        nav_text = MKDOCS_YML.read_text(encoding="utf-8")
        for page in _docs_pages():
            relative = page.relative_to(DOCS_DIR).as_posix()
            assert relative in nav_text, f"{relative} exists but is not in the nav"


class TestCrossReferences:
    @pytest.mark.parametrize("page", _docs_pages(), ids=lambda p: p.relative_to(DOCS_DIR).as_posix())
    def test_relative_markdown_links_resolve(self, page):
        for match in _MD_LINK.finditer(page.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (page.parent / target).resolve()
            assert resolved.is_file(), f"{page.name} links to missing {target}"

    def test_readme_links_into_the_site_resolve(self):
        readme = REPO_ROOT / "README.md"
        for match in _MD_LINK.finditer(readme.read_text(encoding="utf-8")):
            target = match.group(1)
            if not target.startswith("docs/"):
                continue
            assert (REPO_ROOT / target).is_file(), f"README links to missing {target}"


class TestMkdocstringsDirectives:
    def test_every_directive_names_an_importable_module(self):
        directives: list[str] = []
        for page in _docs_pages():
            directives.extend(
                _MKDOCSTRINGS_DIRECTIVE.findall(page.read_text(encoding="utf-8"))
            )
        assert directives, "the reference pages must use mkdocstrings directives"
        for dotted in sorted(set(directives)):
            importlib.import_module(dotted)  # raises on a stale reference

    def test_key_public_modules_are_documented(self):
        text = "\n".join(page.read_text(encoding="utf-8") for page in _docs_pages())
        for module in (
            "repro.constraints.oracles",
            "repro.core.cvcp",
            "repro.core.distance_backend",
            "repro.core.neighbor_graph",
            "repro.core.executor",
            "repro.clustering.kernels",
            "repro.experiments.robustness",
            "repro.experiments.artifacts",
            "repro.experiments.pipeline",
            "repro.experiments.online",
            "repro.experiments.fleet",
            "repro.experiments.dashboard",
            "repro.cli.main",
            "repro.api",
            "repro.utils.specs",
            "repro.serve.jobs",
            "repro.serve.server",
            "repro.serve.client",
        ):
            assert f"::: {module}" in text, f"{module} missing from the API reference"


class TestSchemaDocsInSync:
    """The config documentation must track the validated schema."""

    def test_every_pipeline_kind_is_documented(self):
        from repro.experiments.pipeline import PIPELINE_KINDS

        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        for kind in PIPELINE_KINDS:
            assert kind in config_page

    def test_every_oracle_name_is_documented(self):
        from repro.constraints.oracles import oracle_names

        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        oracles_page = (DOCS_DIR / "oracles.md").read_text(encoding="utf-8")
        for name in oracle_names():
            assert name in config_page and name in oracles_page

    def test_every_parameter_key_is_documented(self):
        from repro.experiments.pipeline import _PARAMETER_KEYS

        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        for key in _PARAMETER_KEYS:
            assert f"`{key}`" in config_page

    def test_every_cli_command_is_documented(self):
        cli_page = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        for command in ("repro run", "repro serve", "repro report",
                        "repro bench", "repro bench kernels",
                        "repro bench scale", "repro bench fleet",
                        "repro bench serve", "repro bench online",
                        "repro status", "repro dashboard",
                        "repro datasets list", "repro validate-config"):
            assert command in cli_page

    def test_fleet_worker_flags_are_documented(self):
        cli_page = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        for flag in ("--worker", "--worker-id", "--lease-ttl", "--poll-interval"):
            assert flag in cli_page

    def test_fleet_config_table_is_documented(self):
        from dataclasses import fields

        from repro.experiments.fleet import FleetSettings

        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        assert "`[fleet]`" in config_page
        for field in fields(FleetSettings):
            assert f"`{field.name}`" in config_page, f"fleet key {field.name} undocumented"

    def test_fleet_page_covers_the_protocol(self):
        fleet_page = (DOCS_DIR / "fleet.md").read_text(encoding="utf-8")
        for term in ("O_CREAT|O_EXCL", "Heartbeat", "Steal", "byte-identical",
                     "SIGKILL", "lease_ttl_s", "poll_interval_s",
                     "repro status", "repro dashboard", "BENCH_fleet.json"):
            assert term in fleet_page, f"fleet.md missing {term!r}"

    def test_architecture_page_covers_the_fleet_layer(self):
        architecture_page = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        assert "repro.experiments.fleet" in architecture_page
        assert "Fleet" in architecture_page  # the component diagram row
        assert "work-stealing" in architecture_page

    def test_serve_config_table_is_documented(self):
        from dataclasses import fields

        from repro.serve.schemas import ServeSettings

        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        assert "`[serve]`" in config_page
        for field in fields(ServeSettings):
            assert f"`{field.name}`" in config_page, f"serve key {field.name} undocumented"

    def test_serve_page_covers_the_contract(self):
        serve_page = (DOCS_DIR / "serve.md").read_text(encoding="utf-8")
        for term in ("/v1/health", "/v1/jobs", "/v1/store/stats",
                     "byte-identical", "deduplicated", "SIGKILL",
                     "ServeClient", "repro.api", "BENCH_serve.json",
                     "429", "409"):
            assert term in serve_page, f"serve.md missing {term!r}"

    def test_architecture_page_covers_the_serve_layer(self):
        architecture_page = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        assert "repro.serve" in architecture_page
        assert "repro.api" in architecture_page
        assert "Serve" in architecture_page  # the component diagram row
        assert "byte-identical" in architecture_page

    def test_stream_config_table_is_documented(self):
        from dataclasses import fields

        from repro.experiments.online import StreamSpec

        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        assert "`[stream]`" in config_page
        for field in fields(StreamSpec):
            assert f"`{field.name}`" in config_page, f"stream key {field.name} undocumented"

    def test_stream_cli_flags_are_documented(self):
        cli_page = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        for flag in ("--stream-deltas", "--stream-order"):
            assert flag in cli_page, f"cli.md missing {flag}"

    def test_online_page_covers_the_contract(self):
        online_page = (DOCS_DIR / "online.md").read_text(encoding="utf-8")
        for term in ("structure", "extraction", "bit-identical",
                     "delta-equivalence", "cold", "SIGKILL",
                     "stream_step_key", "cached_tree_structure",
                     "BENCH_online.json", "repro bench online",
                     "stability", "sorted", "shuffled",
                     "examples/online_stream.toml"):
            assert term in online_page, f"online.md missing {term!r}"

    def test_determinism_page_covers_the_online_contract(self):
        determinism_page = (DOCS_DIR / "determinism.md").read_text(encoding="utf-8")
        assert "delta-equivalence" in determinism_page
        assert "StreamPlan.run_step" in determinism_page
        assert "structure" in determinism_page

    def test_architecture_page_covers_the_online_layer(self):
        architecture_page = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        assert "repro.experiments.online" in architecture_page
        assert "Online" in architecture_page  # the component diagram row
        assert "cached_tree_structure" in architecture_page
        assert "delta-equivalence" in architecture_page

    def test_execution_distance_backend_key_is_documented(self):
        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        assert "`distance_backend`" in config_page
        cli_page = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        assert "--distance-backend" in cli_page

    def test_performance_page_documents_the_kernel_subsystem(self):
        from repro.bench.kernels import KERNEL_NAMES

        performance_page = (DOCS_DIR / "performance.md").read_text(encoding="utf-8")
        for kernel in KERNEL_NAMES:
            assert f"`{kernel}`" in performance_page, f"kernel {kernel} undocumented"
        assert "repro.clustering.reference" in performance_page  # the oracles
        assert "REPRO_KERNELS" not in performance_page  # the retired switch
        assert "BENCH_kernels.json" in performance_page
        assert "repro bench kernels" in performance_page
        # The tuning axes the guide promises to cover.
        for axis in ("backend", "n_jobs", "cache"):
            assert axis in performance_page

    def test_architecture_page_covers_oracles_and_kernels(self):
        architecture_page = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        assert "repro.constraints.oracles" in architecture_page
        assert "repro.clustering.kernels" in architecture_page
        assert "queried per trial" in architecture_page  # the post-PR-3 oracle flow
        assert "Kernels" in architecture_page  # the component diagram row

    def test_performance_page_documents_the_distance_backends(self):
        from repro.core.distance_backend import (
            DISTANCE_BACKEND_ENV_VAR,
            DISTANCE_BACKENDS,
            SPILL_DIR_ENV_VAR,
        )

        performance_page = (DOCS_DIR / "performance.md").read_text(encoding="utf-8")
        for backend in DISTANCE_BACKENDS:
            assert f"`{backend}`" in performance_page, f"backend {backend} undocumented"
        assert DISTANCE_BACKEND_ENV_VAR in performance_page
        assert SPILL_DIR_ENV_VAR in performance_page
        assert "BENCH_scale.json" in performance_page
        assert "repro bench scale" in performance_page
        # The RSS-vs-n reading guide the docs promise.
        assert "dense_projected_bytes" in performance_page
        assert "budget_bytes" in performance_page

    def test_architecture_page_covers_the_distance_backend_layer(self):
        architecture_page = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        assert "repro.core.distance_backend" in architecture_page
        assert "Distances" in architecture_page  # the component diagram row
        from repro.core.distance_backend import DISTANCE_BACKENDS

        for tier in DISTANCE_BACKENDS:
            assert tier in architecture_page
        assert "repro.core.neighbor_graph" in architecture_page

    def test_performance_page_documents_the_neighbors_tier(self):
        from repro.core.neighbor_graph import (
            NEIGHBOR_EPSILON_ENV_VAR,
            NEIGHBOR_K_ENV_VAR,
        )

        performance_page = (DOCS_DIR / "performance.md").read_text(encoding="utf-8")
        # The approximate tier, its knobs, and the scale-record reading guide.
        assert "`neighbors`" in performance_page
        assert NEIGHBOR_EPSILON_ENV_VAR in performance_page
        assert NEIGHBOR_K_ENV_VAR in performance_page
        assert "`epsilon`" in performance_page
        assert "`k_neighbors`" in performance_page
        assert "ari_vs_exact" in performance_page
        assert "approximate-by-contract" in performance_page
        assert "repro.core.neighbor_graph" in performance_page

    def test_determinism_page_documents_the_approximate_contract(self):
        determinism_page = (DOCS_DIR / "determinism.md").read_text(encoding="utf-8")
        assert "neighbors" in determinism_page
        assert "entry-for-entry" in determinism_page
        assert "ari_vs_exact" in determinism_page
        # The fingerprinting exception: neighbors keys its own artifacts.
        assert "approx" in determinism_page
        assert "epsilon" in determinism_page and "k_neighbors" in determinism_page

    def test_neighbor_tier_flags_are_documented(self):
        cli_page = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        assert "--epsilon" in cli_page
        assert "--k-neighbors" in cli_page
        assert "neighbors" in cli_page
        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        assert "`epsilon`" in config_page
        assert "`k_neighbors`" in config_page
        assert '"neighbors"' in config_page

    def test_text_page_covers_the_metric_contract(self):
        from repro.clustering.distances import SPARSE_METRICS
        from repro.datasets.base import DATASET_METRICS

        text_page = (DOCS_DIR / "text.md").read_text(encoding="utf-8")
        for metric in DATASET_METRICS:
            assert f"`{metric}`" in text_page, f"metric {metric} undocumented"
        for metric in SPARSE_METRICS:
            assert f"`{metric}`" in text_page, f"sparse metric {metric} undocumented"
        assert "make_text_blobs" in text_page
        assert "similarity_to_distance" in text_page
        assert "never densified" in text_page
        assert "content-addressed" in text_page
        assert "BENCH_text.json" in text_page
        assert "repro bench text" in text_page

    def test_dataset_config_table_is_documented(self):
        config_page = (DOCS_DIR / "config.md").read_text(encoding="utf-8")
        assert "## `[dataset]`" in config_page
        for key in ("metric", "path", "form", "name"):
            assert f"`{key}`" in config_page
        assert "similarity" in config_page
        assert '"precomputed"' in config_page

    def test_text_cli_surfaces_are_documented(self):
        cli_page = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        assert "## `repro bench text`" in cli_page
        assert "--metric" in cli_page
        assert "BENCH_text.json" in cli_page
        # The datasets-list example shows the metric column and the corpus.
        assert "metric" in cli_page
        assert "Text" in cli_page

    def test_determinism_page_covers_metric_keying(self):
        determinism_page = (DOCS_DIR / "determinism.md").read_text(encoding="utf-8")
        assert "metric" in determinism_page
        assert "precomputed" in determinism_page
        assert "csr:" in determinism_page
        assert "metric-matrix" in determinism_page

    def test_architecture_page_covers_the_metric_layer(self):
        architecture_page = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        assert "repro.clustering.distances" in architecture_page
        assert "cosine" in architecture_page
        assert "CSR" in architecture_page
        assert "Dataset.metric" in architecture_page

    def test_example_configs_referenced_from_docs_exist(self):
        text = "\n".join(page.read_text(encoding="utf-8") for page in _docs_pages())
        for example in re.findall(r"examples/[A-Za-z0-9_.-]+\.(?:toml|json)", text):
            assert (REPO_ROOT / example).is_file(), f"docs reference missing {example}"
