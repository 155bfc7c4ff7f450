"""Argument parsing and dispatch for the ``repro`` command-line interface."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.bench import DEFAULT_SUITE, SUITES, Suite
from repro.core.distance_backend import DISTANCE_BACKENDS
from repro.core.executor import BACKENDS
from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.fleet import fleet_status, format_fleet_status, run_worker
from repro.experiments.online import STREAM_ORDERS
from repro.experiments.pipeline import (
    ConfigError,
    PipelineSpec,
    load_pipeline_spec,
    validate_pipeline_file,
)
from repro.experiments.reporting import format_table
from repro.utils.specs import SpecError


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with all of its subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Config-driven experiment pipelines for the CVCP reproduction "
            "(Pourrajabi et al., EDBT 2014), backed by a resumable artifact store."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="execute a TOML/JSON pipeline config end-to-end",
        description=(
            "Run the experiment pipeline described by a config file. Completed "
            "cells are served from the artifact store, so re-running resumes "
            "instead of recomputing; the cache-hit count is reported after the run."
        ),
    )
    run_parser.add_argument("config", help="path to a .toml or .json pipeline config")
    _add_run_options(run_parser)
    run_parser.add_argument(
        "--force",
        action="store_true",
        help="ignore stored artifacts and recompute (fresh results overwrite in place)",
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered report on stdout",
    )
    run_parser.add_argument(
        "--worker",
        action="store_true",
        help=(
            "join a work-stealing fleet: claim (trial x cell) units via lease files in "
            "the shared artifact store, then render reports entirely from cache "
            "(bit-identical to a single-process run; launch any number of these)"
        ),
    )
    run_parser.add_argument(
        "--worker-id",
        metavar="ID",
        help="stable worker identity for leases and the status view (default: host-pid-nonce)",
    )
    run_parser.add_argument(
        "--lease-ttl",
        type=float,
        metavar="SECONDS",
        help="override [fleet] lease_ttl_s: heartbeat-less age after which a lease is stealable",
    )
    run_parser.add_argument(
        "--poll-interval",
        type=float,
        metavar="SECONDS",
        help="override [fleet] poll_interval_s: sleep between no-progress passes",
    )

    status_parser = subparsers.add_parser(
        "status",
        help="show fleet progress for a pipeline config (units, leases, workers)",
        description=(
            "Point-in-time fleet view of a pipeline's shared artifact store: how many "
            "grid units are done, which leases are held or stale, and the liveness and "
            "steal counters of every registered worker."
        ),
    )
    status_parser.add_argument("config", help="path to a .toml or .json pipeline config")
    status_parser.add_argument(
        "--artifacts-root",
        metavar="DIR",
        help="override the artifact-store location from the config",
    )
    status_parser.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="emit the status record as JSON instead of the terminal view",
    )

    dashboard_parser = subparsers.add_parser(
        "dashboard",
        help="render the static-HTML quality dashboard from BENCH_*.json + run artifacts",
        description=(
            "Generate a self-contained HTML dashboard: bench trajectory across the "
            "BENCH_*.json records (baselines and fresh runs), per-grid completion and worker liveness "
            "from an artifact store, cache hit/miss/steal rates, and selection-accuracy "
            "drift from stored run summaries."
        ),
    )
    dashboard_parser.add_argument(
        "--out",
        metavar="PATH",
        default="dashboard.html",
        help="where to write the HTML (default: dashboard.html)",
    )
    dashboard_parser.add_argument(
        "--bench-dir",
        metavar="DIR",
        default=".",
        help="directory scanned for BENCH_*.json records (default: current directory)",
    )
    dashboard_parser.add_argument(
        "--artifacts-root",
        metavar="DIR",
        help="artifact store to report fleet/worker/run state from (optional)",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="re-render reports for a config from stored artifacts",
        description=(
            "Regenerate the report files of a pipeline. Work already persisted in "
            "the artifact store is reused, so this is cheap after a completed run."
        ),
    )
    report_parser.add_argument("config", help="path to a .toml or .json pipeline config")
    _add_run_options(report_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve pipelines and parameter selection over HTTP (clustering-as-a-service)",
        description=(
            "Start the stdlib HTTP layer over the artifact store: clients POST pipeline "
            "specs or {'select': ...} requests to /v1/jobs, poll per-cell progress, and "
            "fetch reports byte-identical to CLI runs of the same spec. Submissions "
            "identical to an active job join it instead of re-running, and re-submitted "
            "finished jobs are served from cached trials."
        ),
    )
    serve_parser.add_argument(
        "config",
        nargs="?",
        help="optional pipeline config supplying the [serve] table and artifacts root",
    )
    serve_parser.add_argument(
        "--host",
        help="bind address (default: the config's [serve] host, else 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        help="TCP port; 0 binds an ephemeral port (default: [serve] port, else 8601)",
    )
    serve_parser.add_argument(
        "--workers",
        dest="serve_workers",
        type=int,
        help="jobs running concurrently (default: [serve] workers, else 2)",
    )
    serve_parser.add_argument(
        "--max-pending",
        dest="serve_max_pending",
        type=int,
        help="active-job cap before submissions get HTTP 429 (default: 32)",
    )
    serve_parser.add_argument(
        "--artifacts-root",
        metavar="DIR",
        help="artifact store every job runs against (default: the config's root)",
    )

    default_suite = SUITES[DEFAULT_SUITE]
    bench_parser = subparsers.add_parser(
        "bench",
        help=default_suite.help,
        description=default_suite.description,
    )
    _add_bench_flags(bench_parser, default_suite)
    # Every bench flag defaults to SUPPRESS, so a flag given before the
    # suite token (``repro bench --rounds 3 kernels``) is not clobbered by
    # the suite parser; _command_bench fills in the suite's defaults.
    bench_subparsers = bench_parser.add_subparsers(dest="suite")
    for name, suite in SUITES.items():
        if name != DEFAULT_SUITE:
            suite_parser = bench_subparsers.add_parser(name, help=suite.help, description=suite.description)
            _add_bench_flags(suite_parser, suite)

    datasets_parser = subparsers.add_parser("datasets", help="inspect the data-set registry")
    datasets_subparsers = datasets_parser.add_subparsers(dest="datasets_command", required=True)
    datasets_subparsers.add_parser("list", help="list registered data sets with their shapes")

    validate_parser = subparsers.add_parser(
        "validate-config",
        help="schema-check pipeline configs without running them",
        description="Exit 0 when every given config is valid; print each problem otherwise.",
    )
    validate_parser.add_argument("configs", nargs="+", help="config files to validate")

    return parser


def _add_bench_flags(parser: argparse.ArgumentParser, suite: Suite) -> None:
    """The shared record/gate flags plus the suite's own run flags."""
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write the fresh record to PATH",
    )
    parser.add_argument(
        "--compare",
        metavar="FRESH",
        default=argparse.SUPPRESS,
        help="load a fresh record instead of running the benchmark",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="baseline record to gate against (e.g. the committed BENCH_*.json)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=argparse.SUPPRESS,
        help=f"allowed fractional slowdown vs baseline (default: {suite.max_slowdown})",
    )
    for flag in suite.flags:
        if flag.switch:
            parser.add_argument(flag.name, action="store_true", default=argparse.SUPPRESS, help=flag.help)
            continue
        default = ",".join(flag.default) if flag.csv and flag.default else flag.default
        parser.add_argument(
            flag.name,
            type=flag.type,
            default=argparse.SUPPRESS,
            help=flag.help if default is None else f"{flag.help} (default: {default})",
        )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifacts-root",
        metavar="DIR",
        help="override the artifact-store location from the config",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        help="override the execution backend (results are bit-identical across backends)",
    )
    parser.add_argument("--n-jobs", type=int, help="override the worker count")
    parser.add_argument(
        "--distance-backend",
        choices=DISTANCE_BACKENDS,
        help=(
            "override the distance-matrix storage tier "
            "(results are bit-identical across the exact tiers; 'neighbors' "
            "is the approximate sparse tier)"
        ),
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        help=(
            "neighbour-graph radius for --distance-backend neighbors "
            "(default: REPRO_NEIGHBOR_EPSILON, else inf)"
        ),
    )
    parser.add_argument(
        "--k-neighbors",
        type=int,
        help=(
            "neighbour-graph out-degree for --distance-backend neighbors "
            "(default: REPRO_NEIGHBOR_K, else 32)"
        ),
    )
    parser.add_argument(
        "--metric",
        choices=("euclidean", "cosine"),
        help=(
            "override the distance metric every data set is evaluated under "
            "(non-Euclidean trials key their own artifacts; a precomputed "
            "matrix comes from a [dataset] path in the config)"
        ),
    )
    parser.add_argument(
        "--stream-deltas",
        type=int,
        metavar="N",
        help='number of constraint-stream deltas (kind = "online" only)',
    )
    parser.add_argument(
        "--stream-order",
        choices=STREAM_ORDERS,
        help='constraint arrival order for the replay (kind = "online" only)',
    )


def _load_spec(config: str) -> PipelineSpec | None:
    """Load a pipeline config, or print why it cannot be loaded and return ``None``."""
    try:
        return load_pipeline_spec(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
    except OSError as exc:
        print(f"cannot read config {config}: {exc}", file=sys.stderr)
    return None


def _command_run(args: argparse.Namespace, *, reports_only: bool = False) -> int:
    spec = _load_spec(args.config)
    if spec is None:
        return 2
    if args.artifacts_root:
        spec = spec.with_overrides(artifacts_root=Path(args.artifacts_root))
    stream_deltas = getattr(args, "stream_deltas", None)
    stream_order = getattr(args, "stream_order", None)
    if stream_deltas is not None or stream_order is not None:
        if spec.kind != "online":
            print(
                f'--stream-deltas/--stream-order only apply to kind = "online" '
                f"specs (kind is {spec.kind!r})",
                file=sys.stderr,
            )
            return 2
        try:
            stream = spec.stream.with_overrides(n_deltas=stream_deltas, order=stream_order)
        except SpecError as exc:
            print(exc, file=sys.stderr)
            return 2
        spec = spec.with_overrides(stream=stream)
    try:
        # One overlay for batch runs and fleet workers alike.
        spec = spec.with_execution(
            backend=args.backend,
            n_jobs=args.n_jobs,
            distance_backend=args.distance_backend,
            epsilon=args.epsilon,
            k_neighbors=args.k_neighbors,
            metric=args.metric,
        )
    except SpecError as exc:
        # e.g. --metric clashing with the spec's algorithm, tier or data set
        print(exc, file=sys.stderr)
        return 2
    refresh = bool(getattr(args, "force", False))
    store = ArtifactStore(spec.artifacts_root, refresh=refresh)
    quiet = bool(getattr(args, "quiet", False)) or reports_only

    if getattr(args, "worker", False):
        if refresh:
            # Fleet completion is "the artifact exists"; a refresh-mode
            # store would declare every unit permanently unfinished.
            print("--force cannot be combined with --worker", file=sys.stderr)
            return 2
        try:
            settings = spec.fleet.with_overrides(
                lease_ttl_s=getattr(args, "lease_ttl", None),
                poll_interval_s=getattr(args, "poll_interval", None),
            )
        except SpecError as exc:
            print(exc, file=sys.stderr)
            return 2
        report = run_worker(
            spec,
            store=store,
            settings=settings,
            worker_id=getattr(args, "worker_id", None),
            log=None if quiet else print,
        )
        result = report.result
    else:
        # Batch runs go through the same stable facade the serve layer
        # uses, so HTTP jobs and CLI runs are one code path (and their
        # reports byte-identical).
        from repro import api

        result = api.run_pipeline(spec, store=store)

    if not quiet:
        print(result.report_text)
    print(store.describe_stats())
    for path in result.report_paths:
        print(f"wrote {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeSettings, make_server

    settings = ServeSettings()
    artifacts_root = Path(".repro-artifacts")
    if args.config:
        spec = _load_spec(args.config)
        if spec is None:
            return 2
        settings = spec.serve
        artifacts_root = Path(spec.artifacts_root)
    if args.artifacts_root:
        artifacts_root = Path(args.artifacts_root)
    try:
        settings = settings.with_overrides(
            host=args.host,
            port=args.port,
            workers=args.serve_workers,
            max_pending=args.serve_max_pending,
        )
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        server = make_server(artifacts_root, settings)
    except OSError as exc:
        print(f"cannot bind {settings.host}:{settings.port}: {exc}", file=sys.stderr)
        return 1
    print(f"serving on {server.url} (artifacts root: {artifacts_root})", flush=True)
    print(
        f"workers={settings.workers} max_pending={settings.max_pending}; Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.manager.shutdown(wait=False)
        server.server_close()
    return 0


def _command_status(args: argparse.Namespace) -> int:
    spec = _load_spec(args.config)
    if spec is None:
        return 2
    if args.artifacts_root:
        spec = spec.with_overrides(artifacts_root=Path(args.artifacts_root))
    status = fleet_status(spec)
    if args.json_out:
        print(json.dumps(status.as_dict(), sort_keys=True, indent=2))
    else:
        print(format_fleet_status(status))
    return 0


def _command_dashboard(args: argparse.Namespace) -> int:
    from repro.experiments.dashboard import write_dashboard

    try:
        path = write_dashboard(
            args.out,
            bench_dir=args.bench_dir,
            artifacts_root=args.artifacts_root,
        )
    except OSError as exc:
        print(f"cannot write dashboard: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench import engine

    name = args.suite or DEFAULT_SUITE
    suite = SUITES[name]
    json_out = getattr(args, "json", None)
    compare = getattr(args, "compare", None)
    baseline_path = getattr(args, "baseline", None)
    max_slowdown = getattr(args, "max_slowdown", suite.max_slowdown)
    if compare and json_out:
        print(
            "--json records a live benchmark run and cannot be combined with --compare "
            "(the fresh record already exists on disk)",
            file=sys.stderr,
        )
        return 2
    options = {}
    for flag in suite.flags:
        value = getattr(args, flag.key, flag.default)
        if flag.csv and isinstance(value, str):
            value = tuple(token.strip() for token in value.split(",") if token.strip())
        options[flag.key] = value
    rss_slack = options.pop("rss_slack", None)  # a gate option (scale), not a run option
    module = suite.load()

    ran = None
    try:
        baseline = engine.load_record(baseline_path, name) if baseline_path else None
        if compare:
            record = engine.load_record(compare, name)
        else:
            record = module.run(**options)
            ran = engine.subset_filter(suite.flags, options)
    except ValueError as exc:  # engine.RecordError included
        print(exc, file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    if record is None:
        print(f"{name} parity ok (no timings recorded)")
        return 0
    if json_out:
        Path(json_out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {json_out}")
    print(engine.format_table(record, baseline))

    if baseline is not None:
        problems = engine.compare(
            record,
            baseline,
            max_slowdown=max_slowdown,
            rss_slack=rss_slack,
            ran=ran,
            checks=getattr(module, "checks", None),
        )
        if problems:
            print(f"{name} benchmark regression detected:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"{name} benchmark within baseline (max slowdown {max_slowdown:.0%})")
    return 0


def _command_datasets_list() -> int:
    rows = []
    for name in DATASET_NAMES:
        dataset = get_dataset(name, random_state=0)
        counts = np.unique(dataset.y, return_counts=True)[1]
        class_sizes = "/".join(str(int(count)) for count in counts)
        features = dataset.X.toarray() if dataset.is_sparse else dataset.X
        spread = f"{features.std(axis=0).min():.2f}..{features.std(axis=0).max():.2f}"
        note = "collection of 100 (paper)" if name == "ALOI" else "single"
        if dataset.is_sparse:
            note += " (sparse)"
        rows.append(
            [
                name,
                dataset.n_samples,
                dataset.n_features,
                dataset.n_classes,
                class_sizes,
                dataset.metric,
                spread,
                note,
            ]
        )
    headers = [
        "name", "n_samples", "n_features", "n_classes", "class_sizes", "metric",
        "feature_std", "kind",
    ]
    print(format_table(headers, rows, title="Registered data sets"))
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    status = 0
    for config in args.configs:
        problems = validate_pipeline_file(config)
        if problems:
            status = 2
            print(f"{config}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{config}: ok")
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "report":
            return _command_run(args, reports_only=True)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "status":
            return _command_status(args)
        if args.command == "dashboard":
            return _command_dashboard(args)
        if args.command == "bench":
            return _command_bench(args)
        if args.command == "datasets":
            return _command_datasets_list()
        if args.command == "validate-config":
            return _command_validate(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into `head`); redirect the
        # remaining flushes into the void so shutdown stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
