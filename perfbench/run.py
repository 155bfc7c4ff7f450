"""End-to-end CVCP benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload structure_n3000 --seed 0 --seconds 50 --trace 0

The run starts a fresh workload process (``workload.py``) that sets up the
inputs, warms up, and times cold operations for ``--seconds`` seconds (and
at least five of them). It then starts three set-up-only processes and takes
the median time from spawn to inputs-ready as ``setup_s``. Every process
runs with the checkout's ``src/`` on ``PYTHONPATH`` and one BLAS thread.

The last line of standard output is the result. With ``--trace 0`` it holds
the end-to-end metrics; with ``--trace 1`` the workload process alternates
untraced and traced operations and the result holds the per-layer metrics
of the median traced operation. The line before it records the machine
(CPUs, BLAS, versions, steal ticks and load over the run).

The exit code is 0 only when every operation passed its result check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = Path(__file__).resolve().parent / "workload.py"
WORKLOADS = ("structure_n3000", "paper_pipeline")
SETUP_PROBES = 3
BLAS_THREADS = "1"
CHILD_TIMEOUT = 150.0
PROBE_TIMEOUT = 30.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run workload.py; return its spawn-to-ready seconds and its JSON messages."""
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(WORKLOAD), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if completed.returncode != 0:
        raise SystemExit(f"workload process exited with code {completed.returncode}")
    messages = {}
    for line in completed.stdout.splitlines():
        if line.startswith("{"):
            messages.update(json.loads(line))
    if "ready" not in messages:
        raise SystemExit("workload process never reported its inputs ready")
    return messages["ready"]["at"] - spawned, messages


def host_counters() -> dict:
    """Steal ticks of all CPUs and the 1-minute load average, now."""
    cpu = Path("/proc/stat").read_text().splitlines()[0].split()
    return {
        "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None,
        "load_1m": float(Path("/proc/loadavg").read_text().split()[0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    before = host_counters()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    _, messages = run_child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], CHILD_TIMEOUT
    )
    result = messages["result"]
    probes = [run_child([*common, "--setup-only"], PROBE_TIMEOUT) for _ in range(SETUP_PROBES)]
    after = host_counters()

    environment = dict(
        result["environment"],
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        steal_ticks=(
            after["steal_ticks"] - before["steal_ticks"]
            if before["steal_ticks"] is not None else None
        ),
        load_1m=[before["load_1m"], after["load_1m"]],
        ops=result["ops"],
        op_s_all=result["op_s_all"],
        digest_pinned=result["digest_pinned"],
    )
    print(json.dumps({"environment": environment}, sort_keys=True))

    if args.trace:
        metrics = {
            "startup.import_s": statistics.median(m["ready"]["import_s"] for _, m in probes),
            "datasets.setup_s": statistics.median(m["ready"]["data_s"] for _, m in probes),
            **result.get("layers", {}),
        }
        if result.get("absent_layers"):
            print(f"absent layers: {', '.join(result['absent_layers'])}", file=sys.stderr)
    else:
        metrics = {"setup_s": statistics.median(seconds for seconds, _ in probes)}
        metrics.update({name: result[name] for name in ("op_s", "op_cpu_s") if name in result})
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    correct = result["failed"] == 0 and result["ops"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "hit_ratio" in name or name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
