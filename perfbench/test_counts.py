"""Self-tests of the benchmark: exact counts, closed accounting, absent hooks.

Run from the root of a checkout (about two minutes)::

    python3 -m pytest perfbench/test_counts.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from run import ROOT, WORKLOAD, WORKLOADS, child_env  # noqa: E402


def traced_result(workload: str) -> dict:
    """One workload process with two untraced and two traced operations."""
    completed = subprocess.run(
        [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1", "--min-ops", "2"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(completed.stdout.splitlines()[-1])["result"]
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_ops_and_processes(workload):
    first, second = traced_result(workload), traced_result(workload)
    counts = first["counts_by_op"]
    assert len(counts) == 2
    assert counts[0] == counts[1]
    assert second["counts_by_op"] == counts
    # The self times of the median traced op account for its wall time.
    layers = first["layers"]
    attributed = sum(value for name, value in layers.items() if name.endswith(".self_s"))
    assert attributed == pytest.approx(layers["trace.op_s"], rel=0.01)


def test_missing_hook_target_marks_its_layer_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    hooks = spans.HOOKS + (("folds", "repro.core.cvcp", "no_such_function", None),)
    monkeypatch.setattr(spans, "HOOKS", hooks)
    assert spans.SpanRecorder().absent == ["folds"]
