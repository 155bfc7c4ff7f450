"""Distance-backend parity smoke for the scale benchmark (CI-friendly).

The full ``repro bench scale`` run measures wall-clock and peak RSS at up
to n=100000 in fresh subprocesses; this module asserts the *correctness*
half of its contract at CI-smoke sizes: bit-identical labels across the
exact blockwise/memmap distance backends and across the
serial/thread/process executors, plus the ``neighbors`` tier's
exhaustive-regime (``k = n``, ``epsilon = inf``) bit-parity with blockwise —
through FOSC and through a CVCP grid on every executor.  Run with
``--benchmark-disable`` for a pure parity check (what CI's bench-smoke
job does).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import scale as bench_scale_module
from repro.clustering.fosc import FOSCOpticsDend
from repro.core.distance_backend import DISTANCE_BACKENDS
from repro.utils.cache import clear_distance_cache


def test_distance_backend_label_parity_multi_panel():
    """The exact tiers agree bitwise at a size spanning multiple panels."""
    digest = bench_scale_module.assert_distance_backend_parity()
    assert digest


def test_executor_modes_agree_under_every_distance_backend():
    bench_scale_module.assert_executor_parity(n_samples=120)


def test_neighbors_tier_matches_exact_in_the_exhaustive_regime():
    """The approximate tier reduces to exact when nothing is pruned."""
    digest = bench_scale_module.assert_neighbor_backend_parity(n_samples=120)
    assert digest


@pytest.mark.parametrize("backend", DISTANCE_BACKENDS)
def test_scale_workload_is_deterministic_per_backend(backend):
    dataset = bench_scale_module.scale_dataset(240)
    clear_distance_cache()
    first = FOSCOpticsDend(min_pts=5, distance_backend=backend).fit(dataset.X).labels_
    clear_distance_cache()
    second = FOSCOpticsDend(min_pts=5, distance_backend=backend).fit(dataset.X).labels_
    assert np.array_equal(first, second)
