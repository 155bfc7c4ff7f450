"""What the distance layer allocates on top of its output.

Distance panels are computed in place in ``out`` and the core-distance
table partitions small row sub-panels, so neither allocates a panel-sized
temporary.  numpy reports its buffers to ``tracemalloc``; these bounds fail
on the code that built each 512-row panel from fresh temporaries
(``tests/distance_oracle.py``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.clustering.distances import core_distance_table, pairwise_distances

METRICS = ("euclidean", "sqeuclidean", "manhattan", "cosine")
MiB = 2**20


def points(n: int, d: int) -> np.ndarray:
    return np.random.default_rng(n).normal(size=(n, d))


def traced_peak(function) -> tuple[int, object]:
    function()  # warm numpy internals outside the traced window
    tracemalloc.start()
    try:
        result = function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class TestPeakAllocation:
    def test_pairwise_distances_costs_little_beyond_out(self):
        """No (block, n) temporaries: built from fresh panels this peaked at 8n^2 + 32 MiB."""
        n = 2048
        X = points(n, 8)
        for metric in METRICS:
            peak, _ = traced_peak(lambda: pairwise_distances(X, metric=metric))
            assert peak <= 8 * n * n + 2 * MiB, metric

    def test_core_distance_table_costs_little_beyond_the_table(self):
        """No copy of a whole 512-row panel, which cost 8 MiB above the table."""
        n = 2048
        D = pairwise_distances(points(n, 8))
        peak, table = traced_peak(lambda: core_distance_table(D, 32))
        assert peak <= table.nbytes + 2 * MiB
