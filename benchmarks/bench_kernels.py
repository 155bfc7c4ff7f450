"""Parity + timing micro-benchmarks for the vectorised clustering kernels.

Runs the same kernel cases as ``repro bench kernels`` (see
:mod:`repro.bench.kernels`, which also defines the sizes and input
seeds) through pytest-benchmark: every case first asserts that the
vectorised kernel and its ``reference`` oracle
(:mod:`repro.clustering.reference`) produce bit-identical results, then
times the requested side.  CI runs this file with
``--benchmark-disable`` as its kernel-correctness smoke; locally the
timing table shows the per-kernel speedups that ``BENCH_kernels.json``
records.

The benchmarked size defaults to ``medium`` and can be switched with the
``REPRO_BENCH_KERNEL_SIZE`` environment variable (``small``/``medium``/
``large``).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.kernels import KERNEL_BENCH_SIZES, KERNEL_NAMES, make_cases

_SIZE = os.environ.get("REPRO_BENCH_KERNEL_SIZE", "medium")


@pytest.fixture(scope="module")
def kernel_cases():
    if _SIZE not in KERNEL_BENCH_SIZES:
        raise ValueError(
            f"REPRO_BENCH_KERNEL_SIZE must be one of {tuple(KERNEL_BENCH_SIZES)}, got {_SIZE!r}"
        )
    return make_cases(KERNEL_BENCH_SIZES[_SIZE])


@pytest.mark.benchmark(group="clustering-kernels")
@pytest.mark.parametrize("mode", ("vectorized", "reference"))
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_kernel_parity_and_timing(benchmark, kernel_cases, kernel, mode):
    case = kernel_cases[kernel]
    # Bit-identity first: a divergence is a bug regardless of timings.
    case.assert_parity()
    run = case.vectorized if mode == "vectorized" else case.reference
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["size"] = _SIZE
    benchmark.pedantic(run, rounds=1, iterations=1)
