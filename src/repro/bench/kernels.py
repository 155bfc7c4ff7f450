"""``repro bench kernels``: the three hot clustering kernels, before and after.

Times each kernel (see :mod:`repro.clustering.kernels`, masked NumPy
array operations — the ``vectorized`` side) against its interpreter-bound
oracle from :mod:`repro.clustering.reference` (the ``reference`` side) at
three problem sizes, after asserting that the two produce bit-identical
results (the kernels' contract, so a divergence is a bug, never noise).
Gates: the vectorized wall-clock against the baseline (``--max-slowdown``) and the speedup
(reference / vectorized) against per-kernel floors, a machine-independent
ratio that stays meaningful on runners much faster or slower than the
recording machine.

Inputs are generated deterministically per size (blobs data set, memoised
distance matrix, constraint closure from a 10% label sample), and every
timing is best-of-``rounds`` on freshly prepared inputs, so records are
comparable across invocations.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.bench.engine import Spec, make_record
from repro.clustering import kernels as kernel_module
from repro.clustering import reference
from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.hierarchy import mutual_reachability
from repro.clustering.kmeans import kmeans_plus_plus_init
from repro.clustering.mpckmeans import _EPS, MPCKMeans
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import MUST_LINK
from repro.constraints.generation import constraints_from_labels, sample_labeled_objects
from repro.datasets.synthetic import make_blobs

#: The three timed kernels, in pipeline order.
KERNEL_NAMES = ("single_linkage", "fosc", "mpck_assign")

#: Benchmark problem sizes (number of objects).  ``large`` is the size the
#: acceptance speedups are quoted at; ``small`` keeps CI smoke runs cheap.
KERNEL_BENCH_SIZES = {"small": 200, "medium": 500, "large": 1200}

#: Deterministic input-generation seeds (data set / labels / MPCK state).
KERNEL_BENCH_SEED = 20140324
_DATA_SEED = 11
_LABEL_SEED = 3
_MPCK_SEED = 7

#: MinPts / min-cluster-size used for the density kernels.
_MIN_PTS = 5

#: Per-kernel speedup floors, at roughly half the ratios observed at the
#: largest size to absorb runner noise.
SPEEDUP_FLOORS = {"single_linkage": 1.2, "fosc": 1.3, "mpck_assign": 2.0}

METRICS = {
    "*/reference_s": Spec("s", "lower"),
    "*/vectorized_s": Spec("s", "lower", "slowdown"),
    **{
        f"{kernel}/*/speedup": Spec("x", "higher", "floor", floor=floor)
        for kernel, floor in SPEEDUP_FLOORS.items()
    },
    "*/parity": Spec(gate="exact"),
}


class KernelBenchCase:
    """Prepared inputs + the kernel and its reference oracle at one size."""

    def __init__(
        self,
        kernel: str,
        reference: Callable[[], object],
        vectorized: Callable[[], object],
        equal: Callable[[object, object], bool],
    ) -> None:
        self.kernel = kernel
        self.reference = reference
        self.vectorized = vectorized
        self._equal = equal

    def assert_parity(self) -> None:
        """Run both implementations once and require bit-identical results."""
        if not self._equal(self.reference(), self.vectorized()):
            raise RuntimeError(
                f"kernel {self.kernel!r} diverged: vectorized and reference "
                "implementations produced different results (the contract is "
                "bit-identity, so this is a bug)"
            )


def make_cases(n_samples: int) -> dict[str, KernelBenchCase]:
    """Prepare deterministic inputs and timed callables for every kernel."""
    third = n_samples // 3
    dataset = make_blobs(
        [third, third, n_samples - 2 * third],
        4,
        center_spread=8.0,
        cluster_std=1.0,
        random_state=_DATA_SEED,
        name=f"bench-kernels-{n_samples}",
    )
    X, y = dataset.X, dataset.y
    distances = pairwise_distances(X)
    core = k_nearest_distances(distances, _MIN_PTS)
    mreach = mutual_reachability(distances, core)
    edges = kernel_module.minimum_spanning_tree(mreach)
    merges = kernel_module.single_linkage_tree(edges, n_samples)

    labeled = sample_labeled_objects(y, 0.1, random_state=_LABEL_SEED)
    closure = transitive_closure(constraints_from_labels(labeled), strict=False)
    i_idx, j_idx, kinds = closure.as_arrays()
    is_must = kinds == MUST_LINK

    def fosc_reference() -> tuple:
        tree = reference.CondensedTree(merges, n_samples, _MIN_PTS)
        selection = reference.ReferenceFOSC().extract(tree, closure)
        return selection.selected_clusters, selection.labels, selection.objective

    def fosc_vectorized() -> tuple:
        data = kernel_module.condense_tree(merges, n_samples, _MIN_PTS)
        [(selected, labels, objective, _)] = kernel_module.fosc_extract_folds(
            data, [(i_idx, j_idx, is_must)], 1e-3
        )
        return selected, labels, objective

    def fosc_equal(a: tuple, b: tuple) -> bool:
        return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]

    # MPCK assignment inputs: a mid-optimisation state (k-means++ centres,
    # perturbed metrics) so the sweep does non-trivial work.
    rng = np.random.default_rng(_MPCK_SEED)
    n_clusters = 3
    centers = kmeans_plus_plus_init(X, n_clusters, rng)
    weights = rng.lognormal(0.0, 0.3, size=(n_clusters, X.shape[1]))
    point_center = MPCKMeans._point_center_distances(X, centers, weights)
    labels0 = np.argmin(point_center, axis=1).astype(np.int64)
    log_det = np.array(
        [float(np.sum(np.log(np.maximum(weights[h], _EPS)))) for h in range(n_clusters)]
    )
    spans = X.max(axis=0) - X.min(axis=0)
    max_sq = np.array(
        [float(np.dot(spans * weights[h], spans)) for h in range(n_clusters)]
    )
    must_indptr, must_indices = kernel_module.build_neighbor_csr(
        closure.must_link_array(), n_samples
    )
    cannot_indptr, cannot_indices = kernel_module.build_neighbor_csr(
        closure.cannot_link_array(), n_samples
    )
    order = rng.permutation(n_samples)

    mpck_args = (
        X, weights, labels0, point_center, log_det, max_sq,
        must_indptr, must_indices, cannot_indptr, cannot_indices, order, 1.0,
    )

    def single_linkage(mst, slt) -> Callable[[], np.ndarray]:
        return lambda: slt(mst(mreach), n_samples)

    return {
        "single_linkage": KernelBenchCase(
            "single_linkage",
            single_linkage(
                reference.minimum_spanning_tree_reference,
                reference.single_linkage_tree_reference,
            ),
            single_linkage(kernel_module.minimum_spanning_tree, kernel_module.single_linkage_tree),
            np.array_equal,
        ),
        "fosc": KernelBenchCase("fosc", fosc_reference, fosc_vectorized, fosc_equal),
        "mpck_assign": KernelBenchCase(
            "mpck_assign",
            lambda: reference.mpck_assign_reference(*mpck_args),
            lambda: kernel_module.mpck_assign(*mpck_args),
            np.array_equal,
        ),
    }


def _best_of(fn: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(sizes: tuple[str, ...] = ("small", "medium", "large"), rounds: int = 1) -> dict:
    """Time every kernel at every requested size and assert parity first.

    Raises ``ValueError`` on an unknown size and ``RuntimeError`` if any
    kernel's implementations diverge.
    """
    unknown = [name for name in sizes if name not in KERNEL_BENCH_SIZES]
    if unknown:
        raise ValueError(
            f"unknown size(s) {', '.join(unknown)}; expected {', '.join(KERNEL_BENCH_SIZES)}"
        )
    values: dict[str, object] = {}
    for size_name in sizes:
        cases = make_cases(KERNEL_BENCH_SIZES[size_name])
        for kernel in KERNEL_NAMES:
            case = cases[kernel]
            case.assert_parity()
            reference_s = _best_of(case.reference, rounds)
            vectorized_s = _best_of(case.vectorized, rounds)
            values[f"{kernel}/{size_name}/reference_s"] = reference_s
            values[f"{kernel}/{size_name}/vectorized_s"] = vectorized_s
            values[f"{kernel}/{size_name}/speedup"] = reference_s / vectorized_s
            values[f"{kernel}/{size_name}/parity"] = True
    context = {
        "seed": KERNEL_BENCH_SEED,
        "sizes": {name: KERNEL_BENCH_SIZES[name] for name in sizes},
        "rounds": max(1, rounds),
    }
    return make_record("kernels", values, METRICS, context=context)
