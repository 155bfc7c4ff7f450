"""Route whole estimator fits through the reference kernels.

Every consumer module reads its hot kernel through a module-level name
(``hierarchy.minimum_spanning_tree``, ``mpckmeans.mpck_assign``, ...), so
swapping that name for its oracle from :mod:`repro.clustering.reference`
reruns the density hierarchy, FOSC and MPCK-Means on the
interpreter-bound implementations.  Estimator-level parity tests fit once
normally and once inside :func:`reference_kernels` and compare the results
bit for bit.

The condensed stage swaps as a pair: the hierarchy builds a reference
:class:`~repro.clustering.reference.CondensedTree` (kept as-is instead of
being wrapped in a ``CondensedTreeArrays``) and FOSC extracts from it with
:class:`~repro.clustering.reference.ReferenceFOSC`.  Such a tree has no flat
arrays to persist, so reference-kernel fits must not write structure
artifacts.  The per-process distance and structure memos are cleared on
entry and exit, so no reference-built structure outlives the block.

Process-executor workers see the swap because they are forked from the
patched interpreter.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.clustering import fosc, hierarchy, mpckmeans, reference
from repro.utils.cache import clear_distance_cache


def materialised_minimum_spanning_tree(distances, core_distances=None):
    """The reference Prim, over the whole mutual-reachability matrix when given cores.

    The hierarchy calls the kernel with the raw matrix and the core
    distances; the oracle materialises the matrix the kernel never builds.
    A stack of core-distance rows (a MinPts grid) gets one tree per row.
    """
    if core_distances is not None and np.ndim(core_distances) == 2:
        return np.stack([
            materialised_minimum_spanning_tree(distances, core) for core in core_distances
        ])
    if core_distances is not None:
        distances = hierarchy.mutual_reachability(distances, core_distances)
    return reference.minimum_spanning_tree_reference(distances)


#: ``(module, kernel name, oracle)`` for every swapped call site.
ORACLES = (
    (hierarchy, "minimum_spanning_tree", materialised_minimum_spanning_tree),
    (hierarchy, "build_single_linkage_tree", reference.single_linkage_tree_reference),
    (hierarchy, "condense_tree", reference.CondensedTree),
    (hierarchy, "CondensedTreeArrays", lambda tree: tree),
    (fosc, "FOSC", reference.ReferenceFOSC),
    (mpckmeans, "mpck_assign", reference.mpck_assign_reference),
)


@contextmanager
def reference_kernels():
    """Run the enclosed fits on the reference kernels."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name, oracle in ORACLES:
            patch.setattr(module, name, oracle)
        clear_distance_cache()
        try:
            yield
        finally:
            clear_distance_cache()
