"""Route whole estimator fits through the reference kernels.

Every consumer module reads its hot kernel through a module-level name
(``optics.optics_ordering``, ``hierarchy.minimum_spanning_tree``, ...), so
swapping that name for its oracle from :mod:`repro.clustering.reference`
reruns OPTICS, the density hierarchy, FOSC and MPCK-Means on the
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

import pytest

from repro.clustering import fosc, hierarchy, mpckmeans, optics, reference
from repro.utils.cache import clear_distance_cache

#: ``(module, kernel name, oracle)`` for every swapped call site.
ORACLES = (
    (optics, "optics_ordering", reference.optics_ordering_reference),
    (hierarchy, "minimum_spanning_tree", reference.minimum_spanning_tree_reference),
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
