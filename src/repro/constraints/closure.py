"""Transitive closure of pairwise constraints.

Section 3.1 of the paper (Figure 2) motivates why the closure matters: from
``must-link(A, B)``, ``must-link(C, D)`` and ``cannot-link(B, C)`` one can
*derive* ``cannot-link(A, C)``, ``cannot-link(A, D)`` and
``cannot-link(B, D)``.  If an evaluation procedure splits constraints into
training and test folds without accounting for these derived constraints,
information leaks from the training folds into the test fold and the
estimated classification error is too optimistic.

The closure rules are the standard ones:

* must-link is an equivalence relation: the must-link components are the
  connected components of the must-link graph, and every pair inside a
  component is a (derived) must-link.
* cannot-link lifts to components: if any object of component ``S`` cannot
  link to any object of component ``T``, then every pair ``(s, t)`` with
  ``s ∈ S`` and ``t ∈ T`` is a (derived) cannot-link.

A constraint set is *inconsistent* if a cannot-link connects two objects of
the same must-link component.

Every query here derives from one union-find over the must-links
(:func:`_must_link_roots`), so sizes, consistency checks, components and
the closure itself cannot disagree.  The closure is emitted in a fixed
order that downstream float sums depend on (MPCK-Means' neighbour lists,
metric updates and objective): must-links first, component by component
in order of each component's smallest member and lexicographic within a
component; then cannot-links, one block per lifted component pair.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.constraints.constraint import CANNOT_LINK, MUST_LINK, ConstraintSet
from repro.constraints.generation import constraints_from_labels


class InconsistentConstraintsError(ValueError):
    """Raised when the transitive closure of a constraint set is contradictory."""


def _pair_keys(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One integer per ``(i[k], j[k])``; two keys are equal exactly when the pairs are."""
    objects = np.unique(np.concatenate((i, j)))
    return np.searchsorted(objects, i) * objects.size + np.searchsorted(objects, j)


def _must_link_roots(constraints: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over the must-links: ``(objects, roots)``.

    ``objects`` holds the sorted objects touched by any constraint and
    ``roots[k]`` the representative object of ``objects[k]``'s must-link
    component.  Must-links are merged in set order with union by size, a
    tie keeping the root of the pair's smaller index, so the representative
    is exactly the one the closure's cannot-link order is keyed on.
    """
    i, j, kind = constraints.as_arrays()
    objects = np.unique(np.concatenate((i, j)))
    must = kind == MUST_LINK
    parent = list(range(objects.size))
    size = [1] * objects.size
    for a, b in zip(np.searchsorted(objects, i[must]).tolist(), np.searchsorted(objects, j[must]).tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
    roots = np.asarray(parent, dtype=np.intp)
    while True:
        hopped = roots[roots]
        if np.array_equal(hopped, roots):
            return objects, objects[roots]
        roots = hopped


def _ordered_components(
    objects: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(component, members, sizes, starts)`` of the must-link components.

    Components are numbered in order of their smallest member;
    ``component[k]`` is the number of ``objects[k]``, and component ``c``
    is ``members[starts[c]:starts[c] + sizes[c]]`` in ascending order.
    """
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    component = np.argsort(np.argsort(first))[inverse]
    sizes = np.bincount(component)
    members = objects[np.argsort(component, kind="stable")]
    return component, members, sizes, np.cumsum(sizes) - sizes


def _lifted_cannot_links(
    constraints: ConstraintSet, objects: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """Cannot-links lifted to root pairs: ``(low, high, contradiction)``.

    One ``(low[k], high[k])`` root pair per distinct lifted pair, in order
    of first occurrence among the cannot-links.  ``contradiction`` is the
    first cannot-link inside one component (dropped from the pairs), or
    ``None``.
    """
    i, j, kind = constraints.as_arrays()
    cannot = kind == CANNOT_LINK
    cannot_i, cannot_j = i[cannot], j[cannot]
    root_i = roots[np.searchsorted(objects, cannot_i)]
    root_j = roots[np.searchsorted(objects, cannot_j)]
    clash = root_i == root_j
    contradiction = None
    if clash.any():
        at = int(np.argmax(clash))
        contradiction = (int(cannot_i[at]), int(cannot_j[at]))
        root_i, root_j = root_i[~clash], root_j[~clash]
    low, high = np.minimum(root_i, root_j), np.maximum(root_i, root_j)
    _, first = np.unique(_pair_keys(low, high), return_index=True)
    first.sort()
    return low[first], high[first], contradiction


def must_link_components(constraints: ConstraintSet) -> list[list[int]]:
    """Connected components of the must-link graph.

    Only objects that appear in at least one constraint (of either kind) are
    included.  Objects that appear only in cannot-link constraints form
    singleton components.

    Returns
    -------
    list of lists
        Each inner list holds the sorted object indices of one component.
        Components are sorted by their smallest member.
    """
    objects, roots = _must_link_roots(constraints)
    if not objects.size:
        return []
    _, members, sizes, starts = _ordered_components(objects, roots)
    return [group.tolist() for group in np.split(members, starts[1:])]


def is_consistent(constraints: ConstraintSet) -> bool:
    """Whether the constraint set admits at least one satisfying partition.

    A set is inconsistent exactly when some cannot-link constraint connects
    two objects of the same must-link component.
    """
    objects, roots = _must_link_roots(constraints)
    return _lifted_cannot_links(constraints, objects, roots)[2] is None


def transitive_closure(
    constraints: ConstraintSet,
    *,
    strict: bool = True,
) -> ConstraintSet:
    """Compute the full transitive closure of ``constraints``.

    Parameters
    ----------
    constraints:
        The explicit constraints.
    strict:
        If true (default), raise :class:`InconsistentConstraintsError` when
        the closure is contradictory.  If false, contradictions are resolved
        in favour of the must-link (the contradicting derived cannot-links
        are simply not emitted), which mirrors how a user-facing tool would
        degrade gracefully on noisy side information.

    Returns
    -------
    ConstraintSet
        A new constraint set containing every explicit and derived
        constraint, marked closed.

    Notes
    -----
    The closure is quadratic in the size of the must-link components, which
    matches the semantics of constraints-from-labels used throughout the
    paper (labels for a class of ``m`` objects induce ``m·(m-1)/2``
    must-links).  It is computed once per input set and memoised on it
    until the set is mutated; every call returns an O(1) copy, so the CVCP
    grid's cells that share a fold's training constraints close them once.
    A set already marked closed is returned as a copy in its own order.
    """
    if constraints.is_closed:
        return constraints.copy()
    memo = constraints._closure
    if memo is None:
        memo = constraints._closure = _close(constraints)
    closure, contradiction = memo
    if strict and contradiction is not None:
        raise InconsistentConstraintsError(
            f"cannot-link{contradiction} contradicts the must-link closure: both "
            "objects are in the same must-link component"
        )
    return closure.copy()


def _close(constraints: ConstraintSet) -> tuple[ConstraintSet, tuple[int, int] | None]:
    """The lenient closure of ``constraints`` and its first contradiction, if any."""
    objects, roots = _must_link_roots(constraints)
    component, members, sizes, starts = _ordered_components(objects, roots)

    # All pairs inside one must-link component are must-links; components
    # of equal size are emitted as one batch of upper-triangle blocks.
    n_pairs = sizes * (sizes - 1) // 2
    offsets = np.cumsum(n_pairs) - n_pairs
    must_i = np.empty(int(n_pairs.sum()), dtype=np.intp)
    must_j = np.empty_like(must_i)
    for size in np.unique(sizes[sizes > 1]).tolist():
        batch = np.flatnonzero(sizes == size)
        first, second = np.triu_indices(size, 1)
        block = members[starts[batch, None] + np.arange(size)]
        slots = offsets[batch, None] + np.arange(first.size)
        must_i[slots] = block[:, first]
        must_j[slots] = block[:, second]

    # Cannot-links lift to component pairs, which are expanded in the
    # iteration order of a Python set of (low root, high root) tuples
    # filled in cannot-link order.  Adding only first occurrences builds
    # the same hash table, since re-adding a member never changes a set.
    low, high, contradiction = _lifted_cannot_links(constraints, objects, roots)
    pairs = np.array(list(set(zip(low.tolist(), high.tolist()))), dtype=np.intp).reshape(-1, 2)
    component_a = component[np.searchsorted(objects, pairs[:, 0])]
    component_b = component[np.searchsorted(objects, pairs[:, 1])]
    size_b = sizes[component_b]
    counts = sizes[component_a] * size_b
    pair = np.repeat(np.arange(counts.size), counts)
    local = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    a = members[starts[component_a][pair] + local // size_b[pair]]
    b = members[starts[component_b][pair] + local % size_b[pair]]

    closure = ConstraintSet._of(
        np.concatenate((must_i, np.minimum(a, b))),
        np.concatenate((must_j, np.maximum(a, b))),
        np.repeat([MUST_LINK, CANNOT_LINK], [must_i.size, a.size]),
        closed=True,
    )
    return closure, contradiction


def closure_size(constraints: ConstraintSet) -> tuple[int, int]:
    """Return ``(n_must_link, n_cannot_link)`` of the closure without materialising it.

    Useful for tests and for reporting how much information the explicit
    constraints actually carry.
    """
    objects, roots = _must_link_roots(constraints)
    component, _, sizes, _ = _ordered_components(objects, roots)
    low, high, contradiction = _lifted_cannot_links(constraints, objects, roots)
    if contradiction is not None:
        raise InconsistentConstraintsError(f"cannot-link{contradiction} contradicts the must-link closure")
    n_must = int((sizes * (sizes - 1) // 2).sum())
    size_low = sizes[component[np.searchsorted(objects, low)]]
    size_high = sizes[component[np.searchsorted(objects, high)]]
    return n_must, int((size_low * size_high).sum())


def derived_constraints(constraints: ConstraintSet) -> ConstraintSet:
    """Constraints present in the closure but not given explicitly."""
    closure = transitive_closure(constraints)
    i, j, kind = (np.concatenate(pair) for pair in zip(closure.as_arrays(), constraints.as_arrays()))
    keys = 2 * _pair_keys(i, j) + kind
    new = np.flatnonzero(~np.isin(keys[: len(closure)], keys[len(closure) :]))
    return ConstraintSet._of(i[new], j[new], kind[new])


def closure_of_labels(labels: dict[int, object]) -> ConstraintSet:
    """Closure induced by a partial labelling ``{object_index: class_label}``.

    Two labelled objects with equal labels yield a must-link, with different
    labels a cannot-link.  The result is already transitively closed and is
    marked so; it keeps the lexicographic order of
    :func:`~repro.constraints.generation.constraints_from_labels`.
    """
    closure = constraints_from_labels(labels)
    closure._closed = True
    return closure


def restrict_and_close(
    constraints: ConstraintSet, objects: Iterable[int], *, strict: bool = True
) -> ConstraintSet:
    """Restrict ``constraints`` to ``objects`` and re-close the result.

    This is the primitive used by the Scenario II fold construction
    (Section 3.1.2): constraints crossing the object split are removed and
    the transitive closure is recomputed independently on each side.
    """
    return transitive_closure(constraints.restricted_to(objects), strict=strict)
