"""Dict-backed constraint layer kept as a test oracle.

This module preserves the original, interpreter-bound implementation of
:class:`ConstraintSet` (one frozen :class:`Constraint` per pair in an
insertion-ordered dict), its transitive closure, and the label, sampling,
repair and confusion helpers that read it.  The array-native layer in
``repro.constraints`` must reproduce it exactly: the same ``(i, j, kind)``
sequences, the same picks and counts, and the same raised error types.
Only the imports were changed: the :class:`Constraint` view type and
:class:`InconsistentConstraintsError` are the library's, so sets of both
implementations exchange constraints and raise comparable errors.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.constraints.closure import InconsistentConstraintsError
from repro.constraints.constraint import CANNOT_LINK, MUST_LINK, Constraint
from repro.utils.disjoint_set import DisjointSet
from repro.utils.rng import check_random_state
from repro.utils.validation import check_fraction, check_labels

_KIND_NAMES = {MUST_LINK: "must-link", CANNOT_LINK: "cannot-link"}


class ConstraintSet:
    """A deduplicated collection of pairwise constraints.

    The container behaves like a set of :class:`Constraint` objects but also
    offers the array views and per-object lookups the clustering algorithms
    and the CVCP cross-validation machinery need.

    Adding the same pair twice with the same kind is a no-op; adding the same
    pair with *conflicting* kinds raises :class:`ValueError` (such a set
    could never be satisfied and almost always indicates a bookkeeping bug
    upstream).
    """

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._by_pair: dict[tuple[int, int], Constraint] = {}
        self._closed = False
        for constraint in constraints:
            self.add(constraint)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        must_links: Sequence[tuple[int, int]] = (),
        cannot_links: Sequence[tuple[int, int]] = (),
    ) -> "ConstraintSet":
        """Build a set from two sequences of index pairs."""
        constraints = [Constraint(i, j, MUST_LINK) for i, j in must_links]
        constraints += [Constraint(i, j, CANNOT_LINK) for i, j in cannot_links]
        return cls(constraints)

    def copy(self) -> "ConstraintSet":
        """Return a shallow copy (constraints are immutable)."""
        clone = ConstraintSet()
        clone._by_pair = dict(self._by_pair)
        clone._closed = self._closed
        return clone

    @property
    def is_closed(self) -> bool:
        """Whether this set is a known transitive closure.

        Set by :func:`repro.constraints.closure.transitive_closure` (and
        the other closure constructors) on their results and cleared by
        any mutation; closure is idempotent, so re-closing a marked set
        short-circuits — the win that makes the CVCP grid's per-cell
        re-closures of the already-closed fold constraints free.
        """
        return self._closed

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint) -> None:
        """Add one constraint, rejecting direct contradictions."""
        existing = self._by_pair.get(constraint.pair)
        if existing is not None and existing.kind != constraint.kind:
            raise ValueError(
                f"conflicting constraint for pair {constraint.pair}: "
                f"{_KIND_NAMES[existing.kind]} already present, tried to add "
                f"{_KIND_NAMES[constraint.kind]}"
            )
        self._by_pair[constraint.pair] = constraint
        self._closed = False

    def add_must_link(self, i: int, j: int) -> None:
        """Add a must-link constraint between objects ``i`` and ``j``."""
        self.add(Constraint(i, j, MUST_LINK))

    def add_cannot_link(self, i: int, j: int) -> None:
        """Add a cannot-link constraint between objects ``i`` and ``j``."""
        self.add(Constraint(i, j, CANNOT_LINK))

    def update(self, constraints: Iterable[Constraint]) -> None:
        """Add every constraint from ``constraints``."""
        for constraint in constraints:
            self.add(constraint)

    def discard(self, constraint: Constraint) -> None:
        """Remove a constraint if present (matching pair and kind)."""
        existing = self._by_pair.get(constraint.pair)
        if existing is not None and existing.kind == constraint.kind:
            del self._by_pair[constraint.pair]
            self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_pair)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._by_pair.values())

    def __contains__(self, constraint: Constraint) -> bool:
        existing = self._by_pair.get(constraint.pair)
        return existing is not None and existing.kind == constraint.kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self._by_pair == other._by_pair

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConstraintSet(n_must_link={self.n_must_link}, "
            f"n_cannot_link={self.n_cannot_link})"
        )

    def kind_of(self, i: int, j: int) -> int | None:
        """Return the kind of the constraint on ``(i, j)``, or ``None``."""
        if i == j:
            return None
        pair = (i, j) if i < j else (j, i)
        existing = self._by_pair.get(pair)
        return None if existing is None else existing.kind

    @property
    def must_links(self) -> list[Constraint]:
        """All must-link constraints (stable insertion order)."""
        return [c for c in self if c.is_must_link]

    @property
    def cannot_links(self) -> list[Constraint]:
        """All cannot-link constraints (stable insertion order)."""
        return [c for c in self if c.is_cannot_link]

    @property
    def n_must_link(self) -> int:
        """Number of must-link constraints in the set."""
        return sum(1 for c in self if c.is_must_link)

    @property
    def n_cannot_link(self) -> int:
        """Number of cannot-link constraints in the set."""
        return sum(1 for c in self if c.is_cannot_link)

    def involved_objects(self) -> list[int]:
        """Sorted list of every object index touched by any constraint."""
        objects: set[int] = set()
        for constraint in self:
            objects.add(constraint.i)
            objects.add(constraint.j)
        return sorted(objects)

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    def must_link_array(self) -> np.ndarray:
        """``(m, 2)`` integer array of must-link pairs (may be empty)."""
        pairs = [c.pair for c in self if c.is_must_link]
        if not pairs:
            return np.empty((0, 2), dtype=np.intp)
        return np.asarray(pairs, dtype=np.intp)

    def cannot_link_array(self) -> np.ndarray:
        """``(m, 2)`` integer array of cannot-link pairs (may be empty)."""
        pairs = [c.pair for c in self if c.is_cannot_link]
        if not pairs:
            return np.empty((0, 2), dtype=np.intp)
        return np.asarray(pairs, dtype=np.intp)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(pairs, kinds)`` flattened into ``(i, j, kind)`` arrays."""
        if not self._by_pair:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy(), empty.copy()
        i_idx = np.fromiter((c.i for c in self), dtype=np.intp, count=len(self))
        j_idx = np.fromiter((c.j for c in self), dtype=np.intp, count=len(self))
        kinds = np.fromiter((c.kind for c in self), dtype=np.intp, count=len(self))
        return i_idx, j_idx, kinds

    # ------------------------------------------------------------------
    # Subsetting / mapping
    # ------------------------------------------------------------------
    def restricted_to(self, objects: Iterable[int]) -> "ConstraintSet":
        """Keep only constraints whose *both* endpoints are in ``objects``."""
        allowed = set(int(o) for o in objects)
        return ConstraintSet(
            c for c in self if c.i in allowed and c.j in allowed
        )

    def without_objects(self, objects: Iterable[int]) -> "ConstraintSet":
        """Drop every constraint touching any object in ``objects``."""
        banned = set(int(o) for o in objects)
        return ConstraintSet(
            c for c in self if c.i not in banned and c.j not in banned
        )

    def remap(self, index_map: dict[int, int]) -> "ConstraintSet":
        """Re-index constraints through ``index_map`` (old index -> new index).

        Constraints touching an object not present in the map are dropped.
        This is useful when clustering a subset of the data where objects
        have been re-indexed.
        """
        remapped = ConstraintSet()
        for constraint in self:
            if constraint.i in index_map and constraint.j in index_map:
                remapped.add(
                    Constraint(index_map[constraint.i], index_map[constraint.j], constraint.kind)
                )
        return remapped

    def merged_with(self, other: "ConstraintSet") -> "ConstraintSet":
        """Return the union of this set and ``other``."""
        merged = self.copy()
        merged.update(other)
        return merged

    def satisfied_by(self, labels: Sequence[int] | np.ndarray) -> int:
        """Count constraints satisfied by a flat partition ``labels``.

        Objects labelled ``-1`` (noise) are treated as singleton clusters:
        a noise object is never in the same cluster as any other object.
        """
        labels = np.asarray(labels)
        satisfied = 0
        for constraint in self:
            same = _same_cluster(labels, constraint.i, constraint.j)
            if constraint.is_must_link and same:
                satisfied += 1
            elif constraint.is_cannot_link and not same:
                satisfied += 1
        return satisfied


def _same_cluster(labels: np.ndarray, i: int, j: int) -> bool:
    """Whether objects ``i`` and ``j`` share a (non-noise) cluster."""
    label_i = labels[i]
    label_j = labels[j]
    if label_i < 0 or label_j < 0:
        return False
    return bool(label_i == label_j)


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
    ds = DisjointSet()
    for index in constraints.involved_objects():
        ds.add(index)
    for constraint in constraints.must_links:
        ds.union(constraint.i, constraint.j)
    groups = ds.groups()
    return sorted((sorted(group) for group in groups), key=lambda g: g[0])


def is_consistent(constraints: ConstraintSet) -> bool:
    """Whether the constraint set admits at least one satisfying partition.

    A set is inconsistent exactly when some cannot-link constraint connects
    two objects of the same must-link component.
    """
    ds = DisjointSet()
    for index in constraints.involved_objects():
        ds.add(index)
    for constraint in constraints.must_links:
        ds.union(constraint.i, constraint.j)
    for constraint in constraints.cannot_links:
        if ds.find(constraint.i) == ds.find(constraint.j):
            return False
    return True


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
        constraint.

    Notes
    -----
    The closure is quadratic in the size of the must-link components, which
    matches the semantics of constraints-from-labels used throughout the
    paper (labels for a class of ``m`` objects induce ``m·(m-1)/2``
    must-links).
    """
    if constraints.is_closed:
        # Closure is idempotent and every marked closure is consistent by
        # construction, so strict and lenient callers alike can reuse it.
        # This is the hot path of the CVCP grid: the folds hand each cell
        # an already-closed constraint set, and re-deriving its quadratic
        # closure per parameter value would dominate the extraction phase.
        return constraints.copy()

    ds = DisjointSet()
    for index in constraints.involved_objects():
        ds.add(index)
    for constraint in constraints.must_links:
        ds.union(constraint.i, constraint.j)

    components: dict[int, list[int]] = {}
    for index in constraints.involved_objects():
        components.setdefault(ds.find(index), []).append(index)

    closure = ConstraintSet()

    # All pairs inside one must-link component are must-links.
    for members in components.values():
        for i, j in combinations(sorted(members), 2):
            closure.add(Constraint(i, j, MUST_LINK))

    # Cannot-links lift to component pairs.
    cannot_component_pairs: set[tuple[int, int]] = set()
    for constraint in constraints.cannot_links:
        root_i = ds.find(constraint.i)
        root_j = ds.find(constraint.j)
        if root_i == root_j:
            if strict:
                raise InconsistentConstraintsError(
                    f"cannot-link({constraint.i}, {constraint.j}) contradicts the "
                    "must-link closure: both objects are in the same must-link component"
                )
            continue
        key = (root_i, root_j) if root_i < root_j else (root_j, root_i)
        cannot_component_pairs.add(key)

    for root_i, root_j in cannot_component_pairs:
        for i in components[root_i]:
            for j in components[root_j]:
                closure.add(Constraint(i, j, CANNOT_LINK))

    closure._closed = True
    return closure


def closure_size(constraints: ConstraintSet) -> tuple[int, int]:
    """Return ``(n_must_link, n_cannot_link)`` of the closure without materialising it.

    Useful for tests and for reporting how much information the explicit
    constraints actually carry.
    """
    ds = DisjointSet()
    for index in constraints.involved_objects():
        ds.add(index)
    for constraint in constraints.must_links:
        ds.union(constraint.i, constraint.j)

    sizes: dict[int, int] = {}
    for index in constraints.involved_objects():
        root = ds.find(index)
        sizes[root] = sizes.get(root, 0) + 1

    n_must = sum(size * (size - 1) // 2 for size in sizes.values())

    cannot_component_pairs: set[tuple[int, int]] = set()
    for constraint in constraints.cannot_links:
        root_i = ds.find(constraint.i)
        root_j = ds.find(constraint.j)
        if root_i == root_j:
            raise InconsistentConstraintsError(
                f"cannot-link({constraint.i}, {constraint.j}) contradicts the must-link closure"
            )
        key = (root_i, root_j) if root_i < root_j else (root_j, root_i)
        cannot_component_pairs.add(key)
    n_cannot = sum(sizes[a] * sizes[b] for a, b in cannot_component_pairs)
    return n_must, n_cannot


def derived_constraints(constraints: ConstraintSet) -> ConstraintSet:
    """Constraints present in the closure but not given explicitly."""
    closure = transitive_closure(constraints)
    derived = ConstraintSet()
    for constraint in closure:
        if constraint not in constraints:
            derived.add(constraint)
    return derived


def closure_of_labels(labels: dict[int, object]) -> ConstraintSet:
    """Closure induced by a partial labelling ``{object_index: class_label}``.

    Two labelled objects with equal labels yield a must-link, with different
    labels a cannot-link.  (The result is already transitively closed.)
    """
    closure = ConstraintSet()
    items = sorted(labels.items())
    for (i, label_i), (j, label_j) in combinations(items, 2):
        kind = MUST_LINK if label_i == label_j else CANNOT_LINK
        closure.add(Constraint(i, j, kind))
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


def constraints_from_labels(labeled: dict[int, int] | Sequence[tuple[int, int]]) -> ConstraintSet:
    """Derive all pairwise constraints implied by a partial labelling.

    Two objects with the same label yield a must-link, with different labels
    a cannot-link (Section 3.1.1).  The result is transitively closed by
    construction.

    Parameters
    ----------
    labeled:
        Either a mapping ``{object_index: class_label}`` or a sequence of
        ``(object_index, class_label)`` pairs.
    """
    if not isinstance(labeled, dict):
        labeled = dict(labeled)
    constraints = ConstraintSet()
    items = sorted(labeled.items())
    for (i, label_i), (j, label_j) in combinations(items, 2):
        kind = MUST_LINK if label_i == label_j else CANNOT_LINK
        constraints.add(Constraint(i, j, kind))
    return constraints


def sample_constraint_subset(
    pool: ConstraintSet,
    fraction: float,
    *,
    random_state=None,
    min_constraints: int = 2,
) -> ConstraintSet:
    """Randomly sample a fraction of the constraints in ``pool``.

    The subset is sampled uniformly over constraints (not over objects), as
    in the paper's constraint scenario where 10%, 20% or 50% of the pool is
    given to the clustering algorithm.
    """
    fraction = check_fraction(fraction, name="fraction")
    rng = check_random_state(random_state)

    all_constraints = list(pool)
    if not all_constraints:
        return ConstraintSet()
    n_select = max(int(round(fraction * len(all_constraints))), min_constraints)
    n_select = min(n_select, len(all_constraints))
    chosen = rng.choice(len(all_constraints), size=n_select, replace=False)
    return ConstraintSet(all_constraints[int(index)] for index in chosen)


def repair_closure_consistency(constraints: ConstraintSet) -> ConstraintSet:
    """Drop cannot-links that contradict the must-link components.

    A noisy answer stream can produce a constraint set whose transitive
    closure is contradictory: a cannot-link whose endpoints are joined by a
    chain of must-links.  This repair keeps every must-link (trusting the
    stronger, transitive relation) and removes exactly the contradicting
    cannot-links, so the result always admits a satisfying partition.

    The repair is conservative: it never invents constraints, so the output
    is a subset of the input.
    """
    component_of: dict[int, int] = {}
    for component_id, members in enumerate(must_link_components(constraints)):
        for index in members:
            component_of[index] = component_id
    repaired = ConstraintSet()
    for constraint in constraints:
        if constraint.is_cannot_link and component_of[constraint.i] == component_of[constraint.j]:
            continue
        repaired.add(constraint)
    return repaired


def constraint_confusion(
    labels: np.ndarray,
    constraints: ConstraintSet,
) -> tuple[int, int, int, int]:
    """Classify every constraint with the partition ``labels``.

    Noise objects (label ``-1``) are treated as singletons: they are never
    in the same cluster as any other object (including other noise objects).
    """
    labels = check_labels(labels)
    tp = fn = tn = fp = 0
    for constraint in constraints:
        label_i = labels[constraint.i]
        label_j = labels[constraint.j]
        same = label_i >= 0 and label_j >= 0 and label_i == label_j
        if constraint.is_must_link:
            if same:
                tp += 1
            else:
                fn += 1
        else:
            if same:
                fp += 1
            else:
                tn += 1
    return tp, fn, tn, fp
