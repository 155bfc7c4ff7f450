"""Constraint value type and constraint-set container.

A pairwise instance-level constraint relates two data objects, identified by
their integer indices in the data matrix, and is either a *must-link*
(the two objects should end up in the same cluster) or a *cannot-link*
(the two objects should end up in different clusters).

Constraints are undirected: ``must-link(a, b)`` and ``must-link(b, a)`` are
the same constraint.  The :class:`Constraint` type normalises the index
order so the pair ``(min(a, b), max(a, b))`` identifies the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Marker for must-link constraints (the paper's "class 1").
MUST_LINK = 1

#: Marker for cannot-link constraints (the paper's "class 0").
CANNOT_LINK = 0

_KIND_NAMES = {MUST_LINK: "must-link", CANNOT_LINK: "cannot-link"}


@dataclass(frozen=True, order=True)
class Constraint:
    """A single undirected pairwise constraint between objects ``i`` and ``j``.

    Parameters
    ----------
    i, j:
        Indices of the two objects.  They are normalised so that ``i < j``.
    kind:
        Either :data:`MUST_LINK` or :data:`CANNOT_LINK`.
    """

    i: int
    j: int
    kind: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"a constraint needs two distinct objects, got ({self.i}, {self.j})")
        if self.kind not in (MUST_LINK, CANNOT_LINK):
            raise ValueError(f"kind must be MUST_LINK or CANNOT_LINK, got {self.kind!r}")
        low, high = (self.j, self.i) if self.i > self.j else (self.i, self.j)
        object.__setattr__(self, "i", int(low))
        object.__setattr__(self, "j", int(high))
        object.__setattr__(self, "kind", int(self.kind))

    @property
    def pair(self) -> tuple[int, int]:
        """The normalised ``(i, j)`` pair with ``i < j``."""
        return (self.i, self.j)

    @property
    def is_must_link(self) -> bool:
        """Whether this is a must-link constraint."""
        return self.kind == MUST_LINK

    @property
    def is_cannot_link(self) -> bool:
        """Whether this is a cannot-link constraint."""
        return self.kind == CANNOT_LINK

    def involves(self, index: int) -> bool:
        """Whether the constraint touches object ``index``."""
        return index == self.i or index == self.j

    def other(self, index: int) -> int:
        """Return the endpoint that is not ``index``.

        Raises
        ------
        ValueError
            If ``index`` is not an endpoint of this constraint.
        """
        if index == self.i:
            return self.j
        if index == self.j:
            return self.i
        raise ValueError(f"object {index} is not part of constraint {self}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{_KIND_NAMES[self.kind]}({self.i}, {self.j})"


def must_link(i: int, j: int) -> Constraint:
    """Convenience constructor for a must-link constraint."""
    return Constraint(i, j, MUST_LINK)


def cannot_link(i: int, j: int) -> Constraint:
    """Convenience constructor for a cannot-link constraint."""
    return Constraint(i, j, CANNOT_LINK)


class ConstraintSet:
    """A deduplicated collection of pairwise constraints.

    The constraints are stored as three read-only integer columns
    ``(i, j, kind)``, one row per constraint with ``i < j``, in insertion
    order; iteration yields :class:`Constraint` views of the rows.

    Adding the same pair twice with the same kind is a no-op; adding the same
    pair with *conflicting* kinds raises :class:`ValueError` (such a set
    could never be satisfied and almost always indicates a bookkeeping bug
    upstream).

    :func:`repro.constraints.closure.transitive_closure` memoises its result
    on the set; any mutation clears the memo, and pickling keeps only the
    columns and the closed flag.
    """

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._columns = (_frozen(()),) * 3
        # {(i, j): kind} in set order, built on the first add, discard or
        # lookup; ``_stale`` marks adds and discards not yet in the columns.
        self._kinds: dict[tuple[int, int], int] | None = None
        self._stale = False
        self._closed = False
        self._closure = None
        self.update(constraints)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _of(cls, i: np.ndarray, j: np.ndarray, kind: np.ndarray, *, closed: bool = False) -> "ConstraintSet":
        """Wrap canonical columns (``i < j``, distinct pairs) without checking them."""
        result = cls()
        result._columns = (_frozen(i), _frozen(j), _frozen(kind))
        result._closed = closed
        return result

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
        """Return a copy sharing the (immutable) columns and the closure memo."""
        clone = ConstraintSet._of(*self.as_arrays(), closed=self._closed)
        clone._closure = self._closure
        return clone

    @property
    def is_closed(self) -> bool:
        """Whether this set is a known transitive closure.

        Set on the results of :func:`repro.constraints.closure.transitive_closure`
        and :func:`~repro.constraints.closure.closure_of_labels`, and cleared
        by any mutation.  Re-closing a marked set returns an O(1) copy in the
        set's own order.  Sets derived from labels are closed as sets but
        not marked: closing them emits the closure order (see
        :func:`~repro.constraints.generation.constraints_from_labels`), and
        the result is memoised on the set instead.
        """
        return self._closed

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        self._closed = False
        self._closure = None

    def _lookup(self) -> dict[tuple[int, int], int]:
        if self._kinds is None:
            i, j, kind = self._columns
            self._kinds = dict(zip(zip(i.tolist(), j.tolist()), kind.tolist()))
        return self._kinds

    def add(self, constraint: Constraint) -> None:
        """Add one constraint, rejecting direct contradictions."""
        kinds = self._lookup()
        existing = kinds.get(constraint.pair)
        if existing is not None and existing != constraint.kind:
            raise ValueError(
                f"conflicting constraint for pair {constraint.pair}: "
                f"{_KIND_NAMES[existing]} already present, tried to add "
                f"{_KIND_NAMES[constraint.kind]}"
            )
        if existing is None:
            kinds[constraint.pair] = constraint.kind
            self._stale = True
        self._mutated()

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
        if constraint in self:
            del self._kinds[constraint.pair]
            self._stale = True
            self._mutated()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._kinds) if self._stale else len(self._columns[0])

    def __iter__(self) -> Iterator[Constraint]:
        i, j, kind = self.as_arrays()
        return map(Constraint, i.tolist(), j.tolist(), kind.tolist())

    def __contains__(self, constraint: Constraint) -> bool:
        return self._lookup().get(constraint.pair) == constraint.kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self._lookup() == other._lookup()

    def __getstate__(self) -> dict:
        return {"columns": self.as_arrays(), "closed": self._closed}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self._columns = tuple(_frozen(column) for column in state["columns"])
        self._closed = state["closed"]

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
        return self._lookup().get(pair)

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
        return int(np.count_nonzero(self.as_arrays()[2] == MUST_LINK))

    @property
    def n_cannot_link(self) -> int:
        """Number of cannot-link constraints in the set."""
        return len(self) - self.n_must_link

    def involved_objects(self) -> list[int]:
        """Sorted list of every object index touched by any constraint."""
        i, j, _ = self.as_arrays()
        return np.unique(np.concatenate((i, j))).tolist()

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    def must_link_array(self) -> np.ndarray:
        """``(m, 2)`` integer array of must-link pairs (may be empty)."""
        i, j, kind = self.as_arrays()
        must = kind == MUST_LINK
        return np.column_stack((i[must], j[must]))

    def cannot_link_array(self) -> np.ndarray:
        """``(m, 2)`` integer array of cannot-link pairs (may be empty)."""
        i, j, kind = self.as_arrays()
        cannot = kind == CANNOT_LINK
        return np.column_stack((i[cannot], j[cannot]))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``(i, j, kind)`` columns, one entry per constraint in set order."""
        if self._stale:
            # Rebuilt whole from the lookup, so concurrent readers of one
            # set that race here compute identical columns.
            kinds = self._kinds
            pairs = np.array(list(kinds), dtype=np.intp).reshape(-1, 2)
            kind = np.fromiter(kinds.values(), dtype=np.intp, count=len(kinds))
            self._columns = (_frozen(pairs[:, 0]), _frozen(pairs[:, 1]), _frozen(kind))
            self._stale = False
        return self._columns

    # ------------------------------------------------------------------
    # Subsetting / mapping
    # ------------------------------------------------------------------
    def _masked(self, keep: np.ndarray) -> "ConstraintSet":
        i, j, kind = self.as_arrays()
        return ConstraintSet._of(i[keep], j[keep], kind[keep])

    def restricted_to(self, objects: Iterable[int]) -> "ConstraintSet":
        """Keep only constraints whose *both* endpoints are in ``objects``."""
        allowed = np.fromiter((int(o) for o in objects), dtype=np.intp)
        i, j, _ = self.as_arrays()
        return self._masked(np.isin(i, allowed) & np.isin(j, allowed))

    def without_objects(self, objects: Iterable[int]) -> "ConstraintSet":
        """Drop every constraint touching any object in ``objects``."""
        banned = np.fromiter((int(o) for o in objects), dtype=np.intp)
        i, j, _ = self.as_arrays()
        return self._masked(~(np.isin(i, banned) | np.isin(j, banned)))

    def remap(self, index_map: dict[int, int]) -> "ConstraintSet":
        """Re-index constraints through ``index_map`` (old index -> new index).

        Constraints touching an object not present in the map are dropped.
        This is useful when clustering a subset of the data where objects
        have been re-indexed.
        """
        old = np.fromiter(index_map.keys(), dtype=np.intp, count=len(index_map))
        new = np.fromiter(index_map.values(), dtype=np.intp, count=len(index_map))
        order = np.argsort(old)
        old, new = old[order], new[order]
        i, j, kind = self.as_arrays()
        keep = np.isin(i, old) & np.isin(j, old)
        new_i = new[np.searchsorted(old, i[keep])].tolist()
        new_j = new[np.searchsorted(old, j[keep])].tolist()
        return ConstraintSet(map(Constraint, new_i, new_j, kind[keep].tolist()))

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
        i, j, kind = self.as_arrays()
        same = (labels[i] >= 0) & (labels[j] >= 0) & (labels[i] == labels[j])
        return int(np.count_nonzero(same == (kind == MUST_LINK)))


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column`` as a contiguous read-only ``intp`` array (in place when possible)."""
    column = np.ascontiguousarray(column, dtype=np.intp)
    column.flags.writeable = False
    return column
