"""Graph view over a constraint set.

Section 3.1 of the paper describes the constraints as an edge-weighted graph
over the data objects (weight 1 for must-link, 0 for cannot-link).  The
:class:`ConstraintGraph` wraps a :class:`~repro.constraints.constraint.ConstraintSet`
with the graph-level queries the fold-construction machinery needs:
adjacency, connected components (over all constraints or over must-links
only), and edge-cut statistics for a given object partition.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.constraints.closure import must_link_components
from repro.constraints.constraint import MUST_LINK, ConstraintSet


class ConstraintGraph:
    """Undirected graph whose vertices are objects and edges are constraints."""

    def __init__(self, constraints: ConstraintSet) -> None:
        self._constraints = constraints
        self._adjacency: dict[int, dict[int, int]] = {}
        for constraint in constraints:
            self._adjacency.setdefault(constraint.i, {})[constraint.j] = constraint.kind
            self._adjacency.setdefault(constraint.j, {})[constraint.i] = constraint.kind

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def constraints(self) -> ConstraintSet:
        """The underlying constraint set."""
        return self._constraints

    @property
    def n_vertices(self) -> int:
        """Number of objects touched by at least one constraint."""
        return len(self._adjacency)

    @property
    def n_edges(self) -> int:
        """Number of constraints (each is one undirected edge)."""
        return len(self._constraints)

    def vertices(self) -> list[int]:
        """Sorted vertex (object) indices."""
        return sorted(self._adjacency)

    def neighbors(self, index: int) -> dict[int, int]:
        """Mapping ``neighbor -> constraint kind`` for object ``index``."""
        return dict(self._adjacency.get(index, {}))

    def degree(self, index: int) -> int:
        """Number of constraints touching object ``index``."""
        return len(self._adjacency.get(index, {}))

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def connected_components(self, *, must_link_only: bool = False) -> list[list[int]]:
        """Connected components of the graph.

        Parameters
        ----------
        must_link_only:
            If true, only must-link edges connect vertices (this yields the
            must-link components used by the transitive closure); otherwise
            both constraint kinds are treated as edges.
        """
        constraints = self._constraints
        if not must_link_only:
            i, j, _ = constraints.as_arrays()
            constraints = ConstraintSet._of(i, j, np.full(i.size, MUST_LINK))
        return must_link_components(constraints)

    def component_of(self, index: int, *, must_link_only: bool = False) -> list[int]:
        """The component containing object ``index`` (empty if unknown)."""
        for component in self.connected_components(must_link_only=must_link_only):
            if index in component:
                return component
        return []

    # ------------------------------------------------------------------
    # Partition interactions (used by fold construction diagnostics)
    # ------------------------------------------------------------------
    def cut_edges(self, fold_assignment: Mapping[int, int]) -> ConstraintSet:
        """Constraints whose endpoints fall in different folds.

        ``fold_assignment`` maps object index to a fold identifier.  Objects
        missing from the mapping are ignored (their edges are not reported).
        """
        cut = ConstraintSet()
        for constraint in self._constraints:
            fold_i = fold_assignment.get(constraint.i)
            fold_j = fold_assignment.get(constraint.j)
            if fold_i is None or fold_j is None:
                continue
            if fold_i != fold_j:
                cut.add(constraint)
        return cut

    def induced(self, objects: Iterable[int]) -> "ConstraintGraph":
        """Subgraph induced by ``objects`` (constraints fully inside the set)."""
        return ConstraintGraph(self._constraints.restricted_to(objects))

    # ------------------------------------------------------------------
    # Matrix views
    # ------------------------------------------------------------------
    def adjacency_matrix(self, n_objects: int) -> np.ndarray:
        """Dense ``(n_objects, n_objects)`` matrix view.

        Entries are ``+1`` for must-link, ``-1`` for cannot-link and ``0``
        for "no constraint".  Useful for vectorised penalty computations in
        constrained clustering algorithms.
        """
        matrix = np.zeros((n_objects, n_objects), dtype=np.int8)
        i, j, kind = self._constraints.as_arrays()
        matrix[i, j] = matrix[j, i] = np.where(kind == MUST_LINK, 1, -1)
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstraintGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def graph_from_pairs(
    must_links: Iterable[tuple[int, int]] = (),
    cannot_links: Iterable[tuple[int, int]] = (),
) -> ConstraintGraph:
    """Convenience constructor mirroring :meth:`ConstraintSet.from_arrays`."""
    return ConstraintGraph(ConstraintSet.from_arrays(list(must_links), list(cannot_links)))
