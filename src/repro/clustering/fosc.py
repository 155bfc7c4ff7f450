"""FOSC: Framework for Optimal Selection of Clusters from hierarchies.

Campello, Moulavi, Zimek & Sander, *A framework for semi-supervised and
unsupervised optimal extraction of clusters from hierarchies*, Data Mining
and Knowledge Discovery 27(3), 2013.  Reference [10] of the CVCP paper and
the density-based algorithm ("FOSC-OPTICSDend") used in its evaluation.

Given a cluster hierarchy (here: the condensed density hierarchy of
:mod:`repro.clustering.hierarchy`) and a set of should-link / should-not-link
constraints, FOSC selects the antichain of clusters (at most one cluster per
root-to-leaf path) that maximises the total constraint satisfaction; in the
absence of side information it falls back to the unsupervised
excess-of-mass (stability) objective, which makes the unsupervised special
case equivalent to HDBSCAN*'s cluster extraction.

The optimisation is the paper's bottom-up dynamic program: for every node
the best achievable value of its subtree is either the node's own quality
(select the node, discarding its descendants) or the sum of its children's
best values (don't select the node).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.hierarchy import CondensedTreeArrays, TreeStructure, cached_tree_structure
from repro.clustering.kernels import fosc_extract_folds
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import MUST_LINK, ConstraintSet
from repro.core.admissibility import check_input
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_positive_int


@dataclass
class FOSCSelection:
    """Outcome of a FOSC extraction.

    Attributes
    ----------
    selected_clusters:
        Condensed-tree identifiers of the selected clusters.
    labels:
        Flat labels (noise = ``-1``).
    objective:
        Total objective value of the selection.
    used_constraints:
        Whether the semi-supervised objective was used (false means the
        unsupervised stability fallback was used).
    """

    selected_clusters: list[int]
    labels: np.ndarray
    objective: float
    used_constraints: bool


class FOSC:
    """Optimal cluster extraction from a condensed hierarchy.

    Parameters
    ----------
    stability_weight:
        Weight of the (normalised) unsupervised stability mixed into the
        per-cluster quality.  The default ``1e-3`` only breaks ties between
        selections that satisfy constraints equally well; setting it to
        ``0.5`` yields the mixed objective discussed as an extension in the
        FOSC paper, and ``1.0`` with no constraints is pure HDBSCAN*.
    """

    def __init__(self, *, stability_weight: float = 1e-3) -> None:
        if stability_weight < 0:
            raise ValueError(f"stability_weight must be >= 0, got {stability_weight}")
        self.stability_weight = stability_weight

    # ------------------------------------------------------------------
    def extract(
        self,
        tree: CondensedTreeArrays,
        constraints: ConstraintSet | Sequence[ConstraintSet] | None = None,
    ) -> FOSCSelection | list[FOSCSelection]:
        """Select the optimal antichain of clusters from ``tree``.

        Parameters
        ----------
        tree:
            The condensed hierarchy, processed with the FOSC kernel
            :func:`~repro.clustering.kernels.fosc_extract_folds`.
        constraints:
            Should-link / should-not-link side information; with an empty
            set the unsupervised stability objective is used.  A list of
            sets (the training folds of one CVCP grid value) is extracted
            in one kernel call, which does the tree-level work once, and
            gives a list of selections, each equal to extracting its set
            alone.
        """
        batch = isinstance(constraints, (list, tuple))
        sets = constraints if batch else [constraints if constraints is not None else ConstraintSet()]
        folds = []
        for constraint_set in sets:
            i_idx, j_idx, kinds = constraint_set.as_arrays()
            folds.append((i_idx, j_idx, kinds == MUST_LINK))
        selections = [
            FOSCSelection(*result)
            for result in fosc_extract_folds(tree.arrays, folds, self.stability_weight)
        ]
        return selections if batch else selections[0]


class FOSCOpticsDend(BaseClusterer):
    """FOSC-OPTICSDend: semi-supervised density-based clustering.

    This is the density-based algorithm evaluated in the CVCP paper: the
    data is turned into an OPTICS-equivalent density dendrogram (mutual
    reachability with smoothing parameter ``min_pts``) and FOSC extracts the
    flat partition that best agrees with the provided constraints (or, with
    no constraints, the most stable clusters).

    Parameters
    ----------
    min_pts:
        The MinPts density parameter (what CVCP selects; the paper sweeps
        ``[3, 6, 9, 12, 15, 18, 21, 24]``).
    min_cluster_size:
        Minimum cluster size of the condensed hierarchy; defaults to
        ``min_pts``.
    stability_weight:
        Tie-breaking weight of the unsupervised stability term, passed to
        :class:`FOSC`.
    metric:
        Distance metric.
    distance_backend:
        Storage tier for the distance matrices — ``"blockwise"``
        (default), ``"memmap"`` or ``"neighbors"``; ``None``
        consults ``REPRO_DISTANCE_BACKEND``.  The exact tiers produce
        bit-identical labels; ``"neighbors"`` builds the hierarchy from a
        sparse epsilon-bounded k-NN graph and is approximate-by-contract
        (see :mod:`repro.core.neighbor_graph`).
    epsilon / k_neighbors:
        Neighbour-graph radius and out-degree for the ``"neighbors"``
        tier (``None`` consults ``REPRO_NEIGHBOR_EPSILON`` /
        ``REPRO_NEIGHBOR_K``); ignored by the exact tiers.

    Attributes
    ----------
    labels_:
        Flat cluster labels (noise = ``-1``).
    structure_:
        The :class:`~repro.clustering.hierarchy.TreeStructure` the labels
        were extracted from — the cached *structure phase* of the fit
        (core distances, MST, condensed tree), shared across every
        constraint set via :func:`~repro.clustering.hierarchy.cached_tree_structure`.
    selection_:
        The :class:`FOSCSelection` describing which hierarchy nodes were
        chosen.
    """

    tuned_parameter = "min_pts"

    #: The CVCP driver warms and shares this estimator's structure phase
    #: through the artifact store (see :meth:`warm_structures`).
    structure_caching = True

    def __init__(
        self,
        min_pts: int = 5,
        *,
        min_cluster_size: int | None = None,
        stability_weight: float = 1e-3,
        metric: str = "euclidean",
        distance_backend: str | None = None,
        epsilon: float | None = None,
        k_neighbors: int | None = None,
        random_state: RandomStateLike = None,
    ) -> None:
        self.min_pts = min_pts
        self.min_cluster_size = min_cluster_size
        self.stability_weight = stability_weight
        self.metric = metric
        self.distance_backend = distance_backend
        self.epsilon = epsilon
        self.k_neighbors = k_neighbors
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "FOSCOpticsDend":
        """Cluster ``X`` guided by constraints (or a partial labelling)."""
        X = check_input(X, self.metric)
        self.structure_, (self.selection_,) = self._extract(X, [(constraints, seed_labels)])
        self.labels_ = self.selection_.labels
        return self

    def fit_folds(
        self,
        X: np.ndarray,
        side_information: Sequence[tuple[ConstraintSet | None, dict[int, int] | None]],
    ) -> list[np.ndarray]:
        """Labels of one fit per ``(constraints, seed_labels)`` pair.

        Each entry equals ``clone().fit(X, constraints, seed_labels).labels_``,
        but the input check and the structure lookup run once and every pair
        is extracted in one :meth:`FOSC.extract` call.  This is how the CVCP
        driver scores all pending folds of one MinPts.  The estimator's own
        fitted attributes are left as they were.
        """
        X = check_input(X, self.metric)
        _, selections = self._extract(X, side_information)
        return [selection.labels for selection in selections]

    def _extract(self, X: np.ndarray, side_information) -> tuple[TreeStructure, list[FOSCSelection]]:
        """The structure of ``X`` and one FOSC selection per ``(constraints, seed_labels)`` pair."""
        min_pts = self._effective_min_pts(X)
        closed = []
        for constraints, seed_labels in side_information:
            constraints = constraints if constraints is not None else ConstraintSet()
            if seed_labels:
                from repro.constraints.generation import constraints_from_labels

                constraints = constraints.merged_with(constraints_from_labels(seed_labels))
            closed.append(transitive_closure(constraints, strict=False))

        # The structure phase (distances → core distances → MST → condensed
        # tree) is constraint-independent, so it is served from the
        # per-process memo; only the FOSC extraction below depends on the
        # constraint sets.  Worker processes never touch the artifact store —
        # store-backed warming happens in the submitting process (see
        # :meth:`warm_structures` and the CVCP driver).
        structure = cached_tree_structure(
            X,
            min_pts,
            min_cluster_size=self.min_cluster_size,
            metric=self.metric,
            distance_backend=self.distance_backend,
            epsilon=self.epsilon,
            k_neighbors=self.k_neighbors,
        )
        fosc = FOSC(stability_weight=self.stability_weight)
        return structure, fosc.extract(structure.condensed_tree, closed)

    # ------------------------------------------------------------------
    def _effective_min_pts(self, X: np.ndarray) -> int:
        """MinPts, validated, clamped to the sample count (tiny folds stay fittable)."""
        return min(check_positive_int(self.min_pts, name="min_pts"), max(2, X.shape[0] - 1))

    @staticmethod
    def warm_structures(X: np.ndarray, estimators, store=None) -> None:
        """Warm the structure phase of several estimators, one per grid value.

        Estimators that differ only in MinPts (a CVCP grid) share one
        :func:`~repro.clustering.hierarchy.cached_tree_structure` call, so
        every structure the memo lacks is built in one lock-step pass.
        With a ``store`` each structure is first probed in the store's
        ``"structure"`` kind (recording a per-kind hit/miss), a persisted
        one is decoded into the per-process memo, and a fresh one is
        written through.  The CVCP driver calls this in the submitting
        process before launching the grid, so serial/thread cells and
        fork-started process workers reuse the warmed memo and re-runs —
        under *any* oracle or constraint set — reuse the persisted artifact.
        """
        grids: dict[tuple, list] = {}
        for estimator in estimators:
            settings = (
                estimator.min_cluster_size, estimator.metric, estimator.distance_backend,
                estimator.epsilon, estimator.k_neighbors,
            )
            grids.setdefault(settings, []).append(estimator)
        for (min_cluster_size, metric, distance_backend, epsilon, k_neighbors), members in grids.items():
            data = check_input(X, metric)
            cached_tree_structure(
                data,
                [estimator._effective_min_pts(data) for estimator in members],
                min_cluster_size=min_cluster_size,
                metric=metric,
                distance_backend=distance_backend,
                epsilon=epsilon,
                k_neighbors=k_neighbors,
                store=store,
            )
