"""Generating side information from a ground-truth labelling.

The experimental setup of the paper (Section 4.1) derives the two kinds of
side information from the ground-truth class labels:

* **Label scenario** — a random subset of objects (5%, 10% or 20% of the
  data set) is revealed with its class label
  (:func:`sample_labeled_objects`).
* **Constraint scenario** — a *constraint pool* is built by selecting 10% of
  the objects from each class and generating **all** pairwise constraints
  between the selected objects (:func:`build_constraint_pool`); the
  algorithm then receives a random subset (10%, 20% or 50%) of that pool
  (:func:`sample_constraint_subset`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constraints.constraint import CANNOT_LINK, MUST_LINK, Constraint, ConstraintSet
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_fraction, check_labels


def sample_labeled_objects(
    labels: Sequence[int] | np.ndarray,
    fraction: float,
    *,
    random_state: RandomStateLike = None,
    stratified: bool = False,
    min_per_class: int = 0,
) -> dict[int, int]:
    """Randomly reveal the labels of a fraction of the objects.

    Parameters
    ----------
    labels:
        Ground-truth class labels for every object.
    fraction:
        Fraction of all objects to reveal, in ``(0, 1]``.
    random_state:
        Seed or generator.
    stratified:
        If true, sample the same fraction from every class instead of
        sampling uniformly from the whole data set (the paper samples
        uniformly; stratification is provided for robustness studies).
    min_per_class:
        With ``stratified=True``, reveal at least this many objects per
        class (capped at the class size).

    Returns
    -------
    dict
        ``{object_index: class_label}`` for the revealed objects.
    """
    labels = check_labels(labels)
    fraction = check_fraction(fraction, name="fraction")
    rng = check_random_state(random_state)

    n_samples = labels.shape[0]
    if stratified:
        revealed: dict[int, int] = {}
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            n_reveal = max(int(round(fraction * members.size)), min_per_class)
            n_reveal = min(n_reveal, members.size)
            if n_reveal == 0:
                continue
            chosen = rng.choice(members, size=n_reveal, replace=False)
            for index in chosen:
                revealed[int(index)] = int(labels[index])
        return revealed

    n_reveal = max(int(round(fraction * n_samples)), 2)
    n_reveal = min(n_reveal, n_samples)
    chosen = rng.choice(n_samples, size=n_reveal, replace=False)
    return {int(index): int(labels[index]) for index in chosen}


def constraints_from_labels(labeled: dict[int, int] | Sequence[tuple[int, int]]) -> ConstraintSet:
    """Derive all pairwise constraints implied by a partial labelling.

    Two objects with the same label yield a must-link, with different labels
    a cannot-link (Section 3.1.1).  The result is transitively closed as a
    set, in lexicographic ``(i, j)`` order, but not marked closed:
    :func:`~repro.constraints.closure.transitive_closure` re-emits it in
    closure order (the order MPCK-Means' float sums consume) and memoises
    that on the set.

    Parameters
    ----------
    labeled:
        Either a mapping ``{object_index: class_label}`` or a sequence of
        ``(object_index, class_label)`` pairs.
    """
    if not isinstance(labeled, dict):
        labeled = dict(labeled)
    items = sorted(labeled.items())
    objects = np.array([index for index, _ in items], dtype=np.intp)
    classes = np.array([label for _, label in items])
    first, second = np.triu_indices(len(items), 1)
    kind = np.where(classes[first] == classes[second], MUST_LINK, CANNOT_LINK)
    return ConstraintSet._of(objects[first], objects[second], kind)


def _n_selected_per_class(class_size: int, fraction_per_class: float, min_per_class: int) -> int:
    """How many objects of one class enter the constraint pool.

    Single source of the pool-sizing rule: at least ``min_per_class``,
    rounded ``fraction_per_class`` of the class otherwise, never more than
    the class itself.  Shared by :func:`build_constraint_pool` and
    :func:`constraint_pool_size` so the two can never drift apart.
    """
    return min(max(int(round(fraction_per_class * class_size)), min_per_class), class_size)


def constraint_pool_size(
    labels: Sequence[int] | np.ndarray,
    *,
    fraction_per_class: float = 0.10,
    min_per_class: int = 2,
) -> int:
    """Number of constraints :func:`build_constraint_pool` would generate.

    Useful for sizing query requests (the budgeted and active oracles scale
    their budgets against the paper-style pool) without materialising the
    quadratic pool itself.
    """
    labels = check_labels(labels)
    fraction_per_class = check_fraction(fraction_per_class, name="fraction_per_class")
    selected = sum(
        _n_selected_per_class(int(np.sum(labels == cls)), fraction_per_class, min_per_class)
        for cls in np.unique(labels)
    )
    return selected * (selected - 1) // 2


def build_constraint_pool(
    labels: Sequence[int] | np.ndarray,
    *,
    fraction_per_class: float = 0.10,
    min_per_class: int = 2,
    random_state: RandomStateLike = None,
) -> ConstraintSet:
    """Build the paper's candidate *pool* of constraints.

    Section 4.1: "we first used the ground truth to generate a candidate
    pool of constraints by randomly selecting 10% of the objects from each
    class and generating all constraints between these objects".

    Parameters
    ----------
    labels:
        Ground-truth class labels.
    fraction_per_class:
        Fraction of each class to select (default 10%).
    min_per_class:
        Select at least this many objects per class so that small classes
        still contribute constraints (capped at the class size).
    random_state:
        Seed or generator.
    """
    labels = check_labels(labels)
    fraction_per_class = check_fraction(fraction_per_class, name="fraction_per_class")
    rng = check_random_state(random_state)

    selected: dict[int, int] = {}
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        n_select = _n_selected_per_class(members.size, fraction_per_class, min_per_class)
        chosen = rng.choice(members, size=n_select, replace=False)
        for index in chosen:
            selected[int(index)] = int(labels[index])
    return constraints_from_labels(selected)


def sample_constraint_subset(
    pool: ConstraintSet,
    fraction: float,
    *,
    random_state: RandomStateLike = None,
    min_constraints: int = 2,
) -> ConstraintSet:
    """Randomly sample a fraction of the constraints in ``pool``.

    The subset is sampled uniformly over constraints (not over objects), as
    in the paper's constraint scenario where 10%, 20% or 50% of the pool is
    given to the clustering algorithm.
    """
    fraction = check_fraction(fraction, name="fraction")
    rng = check_random_state(random_state)

    n_pool = len(pool)
    if not n_pool:
        return ConstraintSet()
    n_select = min(max(int(round(fraction * n_pool)), min_constraints), n_pool)
    chosen = rng.choice(n_pool, size=n_select, replace=False)
    i, j, kind = pool.as_arrays()
    return ConstraintSet._of(i[chosen], j[chosen], kind[chosen])


def random_constraints(
    labels: Sequence[int] | np.ndarray,
    n_constraints: int,
    *,
    random_state: RandomStateLike = None,
) -> ConstraintSet:
    """Sample ``n_constraints`` random ground-truth-consistent constraints.

    Pairs of objects are drawn uniformly at random (without replacement over
    pairs); the constraint kind is read off the ground truth.  This is the
    classic generation scheme of Wagstaff et al. (2001) and is provided as
    an alternative to the paper's pool-based scheme.
    """
    labels = check_labels(labels)
    rng = check_random_state(random_state)
    n_samples = labels.shape[0]
    max_pairs = n_samples * (n_samples - 1) // 2
    if n_constraints > max_pairs:
        raise ValueError(
            f"cannot draw {n_constraints} distinct pairs from {n_samples} objects "
            f"(only {max_pairs} pairs exist)"
        )

    constraints = ConstraintSet()
    seen: set[tuple[int, int]] = set()
    while len(constraints) < n_constraints:
        i, j = rng.choice(n_samples, size=2, replace=False)
        pair = (int(min(i, j)), int(max(i, j)))
        if pair in seen:
            continue
        seen.add(pair)
        kind = MUST_LINK if labels[pair[0]] == labels[pair[1]] else CANNOT_LINK
        constraints.add(Constraint(pair[0], pair[1], kind))
    return constraints
