"""Pluggable constraint oracles: the supervision source as a first-class axis.

The paper's experimental setup (Section 4.1) assumes an *idealised* oracle:
ground-truth pairs are sampled, transitively closed, and handed to CVCP
verbatim.  Real supervision is rarely that clean — annotators make
mistakes, querying them costs money, and a smart client asks the most
informative questions first.  This module turns the supervision source into
a pluggable axis so every experiment in the repository can run under any of
these regimes:

* ``PerfectOracle`` — the paper's setup, bit-for-bit compatible with the
  pre-oracle constraint generation for a fixed seed;
* ``NoisyOracle`` — every answer is flipped with a per-query probability,
  optionally followed by a closure-consistency repair;
* ``BudgetedOracle`` — a hard query budget spent in one of three
  acquisition orderings (``random``, ``farthest_first``, ``min_max``);
* ``ActiveOracle`` — uncertainty-driven acquisition that spends its budget
  on the pairs the current cross-validation folds disagree about most.

Oracles are small frozen dataclasses: picklable (they travel through the
process execution backend), hashable, and serialisable to a JSON ``spec``
dict that the artifact store folds into every trial key — changing any
oracle parameter therefore invalidates exactly the cached trials it
affects and nothing else.

Registry
--------
Implementations register under a short name (``"perfect"``, ``"noisy"``,
``"budgeted"``, ``"active"``); ``make_oracle(name, **params)`` instantiates
by name (this is what the pipeline ``[oracle]`` config table drives) and
``oracle_from_spec`` round-trips the ``spec()`` dict.

Examples
--------
>>> from repro.constraints.oracles import NoisyOracle, make_oracle
>>> import numpy as np
>>> y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
>>> oracle = NoisyOracle(flip_probability=0.2, repair=True)
>>> constraints = oracle.pairwise_constraints(y, 0.5, random_state=0)
>>> oracle.spec() == make_oracle(**oracle.spec()).spec()
True
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from repro.constraints.closure import _must_link_roots
from repro.constraints.constraint import CANNOT_LINK, MUST_LINK, Constraint, ConstraintSet
from repro.constraints.generation import (
    build_constraint_pool,
    constraint_pool_size,
    random_constraints,
    sample_constraint_subset,
    sample_labeled_objects,
)
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_labels

#: Acquisition orderings understood by ``BudgetedOracle``.
ORDERINGS: tuple[str, ...] = ("random", "farthest_first", "min_max")

#: Scenario names an oracle can serve (mirrors the experiment drivers).
ORACLE_SCENARIOS: tuple[str, ...] = ("labels", "constraints")

_REGISTRY: dict[str, type["ConstraintOracle"]] = {}


def register_oracle(cls: type["ConstraintOracle"]) -> type["ConstraintOracle"]:
    """Class decorator adding an oracle implementation to the registry.

    The class must define a non-empty ``name`` class attribute; registering
    two classes under the same name raises ``ValueError`` (a typo guard).
    """
    if not getattr(cls, "name", ""):
        raise ValueError(f"oracle class {cls.__name__} must define a non-empty name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"oracle name {cls.name!r} already registered by {existing.__name__}")
    _REGISTRY[cls.name] = cls
    return cls


def oracle_names() -> tuple[str, ...]:
    """The registered oracle names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_oracle(name: str, **params) -> "ConstraintOracle":
    """Instantiate a registered oracle by name.

    Unknown names and unknown/invalid parameters raise ``ValueError`` with a
    message suitable for surfacing through config validation.
    """
    if name not in _REGISTRY:
        raise ValueError(f"unknown oracle {name!r}; available: {', '.join(oracle_names())}")
    cls = _REGISTRY[name]
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for oracle {name!r}: {', '.join(unknown)} "
            f"(expected {', '.join(sorted(known)) or 'no parameters'})"
        )
    return cls(**params)


def oracle_from_spec(spec: dict) -> "ConstraintOracle":
    """Rebuild an oracle from the dict returned by ``ConstraintOracle.spec``."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError(f"an oracle spec is a dict with a 'name' key, got {spec!r}")
    params = {key: value for key, value in spec.items() if key != "name"}
    return make_oracle(spec["name"], **params)


@dataclass(frozen=True)
class ConstraintOracle(ABC):
    """A supervision source answering queries against a hidden ground truth.

    Subclasses implement the two scenario entry points; both receive the
    ground-truth labels ``y`` (the oracle's hidden knowledge), the amount of
    side information requested, a seed or generator, and optionally the data
    matrix ``X`` (required by the distance-guided acquisition orderings).

    Determinism contract: given the same arguments and seed, an oracle must
    return the same side information regardless of platform, execution
    backend, or call history — the experiment drivers rely on this to keep
    cached artifacts and parallel backends bit-identical.
    """

    #: Registry key of the implementation (class attribute, not a field).
    name: ClassVar[str] = ""

    def spec(self) -> dict:
        """JSON-serialisable description: ``{"name": ..., **parameters}``.

        The dict round-trips through ``oracle_from_spec`` and is folded into
        every artifact-store key, so two oracles with equal specs must
        answer queries identically.
        """
        payload = {"name": self.name}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float):
                value = float(value)
            elif isinstance(value, (bool, int, str)) or value is None:
                pass
            else:  # pragma: no cover - subclasses keep fields scalar
                raise TypeError(f"oracle field {field.name!r} is not JSON-scalar: {value!r}")
            payload[field.name] = value
        return payload

    def to_spec(self) -> dict:
        """The shared spec protocol (see :mod:`repro.utils.specs`).

        Identical to :meth:`spec`; the alias exists so oracles satisfy the
        same ``to_spec``/``from_spec`` contract as the pipeline tables.
        """
        return self.spec()

    @classmethod
    def from_spec(cls, spec: dict) -> "ConstraintOracle":
        """Rebuild an oracle from a spec mapping, with protocol-typed errors.

        Wraps :func:`oracle_from_spec`; invalid mappings raise
        :class:`~repro.utils.specs.SpecError` (a ``ValueError`` subclass,
        so pre-protocol ``except ValueError`` call sites keep working).
        When called on a concrete subclass, the spec must name that
        subclass's oracle.
        """
        from repro.utils.specs import SpecError

        try:
            oracle = oracle_from_spec(dict(spec) if isinstance(spec, dict) else spec)
        except (ValueError, TypeError) as exc:
            raise SpecError("oracle", [str(exc)]) from exc
        if cls is not ConstraintOracle and not isinstance(oracle, cls):
            raise SpecError(
                "oracle",
                [f"spec names oracle {oracle.name!r}, not a {cls.__name__}"],
            )
        return oracle

    @abstractmethod
    def labeled_objects(
        self,
        y: Sequence[int] | np.ndarray,
        fraction: float,
        *,
        random_state: RandomStateLike = None,
        X: np.ndarray | None = None,
    ) -> dict[int, int]:
        """Scenario I: reveal (the oracle's view of) some objects' labels.

        Returns a mapping ``{object_index: class_label}``.
        """

    @abstractmethod
    def pairwise_constraints(
        self,
        y: Sequence[int] | np.ndarray,
        amount: float,
        *,
        random_state: RandomStateLike = None,
        X: np.ndarray | None = None,
    ) -> ConstraintSet:
        """Scenario II: answer pairwise must-link/cannot-link queries."""

    def side_information(
        self,
        y: Sequence[int] | np.ndarray,
        scenario: str,
        amount: float,
        *,
        random_state: RandomStateLike = None,
        X: np.ndarray | None = None,
    ) -> tuple[dict[int, int], ConstraintSet]:
        """Dispatch on the scenario name; returns ``(labels, constraints)``.

        Exactly one element of the pair is populated: ``labels`` for the
        label scenario, ``constraints`` for the constraint scenario.
        """
        if scenario == "labels":
            return self.labeled_objects(y, amount, random_state=random_state, X=X), ConstraintSet()
        if scenario == "constraints":
            return {}, self.pairwise_constraints(y, amount, random_state=random_state, X=X)
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {ORACLE_SCENARIOS}")


@register_oracle
@dataclass(frozen=True)
class PerfectOracle(ConstraintOracle):
    """The paper's idealised oracle (Section 4.1) — never wrong, never tired.

    Label scenario: reveal a uniform random fraction of the objects with
    their true labels.  Constraint scenario: build the candidate pool from
    ``pool_fraction_per_class`` of each class, generate all pairwise
    constraints between the selected objects, and hand over a uniform random
    ``amount`` of that pool.

    For a fixed seed this reproduces the pre-oracle constraint generation
    bit-for-bit: the implementation calls the same
    ``repro.constraints.generation`` primitives in the same order with the
    same generator, so the random stream is untouched.

    Parameters
    ----------
    pool_fraction_per_class:
        Fraction of each class selected into the constraint pool
        (the paper uses 10%).
    """

    name: ClassVar[str] = "perfect"

    pool_fraction_per_class: float = 0.10

    def __post_init__(self) -> None:
        if not 0 < self.pool_fraction_per_class <= 1:
            raise ValueError(
                f"pool_fraction_per_class must be in (0, 1], got {self.pool_fraction_per_class!r}"
            )

    def labeled_objects(self, y, fraction, *, random_state=None, X=None) -> dict[int, int]:
        """Reveal a uniform random fraction of the objects with true labels."""
        return sample_labeled_objects(y, fraction, random_state=random_state)

    def pairwise_constraints(self, y, amount, *, random_state=None, X=None) -> ConstraintSet:
        """Sample ``amount`` of the paper-style constraint pool, truthfully."""
        rng = check_random_state(random_state)
        pool = build_constraint_pool(
            y, fraction_per_class=self.pool_fraction_per_class, random_state=rng
        )
        return sample_constraint_subset(pool, amount, random_state=rng)


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
    objects, roots = _must_link_roots(constraints)
    i, j, kind = constraints.as_arrays()
    same_component = roots[np.searchsorted(objects, i)] == roots[np.searchsorted(objects, j)]
    keep = ~((kind == CANNOT_LINK) & same_component)
    return ConstraintSet._of(i[keep], j[keep], kind[keep])


@register_oracle
@dataclass(frozen=True)
class NoisyOracle(ConstraintOracle):
    """A fallible annotator: every answer is flipped with a fixed probability.

    The oracle first produces the perfect side information (consuming the
    random stream exactly like ``PerfectOracle``, so a flip probability of 0
    returns identical answers), then corrupts it query by query:

    * constraint scenario — each constraint's kind is flipped
      (must-link ↔ cannot-link) with probability ``flip_probability``;
    * label scenario — each revealed object's label is replaced with a
      uniformly chosen *different* class with probability
      ``flip_probability``.

    With ``repair=True`` the flipped constraint set is passed through
    ``repair_closure_consistency``, which drops the cannot-links that
    contradict the must-link components — modelling a annotation UI that
    refuses logically impossible answers.  Without repair the inconsistent
    set is returned as-is; the CVCP fold construction tolerates it (its
    closures run in non-strict mode) and the noise shows up as a harder
    constraint-classification problem, which is exactly what the
    noise-robustness experiment measures.

    Parameters
    ----------
    flip_probability:
        Per-query corruption probability in ``[0, 1]``.
    repair:
        Whether to re-establish closure consistency after flipping.
    pool_fraction_per_class:
        Pool construction parameter, as in ``PerfectOracle``.
    """

    name: ClassVar[str] = "noisy"

    flip_probability: float = 0.1
    repair: bool = False
    pool_fraction_per_class: float = 0.10

    def __post_init__(self) -> None:
        if not 0 <= self.flip_probability <= 1:
            raise ValueError(f"flip_probability must be in [0, 1], got {self.flip_probability!r}")
        if not 0 < self.pool_fraction_per_class <= 1:
            raise ValueError(
                f"pool_fraction_per_class must be in (0, 1], got {self.pool_fraction_per_class!r}"
            )

    def labeled_objects(self, y, fraction, *, random_state=None, X=None) -> dict[int, int]:
        """Reveal labels, each flipped to a random other class w.p. ``flip_probability``."""
        y = check_labels(y)
        rng = check_random_state(random_state)
        revealed = sample_labeled_objects(y, fraction, random_state=rng)
        classes = [int(cls) for cls in np.unique(y)]
        if len(classes) < 2:
            return revealed
        noisy: dict[int, int] = {}
        for index in sorted(revealed):
            label = revealed[index]
            # Both draws happen for every object regardless of the outcome,
            # so the stream advances identically at every flip probability —
            # that is what keeps noise-robustness sweeps paired per trial.
            flip = rng.random() < self.flip_probability
            alternative = int(rng.integers(0, len(classes) - 1))
            if flip:
                label = int([cls for cls in classes if cls != label][alternative])
            noisy[index] = label
        return noisy

    def pairwise_constraints(self, y, amount, *, random_state=None, X=None) -> ConstraintSet:
        """Perfect pool sampling, then per-constraint kind flips (and optional repair)."""
        rng = check_random_state(random_state)
        pool = build_constraint_pool(
            y, fraction_per_class=self.pool_fraction_per_class, random_state=rng
        )
        subset = sample_constraint_subset(pool, amount, random_state=rng)
        flipped = ConstraintSet()
        for constraint in sorted(subset):
            kind = constraint.kind
            if rng.random() < self.flip_probability:
                kind = CANNOT_LINK if kind == MUST_LINK else MUST_LINK
            flipped.add(Constraint(constraint.i, constraint.j, kind))
        if self.repair:
            return repair_closure_consistency(flipped)
        return flipped


def _pairwise_distances_to(X: np.ndarray, index: int) -> np.ndarray:
    """Euclidean distances from object ``index`` to every object."""
    return np.linalg.norm(X - X[index], axis=1)


def _traversal_order(X: np.ndarray, rng: np.random.Generator, *, farthest: bool) -> list[int]:
    """Deterministic object ordering by greedy distance traversal.

    ``farthest=True`` is the classic farthest-first traversal (each step
    picks the object maximising the minimum distance to the selected set —
    an exploration order that spreads queries across clusters).
    ``farthest=False`` is its complement, the *min-max* order: each step
    picks the object minimising the maximum distance to the selected set,
    keeping queries inside dense regions where cluster boundaries are
    genuinely ambiguous.  The start object is the one farthest from
    (respectively nearest to) the data mean; all ties break towards the
    lower index, so the order is fully deterministic given ``X``.
    """
    n_samples = X.shape[0]
    from_mean = np.linalg.norm(X - X.mean(axis=0), axis=1)
    start = int(np.argmax(from_mean) if farthest else np.argmin(from_mean))
    order = [start]
    # Distance from every object to the selected set: min for farthest-first
    # exploration, max for the min-max densification order.
    to_selected = _pairwise_distances_to(X, start)
    remaining = np.ones(n_samples, dtype=bool)
    remaining[start] = False
    while remaining.any():
        candidates = np.flatnonzero(remaining)
        scores = to_selected[candidates]
        position = int(np.argmax(scores) if farthest else np.argmin(scores))
        chosen = int(candidates[position])
        order.append(chosen)
        remaining[chosen] = False
        distances = _pairwise_distances_to(X, chosen)
        to_selected = (
            np.minimum(to_selected, distances) if farthest else np.maximum(to_selected, distances)
        )
    return order


def _truth_kind(y: np.ndarray, i: int, j: int) -> int:
    return MUST_LINK if y[i] == y[j] else CANNOT_LINK


@register_oracle
@dataclass(frozen=True)
class BudgetedOracle(ConstraintOracle):
    """An oracle that answers at most ``budget`` queries, then goes home.

    Budget-constrained acquisition mirrors how annotation actually gets
    bought: a fixed number of questions, spent according to a strategy (in
    the spirit of budget-aware search strategies such as "Zoom, Don't
    Wander").  Three orderings are provided:

    * ``random`` — uniformly random distinct pairs (the Wagstaff et al.
      baseline), truncated at the budget;
    * ``farthest_first`` — objects are visited in farthest-first traversal
      order and each new object is queried against the already-visited ones;
      spreads the budget across the space so every cluster is touched;
    * ``min_max`` — the complementary dense-region order (each step visits
      the object minimising the maximum distance to the visited set);
      concentrates the budget where boundaries are ambiguous.

    The distance-guided orderings require the data matrix ``X``.  Answers
    themselves are always truthful; combine with ``NoisyOracle`` semantics
    by post-processing if both axes are needed.

    In the label scenario the ordering picks *which objects* are revealed
    (at most ``budget`` of them).  In both scenarios the requested
    ``amount`` still applies first; the budget is a hard cap on top.

    Parameters
    ----------
    budget:
        Maximum number of answered queries (revealed objects in the label
        scenario, constraints in the constraint scenario).
    ordering:
        One of ``"random"``, ``"farthest_first"``, ``"min_max"``.
    pool_fraction_per_class:
        Pool construction parameter for sizing the constraint request,
        as in ``PerfectOracle``.
    """

    name: ClassVar[str] = "budgeted"

    budget: int = 100
    ordering: str = "random"
    pool_fraction_per_class: float = 0.10

    def __post_init__(self) -> None:
        if isinstance(self.budget, bool) or not isinstance(self.budget, int) or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {', '.join(ORDERINGS)}, got {self.ordering!r}")
        if not 0 < self.pool_fraction_per_class <= 1:
            raise ValueError(
                f"pool_fraction_per_class must be in (0, 1], got {self.pool_fraction_per_class!r}"
            )

    def _require_X(self, X: np.ndarray | None) -> np.ndarray:
        if X is None:
            raise ValueError(
                f"the {self.ordering!r} ordering is distance-guided and needs the data matrix X"
            )
        return np.asarray(X, dtype=np.float64)

    def labeled_objects(self, y, fraction, *, random_state=None, X=None) -> dict[int, int]:
        """Reveal at most ``budget`` objects, picked in the acquisition order."""
        y = check_labels(y)
        rng = check_random_state(random_state)
        n_samples = y.shape[0]
        n_reveal = min(max(int(round(fraction * n_samples)), 2), n_samples, self.budget)
        if self.ordering == "random":
            chosen = [int(index) for index in rng.choice(n_samples, size=n_reveal, replace=False)]
        else:
            order = _traversal_order(self._require_X(X), rng, farthest=self.ordering == "farthest_first")
            chosen = order[:n_reveal]
        return {int(index): int(y[index]) for index in chosen}

    def pairwise_constraints(self, y, amount, *, random_state=None, X=None) -> ConstraintSet:
        """Answer at most ``budget`` truthful queries in the acquisition order."""
        y = check_labels(y)
        rng = check_random_state(random_state)
        n_samples = y.shape[0]
        max_pairs = n_samples * (n_samples - 1) // 2
        # Size the request like the perfect oracle sizes its pool subset,
        # then cap it at the query budget (and at the number of pairs).
        pool_size = constraint_pool_size(y, fraction_per_class=self.pool_fraction_per_class)
        requested = max(int(round(amount * pool_size)), 2)
        n_queries = min(requested, self.budget, max_pairs)
        if self.ordering == "random":
            return random_constraints(y, n_queries, random_state=rng)
        order = _traversal_order(self._require_X(X), rng, farthest=self.ordering == "farthest_first")
        constraints = ConstraintSet()
        for position in range(1, len(order)):
            new = order[position]
            for previous in order[:position]:
                constraints.add(Constraint(previous, new, _truth_kind(y, previous, new)))
                if len(constraints) >= n_queries:
                    return constraints
        return constraints


@register_oracle
@dataclass(frozen=True)
class ActiveOracle(ConstraintOracle):
    """Uncertainty-driven acquisition guided by fold-level disagreement.

    The oracle spends its budget in rounds.  It seeds itself with a small
    random batch of truthful constraints, then repeatedly:

    1. builds constraint-scenario cross-validation folds over everything
       acquired so far (``repro.core.folds.constraint_scenario_folds`` —
       the same machinery CVCP evaluates with);
    2. scores a sample of candidate pairs by *fold disagreement*: for each
       fold, the relation the fold's training closure implies for the pair
       (must-link, cannot-link, or unknown); the score counts the folds
       that deviate from the majority answer, so pairs the folds cannot
       agree on score highest;
    3. queries the ``batch_size`` most uncertain pairs and adds the
       truthful answers to the acquired set.

    Acquisition stops when the budget is exhausted.  The label scenario has
    no fold-disagreement analogue, so there the oracle degrades to a
    budget-capped uniform reveal.

    Parameters
    ----------
    budget:
        Total number of answered pairwise queries.
    batch_size:
        Queries issued per acquisition round.
    disagreement_folds:
        Fold count used when measuring disagreement.
    candidate_factor:
        Candidate pairs sampled per round, as a multiple of ``batch_size``.
    """

    name: ClassVar[str] = "active"

    budget: int = 100
    batch_size: int = 10
    disagreement_folds: int = 4
    candidate_factor: int = 8

    def __post_init__(self) -> None:
        for field_name in ("budget", "batch_size", "disagreement_folds", "candidate_factor"):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{field_name} must be a positive integer, got {value!r}")
        if self.disagreement_folds < 2:
            raise ValueError(f"disagreement_folds must be >= 2, got {self.disagreement_folds!r}")

    def labeled_objects(self, y, fraction, *, random_state=None, X=None) -> dict[int, int]:
        """Budget-capped uniform reveal (no fold-disagreement analogue for labels)."""
        y = check_labels(y)
        rng = check_random_state(random_state)
        n_samples = y.shape[0]
        n_reveal = min(max(int(round(fraction * n_samples)), 2), n_samples, self.budget)
        chosen = rng.choice(n_samples, size=n_reveal, replace=False)
        return {int(index): int(y[index]) for index in chosen}

    def pairwise_constraints(self, y, amount, *, random_state=None, X=None) -> ConstraintSet:
        """Acquire constraints in rounds, querying the most fold-contested pairs."""
        # Imported here: core.folds already depends on repro.constraints, so
        # a module-level import would be circular.
        from repro.core.folds import constraint_scenario_folds

        y = check_labels(y)
        rng = check_random_state(random_state)
        n_samples = y.shape[0]
        max_pairs = n_samples * (n_samples - 1) // 2
        pool_size = constraint_pool_size(y, fraction_per_class=0.10)
        requested = max(int(round(amount * pool_size)), 2)
        n_queries = min(requested, self.budget, max_pairs)

        seed_size = min(max(self.batch_size, 2), n_queries)
        acquired = random_constraints(y, seed_size, random_state=rng)
        answered = {constraint.pair for constraint in acquired}

        while len(acquired) < n_queries:
            folds = constraint_scenario_folds(
                acquired, self.disagreement_folds, random_state=rng
            )
            closures = [fold.training_constraints for fold in folds]
            batch = min(self.batch_size, n_queries - len(acquired))
            candidates = self._sample_candidates(rng, n_samples, answered, batch)
            if not candidates:
                break
            scored = sorted(
                candidates,
                key=lambda pair: (-_fold_disagreement(closures, pair), pair),
            )
            for i, j in scored[:batch]:
                acquired.add(Constraint(i, j, _truth_kind(y, i, j)))
                answered.add((i, j))
        return acquired

    def _sample_candidates(
        self,
        rng: np.random.Generator,
        n_samples: int,
        answered: set[tuple[int, int]],
        batch: int,
    ) -> list[tuple[int, int]]:
        """Random unanswered pairs to score this round (deterministic order)."""
        wanted = self.candidate_factor * batch
        max_pairs = n_samples * (n_samples - 1) // 2
        candidates: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        attempts = 0
        while len(candidates) < wanted and attempts < 20 * wanted:
            attempts += 1
            i, j = rng.choice(n_samples, size=2, replace=False)
            pair = (int(min(i, j)), int(max(i, j)))
            if pair in answered or pair in seen:
                if len(answered) + len(seen) >= max_pairs:
                    break
                continue
            seen.add(pair)
            candidates.append(pair)
        return candidates


def _fold_disagreement(closures: list[ConstraintSet], pair: tuple[int, int]) -> int:
    """How many folds deviate from the majority answer about ``pair``.

    Each fold answers must-link, cannot-link, or unknown (the pair is not in
    the fold's training closure).  A pair every fold agrees on scores 0; the
    score grows with the number of dissenting folds, so maximally contested
    pairs are queried first.
    """
    answers = [closure.kind_of(pair[0], pair[1]) for closure in closures]
    counts: dict[object, int] = {}
    for answer in answers:
        counts[answer] = counts.get(answer, 0) + 1
    return len(answers) - max(counts.values())
