"""The array-native constraint layer against the dict-backed oracle.

Every public operation of ``repro.constraints`` that builds, closes,
subsets or reads a :class:`ConstraintSet` must give exactly what the
original implementation (vendored in ``constraint_oracle``) gives: the
same ``(i, j, kind)`` sequence, not merely the same set, because
MPCK-Means sums floats in pair order and constraint sampling picks by
position.  Failures must raise the same error type.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import constraint_oracle as oracle
from repro.clustering.fosc import FOSC, cached_tree_structure
from repro.clustering.mpckmeans import MPCKMeans
from repro.constraints import (
    CANNOT_LINK,
    MUST_LINK,
    Constraint,
    ConstraintSet,
    constraints_from_labels,
    is_consistent,
    must_link_components,
    repair_closure_consistency,
    sample_constraint_subset,
    transitive_closure,
)
from repro.constraints.closure import closure_of_labels, closure_size, derived_constraints
from repro.datasets import make_blobs
from repro.evaluation.confusion import constraint_confusion

EXAMPLES = settings(max_examples=150, deadline=None)

#: Rows ``(i, j, kind)``: the raw input both implementations receive.
Rows = list[tuple[int, int, int]]


def rows(constraints) -> Rows:
    """The exact ``(i, j, kind)`` sequence a set iterates in."""
    return [(c.i, c.j, c.kind) for c in constraints]


def outcome(function, *args, **kwargs):
    """``("ok", value)`` or ``("error", exception type)`` of one call."""
    try:
        return "ok", function(*args, **kwargs)
    except (ValueError, KeyError, IndexError) as error:
        return "error", type(error)


def assert_same(new, old) -> None:
    """Equal outcomes; sets compare as exact sequences."""
    if new[0] == "ok" and old[0] == "ok":
        value_new, value_old = new[1], old[1]
        if isinstance(value_new, ConstraintSet):
            assert rows(value_new) == rows(value_old)
        else:
            assert value_new == value_old
    else:
        assert new == old


@st.composite
def raw_rows(draw, max_objects: int = 14, max_size: int = 40) -> Rows:
    """Random rows: duplicates, flipped orientation and conflicting kinds included."""
    n_objects = draw(st.integers(2, max_objects))
    objects = st.integers(0, n_objects - 1)
    drawn = draw(
        st.lists(st.tuples(objects, objects, st.sampled_from([MUST_LINK, CANNOT_LINK])),
                 max_size=max_size)
    )
    result = [(a, b, kind) for a, b, kind in drawn if a != b]
    if result and draw(st.booleans()):
        # Repeat some rows verbatim (or flipped) to exercise de-duplication.
        repeats = draw(st.lists(st.sampled_from(result), max_size=6))
        result += [(b, a, kind) if draw(st.booleans()) else (a, b, kind)
                   for a, b, kind in repeats]
    return result


@st.composite
def labellings(draw, max_objects: int = 40, max_classes: int = 4) -> dict[int, int]:
    """A partial labelling, large components (few classes, many objects) included."""
    objects = draw(st.lists(st.integers(0, 120), max_size=max_objects, unique=True))
    n_classes = draw(st.integers(1, max_classes))
    return {index: draw(st.integers(0, n_classes - 1)) for index in objects}


@st.composite
def mixed_rows(draw) -> Rows:
    """Label-derived cliques (large components) plus random explicit rows."""
    labelled = rows(oracle.constraints_from_labels(draw(labellings(max_objects=25))))
    kept = draw(st.lists(st.booleans(), min_size=len(labelled), max_size=len(labelled)))
    base = [row for row, keep in zip(labelled, kept) if keep]
    if draw(st.booleans()):
        base = list(reversed(base))
    return base + draw(raw_rows(max_objects=30, max_size=15))


any_rows = st.one_of(raw_rows(), mixed_rows())


def build_both(raw: Rows):
    """The same rows added in order to a new and an oracle set."""
    constraints = [Constraint(a, b, kind) for a, b, kind in raw]
    return outcome(ConstraintSet, constraints), outcome(oracle.ConstraintSet, constraints)


def both_sets(raw: Rows):
    """Both sets built from ``raw``, or ``None`` when construction must fail."""
    new, old = build_both(raw)
    assert_same(new, old)
    return (new[1], old[1]) if new[0] == "ok" else None


class TestConstruction:
    @EXAMPLES
    @given(any_rows)
    def test_constructor_update_add_and_from_arrays(self, raw):
        assert_same(*build_both(raw))

        def add_each(cls):
            result = cls()
            for a, b, kind in raw:
                result.add(Constraint(a, b, kind))
            return result

        assert_same(outcome(add_each, ConstraintSet), outcome(add_each, oracle.ConstraintSet))
        must = [(a, b) for a, b, kind in raw if kind == MUST_LINK]
        cannot = [(a, b) for a, b, kind in raw if kind == CANNOT_LINK]
        assert_same(
            outcome(ConstraintSet.from_arrays, must, cannot),
            outcome(oracle.ConstraintSet.from_arrays, must, cannot),
        )

    @EXAMPLES
    @given(labellings(), st.booleans())
    def test_constraints_from_labels(self, labelling, as_pairs):
        source = list(labelling.items()) if as_pairs else labelling
        new, old = constraints_from_labels(source), oracle.constraints_from_labels(source)
        assert rows(new) == rows(old)
        assert rows(transitive_closure(new)) == rows(oracle.transitive_closure(old))
        closed = closure_of_labels(labelling)
        assert closed.is_closed
        assert rows(transitive_closure(closed)) == rows(oracle.closure_of_labels(labelling))


class TestClosure:
    @EXAMPLES
    @given(any_rows, st.booleans())
    def test_transitive_closure_sequence_and_errors(self, raw, strict):
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        expected = outcome(oracle.transitive_closure, old, strict=strict)
        assert_same(outcome(transitive_closure, new, strict=strict), expected)
        # The memoised second call, and a re-close of the result, agree too.
        assert_same(outcome(transitive_closure, new, strict=strict), expected)
        if expected[0] == "ok":
            assert_same(
                outcome(transitive_closure, transitive_closure(new, strict=strict)),
                outcome(oracle.transitive_closure, expected[1]),
            )

    @EXAMPLES
    @given(any_rows)
    def test_component_queries(self, raw):
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        assert_same(outcome(closure_size, new), outcome(oracle.closure_size, old))
        assert_same(outcome(derived_constraints, new), outcome(oracle.derived_constraints, old))
        assert must_link_components(new) == oracle.must_link_components(old)
        assert is_consistent(new) == oracle.is_consistent(old)
        assert rows(repair_closure_consistency(new)) == rows(
            oracle.repair_closure_consistency(old)
        )
        assert rows(sorted(new)) == rows(sorted(old))


class TestSubsetsAndMaps:
    @EXAMPLES
    @given(any_rows, st.data())
    def test_restrict_without_remap(self, raw, data):
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        universe = st.integers(0, 35)
        objects = data.draw(st.lists(universe, max_size=20))
        assert rows(new.restricted_to(objects)) == rows(old.restricted_to(objects))
        assert rows(new.restricted_to(set(objects))) == rows(old.restricted_to(set(objects)))
        assert rows(new.without_objects(objects)) == rows(old.without_objects(objects))
        # Targets drawn from a small range so that remapping can collapse
        # a pair onto one object or two pairs onto one conflicting pair.
        index_map = data.draw(st.dictionaries(universe, st.integers(0, 8), max_size=20))
        assert_same(outcome(new.remap, index_map), outcome(old.remap, index_map))

    @EXAMPLES
    @given(any_rows, any_rows)
    def test_merged_with(self, first, second):
        sets_a, sets_b = both_sets(first), both_sets(second)
        if sets_a is None or sets_b is None:
            return
        (new_a, old_a), (new_b, old_b) = sets_a, sets_b
        merged = outcome(new_a.merged_with, new_b)
        assert_same(merged, outcome(old_a.merged_with, old_b))
        if merged[0] == "ok":
            assert rows(transitive_closure(merged[1], strict=False)) == rows(
                oracle.transitive_closure(old_a.merged_with(old_b), strict=False)
            )

    @EXAMPLES
    @given(any_rows, st.floats(0.05, 1.0), st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_sample_constraint_subset_picks(self, raw, fraction, seed, minimum):
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        picked = sample_constraint_subset(new, fraction, random_state=seed, min_constraints=minimum)
        expected = oracle.sample_constraint_subset(
            old, fraction, random_state=seed, min_constraints=minimum
        )
        assert rows(picked) == rows(expected)

    @EXAMPLES
    @given(any_rows, st.data())
    def test_constraint_confusion_counts(self, raw, data):
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        n_objects = max((max(a, b) for a, b, _ in raw), default=0) + 1
        labels = np.array(
            data.draw(st.lists(st.integers(-1, 3), min_size=n_objects, max_size=n_objects))
        )
        counts = constraint_confusion(labels, new)
        assert (counts.tp, counts.fn, counts.tn, counts.fp) == oracle.constraint_confusion(
            labels, old
        )
        assert new.satisfied_by(labels) == old.satisfied_by(labels)


def _oracle_closed(constraints, *, strict=True) -> ConstraintSet:
    """The oracle's closure of ``constraints``, in its order, as a library set."""
    closure = oracle.transitive_closure(oracle.ConstraintSet(constraints), strict=strict)
    return ConstraintSet(closure)


@st.composite
def clustering_inputs(draw):
    """A small three-blob data set and random constraints over its objects."""
    X = make_blobs([12, 12, 12], 2, center_spread=draw(st.sampled_from([2.0, 6.0])),
                   random_state=draw(st.integers(0, 50))).X
    raw = draw(st.one_of(raw_rows(max_objects=36, max_size=30), mixed_rows()))
    return X, [row for row in raw if max(row[:2]) < X.shape[0]]


class TestDownstreamBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(clustering_inputs())
    def test_fosc_extract(self, inputs):
        X, raw = inputs
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        tree = cached_tree_structure(X, 4).condensed_tree
        ours = FOSC().extract(tree, transitive_closure(new, strict=False))
        theirs = FOSC().extract(tree, _oracle_closed(old, strict=False))
        assert ours.selected_clusters == theirs.selected_clusters
        assert np.array_equal(ours.labels, theirs.labels)
        assert ours.objective == theirs.objective

    @settings(max_examples=25, deadline=None)
    @given(clustering_inputs())
    def test_mpckmeans_fit(self, inputs):
        X, raw = inputs
        sets = both_sets(raw)
        if sets is None:
            return
        new, old = sets
        ours = MPCKMeans(n_clusters=3, random_state=0).fit(X, constraints=new)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.clustering.mpckmeans.transitive_closure", _oracle_closed)
            theirs = MPCKMeans(n_clusters=3, random_state=0).fit(X, constraints=old)
        assert np.array_equal(ours.labels_, theirs.labels_)
        assert ours.objective_ == theirs.objective_
        assert np.array_equal(ours.metric_weights_, theirs.metric_weights_)
