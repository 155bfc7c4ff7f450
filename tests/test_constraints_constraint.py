"""Unit tests for the Constraint value type and ConstraintSet container."""

import numpy as np
import pytest

from repro.constraints import (
    CANNOT_LINK,
    MUST_LINK,
    Constraint,
    ConstraintSet,
    cannot_link,
    must_link,
)


class TestConstraint:
    def test_normalises_index_order(self):
        constraint = Constraint(5, 2, MUST_LINK)
        assert constraint.pair == (2, 5)
        assert constraint.i == 2 and constraint.j == 5

    def test_equality_is_order_independent(self):
        assert must_link(1, 2) == must_link(2, 1)
        assert cannot_link(3, 7) == Constraint(7, 3, CANNOT_LINK)

    def test_rejects_self_constraint(self):
        with pytest.raises(ValueError):
            Constraint(4, 4, MUST_LINK)

    def test_rejects_invalid_kind(self):
        with pytest.raises(ValueError):
            Constraint(0, 1, 2)

    def test_kind_predicates(self):
        assert must_link(0, 1).is_must_link
        assert not must_link(0, 1).is_cannot_link
        assert cannot_link(0, 1).is_cannot_link

    def test_involves_and_other(self):
        constraint = must_link(3, 9)
        assert constraint.involves(3) and constraint.involves(9)
        assert not constraint.involves(4)
        assert constraint.other(3) == 9
        assert constraint.other(9) == 3
        with pytest.raises(ValueError):
            constraint.other(1)

    def test_hashable_and_usable_in_sets(self):
        pairs = {must_link(1, 2), must_link(2, 1), cannot_link(1, 2)}
        assert len(pairs) == 2


class TestConstraintSet:
    def test_empty_set(self):
        constraints = ConstraintSet()
        assert len(constraints) == 0
        assert constraints.involved_objects() == []
        assert constraints.must_link_array().shape == (0, 2)

    def test_deduplicates(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(1, 0)])
        assert len(constraints) == 1

    def test_conflicting_constraint_rejected(self):
        constraints = ConstraintSet([must_link(0, 1)])
        with pytest.raises(ValueError, match="conflicting"):
            constraints.add(cannot_link(0, 1))

    def test_from_arrays_and_counts(self):
        constraints = ConstraintSet.from_arrays(
            must_links=[(0, 1), (2, 3)], cannot_links=[(1, 2)]
        )
        assert constraints.n_must_link == 2
        assert constraints.n_cannot_link == 1
        assert set(constraints.involved_objects()) == {0, 1, 2, 3}

    def test_kind_of(self):
        constraints = ConstraintSet([must_link(0, 1), cannot_link(2, 5)])
        assert constraints.kind_of(1, 0) == MUST_LINK
        assert constraints.kind_of(5, 2) == CANNOT_LINK
        assert constraints.kind_of(0, 2) is None
        assert constraints.kind_of(3, 3) is None

    def test_contains_respects_kind(self):
        constraints = ConstraintSet([must_link(0, 1)])
        assert must_link(0, 1) in constraints
        assert cannot_link(0, 1) not in constraints

    def test_discard(self):
        constraints = ConstraintSet([must_link(0, 1), cannot_link(1, 2)])
        constraints.discard(must_link(0, 1))
        assert len(constraints) == 1
        # Discarding with the wrong kind is a no-op.
        constraints.discard(must_link(1, 2))
        assert len(constraints) == 1

    def test_restricted_to(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(2, 3), cannot_link(1, 2)])
        restricted = constraints.restricted_to([0, 1, 2])
        assert must_link(0, 1) in restricted
        assert cannot_link(1, 2) in restricted
        assert must_link(2, 3) not in restricted

    def test_without_objects(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(2, 3), cannot_link(1, 2)])
        filtered = constraints.without_objects([1])
        assert len(filtered) == 1
        assert must_link(2, 3) in filtered

    def test_remap(self):
        constraints = ConstraintSet([must_link(10, 20), cannot_link(20, 30)])
        remapped = constraints.remap({10: 0, 20: 1, 30: 2})
        assert must_link(0, 1) in remapped
        assert cannot_link(1, 2) in remapped
        # Objects missing from the map drop their constraints.
        partial = constraints.remap({10: 0, 20: 1})
        assert len(partial) == 1

    def test_merged_with(self):
        first = ConstraintSet([must_link(0, 1)])
        second = ConstraintSet([cannot_link(2, 3)])
        merged = first.merged_with(second)
        assert len(merged) == 2
        assert len(first) == 1  # original untouched

    def test_copy_is_independent(self):
        original = ConstraintSet([must_link(0, 1)])
        clone = original.copy()
        clone.add(cannot_link(4, 5))
        assert len(original) == 1
        assert len(clone) == 2

    def test_array_views(self):
        constraints = ConstraintSet([must_link(0, 1), cannot_link(2, 3), must_link(4, 5)])
        ml = constraints.must_link_array()
        cl = constraints.cannot_link_array()
        assert ml.shape == (2, 2)
        assert cl.shape == (1, 2)
        i_idx, j_idx, kinds = constraints.as_arrays()
        assert i_idx.shape == (3,)
        assert set(kinds.tolist()) == {MUST_LINK, CANNOT_LINK}

    def test_satisfied_by_counts(self):
        constraints = ConstraintSet([must_link(0, 1), cannot_link(1, 2), must_link(2, 3)])
        labels = np.array([0, 0, 1, 1])
        # ML(0,1) satisfied, CL(1,2) satisfied, ML(2,3) satisfied.
        assert constraints.satisfied_by(labels) == 3
        labels = np.array([0, 1, 1, 0])
        # ML(0,1) violated, CL(1,2) violated, ML(2,3) violated.
        assert constraints.satisfied_by(labels) == 0

    def test_satisfied_by_treats_noise_as_singleton(self):
        constraints = ConstraintSet([must_link(0, 1), cannot_link(2, 3)])
        labels = np.array([-1, -1, -1, -1])
        # Noise objects are never in the same cluster: ML violated, CL satisfied.
        assert constraints.satisfied_by(labels) == 1


def _fold_constraints() -> ConstraintSet:
    """The training-side constraint set of one label-scenario fold."""
    from repro.core.folds import label_scenario_folds

    labelled = {index: index % 3 for index in range(0, 60, 2)}
    return label_scenario_folds(labelled, n_folds=5, random_state=0)[0].training_constraints


def _rows(constraints: ConstraintSet) -> list[tuple[int, int, int]]:
    return [(c.i, c.j, c.kind) for c in constraints]


class TestArrayStorage:
    def test_columns_are_read_only_and_copy_shares_them(self):
        constraints = _fold_constraints()
        columns = constraints.as_arrays()
        assert all(not column.flags.writeable for column in columns)
        clone = constraints.copy()
        assert all(a is b for a, b in zip(clone.as_arrays(), columns))
        clone.add_must_link(1000, 1001)
        assert len(clone) == len(constraints) + 1
        assert (1000, 1001, MUST_LINK) not in _rows(constraints)

    def test_pickles_arrays_only_and_round_trips_equal(self):
        import pickle
        import pickletools

        from repro.constraints import transitive_closure

        constraints = _fold_constraints()
        transitive_closure(constraints, strict=False)
        assert constraints._closure is not None
        state = constraints.__getstate__()
        assert set(state) == {"columns", "closed"}
        assert all(isinstance(column, np.ndarray) for column in state["columns"])
        payload = pickle.dumps(constraints)
        strings = {arg for _, arg, _ in pickletools.genops(payload) if isinstance(arg, str)}
        assert "ConstraintSet" in strings
        assert "Constraint" not in strings and "_closure" not in strings
        restored = pickle.loads(payload)
        assert restored == constraints
        assert _rows(restored) == _rows(constraints)
        assert restored._closure is None
        assert all(not column.flags.writeable for column in restored.as_arrays())

    def test_equality_ignores_order(self):
        forward = ConstraintSet([must_link(0, 1), cannot_link(1, 2)])
        backward = ConstraintSet([cannot_link(2, 1), must_link(1, 0)])
        assert _rows(forward) != _rows(backward)
        assert forward == backward
        assert forward != ConstraintSet([must_link(0, 1), must_link(1, 2)])

    def test_threads_closing_one_shared_set_agree(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.constraints import transitive_closure

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shared in (_fold_constraints(), ConstraintSet()):
                # Pending single-pair adds: the first readers rebuild the columns.
                for index in range(0, 40, 3):
                    shared.add(Constraint(index, index + 1, index % 2))
                expected = _rows(transitive_closure(ConstraintSet(list(shared)), strict=False))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [
                        pool.submit(lambda: _rows(transitive_closure(shared, strict=False)))
                        for _ in range(32)
                    ]
                    results = [future.result(timeout=60) for future in futures]
                assert all(result == expected for result in results)
                assert len(shared.as_arrays()[0]) == len(shared)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.add(must_link(500, 501)),
            lambda s: s.update([cannot_link(500, 502)]),
            lambda s: s.discard(next(iter(s))),
        ],
        ids=["add", "update", "discard"],
    )
    def test_mutation_clears_the_memo_and_the_closed_flag(self, mutate):
        from repro.constraints import transitive_closure

        constraints = _fold_constraints()
        closed = transitive_closure(constraints, strict=False)
        assert closed.is_closed and constraints._closure is not None
        mutate(constraints)
        mutate(closed)
        assert constraints._closure is None
        assert not closed.is_closed
        fresh = transitive_closure(ConstraintSet(list(constraints)), strict=False)
        assert _rows(transitive_closure(constraints, strict=False)) == _rows(fresh)
