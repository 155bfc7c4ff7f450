"""Unit tests for the transitive closure of constraints (paper Figure 2)."""

import pytest

from repro.constraints import (
    ConstraintSet,
    InconsistentConstraintsError,
    constraints_from_labels,
    cannot_link,
    must_link,
    transitive_closure,
    is_consistent,
    must_link_components,
)


class TestTransitiveClosure:
    def test_figure_2_example(self, simple_constraints):
        """ML(A,B), ML(C,D), CL(B,C) induce CL(A,C), CL(A,D), CL(B,D)."""
        closure = transitive_closure(simple_constraints)
        assert must_link(0, 1) in closure
        assert must_link(2, 3) in closure
        assert cannot_link(1, 2) in closure
        assert cannot_link(0, 2) in closure
        assert cannot_link(0, 3) in closure
        assert cannot_link(1, 3) in closure
        assert len(closure) == 6

    def test_figure_2_opposite_example(self):
        """CL(A,B), CL(C,D), ML(B,C) derive CL(A,C), CL(B,D) but nothing about (A,D)."""
        constraints = ConstraintSet([cannot_link(0, 1), cannot_link(2, 3), must_link(1, 2)])
        closure = transitive_closure(constraints)
        assert cannot_link(0, 2) in closure
        assert cannot_link(1, 3) in closure
        assert closure.kind_of(0, 3) is None

    def test_must_link_transitivity(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(1, 2), must_link(2, 3)])
        closure = transitive_closure(constraints)
        # The component {0,1,2,3} yields all 6 pairs.
        assert closure.n_must_link == 6
        assert closure.n_cannot_link == 0

    def test_inconsistent_raises(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(1, 2), cannot_link(0, 2)])
        with pytest.raises(InconsistentConstraintsError):
            transitive_closure(constraints)

    def test_inconsistent_non_strict_drops_contradiction(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(1, 2), cannot_link(0, 2)])
        closure = transitive_closure(constraints, strict=False)
        assert closure.n_must_link == 3
        assert closure.n_cannot_link == 0

    def test_empty_input(self):
        closure = transitive_closure(ConstraintSet())
        assert len(closure) == 0

    def test_closure_is_idempotent(self, simple_constraints):
        once = transitive_closure(simple_constraints)
        twice = transitive_closure(once)
        assert once == twice

    def test_closure_contains_original(self, simple_constraints):
        closure = transitive_closure(simple_constraints)
        for constraint in simple_constraints:
            assert constraint in closure


class TestConsistency:
    def test_consistent_set(self, simple_constraints):
        assert is_consistent(simple_constraints)

    def test_inconsistent_set(self):
        constraints = ConstraintSet([must_link(0, 1), must_link(1, 2), cannot_link(0, 2)])
        assert not is_consistent(constraints)

    def test_empty_set_is_consistent(self):
        assert is_consistent(ConstraintSet())


class TestComponents:
    def test_must_link_components(self, simple_constraints):
        components = must_link_components(simple_constraints)
        assert components == [[0, 1], [2, 3]]

    def test_cannot_link_only_objects_are_singletons(self):
        constraints = ConstraintSet([cannot_link(4, 7)])
        assert must_link_components(constraints) == [[4], [7]]


class TestClosureCompositions:
    def test_closure_of_label_constraints(self):
        closure = transitive_closure(constraints_from_labels({0: "a", 1: "a", 2: "b"}))
        assert must_link(0, 1) in closure
        assert cannot_link(0, 2) in closure
        assert cannot_link(1, 2) in closure
        assert len(closure) == 3

    def test_restricting_then_closing_rederives(self, simple_constraints):
        # Restricting to {0, 1, 2} keeps ML(0,1), CL(1,2) and re-derives CL(0,2).
        restricted = transitive_closure(simple_constraints.restricted_to([0, 1, 2]))
        assert must_link(0, 1) in restricted
        assert cannot_link(1, 2) in restricted
        assert cannot_link(0, 2) in restricted
        assert len(restricted) == 3
