"""Tests for the pluggable constraint-oracle subsystem."""

import numpy as np
import pytest

from repro.constraints import is_consistent
from repro.constraints.constraint import CANNOT_LINK, MUST_LINK, Constraint, ConstraintSet
from repro.constraints.generation import (
    build_constraint_pool,
    sample_constraint_subset,
    sample_labeled_objects,
)
from repro.constraints.oracles import (
    ActiveOracle,
    BudgetedOracle,
    ConstraintOracle,
    NoisyOracle,
    PerfectOracle,
    make_oracle,
    oracle_from_spec,
    oracle_names,
    repair_closure_consistency,
)
from repro.datasets import make_iris_like


@pytest.fixture(scope="module")
def iris():
    return make_iris_like(random_state=0)


ALL_ORACLES = [
    PerfectOracle(),
    NoisyOracle(flip_probability=0.3),
    NoisyOracle(flip_probability=0.3, repair=True),
    BudgetedOracle(budget=40, ordering="random"),
    BudgetedOracle(budget=40, ordering="farthest_first"),
    BudgetedOracle(budget=40, ordering="min_max"),
    ActiveOracle(budget=40, batch_size=8),
]


class TestRegistry:
    def test_builtin_names_registered(self):
        assert set(oracle_names()) >= {"perfect", "noisy", "budgeted", "active"}

    def test_make_oracle_by_name(self):
        oracle = make_oracle("noisy", flip_probability=0.25, repair=True)
        assert isinstance(oracle, NoisyOracle)
        assert oracle.flip_probability == 0.25 and oracle.repair is True

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            make_oracle("psychic")

    def test_unknown_parameters_all_listed_at_once(self):
        with pytest.raises(ValueError, match="bogus.*nope|nope.*bogus"):
            make_oracle("noisy", bogus=1, nope=2)

    @pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: repr(o))
    def test_spec_roundtrip(self, oracle):
        spec = oracle.spec()
        assert spec["name"] == oracle.name
        rebuilt = oracle_from_spec(spec)
        assert rebuilt == oracle and rebuilt.spec() == spec

    def test_spec_is_json_scalar(self):
        import json

        for oracle in ALL_ORACLES:
            json.dumps(oracle.spec())  # must not raise

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            oracle_from_spec({"flip_probability": 0.1})

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="flip_probability"):
            NoisyOracle(flip_probability=1.5)
        with pytest.raises(ValueError, match="budget"):
            BudgetedOracle(budget=0)
        with pytest.raises(ValueError, match="ordering"):
            BudgetedOracle(ordering="sideways")
        with pytest.raises(ValueError, match="batch_size"):
            ActiveOracle(batch_size=-1)
        # A spec that built an oracle must round-trip: a list here used to
        # build one whose spec() then raised.
        with pytest.raises(TypeError, match="repair"):
            oracle_from_spec({"name": "noisy", "repair": []})

    def test_oracles_are_picklable(self):
        import pickle

        for oracle in ALL_ORACLES:
            assert pickle.loads(pickle.dumps(oracle)) == oracle


class TestPerfectOracle:
    def test_constraints_bit_compatible_with_generation(self, iris):
        """The tentpole guarantee: same seed, same stream, same constraints."""
        rng = np.random.default_rng(42)
        pool = build_constraint_pool(iris.y, fraction_per_class=0.10, random_state=rng)
        expected = sample_constraint_subset(pool, 0.2, random_state=rng)
        actual = PerfectOracle().pairwise_constraints(
            iris.y, 0.2, random_state=np.random.default_rng(42)
        )
        assert actual == expected

    def test_labels_bit_compatible_with_generation(self, iris):
        expected = sample_labeled_objects(iris.y, 0.1, random_state=5)
        actual = PerfectOracle().labeled_objects(iris.y, 0.1, random_state=5)
        assert actual == expected

    def test_side_information_dispatch(self, iris):
        labels, constraints = PerfectOracle().side_information(
            iris.y, "labels", 0.1, random_state=0
        )
        assert labels and len(constraints) == 0
        labels, constraints = PerfectOracle().side_information(
            iris.y, "constraints", 0.2, random_state=0
        )
        assert not labels and len(constraints) > 0

    def test_unknown_scenario_rejected(self, iris):
        with pytest.raises(ValueError, match="scenario"):
            PerfectOracle().side_information(iris.y, "telepathy", 0.1, random_state=0)


class TestNoisyOracle:
    def test_zero_flip_rate_equals_perfect(self, iris):
        perfect = PerfectOracle().pairwise_constraints(iris.y, 0.2, random_state=3)
        noisy = NoisyOracle(flip_probability=0.0).pairwise_constraints(
            iris.y, 0.2, random_state=3
        )
        assert noisy == perfect

    def test_full_flip_rate_inverts_every_kind(self, iris):
        perfect = PerfectOracle().pairwise_constraints(iris.y, 0.2, random_state=3)
        flipped = NoisyOracle(flip_probability=1.0).pairwise_constraints(
            iris.y, 0.2, random_state=3
        )
        assert len(flipped) == len(perfect)
        for constraint in flipped:
            assert constraint.kind != perfect.kind_of(constraint.i, constraint.j)

    def test_repair_restores_consistency(self, iris):
        oracle = NoisyOracle(flip_probability=0.5, repair=True)
        for seed in range(5):
            constraints = oracle.pairwise_constraints(iris.y, 0.5, random_state=seed)
            assert is_consistent(constraints)

    def test_repair_only_drops_contradicting_cannot_links(self):
        constraints = ConstraintSet(
            [
                Constraint(0, 1, MUST_LINK),
                Constraint(1, 2, MUST_LINK),
                Constraint(0, 2, CANNOT_LINK),  # contradicts the chain
                Constraint(3, 4, CANNOT_LINK),  # independent, survives
            ]
        )
        repaired = repair_closure_consistency(constraints)
        assert Constraint(0, 2, CANNOT_LINK) not in repaired
        assert Constraint(3, 4, CANNOT_LINK) in repaired
        assert repaired.n_must_link == 2

    def test_noisy_labels_stay_within_classes(self, iris):
        labels = NoisyOracle(flip_probability=1.0).labeled_objects(
            iris.y, 0.2, random_state=1
        )
        classes = set(int(cls) for cls in np.unique(iris.y))
        for index, label in labels.items():
            assert label in classes
            assert label != int(iris.y[index])  # p=1 always flips


class TestBudgetedOracle:
    @pytest.mark.parametrize("ordering", ["random", "farthest_first", "min_max"])
    def test_budget_is_a_hard_cap(self, iris, ordering):
        oracle = BudgetedOracle(budget=25, ordering=ordering)
        constraints = oracle.pairwise_constraints(iris.y, 1.0, random_state=2, X=iris.X)
        assert 0 < len(constraints) <= 25
        labels = oracle.labeled_objects(iris.y, 0.5, random_state=2, X=iris.X)
        assert 0 < len(labels) <= 25

    @pytest.mark.parametrize("ordering", ["random", "farthest_first", "min_max"])
    def test_answers_are_truthful(self, iris, ordering):
        oracle = BudgetedOracle(budget=30, ordering=ordering)
        constraints = oracle.pairwise_constraints(iris.y, 1.0, random_state=2, X=iris.X)
        for constraint in constraints:
            expected = MUST_LINK if iris.y[constraint.i] == iris.y[constraint.j] else CANNOT_LINK
            assert constraint.kind == expected

    def test_distance_orderings_require_X(self, iris):
        with pytest.raises(ValueError, match="data matrix"):
            BudgetedOracle(ordering="farthest_first").pairwise_constraints(
                iris.y, 0.5, random_state=0
            )

    def test_orderings_differ(self, iris):
        by_ordering = {
            ordering: BudgetedOracle(budget=30, ordering=ordering).pairwise_constraints(
                iris.y, 1.0, random_state=2, X=iris.X
            )
            for ordering in ("random", "farthest_first", "min_max")
        }
        assert by_ordering["farthest_first"] != by_ordering["min_max"]
        assert by_ordering["random"] != by_ordering["farthest_first"]

    def test_amount_still_scales_below_budget(self, iris):
        oracle = BudgetedOracle(budget=10_000)
        small = oracle.pairwise_constraints(iris.y, 0.1, random_state=2)
        large = oracle.pairwise_constraints(iris.y, 0.9, random_state=2)
        assert len(small) < len(large)


class TestActiveOracle:
    def test_budget_respected_and_truthful(self, iris):
        oracle = ActiveOracle(budget=35, batch_size=7)
        constraints = oracle.pairwise_constraints(iris.y, 1.0, random_state=4)
        assert 0 < len(constraints) <= 35
        for constraint in constraints:
            expected = MUST_LINK if iris.y[constraint.i] == iris.y[constraint.j] else CANNOT_LINK
            assert constraint.kind == expected

    def test_acquisition_is_deterministic(self, iris):
        oracle = ActiveOracle(budget=30, batch_size=6)
        first = oracle.pairwise_constraints(iris.y, 1.0, random_state=4)
        second = oracle.pairwise_constraints(iris.y, 1.0, random_state=4)
        assert first == second

    def test_labels_fall_back_to_budgeted_reveal(self, iris):
        labels = ActiveOracle(budget=12).labeled_objects(iris.y, 0.5, random_state=4)
        assert 0 < len(labels) <= 12
        for index, label in labels.items():
            assert label == int(iris.y[index])


class TestDeterminism:
    @pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: repr(o))
    def test_same_seed_same_side_information(self, iris, oracle):
        for scenario, amount in (("labels", 0.15), ("constraints", 0.4)):
            first = oracle.side_information(
                iris.y, scenario, amount, random_state=11, X=iris.X
            )
            second = oracle.side_information(
                iris.y, scenario, amount, random_state=11, X=iris.X
            )
            assert first == second


class TestCVCPIntegration:
    def test_cvcp_accepts_an_oracle(self, iris):
        from repro.clustering import MPCKMeans
        from repro.core.cvcp import CVCP

        search = CVCP(
            MPCKMeans(n_init=1, max_iter=5, random_state=0),
            parameter_values=[2, 3, 4],
            n_folds=3,
            oracle=NoisyOracle(flip_probability=0.1),
            oracle_scenario="labels",
            oracle_amount=0.2,
            random_state=7,
        )
        search.fit(iris.X, ground_truth=iris.y)
        assert search.best_params_["n_clusters"] in (2, 3, 4)

    def test_oracle_without_ground_truth_rejected(self, iris):
        from repro.clustering import MPCKMeans
        from repro.core.cvcp import CVCP

        search = CVCP(
            MPCKMeans(n_init=1, max_iter=5, random_state=0),
            parameter_values=[2, 3],
            n_folds=3,
            oracle=PerfectOracle(),
            random_state=7,
        )
        with pytest.raises(ValueError, match="ground_truth"):
            search.fit(iris.X, constraints=PerfectOracle().pairwise_constraints(
                iris.y, 0.2, random_state=0
            ))

    def test_ground_truth_with_explicit_side_information_rejected(self, iris):
        from repro.clustering import MPCKMeans
        from repro.core.cvcp import CVCP

        search = CVCP(
            MPCKMeans(n_init=1, max_iter=5, random_state=0),
            parameter_values=[2, 3],
            n_folds=3,
            random_state=7,
        )
        with pytest.raises(ValueError, match="not both"):
            search.fit(iris.X, ground_truth=iris.y, labeled_objects={0: 0, 60: 1})

    def test_refit_free_selection_with_oracle(self, iris):
        from repro.clustering import MPCKMeans
        from repro.core.cvcp import CVCP

        search = CVCP(
            MPCKMeans(n_init=1, max_iter=5, random_state=0),
            [2, 3, 4],
            n_folds=3,
            refit=False,
            random_state=7,
            oracle=PerfectOracle(),
            oracle_scenario="constraints",
            oracle_amount=0.3,
        ).fit(iris.X, ground_truth=iris.y)
        assert search.best_params_["n_clusters"] in (2, 3, 4)
        assert search.cv_results_.scenario == "constraints"
        assert not hasattr(search, "best_estimator_")

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ConstraintOracle()
