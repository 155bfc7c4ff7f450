"""Pairwise-constraint machinery for semi-supervised clustering.

This subpackage provides the substrate used by both scenarios of the CVCP
framework (Pourrajabi et al., EDBT 2014):

* :mod:`repro.constraints.constraint` — the :class:`Constraint` value type
  and the :class:`ConstraintSet` container.
* :mod:`repro.constraints.closure` — transitive closure of a constraint set
  and consistency checking (Figure 2 of the paper).
* :mod:`repro.constraints.generation` — sampling labelled objects,
  deriving constraints from labels, building and sampling constraint pools
  (Section 4.1 of the paper).
* :mod:`repro.constraints.oracles` — pluggable supervision sources built on
  top of the generation primitives: the paper's perfect oracle plus noisy,
  budget-constrained and actively-acquiring variants, with a registry the
  pipeline config drives by name.
"""

from repro.constraints.constraint import (
    CANNOT_LINK,
    MUST_LINK,
    Constraint,
    ConstraintSet,
    cannot_link,
    must_link,
)
from repro.constraints.closure import (
    InconsistentConstraintsError,
    transitive_closure,
    is_consistent,
    must_link_components,
)
from repro.constraints.generation import (
    constraints_from_labels,
    sample_labeled_objects,
    build_constraint_pool,
    sample_constraint_subset,
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
    register_oracle,
    repair_closure_consistency,
)

__all__ = [
    "MUST_LINK",
    "CANNOT_LINK",
    "Constraint",
    "ConstraintSet",
    "must_link",
    "cannot_link",
    "transitive_closure",
    "is_consistent",
    "must_link_components",
    "InconsistentConstraintsError",
    "constraints_from_labels",
    "sample_labeled_objects",
    "build_constraint_pool",
    "sample_constraint_subset",
    "ConstraintOracle",
    "PerfectOracle",
    "NoisyOracle",
    "BudgetedOracle",
    "ActiveOracle",
    "make_oracle",
    "oracle_from_spec",
    "oracle_names",
    "register_oracle",
    "repair_closure_consistency",
]
