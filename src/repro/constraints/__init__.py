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

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "MUST_LINK": ".constraint",
        "CANNOT_LINK": ".constraint",
        "Constraint": ".constraint",
        "ConstraintSet": ".constraint",
        "must_link": ".constraint",
        "cannot_link": ".constraint",
        "transitive_closure": ".closure",
        "is_consistent": ".closure",
        "must_link_components": ".closure",
        "InconsistentConstraintsError": ".closure",
        "constraints_from_labels": ".generation",
        "sample_labeled_objects": ".generation",
        "build_constraint_pool": ".generation",
        "sample_constraint_subset": ".generation",
        "ConstraintOracle": ".oracles",
        "PerfectOracle": ".oracles",
        "NoisyOracle": ".oracles",
        "BudgetedOracle": ".oracles",
        "ActiveOracle": ".oracles",
        "make_oracle": ".oracles",
        "oracle_from_spec": ".oracles",
        "oracle_names": ".oracles",
        "register_oracle": ".oracles",
        "repair_closure_consistency": ".oracles",
    },
)
