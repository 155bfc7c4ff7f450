"""Which algorithm runs on which distance tier, metric and input: the one table.

FOSC-OPTICSDend runs under every metric on every tier.  MPCK-Means learns
per-cluster Euclidean metrics and needs every pairwise entry (Bilenko, Basu
& Mooney, ICML 2004).  The ``neighbors`` tier is a Euclidean KD-tree index,
and a ``"precomputed"`` metric means the data set *is* its matrix.  The
rules judge the resolved tier (``REPRO_DISTANCE_BACKEND`` counts); each
entry point puts its own field path in front of a rule's body.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.utils.specs import SpecError

#: The metrics a data set (and a ``[dataset]`` table) may carry.
DATASET_METRICS = ("euclidean", "cosine", "precomputed")

_EXACT = "use an exact tier (blockwise, memmap)"

#: Each rule's problem body in report order (``{metric}`` filled in).  The ``tier`` rule
#: faults the ``distance_backend`` field, every other rule the ``metric`` field.
RULES: dict[str, str] = {
    "tier": (
        '"neighbors" cannot drive algorithm = "mpck" (MPCKMeans needs the full distance matrix); '
        + _EXACT
    ),
    "euclidean": (
        'algorithm = "mpck" learns per-cluster Euclidean metrics and cannot run under'
        ' metric = {metric}; use algorithm = "fosc"'
    ),
    "index": (
        'distance_backend = "neighbors" supports metric = "euclidean" only (KD-tree index),'
        " got {metric}; " + _EXACT
    ),
    "matrix": '"precomputed" needs the matrix itself; run a pipeline with a [dataset] path instead',
    "override": "cannot override the metric of a precomputed pipeline with {metric}",
}


class Problem(NamedTuple):
    field: str
    rule: str
    body: str


def problems(algorithm, distance_backend=None, metric=None, *, matrix=None) -> list[Problem]:
    """Every rule broken, in :data:`RULES` order.

    ``None`` means: no algorithm chosen (only the shared rules apply), the
    input's own metric, or an input not known here (the input rules are skipped).
    """
    effective = metric or ("precomputed" if matrix else "euclidean")
    euclidean = effective == "euclidean"
    tier = None
    if algorithm == "mpck" or not euclidean:  # read the environment only when a rule needs it
        from repro.core.distance_backend import resolve_distance_backend

        try:
            tier = resolve_distance_backend(distance_backend)
        except ValueError:
            pass  # an unknown tier name is reported where it is given
    broken = {
        "tier": algorithm == "mpck" and tier == "neighbors",
        "euclidean": algorithm == "mpck" and not euclidean,
        "index": tier == "neighbors" and not euclidean,
        "matrix": matrix is False and effective == "precomputed",
        "override": bool(matrix) and effective != "precomputed",
    }
    return [
        Problem("distance_backend" if rule == "tier" else "metric", rule, body.format(metric=repr(effective)))
        for rule, body in RULES.items()
        if broken[rule]
    ]


def require(algorithm, distance_backend=None, metric=None, *, matrix=None, prefix="execution.") -> None:
    """Raise :class:`SpecError` listing :func:`problems`, each line behind ``prefix``."""
    found = problems(algorithm, distance_backend, metric, matrix=matrix)
    if found:
        raise SpecError(prefix.split(".")[0], [f"{prefix}{p.field}: {p.body}" for p in found])


def check_input(X, metric: str | None, *, name: str = "X"):
    """The one input check: a precomputed matrix (``+inf`` = unreachable pair) or feature rows."""
    if metric == "precomputed":
        from repro.clustering.distances import validate_precomputed_distances

        return validate_precomputed_distances(X, name=name)
    from repro.utils.validation import check_array_2d

    return check_array_2d(X, name=name)
