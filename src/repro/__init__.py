"""repro — reproduction of "Model Selection for Semi-Supervised Clustering".

Pourrajabi, Moulavi, Campello, Zimek, Sander & Goebel, EDBT 2014.

The package implements the paper's **CVCP** framework (Cross-Validation for
finding Clustering Parameters) together with every substrate its evaluation
relies on — the two semi-supervised clustering algorithms (MPCK-Means and
FOSC-OPTICSDend), the constraint machinery, the internal and external
evaluation measures, synthetic analogues of the evaluation data sets, and
the experiment harness that regenerates the paper's tables and figures.

Quick start::

    from repro import CVCP, MPCKMeans, make_iris_like, sample_labeled_objects

    data = make_iris_like(random_state=0)
    side_information = sample_labeled_objects(data.y, 0.10, random_state=0)
    search = CVCP(MPCKMeans(random_state=0), parameter_values=range(2, 8),
                  n_folds=5, random_state=0)
    search.fit(data.X, labeled_objects=side_information)
    print(search.best_params_, search.best_score_)
"""

from repro.constraints import (
    Constraint,
    ConstraintSet,
    MUST_LINK,
    CANNOT_LINK,
    transitive_closure,
    constraints_from_labels,
    sample_labeled_objects,
    build_constraint_pool,
    sample_constraint_subset,
)
from repro.clustering import (
    KMeans,
    COPKMeans,
    MPCKMeans,
    SeededKMeans,
    ConstrainedKMeans,
    FOSC,
    FOSCOpticsDend,
)
from repro.core import (
    CVCP,
    CVCPResult,
    CVCPAlgorithmSelector,
    constraint_f_score,
    expected_quality,
)
from repro.evaluation import (
    overall_f_measure,
    adjusted_rand_index,
    silhouette_score,
    paired_t_test,
)
from repro.datasets import (
    Dataset,
    make_iris_like,
    make_wine_like,
    make_ionosphere_like,
    make_ecoli_like,
    make_zyeast_like,
    make_aloi_k5_like,
    make_aloi_collection,
    get_dataset,
    get_dataset_collection,
)

__version__ = "0.10.0"

__all__ = [
    "__version__",
    # constraints
    "Constraint",
    "ConstraintSet",
    "MUST_LINK",
    "CANNOT_LINK",
    "transitive_closure",
    "constraints_from_labels",
    "sample_labeled_objects",
    "build_constraint_pool",
    "sample_constraint_subset",
    # clustering
    "KMeans",
    "COPKMeans",
    "MPCKMeans",
    "SeededKMeans",
    "ConstrainedKMeans",
    "FOSC",
    "FOSCOpticsDend",
    # core
    "CVCP",
    "CVCPResult",
    "CVCPAlgorithmSelector",
    "constraint_f_score",
    "expected_quality",
    # evaluation
    "overall_f_measure",
    "adjusted_rand_index",
    "silhouette_score",
    "paired_t_test",
    # datasets
    "Dataset",
    "make_iris_like",
    "make_wine_like",
    "make_ionosphere_like",
    "make_ecoli_like",
    "make_zyeast_like",
    "make_aloi_k5_like",
    "make_aloi_collection",
    "get_dataset",
    "get_dataset_collection",
]
