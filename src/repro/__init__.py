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

from repro.utils.exports import lazy_exports

__version__ = "0.10.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "__version__": ".",
        "Constraint": ".constraints",
        "ConstraintSet": ".constraints",
        "MUST_LINK": ".constraints",
        "CANNOT_LINK": ".constraints",
        "transitive_closure": ".constraints",
        "constraints_from_labels": ".constraints",
        "sample_labeled_objects": ".constraints",
        "build_constraint_pool": ".constraints",
        "sample_constraint_subset": ".constraints",
        "KMeans": ".clustering",
        "COPKMeans": ".clustering",
        "MPCKMeans": ".clustering",
        "SeededKMeans": ".clustering",
        "ConstrainedKMeans": ".clustering",
        "FOSC": ".clustering",
        "FOSCOpticsDend": ".clustering",
        "CVCP": ".core",
        "CVCPResult": ".core",
        "CVCPAlgorithmSelector": ".core",
        "constraint_f_score": ".core",
        "expected_quality": ".core",
        "overall_f_measure": ".evaluation",
        "adjusted_rand_index": ".evaluation",
        "silhouette_score": ".evaluation",
        "paired_t_test": ".evaluation",
        "Dataset": ".datasets",
        "make_iris_like": ".datasets",
        "make_wine_like": ".datasets",
        "make_ionosphere_like": ".datasets",
        "make_ecoli_like": ".datasets",
        "make_zyeast_like": ".datasets",
        "make_aloi_k5_like": ".datasets",
        "make_aloi_collection": ".datasets",
        "get_dataset": ".datasets",
        "get_dataset_collection": ".datasets",
    },
)
