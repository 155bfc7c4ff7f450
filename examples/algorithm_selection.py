"""Selecting the clustering *algorithm* (not only its parameter) with CVCP.

The conclusion of the paper names this as future work: "an investigation of
how our approach could be extended to compare and select alternative
clustering methods".  Because the CVCP internal score depends only on the
produced partition and the held-out constraints, the scores of different
algorithms are directly comparable — so the same cross-validation budget
can rank (algorithm, parameter) pairs.

The example pits three semi-supervised clusterers against each other on a
non-convex data set (two interleaved moons embedded in 10-d):

* FOSC-OPTICSDend (density-based, sweeps MinPts),
* MPCK-Means (partitional with metric learning, sweeps k),
* Seeded-KMeans (k-means initialised from the labelled objects, sweeps k),

each receiving the same 15% of labelled objects.

Run with::

    python examples/algorithm_selection.py
"""

from __future__ import annotations

from repro import (
    CVCPAlgorithmSelector,
    FOSCOpticsDend,
    MPCKMeans,
    SeededKMeans,
    overall_f_measure,
    sample_labeled_objects,
)
from repro.datasets import make_two_moons
from repro.datasets.synthetic import embed_in_higher_dimension


def main() -> None:
    moons = make_two_moons(260, noise=0.06, random_state=4)
    data = embed_in_higher_dimension(moons, 10, noise=0.03, random_state=4)
    side = sample_labeled_objects(data.y, 0.15, random_state=4)
    print(f"data set: two moons embedded in {data.n_features}-d "
          f"({data.n_samples} objects, {data.n_classes} classes)")
    print(f"side information: labels for {len(side)} objects (15%)\n")

    selector = CVCPAlgorithmSelector(
        {
            "fosc-opticsdend": (FOSCOpticsDend(), [3, 6, 9, 12, 15, 18]),
            "mpck-means": (MPCKMeans(random_state=0), [2, 3, 4, 5, 6]),
            "seeded-kmeans": (SeededKMeans(random_state=0), [2, 3, 4, 5, 6]),
        },
        n_folds=5,
        random_state=4,
    )
    selector.fit(data.X, labeled_objects=side)

    print("cross-validated ranking (internal constraint-classification score):")
    for name, parameter, score in selector.result_.ranking():
        parameter_name = selector.result_.per_algorithm[name].parameter_name
        print(f"  {name:18s} best {parameter_name}={parameter:<3}  score={score:.3f}")

    print(f"\nselected: {selector.best_algorithm_} with {selector.best_params_}")
    quality = overall_f_measure(data.y, selector.labels_, exclude=side.keys())
    print(f"Overall F-Measure of the selected model vs. ground truth: {quality:.3f}")


if __name__ == "__main__":
    main()
