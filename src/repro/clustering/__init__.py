"""Clustering algorithms implemented from scratch.

The paper evaluates CVCP with two representative semi-supervised clustering
algorithms; both are implemented here together with the substrates they
need:

* :class:`~repro.clustering.mpckmeans.MPCKMeans` — metric pairwise
  constrained k-means (Bilenko, Basu & Mooney, ICML 2004), parameterised by
  the number of clusters ``k``.
* :class:`~repro.clustering.fosc.FOSCOpticsDend` — density-based
  semi-supervised clustering that extracts an optimal flat solution from an
  OPTICS-derived dendrogram (Campello, Moulavi, Zimek & Sander, DMKD 2013),
  parameterised by ``min_pts``.

Additional algorithms are provided as substrates and as the other
semi-supervised clusterers the paper's conclusion names as extensions:
plain :class:`~repro.clustering.kmeans.KMeans`,
:class:`~repro.clustering.copkmeans.COPKMeans` (hard constraints),
:class:`~repro.clustering.seeded_kmeans.SeededKMeans` /
:class:`~repro.clustering.seeded_kmeans.ConstrainedKMeans`, and the density
hierarchy machinery in :mod:`repro.clustering.hierarchy`.
"""

from repro.clustering.base import BaseClusterer, ClusteringResult
from repro.clustering.distances import (
    pairwise_distances,
    euclidean_distances,
)
from repro.clustering.kmeans import KMeans, kmeans_plus_plus_init
from repro.clustering.copkmeans import COPKMeans
from repro.clustering.mpckmeans import MPCKMeans
from repro.clustering.seeded_kmeans import SeededKMeans, ConstrainedKMeans
from repro.clustering.hierarchy import (
    mutual_reachability,
    build_single_linkage_tree,
    CondensedTreeArrays,
)
from repro.clustering.fosc import FOSC, FOSCOpticsDend

__all__ = [
    "BaseClusterer",
    "ClusteringResult",
    "pairwise_distances",
    "euclidean_distances",
    "KMeans",
    "kmeans_plus_plus_init",
    "COPKMeans",
    "MPCKMeans",
    "SeededKMeans",
    "ConstrainedKMeans",
    "mutual_reachability",
    "build_single_linkage_tree",
    "CondensedTreeArrays",
    "FOSC",
    "FOSCOpticsDend",
]
