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

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "BaseClusterer": ".base",
        "ClusteringResult": ".base",
        "pairwise_distances": ".distances",
        "euclidean_distances": ".distances",
        "KMeans": ".kmeans",
        "kmeans_plus_plus_init": ".kmeans",
        "COPKMeans": ".copkmeans",
        "MPCKMeans": ".mpckmeans",
        "SeededKMeans": ".seeded_kmeans",
        "ConstrainedKMeans": ".seeded_kmeans",
        "mutual_reachability": ".hierarchy",
        "build_single_linkage_tree": ".hierarchy",
        "CondensedTreeArrays": ".hierarchy",
        "FOSC": ".fosc",
        "FOSCOpticsDend": ".fosc",
    },
)
