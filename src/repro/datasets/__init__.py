"""Data substrates for the reproduction.

The paper evaluates on ALOI-k5 image subsets, four UCI data sets (Iris,
Wine, Ionosphere, Ecoli) and the Zyeast gene-expression data.  Since this
environment has no network access and ships no copies of those files, the
subpackage provides *synthetic analogues* with matching sizes, class
structures and qualitative geometry (see DESIGN.md for the substitution
rationale), plus loaders that pick up the real CSV files when available.

* :mod:`repro.datasets.base` — the :class:`Dataset` container.
* :mod:`repro.datasets.synthetic` — generic generators (blobs, moons) and
  the random embedding of a data set in more dimensions.
* :mod:`repro.datasets.uci_like` — Iris/Wine/Ionosphere/Ecoli/Zyeast
  analogues.
* :mod:`repro.datasets.aloi` — the ALOI-k5-like collection.
* :mod:`repro.datasets.loaders` — CSV loading of real data when present.
* :mod:`repro.datasets.text` — sparse TF-IDF text blobs (cosine) and
  precomputed distance/similarity loading.
* :mod:`repro.datasets.registry` — name → factory lookup used by the
  experiment harness.
"""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Dataset": ".base",
        "make_blobs": ".synthetic",
        "make_two_moons": ".synthetic",
        "make_iris_like": ".uci_like",
        "make_wine_like": ".uci_like",
        "make_ionosphere_like": ".uci_like",
        "make_ecoli_like": ".uci_like",
        "make_zyeast_like": ".uci_like",
        "make_aloi_k5_like": ".aloi",
        "make_aloi_collection": ".aloi",
        "load_csv_dataset": ".loaders",
        "load_real_dataset": ".loaders",
        "make_text_blobs": ".text",
        "load_precomputed_dataset": ".text",
        "DATASET_NAMES": ".registry",
        "get_dataset": ".registry",
        "get_dataset_collection": ".registry",
    },
)
