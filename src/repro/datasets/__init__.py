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

from repro.datasets.base import Dataset
from repro.datasets.synthetic import (
    make_blobs,
    make_two_moons,
)
from repro.datasets.uci_like import (
    make_iris_like,
    make_wine_like,
    make_ionosphere_like,
    make_ecoli_like,
    make_zyeast_like,
)
from repro.datasets.aloi import make_aloi_k5_like, make_aloi_collection
from repro.datasets.loaders import load_csv_dataset, load_real_dataset
from repro.datasets.text import make_text_blobs, load_precomputed_dataset
from repro.datasets.registry import DATASET_NAMES, get_dataset, get_dataset_collection

__all__ = [
    "Dataset",
    "make_blobs",
    "make_two_moons",
    "make_iris_like",
    "make_wine_like",
    "make_ionosphere_like",
    "make_ecoli_like",
    "make_zyeast_like",
    "make_aloi_k5_like",
    "make_aloi_collection",
    "load_csv_dataset",
    "load_real_dataset",
    "make_text_blobs",
    "load_precomputed_dataset",
    "DATASET_NAMES",
    "get_dataset",
    "get_dataset_collection",
]
