"""Name-based access to the data sets used in the experiments.

The experiment harness refers to data sets by the names the paper uses
(``"ALOI"``, ``"Iris"``, ``"Wine"``, ``"Ionosphere"``, ``"Ecoli"``,
``"Zyeast"``).  :func:`get_dataset` resolves a name to a single data set
(preferring a real CSV under ``data/`` when present, otherwise the synthetic
analogue); :func:`get_dataset_collection` resolves collection names (ALOI)
to a list of data sets.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.datasets.aloi import make_aloi_collection, make_aloi_k5_like
from repro.datasets.base import Dataset
from repro.datasets.loaders import DEFAULT_DATA_DIR, load_real_dataset
from repro.datasets.text import make_text_blobs
from repro.datasets.uci_like import (
    make_ecoli_like,
    make_ionosphere_like,
    make_iris_like,
    make_wine_like,
    make_zyeast_like,
)
from repro.utils.rng import RandomStateLike

_SINGLE_FACTORIES: dict[str, Callable[..., Dataset]] = {
    "iris": make_iris_like,
    "wine": make_wine_like,
    "ionosphere": make_ionosphere_like,
    "ecoli": make_ecoli_like,
    "zyeast": make_zyeast_like,
    "aloi": make_aloi_k5_like,
    "text": make_text_blobs,
}

#: Canonical data-set names in the order the paper's tables use, plus the
#: synthetic text corpus ("Text": sparse TF-IDF blobs, cosine metric).
DATASET_NAMES = ("ALOI", "Iris", "Wine", "Ionosphere", "Ecoli", "Zyeast", "Text")

#: The metric each registry data set is evaluated under unless overridden.
REGISTRY_METRICS = {name: "cosine" if name == "Text" else "euclidean" for name in DATASET_NAMES}


def _normalise(name: str) -> str:
    return name.strip().lower().replace("-like", "")


def get_dataset(
    name: str,
    *,
    random_state: RandomStateLike = 0,
    data_dir: str | Path = DEFAULT_DATA_DIR,
    prefer_real: bool = True,
    metric: str | None = None,
) -> Dataset:
    """Return a single data set by (paper) name.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES` (case-insensitive).  ``"ALOI"`` returns
        one representative ALOI-like data set; use
        :func:`get_dataset_collection` for the whole collection.
    random_state:
        Seed for the synthetic analogue.
    data_dir:
        Directory searched for a real CSV (``<name>.csv``).
    prefer_real:
        If true (default), a real CSV takes precedence over the analogue.
    metric:
        Override the data set's evaluation metric (``"euclidean"`` or
        ``"cosine"``); ``None`` keeps the data set's own default
        (euclidean for the UCI-style sets, cosine for ``"Text"``).
    """
    key = _normalise(name)
    if key not in _SINGLE_FACTORIES:
        raise KeyError(
            f"unknown data set {name!r}; available names: {', '.join(DATASET_NAMES)}"
        )
    if prefer_real:
        real = load_real_dataset(key, data_dir=data_dir)
        if real is not None:
            return real.with_metric(metric) if metric is not None else real
    dataset = _SINGLE_FACTORIES[key](random_state=random_state)
    if metric is not None:
        dataset = dataset.with_metric(metric)
    return dataset


def get_dataset_collection(
    name: str,
    *,
    n_datasets: int = 100,
    random_state: RandomStateLike = 0,
    metric: str | None = None,
) -> list[Dataset]:
    """Return a collection of data sets by name.

    ``"ALOI"`` yields ``n_datasets`` ALOI-k5-like data sets (the paper uses
    100); any other name yields a singleton list with that data set, so the
    experiment drivers can treat every data source uniformly.  ``metric``
    overrides the evaluation metric of every returned data set.
    """
    key = _normalise(name)
    if key == "aloi":
        collection = make_aloi_collection(n_datasets, random_state=random_state)
        if metric is not None:
            collection = [dataset.with_metric(metric) for dataset in collection]
        return collection
    return [get_dataset(name, random_state=random_state, metric=metric)]
