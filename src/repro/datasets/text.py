"""Text-like sparse data sets and precomputed-similarity loading.

Two entry points open the document-clustering scenario:

* :func:`make_text_blobs` — a synthetic TF-IDF-shaped corpus with planted
  topics, returned as a scipy CSR matrix with ``metric="cosine"`` so the
  whole stack (distance tiers, CVCP, pipelines) exercises the sparse
  cosine path.
* :func:`load_precomputed_dataset` — a user-supplied ``(n, n)`` distance or
  similarity matrix from an ``.npz`` file, validated and returned with
  ``metric="precomputed"``.

Both are deterministic given their inputs; the generator is registered in
the dataset registry under the name ``"Text"``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.clustering.distances import (
    similarity_to_distance,
    validate_precomputed_distances,
)
from repro.datasets.base import Dataset
from repro.utils.rng import RandomStateLike, check_random_state

#: Accepted ``form`` values for :func:`load_precomputed_dataset`.
PRECOMPUTED_FORMS = ("distance", "similarity")


def make_text_blobs(
    *,
    n_documents: int = 300,
    n_topics: int = 4,
    vocabulary_size: int = 500,
    words_per_document: int = 60,
    topic_sharpness: float = 8.0,
    random_state: RandomStateLike = 0,
) -> Dataset:
    """Synthetic TF-IDF-shaped corpus with planted topics (CSR, cosine).

    Each topic owns a block of "signature" vocabulary terms sampled far
    more often than the shared background terms (``topic_sharpness``
    controls the ratio).  Documents draw ``words_per_document`` terms from
    their topic's distribution, term counts become TF-IDF-style weights
    (log-scaled term frequency × inverse document frequency), and the
    result is an L2-normalised scipy CSR matrix — the natural operand for
    cosine distance.

    Parameters
    ----------
    n_documents:
        Corpus size; documents are split evenly over the topics (the first
        ``n_documents % n_topics`` topics get one extra document).
    n_topics:
        Number of planted topics (= ground-truth classes).
    vocabulary_size:
        Number of distinct terms (feature dimensionality).
    words_per_document:
        Terms drawn per document; controls per-row density.
    topic_sharpness:
        How strongly a topic's signature terms dominate its distribution;
        higher values produce better-separated topics.
    random_state:
        Seed; generation is deterministic given it.
    """
    if n_topics < 2:
        raise ValueError(f"n_topics must be >= 2, got {n_topics}")
    if vocabulary_size < n_topics:
        raise ValueError(
            f"vocabulary_size must be >= n_topics, got {vocabulary_size} < {n_topics}"
        )
    if n_documents < n_topics:
        raise ValueError(
            f"n_documents must be >= n_topics, got {n_documents} < {n_topics}"
        )
    rng = check_random_state(random_state)

    signature_width = vocabulary_size // (2 * n_topics)
    signature_width = max(signature_width, 1)
    topic_term = np.ones((n_topics, vocabulary_size), dtype=np.float64)
    for topic in range(n_topics):
        start = topic * signature_width
        topic_term[topic, start:start + signature_width] *= topic_sharpness
    topic_term /= topic_term.sum(axis=1, keepdims=True)

    sizes = np.full(n_topics, n_documents // n_topics, dtype=np.int64)
    sizes[: n_documents % n_topics] += 1
    y = np.repeat(np.arange(n_topics, dtype=np.int64), sizes)

    counts = np.zeros((n_documents, vocabulary_size), dtype=np.float64)
    for doc, topic in enumerate(y):
        drawn = rng.choice(vocabulary_size, size=words_per_document, p=topic_term[topic])
        np.add.at(counts[doc], drawn, 1.0)

    # TF-IDF shaping: log-scaled term frequency × smoothed inverse document
    # frequency, then L2 row normalisation (standard text preprocessing).
    document_frequency = (counts > 0).sum(axis=0)
    idf = np.log((1.0 + n_documents) / (1.0 + document_frequency)) + 1.0
    tfidf = np.log1p(counts) * idf[None, :]
    norms = np.linalg.norm(tfidf, axis=1)
    norms = np.where(norms == 0.0, 1.0, norms)
    tfidf /= norms[:, None]

    from scipy import sparse

    X = sparse.csr_matrix(tfidf)
    X.eliminate_zeros()
    return Dataset(
        name="text-like",
        X=X,
        y=y,
        description=(
            f"Synthetic TF-IDF corpus: {n_documents} documents over "
            f"{vocabulary_size} terms, {n_topics} planted topics "
            f"(sharpness {topic_sharpness})"
        ),
        meta={"density": float(X.nnz / (X.shape[0] * X.shape[1]))},
        metric="cosine",
    )


def load_precomputed_dataset(
    path: str | Path,
    *,
    form: str = "distance",
    name: str | None = None,
) -> Dataset:
    """Load a precomputed distance/similarity matrix from an ``.npz`` file.

    The archive must hold a square float ``matrix`` and an integer
    ``labels`` vector of matching length.  ``form="similarity"`` flips the
    matrix with :func:`repro.clustering.distances.similarity_to_distance`
    before validation; ``form="distance"`` validates it as-is (square,
    symmetric, non-negative, zero diagonal, no NaN).

    Raises
    ------
    ValueError
        On a missing file, missing keys, an invalid ``form``, or a matrix
        failing precomputed-distance validation.
    """
    if form not in PRECOMPUTED_FORMS:
        raise ValueError(f"form must be one of {PRECOMPUTED_FORMS}, got {form!r}")
    path = Path(path)
    if not path.exists():
        raise ValueError(f"precomputed matrix file not found: {path}")
    with np.load(path) as archive:
        missing = [key for key in ("matrix", "labels") if key not in archive.files]
        if missing:
            raise ValueError(
                f"{path} is missing required array(s): {', '.join(missing)} "
                f"(found: {', '.join(archive.files) or 'none'})"
            )
        matrix = np.asarray(archive["matrix"], dtype=np.float64)
        labels = np.asarray(archive["labels"])
    if form == "similarity":
        matrix = similarity_to_distance(matrix)
    matrix = validate_precomputed_distances(matrix, name=f"{path.name}:matrix")
    return Dataset(
        name=name or path.stem,
        X=matrix,
        y=labels,
        description=f"Precomputed {form} matrix loaded from {path.name}",
        meta={"source": str(path), "form": form},
        metric="precomputed",
    )
