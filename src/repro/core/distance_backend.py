"""Tiered distance backends: ``blockwise``, ``memmap`` and ``neighbors``.

The CVCP protocol re-clusters every (parameter value × fold) cell, and every
density-based layer of this library — OPTICS, the single-linkage/Prim
hierarchy, FOSC, silhouette evaluation, the memoised distance cache — starts
from the full ``(n, n)`` pairwise-distance matrix.  Materialising that matrix
densely caps the reproduction at a few thousand points; this module makes the
matrix *provider* pluggable instead:

``blockwise``
    The default.  The matrix lives in RAM; it is filled panel-at-a-time and
    the derived computations (core distances, mutual reachability) stream
    in row panels with a bounded working set — no full-matrix temporaries.
    ``"dense"``, the name of a former whole-matrix tier that was never
    faster and needed more memory, is a deprecated alias of this tier.
``memmap``
    Out-of-core: matrices live in spill files under
    :func:`spill_directory` and are consumed through read-only
    ``np.memmap`` views whose pages the OS can evict under memory
    pressure.  Spill files are written atomically (temp file + rename),
    cleaned up on exceptions, and keyed by the data fingerprint — so
    process-backend executor workers **map the same file** instead of
    recomputing or receiving the matrix over a pipe, and a re-run after a
    kill reuses the finished spill.
``neighbors``
    Sub-quadratic: no full matrix at all.  A KD-tree epsilon-bounded k-NN
    graph (:mod:`repro.core.neighbor_graph`) replaces the matrix with
    sparse CSR structures, making ``n = 100000`` fits feasible.  This tier
    is **approximate-by-contract**, not bit-identical — see below.

Bit-identity contract
---------------------
The *exact* tiers (:data:`EXACT_DISTANCE_BACKENDS`) produce
**bit-identical** matrices — and therefore bit-identical clusterings — for
the same input, because the canonical computation is the fixed row-panel
scheme of :mod:`repro.clustering.distances`: every exact tier performs the
same per-panel NumPy/BLAS calls and differs only in where the result is
stored and how the derived passes are scheduled.  Parity is enforced
across backends *and* across the serial/thread/process executors by
``tests/test_distance_backend.py`` and asserted before timing by
``repro bench scale``.

The ``neighbors`` tier sits outside this contract: points only see their
``k_neighbors`` nearest neighbours within ``epsilon``.  Its own contract —
entry-for-entry equality with ``blockwise`` in the exhaustive
``k_neighbors >= n`` regime, ARI-vs-exact floors at practical settings —
is documented in ``docs/determinism.md`` and enforced by
``tests/test_neighbor_graph.py`` and the scale bench.

Selection
---------
Every consumer takes
``distance_backend="blockwise" | "memmap" | "neighbors"``
(``None`` consults the ``REPRO_DISTANCE_BACKEND`` environment variable and
falls back to ``"blockwise"``).  The spill directory honours
``REPRO_DISTANCE_SPILL_DIR``; the ``neighbors`` tier additionally reads
``REPRO_NEIGHBOR_EPSILON``/``REPRO_NEIGHBOR_K``.  Worker processes inherit
all of these variables, so the process executor composes with every tier.
"""

from __future__ import annotations

import hashlib
import itertools
import mmap
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

#: Per-process counter making spill temp names unique per fill.
_FILL_COUNTER = itertools.count()

#: The exact full-matrix tiers: bit-identical to each other by construction.
EXACT_DISTANCE_BACKENDS: tuple[str, ...] = ("blockwise", "memmap")

#: Recognised distance backends, in order of increasing scale.  The
#: ``neighbors`` tier is *approximate-by-contract* (sparse k-NN graphs; see
#: :mod:`repro.core.neighbor_graph`) — bit-identity loops and shared-cache
#: assumptions must iterate :data:`EXACT_DISTANCE_BACKENDS` instead.
DISTANCE_BACKENDS: tuple[str, ...] = EXACT_DISTANCE_BACKENDS + ("neighbors",)

#: Deprecated backend names and the tier each resolves to (with a
#: ``DeprecationWarning``).
DISTANCE_BACKEND_ALIASES: dict[str, str] = {"dense": "blockwise"}

#: Backend used when neither the argument nor the environment selects one.
DEFAULT_DISTANCE_BACKEND = "blockwise"

#: Environment variable consulted when ``distance_backend=None``.
DISTANCE_BACKEND_ENV_VAR = "REPRO_DISTANCE_BACKEND"

#: Environment variable overriding the spill-file directory.
SPILL_DIR_ENV_VAR = "REPRO_DISTANCE_SPILL_DIR"

#: Suffix of finished spill files.
SPILL_SUFFIX = ".dmm"


def resolve_distance_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument, the environment, or the default.

    Parameters
    ----------
    backend:
        ``"blockwise"``, ``"memmap"``, ``"neighbors"``, or ``None``.
        ``None`` reads ``REPRO_DISTANCE_BACKEND`` and falls back to
        :data:`DEFAULT_DISTANCE_BACKEND` when it is unset or empty.  A
        deprecated alias (:data:`DISTANCE_BACKEND_ALIASES`) resolves to its
        tier with a ``DeprecationWarning``.

    Raises
    ------
    ValueError
        If the argument or the environment variable names an unknown backend.
    """
    origin = "distance_backend"
    if backend is None:
        backend = os.environ.get(DISTANCE_BACKEND_ENV_VAR, "").strip() or (
            DEFAULT_DISTANCE_BACKEND
        )
        origin = DISTANCE_BACKEND_ENV_VAR
    if backend in DISTANCE_BACKEND_ALIASES:
        resolved = DISTANCE_BACKEND_ALIASES[backend]
        warnings.warn(
            f"{origin}={backend!r} is deprecated; it resolves to {resolved!r}",
            DeprecationWarning,
            stacklevel=2,
        )
        return resolved
    if backend not in DISTANCE_BACKENDS:
        raise ValueError(f"{origin} must be one of {DISTANCE_BACKENDS}, got {backend!r}")
    return backend


def spill_directory() -> Path:
    """Directory holding memmap spill files (created on first use).

    ``REPRO_DISTANCE_SPILL_DIR`` overrides the default
    ``<tempdir>/repro-distance-spill``.  The path is deterministic — not
    per-process — which is what lets executor worker processes map the
    parent's spill files and lets an interrupted run resume from its
    finished spills.
    """
    configured = os.environ.get(SPILL_DIR_ENV_VAR, "").strip()
    path = Path(configured) if configured else Path(tempfile.gettempdir()) / "repro-distance-spill"
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_spill_directory() -> int:
    """Remove every spill file (finished and stale temporaries); returns the count."""
    removed = 0
    root = spill_directory()
    for path in list(root.iterdir()):
        if path.suffix == SPILL_SUFFIX or SPILL_SUFFIX + ".tmp-" in path.name:
            path.unlink(missing_ok=True)
            removed += 1
    return removed


def _advise_dontneed(matrix: np.ndarray) -> None:
    """Drop the page residency of a memmap (no-op for anything else).

    ``MADV_DONTNEED`` on a file-backed shared mapping is lossless: clean
    pages are discarded and fault back in from the file on the next read.
    """
    raw = getattr(matrix, "_mmap", None)
    if raw is None or not hasattr(raw, "madvise"):  # pragma: no cover - platform
        return
    try:
        raw.madvise(mmap.MADV_DONTNEED)
    except (ValueError, OSError):  # pragma: no cover - mapping already closed
        pass


class DistanceBackend:
    """One storage/streaming tier for pairwise-distance matrices.

    Subclasses override the hooks; consumers only ever talk to this
    interface (usually through
    :func:`repro.utils.cache.cached_pairwise_distances`, which adds the
    per-process memo on top).
    """

    #: Backend name (one of :data:`DISTANCE_BACKENDS`).
    name: str = ""

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        """The canonical ``(n, n)`` distance matrix of ``X`` in this tier's storage."""
        raise NotImplementedError

    def derived_matrix(self, n_samples: int, tag: str) -> np.ndarray:
        """Writable ``(n, n)`` storage for a derived matrix (e.g. mutual reachability)."""
        raise NotImplementedError

    def release(self, matrix: np.ndarray) -> None:
        """Hint that ``matrix`` will not be read for a while (drops memmap pages)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BlockwiseBackend(DistanceBackend):
    """In-RAM matrices; every derived pass streams row panels (the default)."""

    name = "blockwise"

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        from repro.clustering.distances import pairwise_distances

        return pairwise_distances(X, metric=metric)

    def derived_matrix(self, n_samples: int, tag: str) -> np.ndarray:
        return np.empty((n_samples, n_samples), dtype=np.float64)


class MemmapBackend(DistanceBackend):
    """Out-of-core matrices in atomically-written, fingerprint-keyed spill files."""

    name = "memmap"

    #: Flush-and-drop the dirty pages of a spill being written every this
    #: many panels, bounding the write-phase resident set.
    flush_panels = 16

    # -- spill protocol -------------------------------------------------
    def spill_path(self, X: np.ndarray, metric: str) -> Path:
        """Deterministic spill file for ``(X, metric)`` pairwise distances."""
        from repro.utils.cache import array_fingerprint

        digest = hashlib.blake2b(
            f"pairwise:{array_fingerprint(X)}:{metric}".encode(), digest_size=16
        ).hexdigest()
        return spill_directory() / f"{digest}-{X.shape[0]}{SPILL_SUFFIX}"

    def _fill_spill(self, path: Path, X: np.ndarray, metric: str) -> None:
        """Write the matrix into ``path`` atomically (temp file + rename)."""
        from repro.clustering.distances import pairwise_distances

        n = X.shape[0]
        # The temp name is unique per fill, not just per process: with the
        # memo disabled (configure_distance_cache(0)) two thread-backend
        # tasks can fill the same spill concurrently, and each must rename
        # its own finished temp (last writer wins with identical bytes).
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}-{next(_FILL_COUNTER)}")
        matrix = np.memmap(tmp, dtype=np.float64, mode="w+", shape=(n, n))
        panels_written = 0

        def bound_dirty_pages(start: int, stop: int) -> None:
            # Flush and drop dirty pages every few panels so the write
            # phase never holds the whole matrix resident.
            nonlocal panels_written
            panels_written += 1
            if panels_written % self.flush_panels == 0:
                matrix.flush()
                _advise_dontneed(matrix)

        try:
            pairwise_distances(X, metric=metric, out=matrix, panel_done=bound_dirty_pages)
            matrix.flush()
            _advise_dontneed(matrix)
        except BaseException:
            # Safe cleanup: never leave a half-written temp file behind.
            del matrix
            tmp.unlink(missing_ok=True)
            raise
        del matrix
        os.replace(tmp, path)

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        from scipy import sparse

        if not sparse.issparse(X):
            X = np.asarray(X)
        n = X.shape[0]
        path = self.spill_path(X, metric)
        expected_bytes = n * n * np.dtype(np.float64).itemsize
        if not (path.exists() and path.stat().st_size == expected_bytes):
            self._fill_spill(path, X, metric)
        return np.memmap(path, dtype=np.float64, mode="r", shape=(n, n))

    def derived_matrix(self, n_samples: int, tag: str) -> np.ndarray:
        """Ephemeral writable spill: unlinked immediately, reclaimed on close/crash."""
        handle, raw_path = tempfile.mkstemp(
            prefix=f"{tag}-", suffix=f"{SPILL_SUFFIX}.tmp-{os.getpid()}",
            dir=spill_directory(),
        )
        os.close(handle)
        matrix = np.memmap(raw_path, dtype=np.float64, mode="w+", shape=(n_samples, n_samples))
        # The mapping keeps the data alive; dropping the directory entry now
        # means the file can never leak, even if the process dies mid-fit.
        Path(raw_path).unlink(missing_ok=True)
        return matrix

    def release(self, matrix: np.ndarray) -> None:
        if getattr(matrix, "flags", None) is not None and matrix.flags.writeable:
            flush = getattr(matrix, "flush", None)
            if flush is not None:
                flush()
        _advise_dontneed(matrix)


class NeighborsBackend(DistanceBackend):
    """The sparse epsilon-bounded k-NN tier (:mod:`repro.core.neighbor_graph`).

    This tier never materialises the full pairwise matrix — consumers that
    know about it (OPTICS, :class:`~repro.clustering.hierarchy.DensityHierarchy`)
    branch to the sparse graph pipeline instead of calling :meth:`pairwise`;
    consumers that genuinely need all ``n²`` entries (the silhouette,
    MPCK-Means, non-Euclidean metrics) get a clear error pointing at the
    exact tiers.
    """

    name = "neighbors"

    def _full_matrix_error(self, consumer: str) -> ValueError:
        return ValueError(
            f"distance_backend='neighbors' builds a sparse neighbour graph and "
            f"cannot materialise the full (n, n) {consumer}; use an exact "
            f"distance backend ({', '.join(EXACT_DISTANCE_BACKENDS)}) for "
            f"consumers that need every pairwise entry"
        )

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        raise self._full_matrix_error("pairwise-distance matrix")

    def derived_matrix(self, n_samples: int, tag: str) -> np.ndarray:
        raise self._full_matrix_error(f"derived matrix ({tag})")


_BACKENDS: dict[str, DistanceBackend] = {
    "blockwise": BlockwiseBackend(),
    "memmap": MemmapBackend(),
    "neighbors": NeighborsBackend(),
}


def get_distance_backend(backend: str | None = None) -> DistanceBackend:
    """The shared backend instance for a name (``None`` = environment/default)."""
    return _BACKENDS[resolve_distance_backend(backend)]
