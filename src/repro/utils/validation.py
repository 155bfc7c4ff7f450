"""Input validation helpers shared across the library."""

from __future__ import annotations

import sys
from typing import Sequence

import numpy as np


def is_sparse(X: object) -> bool:
    """Whether ``X`` is a scipy sparse matrix or array, without importing scipy.

    A sparse matrix cannot exist unless :mod:`scipy.sparse` has been
    imported (unpickling one imports it too), so when the module is absent
    the answer is ``False`` and dense code paths never pay its import.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(X)


def check_array_2d(X: object, *, name: str = "X", dtype: type = np.float64) -> np.ndarray:
    """Validate that ``X`` is a non-empty 2-d numeric array and return it.

    Accepts anything :func:`numpy.asarray` accepts; raises ``ValueError``
    with a descriptive message otherwise.  scipy sparse matrices pass
    through as CSR ``float64`` without densifying — only their stored
    values are checked for finiteness.
    """
    if is_sparse(X):
        matrix = X.tocsr()
        if matrix.dtype != np.float64:
            matrix = matrix.astype(np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"{name} must be a 2-d array, got shape {matrix.shape}")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError(f"{name} must not be empty, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError(f"{name} contains NaN or infinite values")
        return matrix
    array = np.asarray(X, dtype=dtype)
    if array.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {array.shape}")
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise ValueError(f"{name} must not be empty, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return array


def check_labels(labels: object, n_samples: int | None = None, *, name: str = "labels") -> np.ndarray:
    """Validate a 1-d integer label vector (noise encoded as ``-1`` allowed)."""
    array = np.asarray(labels)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must not be empty")
    if n_samples is not None and array.shape[0] != n_samples:
        raise ValueError(
            f"{name} has {array.shape[0]} entries but {n_samples} samples were expected"
        )
    if array.dtype.kind not in "iu":
        # Allow label vectors given as floats or strings only if losslessly
        # convertible to integers; class labels in this library are integers.
        try:
            as_int = array.astype(np.int64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} must contain integers, got dtype {array.dtype}") from exc
        if array.dtype.kind == "f" and not np.all(as_int == array):
            raise ValueError(f"{name} must contain integers, got non-integral floats")
        array = as_int
    return array.astype(np.int64, copy=False)


def check_fraction(value: float, *, name: str = "fraction", allow_zero: bool = False) -> float:
    """Validate a fraction in ``(0, 1]`` (or ``[0, 1]`` if ``allow_zero``)."""
    value = float(value)
    lower_ok = value >= 0.0 if allow_zero else value > 0.0
    if not lower_ok or value > 1.0:
        bounds = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must be in {bounds}, got {value}")
    return value


def check_positive_int(value: object, *, name: str = "value", minimum: int = 1) -> int:
    """Validate an integer ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def unique_labels(labels: Sequence[int] | np.ndarray, *, ignore_noise: bool = True) -> np.ndarray:
    """Sorted unique labels, optionally dropping the noise label ``-1``."""
    array = np.asarray(labels)
    uniques = np.unique(array)
    if ignore_noise:
        uniques = uniques[uniques >= 0]
    return uniques
