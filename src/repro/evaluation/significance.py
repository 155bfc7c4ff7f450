"""Statistical significance testing for experiment tables.

The paper marks the best mean performance per row in bold when its
difference to the alternatives is significant at the α = 0.05 level under a
*paired* t-test over the 50 experiment repetitions.  This module provides
that test (implemented directly on top of the t distribution from
:mod:`scipy.stats`) plus a convenience for comparing one method against
several alternatives.

:mod:`scipy.stats` is imported inside :func:`paired_t_test`, the one
function that needs it, not at module level: this module sits on the
import path of every CVCP selection (through :mod:`repro.core.scoring` and
the :mod:`repro.evaluation` package), and ``scipy.stats`` alone costs most
of a cold start while no selection runs a t-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class PairedTTestResult:
    """Outcome of a two-sided paired t-test.

    Attributes
    ----------
    statistic:
        The t statistic (positive when the first sample's mean is larger).
    p_value:
        Two-sided p-value.
    mean_difference:
        Mean of ``first - second``.
    n:
        Number of pairs.
    """

    statistic: float
    p_value: float
    mean_difference: float
    n: int

    def significant(self, alpha: float = DEFAULT_ALPHA) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < alpha


def paired_t_test(first: Sequence[float], second: Sequence[float]) -> PairedTTestResult:
    """Two-sided paired t-test of ``first`` against ``second``.

    Raises
    ------
    ValueError
        If the samples have different lengths or fewer than two pairs.
    """
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.shape != second.shape or first.ndim != 1:
        raise ValueError(
            f"paired samples must be 1-d and of equal length, got {first.shape} and {second.shape}"
        )
    n = first.shape[0]
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")

    differences = first - second
    mean_difference = float(differences.mean())
    std = float(differences.std(ddof=1))
    if std == 0.0:
        # Identical differences: either exactly zero (no difference at all)
        # or a constant shift, which is "infinitely" significant.
        if mean_difference == 0.0:
            return PairedTTestResult(0.0, 1.0, 0.0, n)
        return PairedTTestResult(np.inf if mean_difference > 0 else -np.inf, 0.0, mean_difference, n)

    from scipy import stats

    statistic = mean_difference / (std / np.sqrt(n))
    p_value = float(2.0 * stats.t.sf(abs(statistic), df=n - 1))
    return PairedTTestResult(float(statistic), p_value, mean_difference, n)
