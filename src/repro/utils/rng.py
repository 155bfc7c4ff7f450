"""Random-number-generator handling.

All stochastic components of the library accept a ``random_state`` argument
that may be ``None``, an integer seed, or an existing
:class:`numpy.random.Generator`; :func:`check_random_state` normalises it.
"""

from __future__ import annotations

import numpy as np

RandomStateLike = None | int | np.random.Generator


def check_random_state(random_state: RandomStateLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for a fresh nondeterministic generator, an ``int`` seed for
        a reproducible generator, or an existing generator which is returned
        unchanged.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed, or a numpy.random.Generator; "
        f"got {type(random_state).__name__}"
    )


def spawn_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from ``rng``.

    The experiment drivers persist per-trial artifacts keyed by these seeds
    (see :mod:`repro.experiments.artifacts`); drawing plain integers rather
    than generators keeps the keys serialisable while
    ``np.random.default_rng(seed)`` reproduces the exact child stream.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [int(seed) for seed in seeds]
