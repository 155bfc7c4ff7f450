"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constraints import ConstraintSet, cannot_link, must_link
from repro.datasets import make_blobs, make_iris_like, make_two_moons


@pytest.fixture(scope="session", autouse=True)
def _isolated_spill_directory(tmp_path_factory):
    """Keep memmap spill files inside the test session's tmp tree."""
    import os

    from repro.core.distance_backend import SPILL_DIR_ENV_VAR

    previous = os.environ.get(SPILL_DIR_ENV_VAR)
    os.environ[SPILL_DIR_ENV_VAR] = str(tmp_path_factory.mktemp("distance-spill"))
    yield
    if previous is None:
        os.environ.pop(SPILL_DIR_ENV_VAR, None)
    else:
        os.environ[SPILL_DIR_ENV_VAR] = previous


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def blobs_dataset():
    """Three well-separated Gaussian blobs (60 points, 2-d)."""
    return make_blobs([20, 20, 20], 2, center_spread=10.0, cluster_std=0.6,
                      random_state=7, name="test-blobs")


@pytest.fixture(scope="session")
def wide_blobs_dataset():
    """Three Gaussian blobs (300 points, 8-d) that Lloyd's needs several steps for."""
    return make_blobs([100, 100, 100], 8, random_state=0, name="wide-blobs")


@pytest.fixture(scope="session")
def moons_dataset():
    """Two interleaved moons (120 points) — non-convex structure."""
    return make_two_moons(120, noise=0.06, random_state=3)


@pytest.fixture(scope="session")
def iris_like_dataset():
    return make_iris_like(random_state=0)


@pytest.fixture()
def simple_constraints() -> ConstraintSet:
    """The Figure 2 example: ML(0,1), ML(2,3), CL(1,2)."""
    return ConstraintSet([must_link(0, 1), must_link(2, 3), cannot_link(1, 2)])


@pytest.fixture()
def blob_labels(blobs_dataset) -> np.ndarray:
    return blobs_dataset.y.copy()
