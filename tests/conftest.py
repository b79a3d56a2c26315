import os

# Sweeps fork one process per CPU, and OpenBLAS's own threads
# then compete with them; set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def crandn(rng):
    """Standard circularly-symmetric complex Gaussian samples."""

    def _crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return _crandn
