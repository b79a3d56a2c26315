import os

# Sweeps fork one process per CPU, and OpenBLAS's own threads
# then compete with them; set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

# A randomized search of 1000 draws per property, for a run by hand:
#   python -m pytest tests/test_properties.py --hypothesis-profile deep
# The default profile is left as Hypothesis defines it.
settings.register_profile("deep", max_examples=1000, derandomize=False,
                          deadline=None, database=None)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def crandn(rng):
    """Standard circularly-symmetric complex Gaussian samples."""

    def _crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return _crandn
