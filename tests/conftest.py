import os

import numpy as np
import pytest
from hypothesis import settings

from entgeo.matcore import DimSplit

# CI (which sets CI) draws the same hypothesis examples on every run
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

TWO_QUBITS = DimSplit(2, 2)


@pytest.fixture
def two_qubits():
    return TWO_QUBITS


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
