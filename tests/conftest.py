import numpy as np
import pytest

from circulab import spectral


@pytest.fixture
def nonconverging_dgejsv(monkeypatch):
    """Replace LAPACK dgejsv with a stand-in that reports unconverged sweeps (info > 0)."""

    def fake(a, **kwargs):
        return np.zeros(a.shape[1]), None, None, np.ones(7), np.zeros(3, dtype=np.int32), 1

    monkeypatch.setattr(spectral, "dgejsv", fake)


@pytest.fixture
def nonconverging_dgesdd(monkeypatch):
    """Replace LAPACK dgesdd with a stand-in that reports an unconverged divide and conquer."""

    def fake(a, **kwargs):
        return np.zeros((1, 1)), np.zeros(min(a.shape)), np.zeros((1, 1)), 1

    monkeypatch.setattr(spectral, "dgesdd", fake)
