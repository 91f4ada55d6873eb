import numpy as np
import pytest

from circulab import spectral


@pytest.fixture
def nonconverging_dgejsv(monkeypatch):
    """Replace LAPACK dgejsv with a stand-in that reports unconverged sweeps (info > 0)."""

    def fake(a, **kwargs):
        return np.zeros(a.shape[1]), None, None, np.ones(7), np.zeros(3, dtype=np.int32), 1

    monkeypatch.setattr(spectral, "dgejsv", fake)
