import pytest

import fraclap.discretize


@pytest.fixture
def dense_matrices(monkeypatch):
    """Every first column passed to discretize.toeplitz, one per dense matrix built."""
    calls = []
    original = fraclap.discretize.toeplitz

    def counted(col):
        calls.append(col)
        return original(col)

    monkeypatch.setattr(fraclap.discretize, "toeplitz", counted)
    return calls
