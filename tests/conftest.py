import pytest

import fraclap.linalg


@pytest.fixture
def factorizations(monkeypatch):
    """Every argument passed to linalg.cholesky_factor while the test runs."""
    calls = []
    original = fraclap.linalg.cholesky_factor

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(fraclap.linalg, "cholesky_factor", counted)
    return calls
