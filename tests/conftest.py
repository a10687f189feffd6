import dataclasses

import pytest

import fraclap.discretize
import fraclap.limitlab


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


@pytest.fixture
def orders_failing_from_075(monkeypatch):
    """The sweep's control solve reads as not converged at every order s >= 0.75.

    The classical reference still converges.  Returns the orders solved, in call order.
    """
    solved = []
    original = fraclap.limitlab.eigen_solve_control

    def solve(op, cfg):
        result = original(op, cfg)
        if op.kind == "classical":
            return result
        solved.append(op.s)
        return dataclasses.replace(result, converged=result.converged and op.s < 0.75)

    monkeypatch.setattr(fraclap.limitlab, "eigen_solve_control", solve)
    return solved
