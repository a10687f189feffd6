"""Dense symmetric solvers and eigensolvers.

Direct solves go through LAPACK's Cholesky (dpotrf/dpotrs) with one step of
iterative refinement; extreme eigenpairs come from LAPACK's dsyevr
restricted to the two eigenvalues at one end of the spectrum.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs


class FactorizationError(Exception):
    """Cholesky breakdown; carries the failing pivot index (1-based)."""

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(f"matrix is not positive definite: pivot {self.pivot} failed")


def _as_matrix(A) -> np.ndarray:
    """Accept an assembled operator or a bare symmetric ndarray."""
    m = getattr(A, "matrix", A)
    return np.asarray(m, dtype=float)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular Cholesky factor kept around for repeated solves."""

    chol: np.ndarray
    matrix: np.ndarray

    def solve(self, b: np.ndarray, refine: bool = True) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x, info = dpotrs(self.chol, b, lower=1)
        if info != 0:
            raise FactorizationError(abs(info))
        if not refine:
            return x
        # One refinement step keeps the relative residual near round-off
        # even for badly conditioned fine-grid operators.
        r = b - self.matrix @ x
        dx, info = dpotrs(self.chol, r, lower=1)
        if info != 0:
            raise FactorizationError(abs(info))
        return x + dx


def cholesky_factor(A) -> CholeskyFactor:
    m = _as_matrix(A)
    c, info = dpotrf(m, lower=1)
    if info > 0:
        raise FactorizationError(info)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dpotrf")
    return CholeskyFactor(chol=c, matrix=m)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with unit eigenvector (h-weighted norm when h is supplied).

    residual is ||A v - value v|| for the Euclidean-unit v.  gap is the
    relative distance |value - next| / |value| to the next eigenvalue
    inwards; the eigenvector's angular error is about residual / (gap |value|).
    """

    value: float
    vector: np.ndarray
    converged: bool
    residual: float
    gap: float

    def meets(self, tol: float) -> bool:
        """Whether the pair is finite with residual at most tol * |value|."""
        return math.isfinite(self.value) and self.residual <= tol * abs(self.value)


def eig_extreme(A, which: str = "largest", tol: float = 1e-9, h: float = 1.0) -> EigenPair:
    """Extreme eigenpair of a symmetric matrix by LAPACK's MRRR driver (dsyevr).

    One call returns the extreme pair and its inward neighbour, which gives
    the relative gap.  converged reports EigenPair.meets(tol).
    """
    if which not in ("largest", "smallest"):
        raise ValueError(f"which must be 'largest' or 'smallest', got {which!r}")
    m = _as_matrix(A)
    n = m.shape[0]
    lo, hi = (max(n - 2, 0), n - 1) if which == "largest" else (0, min(1, n - 1))
    values, vectors = scipy.linalg.eigh(m, subset_by_index=[lo, hi], driver="evr")
    k = -1 if which == "largest" else 0
    lam = float(values[k])
    v = vectors[:, k]
    residual = float(np.linalg.norm(m @ v - lam * v))
    gap = float(values[-1] - values[0]) / abs(lam) if n > 1 and lam != 0.0 else math.inf
    pair = EigenPair(value=lam, vector=v / np.sqrt(h * float(v @ v)), converged=False,
                     residual=residual, gap=gap)
    return replace(pair, converged=pair.meets(tol))
