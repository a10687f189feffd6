"""Symmetric solvers and eigensolvers.

A solve runs Levinson recursion once on the first column of a symmetric
Toeplitz matrix, at every n, and checks its backward error with an FFT
product; extreme eigenpairs come from LAPACK's dsyevr restricted to the two
eigenvalues at one end of the spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class FactorizationError(Exception):
    """Matrix not positive definite, judged from its spectrum."""


class SolveError(Exception):
    """A Toeplitz solve failed: singular leading minor, non-finite result or large backward error."""


# Largest normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf)
# that toeplitz_solve accepts.
BACKWARD_ERROR_TOL = 1e-12


def _toeplitz_matvec(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric Toeplitz A with first column col, via its 2n circulant embedding."""
    n = len(col)
    circ = np.concatenate((col, [0.0], col[:0:-1]))
    return np.fft.irfft(np.fft.rfft(circ) * np.fft.rfft(x, 2 * n), 2 * n)[:n]


def toeplitz_solve(col, b) -> np.ndarray:
    """Solve A x = b for the symmetric Toeplitz matrix A with first column col.

    One pass of Levinson recursion (O(n^2) time, O(n) memory).  The result
    must be finite with a normwise backward error at most BACKWARD_ERROR_TOL,
    taking ||A||_inf <= |c_0| + 2 sum |c_k| and the residual from an FFT
    product; otherwise SolveError.
    """
    col = np.asarray(col, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = scipy.linalg.solve_toeplitz(col, b, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"Levinson recursion failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolveError("Toeplitz solve returned non-finite values")
    r_norm = float(np.abs(b - _toeplitz_matvec(col, x)).max(initial=0.0))
    a_norm = abs(float(col[0])) + 2.0 * float(np.abs(col[1:]).sum())
    bound = BACKWARD_ERROR_TOL * a_norm * float(np.abs(x).max(initial=0.0))
    if not r_norm <= bound:
        raise SolveError(f"Toeplitz solve residual {r_norm:.3e} exceeds "
                         f"{BACKWARD_ERROR_TOL:g} * ||A|| * ||x|| = {bound:.3e}")
    return x


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with unit eigenvector (h-weighted norm when h is supplied).

    residual is ||A v - value v|| for the Euclidean-unit v.  gap is the
    relative distance |value - next| / |value| to the next eigenvalue
    inwards; the eigenvector's angular error is about residual / (gap |value|).
    """

    value: float
    vector: np.ndarray
    residual: float
    gap: float

    def meets(self, tol: float) -> bool:
        """Whether the pair is finite with residual at most tol * |value|."""
        return math.isfinite(self.value) and self.residual <= tol * abs(self.value)


def eig_extreme(A, which: str = "largest", h: float = 1.0) -> EigenPair:
    """Extreme eigenpair of a symmetric matrix by LAPACK's MRRR driver (dsyevr).

    One call returns the extreme pair and its inward neighbour, which gives
    the relative gap.  Callers judge the pair with EigenPair.meets(tol).
    """
    if which not in ("largest", "smallest"):
        raise ValueError(f"which must be 'largest' or 'smallest', got {which!r}")
    m = np.asarray(getattr(A, "matrix", A), dtype=float)  # an operator or a bare ndarray
    n = m.shape[0]
    lo, hi = (max(n - 2, 0), n - 1) if which == "largest" else (0, min(1, n - 1))
    values, vectors = scipy.linalg.eigh(m, subset_by_index=[lo, hi], driver="evr")
    k = -1 if which == "largest" else 0
    lam = float(values[k])
    v = vectors[:, k]
    # BLAS dnrm2 scales as it sums, so a residual near the top of the double range stays finite.
    residual = float(scipy.linalg.norm(m @ v - lam * v, check_finite=False))
    gap = float(values[-1] - values[0]) / abs(lam) if n > 1 and lam != 0.0 else math.inf
    return EigenPair(value=lam, vector=v / np.sqrt(h * float(v @ v)), residual=residual, gap=gap)
