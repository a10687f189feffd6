"""Symmetric solvers and eigensolvers.

A solve on the first column of a symmetric Toeplitz matrix runs Levinson
recursion once below n = PCG_MIN_N, and Strang-preconditioned conjugate
gradients from there up, where O(n log n) iterations beat O(n^2) Levinson.
Either answer is checked by its backward error through an FFT product.
Extreme eigenpairs come from LAPACK's dsyevr restricted to the two
eigenvalues at one end of the spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class FactorizationError(Exception):
    """Matrix not positive definite, judged from its spectrum."""


class SolveError(Exception):
    """A Toeplitz solve failed.

    Levinson met a singular leading minor, conjugate gradients broke down or
    reached its iteration cap, the right-hand side or the result is not
    finite, or the backward error is too large.
    """


# Largest normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf)
# that toeplitz_solve accepts.
BACKWARD_ERROR_TOL = 1e-12

# Smallest n solved by conjugate gradients rather than Levinson: the
# measured break-even per solve lies between n = 512 and n = 640.
PCG_MIN_N = 600
# Half-width of the band that the CG product sums directly.
PCG_BAND = 16
# CG stops at ||r||_2 <= PCG_RTOL ||b||_2 and fails after PCG_MAX_ITER
# iterations; assembled operators up to n = 65536 take at most 18.
PCG_RTOL = 1e-14
PCG_MAX_ITER = 200


def _toeplitz_matvec(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric Toeplitz A with first column col, via its 2n circulant embedding."""
    n = len(col)
    circ = np.concatenate((col, [0.0], col[:0:-1]))
    return np.fft.irfft(np.fft.rfft(circ) * np.fft.rfft(x, 2 * n), 2 * n)[:n]


def _pcg(col: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Preconditioned conjugate gradients on A x = b, A the symmetric Toeplitz matrix of col.

    The product sums the entries within PCG_BAND of the diagonal directly
    and the rest through the 2n circulant embedding, so the cancelling
    near-diagonal sum carries no FFT rounding.  The preconditioner is
    Strang's circulant.  col and b are first scaled by powers of two, which
    is exact and keeps the clipped preconditioner eigenvalues normal.
    """
    n = len(col)
    if not np.all(np.isfinite(b)):
        raise SolveError("right-hand side is not finite")
    if not b.any():
        return np.zeros(n)
    e_col = int(np.frexp(np.abs(col).max())[1])
    e_b = int(np.frexp(np.abs(b).max())[1])
    col = np.ldexp(col, -e_col)
    b = np.ldexp(b, -e_b)
    band = np.concatenate((col[PCG_BAND:0:-1], col[:PCG_BAND + 1]))
    far = col.copy()
    far[:PCG_BAND + 1] = 0.0
    far_symbol = np.fft.rfft(np.concatenate((far, [0.0], far[:0:-1])))
    # Eigenvalues of Strang's circulant (c_k for k <= n/2, wrapped), clipped below.
    strang = np.fft.rfft(np.concatenate((col[:n // 2 + 1], col[1:(n + 1) // 2][::-1]))).real
    strang = np.maximum(strang, 1e-14 * strang.max())

    def product(v):
        far_part = np.fft.irfft(far_symbol * np.fft.rfft(v, 2 * n), 2 * n)[:n]
        return np.convolve(v, band, "same") + far_part

    def precondition(v):
        return np.fft.irfft(np.fft.rfft(v) / strang, n)

    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z
    rz = float(r @ z)
    stop = PCG_RTOL * float(np.linalg.norm(b))
    for _ in range(PCG_MAX_ITER):
        q = product(p)
        pq = float(p @ q)
        if not 0.0 < pq < math.inf:
            raise SolveError(f"conjugate gradients broke down: p^T A p = {pq:.3e}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if float(np.linalg.norm(r)) <= stop:
            return np.ldexp(x, e_b - e_col)
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    raise SolveError(f"conjugate gradients did not reach relative residual {PCG_RTOL:g} "
                     f"in {PCG_MAX_ITER} iterations")


def toeplitz_solve(col, b) -> np.ndarray:
    """Solve A x = b for the symmetric Toeplitz matrix A with first column col.

    Below PCG_MIN_N, one pass of Levinson recursion (O(n^2) time, O(n)
    memory); from PCG_MIN_N up, preconditioned conjugate gradients (_pcg,
    O(n log n) per iteration).  The result must be finite with a normwise
    backward error at most BACKWARD_ERROR_TOL, taking
    ||A||_inf <= |c_0| + 2 sum |c_k| and the residual from an FFT product;
    otherwise SolveError.  A b whose shape is not col's raises ValueError.
    """
    col = np.asarray(col, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape != col.shape:
        raise ValueError(f"expected right-hand side of shape {col.shape}, got {b.shape}")
    if len(col) < PCG_MIN_N:
        try:
            x = scipy.linalg.solve_toeplitz(col, b, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"Levinson recursion failed: {exc}") from exc
    else:
        x = _pcg(col, b)
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
