"""Symmetric solvers and eigensolvers.

A solve on the first column of a symmetric Toeplitz matrix runs Levinson
recursion once below n = PCG_MIN_N, and Strang-preconditioned conjugate
gradients from there up, where O(n log n) iterations beat O(n^2) Levinson.
Either answer is checked by its backward error through toeplitz_product.

The smallest and the largest eigenpair come from one pass on the same
first column.  A symmetric Toeplitz matrix is centrosymmetric, so its
eigenvectors split into even and odd ones, each the eigenvectors of a
symmetric half matrix of order about n/2 (Cantoni & Butler, Linear
Algebra Appl. 13, 1976).  One routine, _half_pairs, reduces a half to
tridiagonal form once (LAPACK dsytrd, with block size 4 up to order
SMALL_BLOCK_MAX_K, so that no BLAS worker thread wakes and then spins
on through the single-threaded work that follows) and takes its pairs
from dstemr: the two at each end for eig_extreme, which maps their
vectors back by dormqr and merges the four ends on each side, and every
pair for even_basis, whose basis the gradient iteration of
fraclap.control applies to one vector at a time.  No n x n matrix is
formed; the two reductions cost a quarter of the flops of one reduction
of the full matrix.  A half of order 1 takes the same calls but dormqr,
which _apply_q skips.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SolveError(Exception):
    """A non-finite array or a failed computation in fraclap.linalg, control or limitlab.

    A first column that is not finite, for a solve or an eigen pass.  Or a
    Toeplitz solve failed: Levinson met a singular leading minor, conjugate
    gradients broke down or reached its iteration cap, the right-hand side
    or the result is not finite, or the backward error is too large.  Or a
    LAPACK routine (dsytrd, dstemr, dormqr) reported failure, the operator
    is not positive definite (forward.check_positive_definite), or run_sweep
    met a control solve that did not converge.
    """


# Largest normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf)
# that toeplitz_solve accepts.
BACKWARD_ERROR_TOL = 1e-12

# Smallest n solved by conjugate gradients rather than Levinson: the
# measured break-even per solve lies between n = 512 and n = 640.
PCG_MIN_N = 600
# Half-width of the band that toeplitz_product sums directly from PCG_MIN_N up.
PCG_BAND = 16
# CG stops at ||r||_2 <= PCG_RTOL ||b||_2 and fails after PCG_MAX_ITER
# iterations; assembled operators up to n = 65536 take at most 18.
PCG_RTOL = 1e-14
PCG_MAX_ITER = 200
# Largest half order that dsytrd reduces with block size 4 (workspace 4k) instead of the
# queried block of 32: with that block scipy-openblas splits the updates over its threads
# from order 65 up, and the woken worker threads spin on through whatever runs next.
# From order 201 dsymv threads whatever the block, so the queried workspace stays there.
SMALL_BLOCK_MAX_K = 200


def _smooth_length(n: int) -> int:
    """The smallest integer >= n whose only prime factors are 2, 3 and 5, a fast FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def pairwise_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a_i b_i) as numpy's pairwise sum: the one summation rule behind every reported sum.

    BLAS ddot splits its sum by the thread count from some n between 10 000 and 32 768, so
    its last bit depends on the machine; numpy's pairwise sum of the products does not, and
    its error bound grows like log n, not n (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002).
    """
    return float(np.add.reduce(a * b))  # np.sum's reduction, without its wrapper's 1.5 us


def toeplitz_product(col: np.ndarray):
    """v -> A v for the symmetric Toeplitz matrix A of col, summed directly below PCG_MIN_N.

    From there up, entries beyond PCG_BAND of the diagonal go through a circulant embedding
    of fast length m >= 2n - 1, so the cancelling near-diagonal sum carries no FFT rounding.
    """
    n = len(col)
    w = n - 1 if n < PCG_MIN_N else min(PCG_BAND, n - 1)
    band = np.concatenate((col[w:0:-1], col[:w + 1]))
    if w == n - 1:  # "valid" keeps the n sums that overlap v whole
        return lambda v: np.convolve(v, band, "valid")
    m = _smooth_length(2 * n - 1)
    far = np.concatenate((col, np.zeros(m - 2 * n + 1), col[:0:-1]))
    far[:w + 1] = far[m - w:] = 0.0
    far_symbol = np.fft.rfft(far)
    return lambda v: np.convolve(v, band)[w:w + n] + np.fft.irfft(far_symbol * np.fft.rfft(v, m), m)[:n]


def _pcg(col: np.ndarray, b: np.ndarray, product) -> np.ndarray:
    """Strang-preconditioned conjugate gradients on A x = b, A = toeplitz(col), A v = product(v).

    The preconditioner is R C^-1 R^T, C Strang's circulant of fast order k >= n and R the
    restriction to the first n entries; it is SPD because C is.  Each inner product and norm
    is pairwise_dot, so x has the same bytes on any number of BLAS threads.
    """
    n = len(col)
    if not b.any():
        return np.zeros(n)
    k = _smooth_length(n)
    # Eigenvalues of Strang's circulant (c_j for j <= k/2, wrapped), clipped below.
    strang = np.fft.rfft(np.concatenate((col[:k // 2 + 1], col[1:(k + 1) // 2][::-1]))).real
    strang = np.maximum(strang, 1e-14 * strang.max())

    def precondition(v):
        return np.fft.irfft(np.fft.rfft(v, k) / strang, k)[:n]

    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z
    rz = pairwise_dot(r, z)
    stop = PCG_RTOL * math.sqrt(pairwise_dot(b, b))
    for _ in range(PCG_MAX_ITER):
        q = product(p)
        pq = pairwise_dot(p, q)
        if not 0.0 < pq < math.inf:
            raise SolveError(f"conjugate gradients broke down: p^T A p = {pq:.3e}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if math.sqrt(pairwise_dot(r, r)) <= stop:
            return x
        z = precondition(r)
        rz, rz_old = pairwise_dot(r, z), rz
        p = z + (rz / rz_old) * p
    raise SolveError(f"conjugate gradients did not reach relative residual {PCG_RTOL:g} "
                     f"in {PCG_MAX_ITER} iterations")


def toeplitz_solve(col, b) -> np.ndarray:
    """Solve A x = b for the symmetric Toeplitz matrix A with first column col.

    Below PCG_MIN_N, one pass of Levinson recursion (O(n^2) time, O(n)
    memory); from PCG_MIN_N up, preconditioned conjugate gradients (_pcg,
    O(n log n) per iteration).  The result must be finite with a normwise
    backward error at most BACKWARD_ERROR_TOL, taking
    ||A||_inf <= |c_0| + 2 sum |c_k| and the residual from toeplitz_product;
    otherwise SolveError, as for a col or a b that is not finite, which both
    paths refuse before scaling.  A col that _checked_col refuses for its
    shape, or a b whose shape is not col's, raises ValueError.

    col and b are first scaled exactly, by powers of two, to unit scale, so
    that neither the preconditioner nor the check's bound underflows; x is
    scaled back once at the end.
    """
    col = _checked_col(col)
    b = np.asarray(b, dtype=float)
    if b.shape != col.shape:
        raise ValueError(f"expected right-hand side of shape {col.shape}, got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise SolveError("right-hand side is not finite")
    e_col = math.frexp(float(np.abs(col).max(initial=0.0)))[1]
    e_b = math.frexp(float(np.abs(b).max(initial=0.0)))[1]
    col, b = np.ldexp(col, -e_col), np.ldexp(b, -e_b)
    product = toeplitz_product(col)
    if len(col) < PCG_MIN_N:
        try:
            x = scipy.linalg.solve_toeplitz(col, b, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"Levinson recursion failed: {exc}") from exc
    else:
        x = _pcg(col, b, product=product)
    with np.errstate(over="ignore"):  # an x that overflows is refused just below
        result = np.ldexp(x, e_b - e_col)
    if not np.all(np.isfinite(result)):
        raise SolveError("Toeplitz solve returned non-finite values")
    r_norm = float(np.abs(b - product(x)).max(initial=0.0))
    abs_col = np.abs(col)
    a_norm = float(abs_col[0]) + 2.0 * float(abs_col[1:].sum())
    bound = BACKWARD_ERROR_TOL * a_norm * float(np.abs(x).max(initial=0.0))
    if not r_norm <= bound:
        raise SolveError(f"Toeplitz solve residual {r_norm:.3e} exceeds "
                         f"{BACKWARD_ERROR_TOL:g} * ||A|| * ||x|| = {bound:.3e}")
    return result


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


@dataclass(frozen=True)
class ExtremePairs:
    """The smallest and the largest eigenpair of one symmetric Toeplitz matrix."""

    bottom: EigenPair
    top: EigenPair


def _half_matrix(col: np.ndarray, parity: int) -> np.ndarray:
    """The even (parity 1) or odd (parity -1) half of the symmetric Toeplitz matrix T of col.

    T commutes with the exchange matrix J, so each eigenvector can be taken
    even or odd.  With m = n // 2, A the leading m x m block of T and
    H[i, j] = col[n - 1 - i - j], the vector [x; parity J x] (n even) or
    [x; 0; -J x] (n odd, odd parity) is an eigenvector of T exactly when x
    is one of A + parity H.  For odd n the even vectors are
    [x; sqrt(2) eta; J x], [x; eta] an eigenvector of A + H bordered by
    sqrt(2) u, u[i] = col[m - i], and col[0].  In every case the lifted
    vector is sqrt(2) times as long as the half's, and so is its residual.
    """
    n = len(col)
    m = n // 2
    k = m + 1 if n % 2 and parity > 0 else m
    M = np.empty((k, k))
    # Read-only strided views, no copies:
    # A[i, j] = mirrored[m - 1 - i + j] = col[|i - j|] and H[i, j] = col[n - 1 - i - j].
    view = np.lib.stride_tricks.as_strided
    mirrored = np.concatenate((col[m - 1:0:-1], col[:m]))
    step, col_step = mirrored.strides[0], col.strides[0]
    A = view(mirrored[m - 1:], (m, m), (-step, step), writeable=False)
    H = view(col[n - 1:], (m, m), (-col_step, -col_step), writeable=False)
    (np.add if parity > 0 else np.subtract)(A, H, out=M[:m, :m])
    if k > m:
        M[m, :m] = M[:m, m] = math.sqrt(2.0) * col[m:0:-1]
        M[m, m] = col[0]
    return M


def _half_pairs(M: np.ndarray, ends: bool):
    """Eigenvalues of symmetric M, with the eigenvectors of its tridiagonal form and its reflectors.

    M = Q T Q^T by one LAPACK dsytrd, in place: M's memory then holds the
    reflectors.  It runs with block size 4 (workspace 4k) up to order
    SMALL_BLOCK_MAX_K, so that no BLAS worker thread wakes and then spins,
    and with the queried workspace above it; below order 33 dsytrd runs
    unblocked either way.  dstemr then takes every pair of T, or with ends
    set the two pairs at each end of T, every pair once when the order is
    below 5.  Returns the values in ascending order within each range, T's
    eigenvectors as columns, and the reflectors c and tau that hold Q
    (_apply_q maps the vectors back).
    """
    k = M.shape[0]
    lwork = 4 * k if k <= SMALL_BLOCK_MAX_K else scipy.linalg.lapack.dsytrd_lwork(k, lower=1)[0]
    # M.T is M in Fortran order, which dsytrd can overwrite without a copy.
    c, d, e, tau, info = scipy.linalg.lapack.dsytrd(M.T, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_lapack("dsytrd", info)

    def pairs(il, iu):
        # dstemr takes e padded to the order and overwrites it; with a range of indices it
        # returns iu - il + 1 pairs, their vectors in the leading columns of a k x k array.
        count, w, z, info = scipy.linalg.lapack.dstemr(d, np.append(e, 0.0), 2, 0.0, 0.0, il, iu)
        _check_lapack("dstemr", info)
        return w[:count], z[:, :count]

    if not ends or k <= 4:  # every pair: dstemr's own arrays, with no copy
        values, vectors = pairs(1, k)
    else:  # each z is dropped before the next call allocates its own
        values, vectors = np.empty(4), np.empty((k, 4))
        values[:2], vectors[:, :2] = pairs(1, 2)
        values[2:], vectors[:, 2:] = pairs(k - 1, k)
    return values, vectors, c, tau


def _apply_q(c: np.ndarray, tau: np.ndarray, z: np.ndarray, trans: str) -> None:
    """Overwrite the columns of z with Q z (trans "N") or Q^T z (trans "T"), Q from _half_pairs.

    Q = H(1) ... H(k-1) acts on rows 1..k-1, so at k = 1 nothing is applied: the one case for a
    half of order 1, which dsytrd and dstemr take but dormqr refuses (no reflectors).
    """
    k = c.shape[0]
    if k == 1:
        return
    # dormqr's minimal workspace runs it unblocked.
    q_z, _, info = scipy.linalg.lapack.dormqr("L", trans, c[1:, :k - 1], tau, z[1:],
                                               lwork=z.shape[1])
    _check_lapack("dormqr", info)
    z[1:] = q_z


def _check_lapack(name: str, info: int) -> None:
    if info != 0:
        raise SolveError(f"LAPACK {name} failed with info={info}")


def _checked_col(col) -> np.ndarray:
    """col as a float array; ValueError unless 1-D of length >= 2, SolveError unless finite."""
    col = np.asarray(col, dtype=float)
    if col.ndim != 1 or len(col) < 2:
        raise ValueError(f"expected a first column of length at least 2, got shape {col.shape}")
    if not np.all(np.isfinite(col)):
        raise SolveError("first column is not finite")
    return col


def _lift(z: np.ndarray, parity: int, n: int) -> np.ndarray:
    """The vector of order n that a half's vector z stands for, sqrt(2) times as long as z.

    [x; parity J x] with x = z[:m], m = n // 2; for odd n the middle entry
    is sqrt(2) z[m] when parity is 1 and 0 when it is -1 (_half_matrix).
    The result is exactly even or exactly odd.
    """
    m = n // 2
    v = np.empty(n)
    v[:m] = z[:m]
    v[n - m:] = parity * v[m - 1::-1]
    if n % 2:
        v[m] = math.sqrt(2.0) * z[m] if parity > 0 else 0.0
    return v


def eig_extreme(col, h: float = 1.0) -> ExtremePairs:
    """Smallest and largest eigenpair of the symmetric Toeplitz matrix with first column col.

    One pass over the matrix's even and odd halves (_half_matrix), each
    half of order about n/2 reduced once (_half_pairs), and no n x n matrix.
    The two pairs at each end of each half are merged: the extreme one gives
    the value, the vector lifted to full length (exactly even or exactly
    odd) and its residual against toeplitz(col) itself, the next one
    inwards gives the relative gap.  Callers judge each pair with
    EigenPair.meets(tol).  A col with fewer than 2 entries raises
    ValueError, and one that is not finite SolveError.

    At most two half-order matrices are alive at once: a half matrix, whose
    memory dsytrd turns into the reflectors, and dstemr's vectors.
    """
    col = _checked_col(col)
    n = len(col)
    candidates = []  # (value, parity, half vector)
    for parity in (1, -1):
        values, vectors, c, tau = _half_pairs(_half_matrix(col, parity), ends=True)
        _apply_q(c, tau, vectors, "N")
        del c  # the half matrix's memory, before the next half is built
        candidates += zip(values.tolist(), [parity] * len(values), vectors.T)
    candidates.sort(key=lambda c: c[0])
    product = toeplitz_product(col)

    def pair(end: int, inward: int) -> EigenPair:
        lam, parity, z = candidates[end]
        v = _lift(z, parity, n)
        # v is sqrt(2) times as long as z.  The residual is the one sum left on BLAS: dnrm2
        # scales as it sums, so a residual near the top of the double range stays finite.
        r = product(v) - lam * v
        residual = float(scipy.linalg.norm(r, check_finite=False)) / math.sqrt(2.0)
        gap = abs(candidates[inward][0] - lam) / abs(lam) if lam != 0.0 else math.inf
        return EigenPair(value=lam, vector=v / math.sqrt(h * pairwise_dot(v, v)), residual=residual,
                         gap=gap)

    return ExtremePairs(bottom=pair(0, 1), top=pair(-1, -2))


@dataclass(frozen=True)
class EvenBasis:
    """The full spectrum of the even half of a symmetric Toeplitz matrix T, and its eigenbasis.

    values holds the half's k = ceil(n/2) eigenvalues in ascending order,
    which are T's eigenvalues with even eigenvectors.  Basis vector j is
    the unit even eigenvector B[:, j] = lift(Q Z[:, j]) / sqrt(2), where
    Q holds the half's dsytrd reflectors (reflectors, tau) and Z the
    tridiagonal's eigenvectors (vectors).  B is never formed:
    coefficients and nodal apply B^T and B to one vector each, by BLAS
    products rather than pairwise_dot: the gradient iteration of
    fraclap.control is their one caller, and it reports only its final cost.
    """

    values: np.ndarray
    vectors: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    n: int

    def coefficients(self, v) -> np.ndarray:
        """B^T v, the coefficients of v's even part; an odd v has none."""
        v = np.asarray(v, dtype=float)
        m = self.n // 2
        y = np.empty((len(self.values), 1))
        y[:m, 0] = (v[:m] + v[::-1][:m]) / math.sqrt(2.0)
        if self.n % 2:
            y[m, 0] = v[m]
        _apply_q(self.reflectors, self.tau, y, "T")
        return self.vectors.T @ y[:, 0]

    def nodal(self, c) -> np.ndarray:
        """B c, the exactly even vector of order n with coefficients c."""
        y = (self.vectors @ np.asarray(c, dtype=float))[:, None]
        _apply_q(self.reflectors, self.tau, y, "N")
        return _lift(y[:, 0], 1, self.n) / math.sqrt(2.0)


def even_basis(col) -> EvenBasis:
    """Every eigenvalue of the even half of toeplitz(col) with its orthonormal eigenbasis.

    One dsytrd reduction of _half_matrix(col, 1), of order ceil(n/2), and
    one dstemr call for all of its pairs; no n x n matrix.  The same
    column checks as eig_extreme.  At most two half-order matrices are
    alive at once: the reflectors, in the half matrix's memory, and
    dstemr's vectors, which the basis keeps as they are.
    """
    col = _checked_col(col)
    values, vectors, c, tau = _half_pairs(_half_matrix(col, 1), ends=False)
    return EvenBasis(values=values, vectors=vectors, reflectors=c, tau=tau, n=len(col))
