"""Uniform-grid discretization of the fractional and classical Laplacian.

The fractional operator of order s in (0, 1) on an interval is collocated
at the interior nodes of a uniform grid using the symmetrized one-sided
form

    L u(x) = C(1, s) * int_0^inf (2 u(x) - u(x + r) - u(x - r)) r^(-1-2s) dr

with the zero exterior condition (u vanishes identically outside the
interval, not just at its endpoints).  The quadrature is monotone:

  * singular cell r in (0, h): quadratic interpolation of u, which turns
    the cell into an exactly integrable multiple of the second difference,
    contributing C * h^(-2s) / (2 - 2s) to the first weight;
  * near cell r in (h, 3h/2): nearest-node value, contributing
    (C / 2s) * h^(-2s) * (1 - (3/2)^(-2s)) to the first weight;
  * far cells r in ((k-1/2) h, (k+1/2) h), k >= 2: nearest-node value,
    w_k = (C / 2s) * h^(-2s) * ((k-1/2)^(-2s) - (k+1/2)^(-2s));
  * the tail beyond (K+1/2) h is summed in closed form (power-law integral).

All weights are positive, so the assembled operator is a symmetric Toeplitz
M-matrix (positive diagonal, nonpositive off-diagonals, strictly
diagonally dominant thanks to the retained exterior mass).  As s -> 1- the
first weight times h^2 tends to 1 and every far weight vanishes, so the
operator degenerates to the classical three-point stencil.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

from . import linalg
from .specfun import frac_constant

# Nodal vectors carry interior values only; the exterior is implicitly zero.
GridFunction = np.ndarray


class FieldError(ValueError):
    """An invalid input, with the names of the fields to blame in order of preference."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n interior nodes on the open interval (x_left, x_right)."""

    x_left: float
    x_right: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_left) and math.isfinite(self.x_right)):
            raise FieldError(f"need finite endpoints, got [{self.x_left}, {self.x_right}]",
                             "x_right" if math.isfinite(self.x_left) else "x_left")
        if not self.x_left < self.x_right:
            raise FieldError(f"need x_left < x_right, got [{self.x_left}, {self.x_right}]",
                             "x_right", "x_left")
        if not math.isfinite(self.x_right - self.x_left):
            raise FieldError(f"domain length overflows, got [{self.x_left}, {self.x_right}]",
                             "x_right", "x_left")
        if self.n < 3:
            raise FieldError(f"need at least 3 interior nodes, got n={self.n}", "n")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_i = x_left + i*h, i = 1..n."""
        return self.x_left + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class StencilWeights:
    """Quadrature weights w_1..w_K plus the closed-form remainder beyond K."""

    w: np.ndarray
    tail: float


@dataclass(frozen=True, eq=False)
class Operator:
    """Symmetric Toeplitz operator on the interior nodes of a grid.

    kind is "fractional" (order s in (0,1)) or "classical" (s stored as 1.0).
    The first column col defines the operator and is frozen read-only;
    rebuild rather than mutate.  Solves and the extreme eigenpairs run on
    col alone: both pairs come from one linalg.eig_extreme pass on first
    use and are kept for the operator's lifetime.  The dense matrix is
    built only when a caller asks for it.
    """

    kind: str
    s: float
    col: np.ndarray = field(repr=False)
    grid: Grid

    def __post_init__(self):
        self.col.flags.writeable = False

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only toeplitz(col), for the dense references in tests and the benchmark."""
        m = toeplitz(self.col)
        m.flags.writeable = False
        return m

    def solve(self, b: GridFunction) -> np.ndarray:
        """One solve A x = b on col by linalg.toeplitz_solve, Levinson or CG by n.

        Levinson runs below linalg.PCG_MIN_N, preconditioned conjugate
        gradients from there up.  Positive definiteness is not checked:
        below PCG_MIN_N, a hand-built operator that is indefinite but has
        nonsingular leading minors gets its solve; from PCG_MIN_N up, a CG
        breakdown on it (p^T A p <= 0) raises SolveError (exit 2).
        """
        return linalg.toeplitz_solve(self.col, b)

    @cached_property
    def extreme_pairs(self) -> linalg.ExtremePairs:
        """Smallest and largest eigenpair from one linalg.eig_extreme pass on col."""
        return linalg.eig_extreme(self.col, h=self.grid.h)

    @property
    def bottom_pair(self) -> linalg.EigenPair:
        """Smallest eigenpair, vector of unit h-norm: lambda_min and its mode."""
        return self.extreme_pairs.bottom

    @property
    def top_pair(self) -> linalg.EigenPair:
        """Largest eigenpair, vector of unit h-norm: lambda_max and its mode."""
        return self.extreme_pairs.top


def stencil_weights(s: float, h: float, K: int) -> StencilWeights:
    """Quadrature weights of the order-s operator at spacing h, truncated at K."""
    if not h > 0.0:
        raise ValueError(f"spacing must be positive, got h={h}")
    if K < 2:
        raise ValueError(f"need K >= 2 weights, got K={K}")
    try:  # a Python float power raises on overflow, with no word on its inputs
        scale = frac_constant(s) * h ** (-2.0 * s)
    except OverflowError:
        raise OverflowError(f"h^(-2s) overflows at grid spacing h={h:.3e}, s={s}") from None
    if not scale >= sys.float_info.min:  # subnormal or 0 on a huge spacing
        raise OverflowError(f"C h^(-2s) underflows at grid spacing h={h:.3e}, s={s}")
    k = np.arange(2, K + 1, dtype=float)
    w = np.empty(K)
    w[0] = scale / (2.0 - 2.0 * s) + (scale / (2.0 * s)) * (1.0 - 1.5 ** (-2.0 * s))
    w[1:] = (scale / (2.0 * s)) * ((k - 0.5) ** (-2.0 * s) - (k + 0.5) ** (-2.0 * s))
    tail = (scale / (2.0 * s)) * (K + 0.5) ** (-2.0 * s)
    return StencilWeights(w=w, tail=float(tail))


def assemble_fractional(grid: Grid, s: float) -> Operator:
    """Symmetric Toeplitz operator of order s on the grid, held by its first column.

    Diagonal entries keep the full weight sum (including the tail), which is
    exactly the exterior mass of the zero extension; off-diagonals are the
    negated weights indexed by node distance.  A diagonal that overflows
    raises OverflowError naming the spacing, as the weights do.
    """
    sw = stencil_weights(s, grid.h, grid.n)
    # The diagonal, twice the sum of the nonnegative weights, bounds every entry.
    # On a tiny spacing the weights can be finite and the diagonal not.
    with np.errstate(over="ignore"):
        diag = 2.0 * (sw.w.sum() + sw.tail)
    if not math.isfinite(diag):
        raise OverflowError(f"the diagonal overflows at grid spacing h={grid.h:.3e}, s={s}")
    # First column of the Toeplitz matrix: [diag, -w_1, ..., -w_{n-1}].
    col = np.concatenate(([diag], -sw.w[: grid.n - 1]))
    return Operator(kind="fractional", s=float(s), col=col, grid=grid)


def assemble_classical(grid: Grid) -> Operator:
    """Three-point (-1, 2, -1)/h^2 Laplacian as a Toeplitz operator."""
    try:  # a Python float power raises on overflow, with no word on its inputs
        h2 = grid.h**2
    except OverflowError:
        h2 = math.inf
    if not (h2 >= sys.float_info.min and math.isfinite(2.0 / h2)):
        raise OverflowError(f"1/h^2 overflows at grid spacing h={grid.h:.3e}")
    if not 1.0 / h2 >= sys.float_info.min:
        raise OverflowError(f"1/h^2 underflows at grid spacing h={grid.h:.3e}")
    col = np.zeros(grid.n)
    col[:2] = 2.0 / h2, -1.0 / h2
    return Operator(kind="classical", s=1.0, col=col, grid=grid)


def inner_product_h(v: GridFunction, w: GridFunction, grid: Grid) -> float:
    """Discrete L2 pairing h * sum(v_i w_i), summed by linalg.pairwise_dot.

    The exact trapezoid rule for a zero boundary.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (grid.n,) or w.shape != (grid.n,):
        raise ValueError(f"expected two vectors of shape ({grid.n},), got {v.shape} and {w.shape}")
    return grid.h * linalg.pairwise_dot(v, w)


def norm_h(v: GridFunction, grid: Grid) -> float:
    """Discrete L2 norm induced by inner_product_h.

    When the h-weighted sum of squares underflows below the smallest normal
    float while some entry is nonzero, it is taken once more on v scaled
    exactly by a power of two, with sqrt(h) taken out, since h can be tiny too.
    """
    sq = inner_product_h(v, v, grid)
    if not sq < sys.float_info.min or not np.any(v):
        return float(np.sqrt(sq))
    exponent = math.frexp(float(np.abs(v).max()))[1]
    w = np.ldexp(np.asarray(v, dtype=float), -exponent)
    return math.ldexp(math.sqrt(grid.h) * math.sqrt(linalg.pairwise_dot(w, w)), exponent)


def require_finite(grid: Grid, where: str = "", **values: float) -> None:
    """OverflowError naming the values that are not finite, where (e.g. "s=0.5, ") and h."""
    overflowed = [name for name, value in values.items() if not math.isfinite(value)]
    if overflowed:
        raise OverflowError(f"non-finite {' and '.join(overflowed)} at {where}grid spacing "
                            f"h={grid.h:.3e}")


def quadratic_form(op: Operator, v: GridFunction) -> float:
    """Energy <A v, v>_h, A v by linalg.toeplitz_product; the weighted seminorm of a free function."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n,):
        raise ValueError(f"expected a vector of shape ({op.n},), got {v.shape}")
    return inner_product_h(v, linalg.toeplitz_product(op.col)(v), op.grid)
