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

One scale rule: the operator on spacing h is C(1, s) h^(-2s) times a column that depends
only on n and s, so an Operator is a unit column times a power of two.  Solves, eigen
passes, norms and energies run at unit scale, and every reported value is scaled back
once, by scale_back, the one code that decides whether it left the double range.
"""

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
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
    """Quadrature weights w_1..w_K plus the closed-form remainder beyond K, times 2^-exponent."""

    w: np.ndarray
    tail: float
    exponent: int


@dataclass(frozen=True, eq=False)
class Operator:
    """Symmetric Toeplitz operator 2^exponent toeplitz(col) on the interior nodes of a grid.

    kind is "fractional" (order s in (0,1)) or "classical" (s stored as 1.0).
    The first column col is at unit scale (an assembled one has its diagonal
    in [0.5, 1)) and frozen read-only; rebuild rather than mutate.  Solves
    and the extreme eigenpairs run on col alone: both pairs come from one
    linalg.eig_extreme pass on first use, at unit scale, and are kept for
    the operator's lifetime.  The dense matrix is built only when a caller asks for it.
    """

    kind: str
    s: float
    col: np.ndarray = field(repr=False)
    grid: Grid
    exponent: int = 0

    def __post_init__(self):
        self.col.flags.writeable = False

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only true-scale matrix, for the dense references of tests and benchmark."""
        m = toeplitz(scale_back(self.grid, column=(self.col, self.exponent))[0])
        m.flags.writeable = False
        return m

    def solve(self, b: GridFunction) -> np.ndarray:
        """The true-scale u of A u = b, by linalg.toeplitz_solve on col, Levinson or CG by n.

        Levinson runs below linalg.PCG_MIN_N, preconditioned conjugate
        gradients from there up.  Positive definiteness is not checked:
        below PCG_MIN_N, a hand-built operator that is indefinite but has
        nonsingular leading minors gets its solve; from PCG_MIN_N up, a CG
        breakdown on it (p^T A p <= 0) raises SolveError (exit 2).  b is taken
        to unit scale too, so that the unit-scale solution cannot overflow.
        """
        b, e = _unit(np.asarray(b, dtype=float))
        return scale_back(self.grid, u=(linalg.toeplitz_solve(self.col, b), e - self.exponent))[0]

    @cached_property
    def extreme_pairs(self) -> linalg.ExtremePairs:
        """Smallest and largest eigenpair of toeplitz(col): 2^-exponent times the true values."""
        return linalg.eig_extreme(self.col, h=self.grid.h)

    @property
    def bottom_pair(self) -> linalg.EigenPair:
        """Smallest eigenpair at unit scale: lambda_min and its mode."""
        return self.extreme_pairs.bottom

    @property
    def top_pair(self) -> linalg.EigenPair:
        """Largest eigenpair at unit scale: lambda_max and its mode."""
        return self.extreme_pairs.top


def _power(h: float, p: float) -> tuple[float, int]:
    """h**p as math.frexp gives it, through math.frexp(h) where h**p is not a normal float."""
    try:
        power = h ** p
    except OverflowError:  # a Python float power raises where it overflows
        power = math.inf
    if sys.float_info.min <= power < math.inf:
        return math.frexp(power)
    m, e = math.frexp(h)
    x = Fraction(p) * e  # exact, so that only the fraction of the exponent rounds
    return m ** p * 2.0 ** float(x - math.floor(x)), math.floor(x)


def _operator(kind: str, s: float, col: np.ndarray, exponent: int, grid: Grid) -> Operator:
    """The Operator 2^exponent toeplitz(col), col scaled exactly to a diagonal in [0.5, 1)."""
    e = math.frexp(float(col[0]))[1]
    return Operator(kind=kind, s=float(s), col=np.ldexp(col, -e), grid=grid, exponent=exponent + e)


def stencil_weights(s: float, h: float, K: int) -> StencilWeights:
    """Quadrature weights of the order-s operator at spacing h, truncated at K."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"spacing must be positive and finite, got h={h}")
    if K < 2:
        raise ValueError(f"need K >= 2 weights, got K={K}")
    scale, exponent = _power(h, -2.0 * s)
    scale *= frac_constant(s)
    if exponent <= 0 and math.ldexp(scale, exponent) >= sys.float_info.min:
        # Where h^(-2s) < 1 a normal true scale is taken as it is (exponent 0), so that far
        # weights subnormal there round once, not at unit scale and again when scaled back.
        scale, exponent = math.ldexp(scale, exponent), 0
    k = np.arange(2, K + 1, dtype=float)
    w = np.empty(K)
    w[0] = scale / (2.0 - 2.0 * s) + (scale / (2.0 * s)) * (1.0 - 1.5 ** (-2.0 * s))
    w[1:] = (scale / (2.0 * s)) * ((k - 0.5) ** (-2.0 * s) - (k + 0.5) ** (-2.0 * s))
    tail = (scale / (2.0 * s)) * (K + 0.5) ** (-2.0 * s)
    return StencilWeights(w=w, tail=float(tail), exponent=exponent)


def assemble_fractional(grid: Grid, s: float) -> Operator:
    """Symmetric Toeplitz operator of order s on the grid, held by its unit first column.

    Diagonal entries keep the full weight sum (including the tail), which is
    exactly the exterior mass of the zero extension; off-diagonals are the
    negated weights indexed by node distance.
    """
    sw = stencil_weights(s, grid.h, grid.n)
    diag = 2.0 * (sw.w.sum() + sw.tail)
    # First column of the Toeplitz matrix: [diag, -w_1, ..., -w_{n-1}].
    col = np.concatenate(([diag], -sw.w[: grid.n - 1]))
    return _operator("fractional", s, col, sw.exponent, grid)


def assemble_classical(grid: Grid) -> Operator:
    """Three-point (-1, 2, -1)/h^2 Laplacian as a Toeplitz operator."""
    h2, exponent = _power(grid.h, 2.0)
    col = np.zeros(grid.n)
    col[:2] = 2.0 / h2, -1.0 / h2
    return _operator("classical", 1.0, col, -exponent, grid)


def scale_back(grid: Grid, where: str = "", **values) -> list:
    """np.ldexp(value, exponent) of each (unit value, exponent) pair, in order; numbers as floats.

    The one code that decides whether a reported value left the double range.  It
    raises OverflowError, one line naming where (e.g. "s=0.5, "), h and each value
    not finite at true scale, or else each array zero at true scale but not at unit
    scale.  A number that underflows reads 0 or a subnormal, as in IEEE arithmetic.
    """
    scaled, over, under = [], [], []
    for name, (value, exponent) in values.items():
        array = isinstance(value, np.ndarray)
        peak = float(np.abs(value).max(initial=0.0)) if array else abs(value)
        # peak < 2^e with e = frexp(peak)[1], so the value overflows where e + exponent > 1024.
        if not math.isfinite(peak) or (peak and math.frexp(peak)[1] + exponent > 1024):
            over.append(name)
            continue
        if array and peak and not math.ldexp(peak, exponent):  # its largest entry rounds to 0
            under.append(name)
        scaled.append(np.ldexp(value, exponent) if array else math.ldexp(value, exponent))
    if over or under:
        raise OverflowError(f"{'non-finite' if over else 'underflowing'} "
                            f"{' and '.join(over or under)} at {where}grid spacing h={grid.h:.3e}")
    return scaled


def _unit(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v 2^-e, e), the largest entry of v 2^-e in [0.5, 1); e = 0 for a zero v."""
    e = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
    return (np.ldexp(v, -e) if e else v), e


def scaled_inner_product(v: GridFunction, w: GridFunction, grid: Grid) -> tuple[float, int]:
    """h sum(v_i w_i) as (value, exponent), by linalg.pairwise_dot on v and w at unit scale."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    if v.shape != (grid.n,) or w.shape != (grid.n,):
        raise ValueError(f"expected two vectors of shape ({grid.n},), got {v.shape} and {w.shape}")
    same = w is v  # a norm's square: v is taken to unit scale once
    v, e_v = _unit(v)
    w, e_w = (v, e_v) if same else _unit(w)
    return grid.h * linalg.pairwise_dot(v, w), e_v + e_w


def scaled_norm(v: GridFunction, grid: Grid) -> tuple[float, int]:
    """The h-norm of v as (value, exponent): the square root of scaled_inner_product(v, v)."""
    value, exponent = scaled_inner_product(v, v, grid)
    return math.sqrt(value), exponent // 2


def inner_product_h(v: GridFunction, w: GridFunction, grid: Grid) -> float:
    """Discrete L2 pairing h sum(v_i w_i), scaled back once: the trapezoid rule, zero boundary."""
    return scale_back(grid, inner_product_h=scaled_inner_product(v, w, grid))[0]


def norm_h(v: GridFunction, grid: Grid) -> float:
    """Discrete L2 norm induced by inner_product_h, scaled back once."""
    return scale_back(grid, norm_h=scaled_norm(v, grid))[0]


def quadratic_form(op: Operator, v: GridFunction) -> float:
    """Energy <A v, v>_h, A v by linalg.toeplitz_product; the weighted seminorm of a free function."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n,):
        raise ValueError(f"expected a vector of shape ({op.n},), got {v.shape}")
    value, exponent = scaled_inner_product(v, linalg.toeplitz_product(op.col)(v), op.grid)
    return scale_back(op.grid, energy=(value, exponent + op.exponent))[0]
