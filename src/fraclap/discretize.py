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

All weights are positive, so the assembled matrix is a symmetric Toeplitz
M-matrix (positive diagonal, nonpositive off-diagonals, strictly
diagonally dominant thanks to the retained exterior mass).  As s -> 1- the
first weight times h^2 tends to 1 and every far weight vanishes, so the
operator degenerates to the classical three-point stencil.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

from . import linalg
from .specfun import frac_constant

# Nodal vectors carry interior values only; the exterior is implicitly zero.
GridFunction = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n interior nodes on the open interval (x_left, x_right)."""

    x_left: float
    x_right: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_left) and math.isfinite(self.x_right)):
            raise ValueError(f"need finite endpoints, got [{self.x_left}, {self.x_right}]")
        if not self.x_left < self.x_right:
            raise ValueError(f"need x_left < x_right, got [{self.x_left}, {self.x_right}]")
        if self.n < 3:
            raise ValueError(f"need at least 3 interior nodes, got n={self.n}")

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
    """Dense symmetric operator on the interior nodes of a grid.

    kind is "fractional" (order s in (0,1)) or "classical" (s stored as 1.0).
    The matrix is frozen read-only; rebuild rather than mutate.  Its
    Cholesky factor and extreme eigenpairs are computed on first use and
    kept for the operator's lifetime.
    """

    kind: str
    s: float
    matrix: np.ndarray = field(repr=False)
    grid: Grid

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def factor(self) -> linalg.CholeskyFactor:
        """Cholesky factor of the matrix, for repeated solves."""
        return linalg.cholesky_factor(self)

    @cached_property
    def bottom_pair(self) -> linalg.EigenPair:
        """Smallest eigenpair, vector of unit h-norm: lambda_min and its mode."""
        return linalg.eig_extreme(self, which="smallest", h=self.grid.h)

    @cached_property
    def top_pair(self) -> linalg.EigenPair:
        """Largest eigenpair, vector of unit h-norm: lambda_max and its mode."""
        return linalg.eig_extreme(self, which="largest", h=self.grid.h)


def stencil_weights(s: float, h: float, K: int) -> StencilWeights:
    """Quadrature weights of the order-s operator at spacing h, truncated at K."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    if not h > 0.0:
        raise ValueError(f"spacing must be positive, got h={h}")
    if K < 2:
        raise ValueError(f"need K >= 2 weights, got K={K}")
    C = frac_constant(1, s)
    scale = C * h ** (-2.0 * s)
    k = np.arange(2, K + 1, dtype=float)
    w = np.empty(K)
    w[0] = scale / (2.0 - 2.0 * s) + (scale / (2.0 * s)) * (1.0 - 1.5 ** (-2.0 * s))
    w[1:] = (scale / (2.0 * s)) * ((k - 0.5) ** (-2.0 * s) - (k + 0.5) ** (-2.0 * s))
    tail = (scale / (2.0 * s)) * (K + 0.5) ** (-2.0 * s)
    return StencilWeights(w=w, tail=float(tail))


def assemble_fractional(grid: Grid, s: float) -> Operator:
    """Dense symmetric Toeplitz matrix of the order-s operator on the grid.

    Diagonal entries keep the full weight sum (including the tail), which is
    exactly the exterior mass of the zero extension; off-diagonals are the
    negated weights indexed by node distance.
    """
    sw = stencil_weights(s, grid.h, grid.n)
    # First column of the Toeplitz matrix: [diag, -w_1, ..., -w_{n-1}].
    col = np.concatenate(([2.0 * (sw.w.sum() + sw.tail)], -sw.w[: grid.n - 1]))
    return Operator(kind="fractional", s=float(s), matrix=toeplitz(col), grid=grid)


def assemble_classical(grid: Grid) -> Operator:
    """Three-point (-1, 2, -1)/h^2 Laplacian in the dense operator container."""
    col = np.zeros(grid.n)
    col[:2] = 2.0 / grid.h**2, -1.0 / grid.h**2
    return Operator(kind="classical", s=1.0, matrix=toeplitz(col), grid=grid)


def inner_product_h(v: GridFunction, w: GridFunction, grid: Grid) -> float:
    """Discrete L2 pairing h * sum(v_i w_i); exact trapezoid for zero boundary."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (grid.n,) or w.shape != (grid.n,):
        raise ValueError(f"expected two vectors of shape ({grid.n},), got {v.shape} and {w.shape}")
    return grid.h * float(v @ w)


def norm_h(v: GridFunction, grid: Grid) -> float:
    """Discrete L2 norm induced by inner_product_h."""
    return float(np.sqrt(inner_product_h(v, v, grid)))


def quadratic_form(op: Operator, v: GridFunction) -> float:
    """Energy <A v, v>_h of the operator; the weighted seminorm of a free function."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n,):
        raise ValueError(f"expected a vector of shape ({op.n},), got {v.shape}")
    return op.grid.h * float(v @ (op.matrix @ v))
