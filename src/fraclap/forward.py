"""Forward Poisson solves, seminorm evaluation, Poincare constant."""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import GridFunction, Operator, inner_product_h, norm_h, require_finite
from .linalg import SolveError


@dataclass(frozen=True)
class ForwardSolution:
    """State u solving A u = f, with the energy <f, u>_h of the pair.

    The energy equals the weighted seminorm squared of the state, which is
    how the reduced control cost evaluates it.
    """

    u: GridFunction
    seminorm_sq: float
    l2_norm_u: float


def solve_poisson(op: Operator, f: GridFunction) -> ForwardSolution:
    """Solve the (fractional or classical) Poisson problem on the grid.

    An energy or norm that overflows raises OverflowError naming the
    spacing, from discretize.require_finite.  op.solve refuses an f not of
    shape (n,) with ValueError and one that is not finite with
    linalg.SolveError.
    """
    u = op.solve(f)
    with np.errstate(over="ignore"):  # a wide domain can overflow both
        seminorm_sq = inner_product_h(f, u, op.grid)
        l2_norm_u = norm_h(u, op.grid)
    require_finite(op.grid, seminorm_sq=seminorm_sq, l2_norm_u=l2_norm_u)
    return ForwardSolution(u=u, seminorm_sq=seminorm_sq, l2_norm_u=l2_norm_u)


def poincare_constant(op: Operator) -> float:
    """Smallest constant with ||u||_h^2 <= C <A u, u>_h on the grid: 1/lambda_min.

    An operator that is not positive definite has none: unless lambda_min > 0
    and lambda_max is finite, this raises SolveError.
    """
    lo, hi = op.bottom_pair.value, op.top_pair.value
    if not (lo > 0.0 and math.isfinite(hi)):
        raise SolveError(f"matrix is not positive definite: eigenvalues span [{lo:.3e}, {hi:.3e}]")
    return 1.0 / lo
