"""Forward Poisson solves, seminorm evaluation, Poincare constant."""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import GridFunction, Operator, inner_product_h, norm_h


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

    An energy or norm that overflows raises OverflowError naming the spacing.
    op.solve refuses an f not of shape (n,) with ValueError and one that is
    not finite with linalg.SolveError.
    """
    u = op.solve(f)
    # A wide domain can overflow the energy or the norm to inf; the test
    # below reports that, so numpy need not warn about it.
    with np.errstate(over="ignore"):
        seminorm_sq = inner_product_h(f, u, op.grid)
        l2_norm_u = norm_h(u, op.grid)
    if not (math.isfinite(seminorm_sq) and math.isfinite(l2_norm_u)):
        raise OverflowError(f"state norms overflow at grid spacing h={op.grid.h:.3e}: "
                            f"seminorm_sq={seminorm_sq:.3e}, l2_norm_u={l2_norm_u:.3e}")
    return ForwardSolution(u=u, seminorm_sq=seminorm_sq, l2_norm_u=l2_norm_u)


def poincare_constant(op: Operator) -> float:
    """Smallest constant with ||u||_h^2 <= C <A u, u>_h on the grid: 1/lambda_min."""
    return 1.0 / op.bottom_pair.value
