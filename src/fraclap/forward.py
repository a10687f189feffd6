"""Forward Poisson solves, seminorm evaluation, Poincare constant."""

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
    """Solve the (fractional or classical) Poisson problem on the grid."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise ValueError(f"expected right-hand side of shape ({op.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("right-hand side must be finite")
    u = op.factor.solve(f)
    return ForwardSolution(
        u=u,
        seminorm_sq=inner_product_h(f, u, op.grid),
        l2_norm_u=norm_h(u, op.grid),
    )


def maximum_principle_check(op: Operator, f: GridFunction):
    """Whether f >= 0 yields u >= 0 entrywise; None when f has mixed signs.

    Must hold for every operator assembled here: the matrices are
    irreducible M-matrices, whose inverses are nonnegative.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0):
        return None
    u = op.factor.solve(f)
    # Round-off slack scaled by the solution size.
    floor = -1e-12 * max(1.0, float(np.abs(u).max()))
    return bool(np.all(u >= floor))


def poincare_constant(op: Operator) -> float:
    """Smallest constant with ||u||_h^2 <= C <A u, u>_h on the grid: 1/lambda_min."""
    return 1.0 / op.bottom_pair.value
