"""Forward Poisson solves, seminorm evaluation, Poincare constant."""

from dataclasses import dataclass

from .discretize import GridFunction, Operator, scale_back, scaled_inner_product, scaled_norm


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

    u, its energy and its norm are each scaled back once, naming any that
    overflows.  op.solve refuses an f not of shape (n,) with ValueError and
    one that is not finite with linalg.SolveError.
    """
    u = op.solve(f)
    seminorm_sq, l2_norm_u = scale_back(op.grid, seminorm_sq=scaled_inner_product(f, u, op.grid),
                                        l2_norm_u=scaled_norm(u, op.grid))
    return ForwardSolution(u=u, seminorm_sq=seminorm_sq, l2_norm_u=l2_norm_u)


def poincare_constant(op: Operator) -> float:
    """Smallest C with ||u||_h^2 <= C <A u, u>_h: 1/lambda_min, if op.spectrum finds A definite."""
    return scale_back(op.grid, poincare_c=(1.0 / op.spectrum.lambda_min, -op.exponent))[0]
