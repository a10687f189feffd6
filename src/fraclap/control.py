"""Norm-constrained optimal control of the discrete Poisson problem.

The reduced cost of a control f is

    J(f) = 1/2 <u_f, f>_h + mu/2 ||f||_h^2,   A u_f = f,

minimized over the annulus a <= ||f||_h <= b.  Two solvers are provided:
projected gradient descent, and a direct solver that exploits the exact
structure of the problem (J restricted to a sphere is minimized by the
eigenvector of A's largest eigenvalue, and J grows radially, so the lower
bound is active whenever a > 0).  The annulus is nonconvex for a > 0, so
the direct solver is authoritative and the gradient iteration serves as a
cross-check that may stop at a non-global stationary point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import Grid, GridFunction, Operator, inner_product_h, norm_h


@dataclass(frozen=True)
class ControlConfig:
    mu: float
    a: float
    b: float
    tol: float = 1e-10
    max_iter: int = 200_000
    step_rule: str = "fixed"  # "fixed" (Lipschitz estimate) or "armijo"

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"regularization mu must be positive and finite, got {self.mu}")
        if not (math.isfinite(self.b) and 0.0 <= self.a <= self.b):
            raise ValueError(f"annulus bounds must be finite and satisfy 0 <= a <= b, "
                             f"got a={self.a}, b={self.b}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.step_rule not in ("fixed", "armijo"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")


@dataclass(frozen=True)
class OptimResult:
    f_star: GridFunction
    u_star: GridFunction
    J_star: float
    grad_norm: float
    iters: int
    converged: bool
    active_bound: str  # "none" | "lower" | "upper"


def _cost(f: GridFunction, u: GridFunction, mu: float, grid: Grid) -> float:
    """J = 1/2 <u, f>_h + mu/2 ||f||_h^2 for a control f and its state u."""
    return 0.5 * inner_product_h(u, f, grid) + 0.5 * mu * inner_product_h(f, f, grid)


def _step(op: Operator, mu: float) -> float:
    """1 / (1/lambda_min(A) + mu), the reciprocal of the gradient's Lipschitz constant."""
    return 1.0 / (1.0 / op.bottom_pair.value + mu)


def reduced_cost(op: Operator, f: GridFunction, mu: float) -> float:
    """J(f) = 1/2 <u_f, f>_h + mu/2 ||f||_h^2."""
    f = np.asarray(f, dtype=float)
    return _cost(f, op.factor.solve(f), mu, op.grid)


def reduced_gradient(op: Operator, f: GridFunction, mu: float) -> GridFunction:
    """Gradient of the reduced cost in the h-inner product: u_f + mu f.

    The solution operator is self-adjoint, so no separate adjoint solve
    exists; the state itself is the derivative of the energy term.
    """
    f = np.asarray(f, dtype=float)
    u = op.factor.solve(f)
    return u + mu * f


def project_annulus(f: GridFunction, a: float, b: float, grid: Grid) -> GridFunction:
    """Radial projection of f onto {a <= ||.||_h <= b}.

    The zero vector with a > 0 has no nearest point; the canonical choice
    is the constant direction scaled to the lower bound.
    """
    if not 0.0 <= a <= b:
        raise ValueError(f"annulus bounds must satisfy 0 <= a <= b, got a={a}, b={b}")
    f = np.asarray(f, dtype=float)
    nrm = norm_h(f, grid)
    if nrm == 0.0:
        if a == 0.0:
            return f.copy()
        ones = np.ones(grid.n)
        return a * ones / norm_h(ones, grid)
    clamped = min(max(nrm, a), b)
    if clamped == nrm:
        return f.copy()
    return f * (clamped / nrm)


def _sign_normalize(f: GridFunction) -> GridFunction:
    """Flip sign so the largest-magnitude component is positive.

    Reflection-symmetric operators produce eigenvectors whose magnitude
    profile ties exactly at two mirror indices; the first index within a
    relative tolerance of the maximum breaks the tie deterministically.
    """
    mx = float(np.abs(f).max())
    if mx == 0.0:
        return f
    i0 = int(np.nonzero(np.abs(f) >= (1.0 - 1e-8) * mx)[0][0])
    return f if f[i0] > 0 else -f


def _active_bound(nrm: float, a: float, b: float, tol: float) -> str:
    slack = max(tol, 1e-12) * max(1.0, b)
    if abs(nrm - a) <= slack:
        return "lower"
    if abs(nrm - b) <= slack:
        return "upper"
    return "none"


def pgd_solve(op: Operator, cfg: ControlConfig) -> OptimResult:
    """Projected gradient descent on the reduced cost over the annulus.

    Starts from the constant control projected onto the annulus and stops
    when the projected-gradient residual ||f - P(f - step g)||_h / step
    drops below cfg.tol.  Non-convergence is reported, never raised.  The
    fixed step is 1 / (1/lambda_min(A) + mu), the reciprocal of the
    gradient's Lipschitz constant.
    """
    grid = op.grid
    mu = cfg.mu
    factor = op.factor
    f = project_annulus(np.ones(grid.n), cfg.a, cfg.b, grid)
    step = _step(op, mu)
    u = factor.solve(f, refine=False)
    J = _cost(f, u, mu, grid)
    pg_res = np.inf
    it = 0
    converged = False
    while it < cfg.max_iter:
        it += 1
        grad = u + mu * f
        if cfg.step_rule == "fixed":
            used = step
            f_new = project_annulus(f - step * grad, cfg.a, cfg.b, grid)
            u_new = factor.solve(f_new, refine=False)
            dn = norm_h(f_new - f, grid)
        else:
            used = 4.0 * step
            while True:
                f_new = project_annulus(f - used * grad, cfg.a, cfg.b, grid)
                u_new = factor.solve(f_new, refine=False)
                dn = norm_h(f_new - f, grid)
                J_new = _cost(f_new, u_new, mu, grid)
                if J_new <= J - 1e-4 / max(used, 1e-300) * dn**2 or used < 1e-12 * step:
                    break
                used *= 0.5
            J = J_new
        pg_res = dn / used
        f, u = f_new, u_new
        if pg_res <= cfg.tol:
            converged = True
            break

    f = _sign_normalize(f)
    u = factor.solve(f)
    nrm = norm_h(f, grid)
    return OptimResult(
        f_star=f,
        u_star=u,
        J_star=_cost(f, u, mu, grid),
        grad_norm=pg_res,
        iters=it,
        converged=converged,
        active_bound=_active_bound(nrm, cfg.a, cfg.b, cfg.tol),
    )


def eigen_solve_control(op: Operator, cfg: ControlConfig) -> OptimResult:
    """Direct solution of the annulus-constrained problem.

    J(t f) = t^2 J(f) grows in t, so for a > 0 the lower bound is active
    and the minimizer over the sphere ||f||_h = a is a times the unit
    eigenvector of A's largest eigenvalue; for a = 0 the minimizer is 0.
    converged reports whether that eigenpair meets cfg.tol.
    """
    grid = op.grid
    if cfg.a == 0.0:
        z = np.zeros(grid.n)
        return OptimResult(f_star=z, u_star=z, J_star=0.0, grad_norm=0.0, iters=0,
                           converged=True, active_bound="none")
    pair = op.top_pair
    f = _sign_normalize(cfg.a * pair.vector)
    u = op.factor.solve(f)
    J = _cost(f, u, cfg.mu, grid)
    # Residual of the projected optimality condition, evaluated honestly.
    step = _step(op, cfg.mu)
    f_next = project_annulus(f - step * (u + cfg.mu * f), cfg.a, cfg.b, grid)
    pg_res = norm_h(f - f_next, grid) / step
    return OptimResult(
        f_star=f,
        u_star=u,
        J_star=J,
        grad_norm=pg_res,
        iters=0,
        converged=pair.meets(cfg.tol),
        active_bound=_active_bound(norm_h(f, grid), cfg.a, cfg.b, cfg.tol),
    )
