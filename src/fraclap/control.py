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

The direct solver reads the top eigenpair (Operator.spectrum).  The
gradient iteration, with Armijo steps, runs on the coefficients of the
operator's even half in its own eigenbasis (linalg.even_basis): a start
that is even stays even.  Neither builds an n x n matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .discretize import (FieldError, Grid, GridFunction, Operator, inner_product_h, scale_back,
                         scaled_inner_product, scaled_norm)
from .forward import poincare_constant

_EPS = float(np.finfo(float).eps)

# pgd_solve builds the rows of its Armijo trial lengths once, before the loop.  One
# product sums those of trial 0, 4 step, at w and up to _PGD_AHEAD trial-0 steps on, so
# that a run of trial-0 steps, most steps, takes one product and one update of the
# weights; a shorter trial's rows are summed only when the search reaches it.  At
# n = 128, over 16 interleaved rounds, a lookahead of 8 or 12 measured within noise of
# 4 and 16 slower: few runs are that long.  A run stops after PGD_MAX_ITER iterations,
# not converged.
_PGD_AHEAD = 4
PGD_MAX_ITER = 200_000


@dataclass(frozen=True)
class ControlConfig:
    mu: float
    a: float
    b: float
    tol: float = 1e-10
    step_rule: str = "armijo"  # pgd_solve's step rule, the only one

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise FieldError(f"mu must be positive and finite, got {self.mu}", "mu")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise FieldError(f"a must be nonnegative and finite, got {self.a}", "a")
        if not math.isfinite(self.b):
            raise FieldError(f"b must be finite, got {self.b}", "b")
        if self.a > self.b:
            raise FieldError(f"a > b ({self.a} > {self.b})", "b", "a")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise FieldError(f"tol must be positive and finite, got {self.tol}", "tol")
        if self.step_rule != "armijo":
            raise FieldError(f"unknown step rule {self.step_rule!r}", "step_rule")


@dataclass(frozen=True)
class OptimResult:
    f_star: GridFunction
    u_star: GridFunction
    J_star: float
    grad_norm: float
    iters: int
    converged: bool
    active_bound: str  # "none" | "lower" | "upper"


def _cost(f: GridFunction, u: GridFunction, mu: float, grid: Grid) -> tuple[float, int]:
    """J = 1/2 <u, f>_h + mu/2 ||f||_h^2 as (value, exponent), at the pairings' larger exponent."""
    (uf, e_uf), (ff, e_ff) = scaled_inner_product(u, f, grid), scaled_inner_product(f, f, grid)
    e = max(e_uf, e_ff)
    return 0.5 * math.ldexp(uf, e_uf - e) + 0.5 * mu * math.ldexp(ff, e_ff - e), e


def _step(op: Operator, mu: float) -> float:
    """1 / (1/lambda_min(A) + mu), the reciprocal of the gradient's Lipschitz constant."""
    return 1.0 / (poincare_constant(op) + mu)


def reduced_cost(op: Operator, f: GridFunction, mu: float) -> float:
    """J(f) = 1/2 <u_f, f>_h + mu/2 ||f||_h^2, scaled back once as cost."""
    return scale_back(op.grid, cost=_cost(f, op.solve(f), mu, op.grid))[0]


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
    # Distances relative to max(1, b), so that a huge b or tol cannot overflow the slack.
    slack, scale = max(tol, 1e-12), max(1.0, b)
    if abs(nrm - a) / scale <= slack:
        return "lower"
    if abs(nrm - b) / scale <= slack:
        return "upper"
    return "none"


def pgd_solve(op: Operator, cfg: ControlConfig) -> OptimResult:
    """Projected gradient descent on the reduced cost over the annulus.

    Starts from the constant control projected onto the annulus and stops
    when the projected-gradient residual ||f - P(f - step g)||_h / step
    drops below cfg.tol or after PGD_MAX_ITER iterations.  Non-convergence
    reads converged=False; a cost or norm that overflows raises OverflowError.
    Armijo trials start at 4 step, step = 1 / (1/lambda_min(A) + mu) being
    the reciprocal of the gradient's Lipschitz constant, and halve until the
    cost decreases enough or the trial falls below 1e-12 step.
    On the origin annulus a = b = 0 the start is the zero control, and the
    first iteration stops there with a residual of 0.

    The iteration runs in an orthonormal eigenbasis of A.  A is symmetric
    Toeplitz, so its eigenvectors are even or odd, and neither the constant
    start nor the restart direction has an odd component: the iterate stays
    in the even half, of order k = ceil(n/2).  linalg.even_basis gives that
    half's eigenvalues lam and its basis B once, from one tridiagonal
    reduction; the start is B^T 1 and f_star is B c.  There the gradient is
    q c with q = 1/lam + mu, a trial of length t is d = F c with
    F = 1 - t q, and its projection is rho d for a scalar rho > 0.  Every
    number the loop decides on is a weighted sum of w = c^2: ||d||^2 is
    sum F^2 w, the trial cost 1/2 rho^2 sum q F^2 w, and the step
    ||rho d - c||^2 is sum (rho F - 1)^2 w.  So the loop keeps w in place
    of c.  The rows of every trial length, down to the first below the
    floor, are built once before the loop.  Most accepted steps take trial
    0, the longest, in runs of a few, so its rows are stacked times F_0^2j
    for j up to _PGD_AHEAD: one matrix-vector product at w gives trial 0's
    sums at w and at each of the next _PGD_AHEAD iterates along trial 0,
    where sum w and the cost are the step's own ||d||^2 and sum q F^2 w.
    Through a run of trial-0 steps the loop reads its sums from that one
    product and lets w lag behind.  w catches up, in one multiplication by
    a power of F_0^2, when _PGD_AHEAD steps are pending, at a
    renormalization, before any other trial, a restart or a step summed
    elementwise, and at the end; any other trial sums its own rows at w.
    The signs of c come from the start's signs and the parity of how often
    each F was applied.

    w is kept at unit scale, and a float tau carries the h-norm:
    ||f||_h = tau sqrt(sum w).  The loop's norms then neither underflow nor
    overflow for bounds from 1e-300 to 1e300, and scaling a, b and tol by a
    power of two scales f_star exactly.  The step's sum is expanded about
    the half's smallest q, q_ref = min q: F = F_ref + G with G <= 0, so
    each sum is one-signed.  The expansion still cancels when the iterate
    sits on one mode other than q_ref's; when its rounding bound exceeds
    1e-8 of its value, the step is summed elementwise instead.  These
    sums, and the basis's products, stay on BLAS, unlike every sum fraclap
    reports (linalg.pairwise_dot): they steer the iteration in the even
    half, and f_star reaches the caller only through the final _cost.

    even_basis takes the true-scale column np.ldexp(op.col, op.exponent), whose bits it keeps
    (at unit scale it did not): a spacing whose true column overflows raises OverflowError.
    An indefinite operator raises linalg.SolveError, from op.spectrum.
    """
    grid = op.grid
    step = _step(op, cfg.mu)
    basis = linalg.even_basis(scale_back(grid, column=(op.col, op.exponent))[0])
    lam = basis.values
    n, h, a, b, tol = grid.n, grid.h, cfg.a, cfg.b, cfg.tol
    q = 1.0 / lam + cfg.mu
    q_ref = float(q.min())  # the step's sums are expanded about it
    g = basis.coefficients(np.ones(n)) / math.sqrt(n)  # the constant direction, unit norm
    g2 = g * g
    # The iterate is f = B (tau / sqrt(h)) sign * sqrt(w): ||f||_h = tau sqrt(sum w).
    w, tau = g2.copy(), min(max(math.sqrt(h * n), a), b)
    first, floor = 4.0 * step, 1e-12 * step

    # Trial m has length first * 2**-m, down to the first below floor, which the
    # search takes whatever the cost.  Its rows are F^2, q F^2, G and G^2, and
    # applied[m] counts how often its F multiplied the coefficients.
    t = first * 0.5 ** np.arange(math.ceil(math.log2(first / floor)) + 1)
    F, F_ref = 1.0 - t[:, None] * q, 1.0 - t * q_ref
    G = F - F_ref[:, None]
    # Lists, as the loop indexes them: indexing an array would make a new view.
    rows = list(np.stack([F * F, q * F * F, G, G * G], axis=1))
    F2, F_ref, applied = [r[0] for r in rows], F_ref.tolist(), [0] * len(t)
    # Each trial's length and Armijo coefficient; the last trial is the first below floor.
    lengths, armijo, last = t.tolist(), (1e-4 / np.maximum(t, 1e-300)).tolist(), len(t) - 1
    ahead = _PGD_AHEAD
    # power[j] = F2[0]^j.  Rows 0 and 1 of the product give sum w and 2 J / tau^2, and block
    # j, from row 2 + 4 j, holds trial 0's rows times power[j]: its sums j trial-0 steps
    # on from w.  There sum w and 2 J / tau^2 are the last step's s1 and s2.
    power = np.cumprod([np.ones(len(q))] + [F2[0]] * (ahead + 1), axis=0)
    dot = np.vstack([np.ones(len(q)), q, *(power[:ahead + 1, None] * rows[0])]).dot
    # w lags the iterate by `pending` trial-0 steps, which sums, the product at w, already
    # holds; sums is None once w has moved since the product.
    power, pending, sums = list(power), 0, None

    def catch_up():  # apply the pending steps to w
        nonlocal w, pending, sums
        if pending:
            w *= power[pending]
            pending, sums = 0, None

    def coefficients():  # c: the start's signs, flipped by each F applied an odd number of times
        catch_up()
        return np.sign(g) * np.sign(F[np.array(applied) % 2 == 1]).prod(axis=0) * np.sqrt(w)

    sqrt = math.sqrt
    # Relative rounding bound of a sum of len(q) one-signed products of rounded rows.
    cancel = (len(q) + 4) * _EPS

    for it in range(1, PGD_MAX_ITER + 1):
        if sums is None:
            sums = dot(w).tolist()
        if pending:
            s0, J = s1, 0.5 * s2
        else:
            s0, J = sums[0], 0.5 * sums[1]
        m = 0
        # Costs and squared steps below are in units of tau^2.
        while True:
            if m == 0:
                o = 2 + 4 * pending
                s1, s2, t1, t2 = sums[o:o + 4]
            else:  # summed from w itself, which first catches up
                catch_up()
                s1, s2, t1, t2 = rows[m].dot(w).tolist()
            restart = s1 == 0.0 and a > 0.0
            if restart:  # d = 0 projects to the constant direction on the inner sphere
                c = coefficients()
                rho = a / tau
                e = float(np.square(rho * g - c).sum())
                J_new = 0.5 * rho * rho * float(q.dot(g2))
            else:
                nrm = tau * sqrt(s1)
                rho = a / nrm if nrm < a else b / nrm if nrm > b else 1.0
                # rho F - 1 = alpha + rho G: e = alpha^2 s0 + 2 alpha rho t1 + rho^2 t2.
                alpha = rho * F_ref[m] - 1.0
                x = alpha * s0 + rho * t1
                e = alpha * x + rho * (alpha * t1 + rho * t2)
                # The terms' magnitudes, and alpha's own rounding times de/dalpha = 2x.
                mag = e - 4.0 * alpha * rho * t1 if alpha > 0.0 else e
                if cancel * mag + 2.0 * _EPS * abs(x) > 1e-8 * e:
                    catch_up()
                    e = float(np.square(rho * F[m] - 1.0).dot(w))
                J_new = 0.5 * rho * rho * s2
            if J_new <= J - armijo[m] * e or m == last:
                break
            m += 1
        pg_res = tau * sqrt(e) / lengths[m]
        if restart:  # coefficients() has caught w up
            w, tau, sums = g2.copy(), a, None
            applied[:] = [0] * len(applied)
        else:
            tau *= rho
            applied[m] += 1
            renormalize = (it % 32 == 0 or not 1e-20 < s1 < 1e20 or tau > 1e290) and s1 > 0.0
            if m == 0 and pending < ahead and not renormalize:
                pending += 1
            else:  # w catches up; past trial 0, pending is already 0
                w *= power[pending + 1] if m == 0 else F2[m]
                pending, sums = 0, None
                if renormalize:
                    # Renormalize, so that tau stays finite, and flush weights that
                    # would turn subnormal, which slows the product several times over.
                    w /= s1
                    tau *= sqrt(s1)
                    w[w < 1e-200] = 0.0
        if pg_res <= tol:
            break

    f = _sign_normalize(basis.nodal(coefficients() * (tau / math.sqrt(h))))
    u = op.solve(f)
    J, nrm = scale_back(grid, J_star=_cost(f, u, cfg.mu, grid), norm_f=scaled_norm(f, grid))
    return OptimResult(
        f_star=f,
        u_star=u,
        J_star=J,
        grad_norm=pg_res,
        iters=it,
        converged=pg_res <= tol,
        active_bound=_active_bound(nrm, a, b, tol),
    )


def eigen_solve_control(op: Operator, cfg: ControlConfig) -> OptimResult:
    """Direct solution of the annulus-constrained problem.

    J(t f) = t^2 J(f) grows in t, so for a > 0 the lower bound is active
    and the minimizer over the sphere ||f||_h = a is a times the unit
    eigenvector of A's largest eigenvalue; for a = 0 the minimizer is 0.
    converged reports whether that eigenpair's relative residual is at most cfg.tol, or a = 0.

    grad_norm is the projected gradient in closed form.  On the active
    sphere it is the part of g = u + mu f orthogonal to f, and mu f is
    radial, so it is u's orthogonal part.  That part is taken on lambda u,
    lambda the top eigenvalue, which is about f in size, and divided by
    lambda, so that it overflows only where f does:

        grad_norm = ||lambda u - <lambda u, v>_h v||_h / lambda,   v = f / ||f||_h.

    Each value is taken at unit scale and scaled back once, naming any that overflows.
    op.spectrum is read first, so that an operator that is not positive definite
    raises linalg.SolveError whatever a.  For a > 0, so does a top eigenvalue
    whose relative gap is at most 4 eps: its eigenvector is not determined.
    """
    grid, spectrum = op.grid, op.spectrum
    if cfg.a == 0.0:
        z = np.zeros(grid.n)
        return OptimResult(f_star=z, u_star=z, J_star=0.0, grad_norm=0.0, iters=0,
                           converged=True, active_bound="none")
    if spectrum.gap <= 4.0 * _EPS:
        raise linalg.SolveError(f"top eigenvalue is not separated at s={op.s}: "
                                f"relative gap {spectrum.gap:.3e}")
    a, e_a = math.frexp(cfg.a)
    f = _sign_normalize(a * spectrum.vector)
    nrm, e_nrm = scaled_norm(f, grid)
    f, nrm = scale_back(grid, f_star=(f, e_a), norm_f=(nrm, e_nrm + e_a))
    u = op.solve(f)
    v, lu = f / nrm, spectrum.lambda_max * np.ldexp(u, op.exponent)
    r, e_r = scaled_norm(lu - inner_product_h(lu, v, grid) * v, grid)
    J, pg_res = scale_back(grid, J_star=_cost(f, u, cfg.mu, grid),
                           grad_norm=(r / spectrum.lambda_max, e_r - op.exponent))
    return OptimResult(
        f_star=f,
        u_star=u,
        J_star=J,
        grad_norm=pg_res,
        iters=0,
        converged=spectrum.residual <= cfg.tol,
        active_bound=_active_bound(nrm, cfg.a, cfg.b, cfg.tol),
    )
