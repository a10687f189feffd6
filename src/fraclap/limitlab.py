"""Sweeps toward the classical limit and variational-convergence checks.

Everything here runs on a fixed grid: the study quantifies how the
order-s problem approaches its classical counterpart as s increases
toward 1, with grid refinement validated separately by the forward
solver.  The default ladder is geometric, s_k = 1 - 2^(-k), because the
operator entries close their gap to the classical stencil at the rate
the normalizing constant vanishes, proportionally to 1 - s.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControlConfig, eigen_solve_control, reduced_cost
from .discretize import (Grid, GridFunction, assemble_classical, assemble_fractional, norm_h,
                         scale_back, scaled_inner_product, scaled_norm)
from .forward import poincare_constant
from .linalg import SolveError


def default_s_ladder(count: int = 10) -> list[float]:
    """Geometric ladder s_k = 1 - 2^(-k), k = 1..count."""
    return [1.0 - 2.0 ** (-k) for k in range(1, count + 1)]


def validate_s_list(s_list):
    """The orders as floats; ValueError unless nonempty, each in (0, 1) and strictly ascending."""
    s_list = [float(s) for s in s_list]
    if not s_list:
        raise ValueError("s_list must not be empty")
    if any(not 0.0 < s < 1.0 for s in s_list):
        raise ValueError(f"every s must lie in (0, 1), got {s_list}")
    if any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise ValueError(f"s_list must be strictly ascending, got {s_list}")
    return s_list


@dataclass(frozen=True)
class SweepRow:
    s: float
    J_star: float
    dist_f: float
    dist_u: float
    align: float
    lambda_max: float
    seminorm_sq: float
    poincare_c: float


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]
    J_star_classical: float
    f_star_classical: GridFunction = field(repr=False)


def run_sweep(grid: Grid, s_list, control: ControlConfig) -> SweepReport:
    """Solve the control problem along the s ladder against the classical reference.

    The first control solve that does not converge, the classical
    reference's or that of one order s, raises SolveError naming it, and
    no later order is solved.  A value that overflows raises OverflowError
    naming the spacing, and the order too if it is one of the row's pairings.
    """
    s_list = validate_s_list(s_list)
    ref = eigen_solve_control(assemble_classical(grid), control)
    if not ref.converged:
        raise SolveError("classical reference solve did not converge")

    rows, (n2, e2) = [], scaled_norm(ref.f_star, grid)
    for s in s_list:
        op = assemble_fractional(grid, s)
        result = eigen_solve_control(op, control)
        if not result.converged:
            raise SolveError(f"control solve did not converge at s={s}")
        fs, us, rf = result.f_star, result.u_star, ref.f_star
        (i, e_i), (n1, e1) = scaled_inner_product(fs, rf, grid), scaled_norm(fs, grid)
        pairs = dict(dist_f=scaled_norm(fs - rf, grid),
                     dist_u=scaled_norm(us - ref.u_star, grid),
                     align=(abs(i) / (n1 * n2), e_i - e1 - e2) if n1 * n2 > 0 else (1.0, 0),
                     lambda_max=(op.top_pair.value, op.exponent),
                     seminorm_sq=scaled_inner_product(fs, us, grid))
        rows.append(SweepRow(s=s, J_star=result.J_star, poincare_c=poincare_constant(op),
                             **dict(zip(pairs, scale_back(grid, f"s={s}, ", **pairs)))))
    return SweepReport(
        rows=rows,
        J_star_classical=ref.J_star,
        f_star_classical=ref.f_star,
    )


@dataclass(frozen=True)
class GammaRow:
    clause: str  # "recovery" | "liminf"
    index: int
    s: float
    F_s: float
    F_limit: float
    margin: float


@dataclass(frozen=True)
class GammaCheckReport:
    rows: list[GammaRow]
    ok: bool


# Tail tests of the two clauses: recovery margins within 2% of F(f) in
# magnitude, liminf margins no lower than -1e-3.
RECOVERY_TOLERANCE = 0.02
LIMINF_TOLERANCE = 1e-3


def _extended_cost(op, f, cfg: ControlConfig) -> float:
    """Cost extended by +inf outside the annulus; a norm or cost that overflows raises."""
    nrm = scale_back(op.grid, norm_f=scaled_norm(f, op.grid))[0]
    slack = 1e-12 * max(1.0, cfg.b)
    if nrm < cfg.a - slack or nrm > cfg.b + slack:
        return math.inf
    return reduced_cost(op, f, cfg.mu)


def _gamma_clause(clause: str, grid: Grid, f: GridFunction, c: float, s_list,
                  cfg: ControlConfig, passes) -> GammaCheckReport:
    """Margins F_{s_k}(f + (c / sqrt(R)) sin(k pi (x - mid) / R)) - F(f) along the ladder.

    mid and R are the domain's centre and half-length, so the perturbation
    vanishes at both ends and its h-norm is about c on any domain; on
    (-1, 1) it is exactly c sin(k pi x).
    The verdict applies passes to the last third of the rows with a
    finite margin.  The liminf clause takes the annulus as a
    precondition and raises where the recovery clause scores +inf.
    """
    s_list = validate_s_list(s_list)
    f = np.asarray(f, dtype=float)
    F_ref = _extended_cost(assemble_classical(grid), f, cfg)
    strict = clause == "liminf"
    if strict and not math.isfinite(F_ref):
        raise ValueError("base control must lie in the admissible annulus")
    mid = 0.5 * grid.x_left + 0.5 * grid.x_right
    R = 0.5 * grid.x_right - 0.5 * grid.x_left
    x = (grid.nodes() - mid) / R
    amplitude = c / math.sqrt(R)
    rows = []
    for k, s in enumerate(s_list, start=1):
        f_k = f + amplitude * np.sin(k * np.pi * x)
        F_s = _extended_cost(assemble_fractional(grid, s), f_k, cfg)
        if strict and not math.isfinite(F_s):
            raise ValueError(
                f"perturbed control leaves the annulus at k={k}: ||f_k||={norm_h(f_k, grid)!r},"
                f" bounds [{cfg.a}, {cfg.b}]"
            )
        margin = F_s - F_ref if math.isfinite(F_s) and math.isfinite(F_ref) else math.inf
        rows.append(GammaRow(clause=clause, index=k, s=s, F_s=F_s,
                             F_limit=F_ref, margin=margin))
    finite = [r for r in rows if math.isfinite(r.margin)]
    tail = finite[-max(1, len(finite) // 3):]
    return GammaCheckReport(rows=rows, ok=bool(tail) and all(passes(r) for r in tail))


def recovery_sequence_check(grid: Grid, f: GridFunction, s_list,
                            cfg: ControlConfig) -> GammaCheckReport:
    """Constant-sequence recovery: F_s(f) approaches the classical F(f).

    A control outside the annulus carries the extended value infinity in
    every row, which is itself the correct limit behavior.
    """
    return _gamma_clause(
        "recovery", grid, f, 0.0, s_list, cfg,
        lambda r: abs(r.margin) <= RECOVERY_TOLERANCE * abs(r.F_limit))


def liminf_check(grid: Grid, f: GridFunction, oscillation_amplitude: float,
                 s_list, cfg: ControlConfig) -> GammaCheckReport:
    """Lower-bound margins along a weakly vanishing oscillatory family.

    Pairs f_k = f + (c / sqrt(R)) sin(k pi (x - mid) / R), mid and R the
    domain's centre and half-length, with s_k from the ladder and reports
    the signed margins F_k(f_k) - F(f); the verdict passes when the tail
    (last third) stays above -LIMINF_TOLERANCE.  Oscillations that leave
    the annulus are a configuration error.
    """
    return _gamma_clause(
        "liminf", grid, f, float(oscillation_amplitude), s_list, cfg,
        lambda r: r.margin >= -LIMINF_TOLERANCE)
