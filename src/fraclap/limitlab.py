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
from .discretize import (
    Grid,
    GridFunction,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
    quadratic_form,
)
from .forward import poincare_constant, solve_poisson


class SweepError(RuntimeError):
    """The classical reference solve failed; no comparison is possible."""


def default_s_ladder(count: int = 10) -> list[float]:
    """Geometric ladder s_k = 1 - 2^(-k), k = 1..count."""
    return [1.0 - 2.0 ** (-k) for k in range(1, count + 1)]


def _validate_s_list(s_list):
    s_list = [float(s) for s in s_list]
    if not s_list:
        raise ValueError("s_list must not be empty")
    if any(not 0.0 < s < 1.0 for s in s_list):
        raise ValueError(f"every s must lie in (0, 1), got {s_list}")
    if any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise ValueError(f"s_list must be strictly ascending, got {s_list}")
    return s_list


@dataclass(frozen=True)
class SweepConfig:
    grid: Grid
    s_list: list[float]
    control: ControlConfig

    def __post_init__(self):
        object.__setattr__(self, "s_list", _validate_s_list(self.s_list))


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
    error: str = ""


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]
    J_star_classical: float
    f_star_classical: GridFunction = field(repr=False)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Solve the control problem along the s ladder against the classical reference.

    Per-s failures are recorded in their row and the sweep continues; a
    failing classical reference aborts the whole sweep since every row
    compares against it.
    """
    grid = cfg.grid
    ref = eigen_solve_control(assemble_classical(grid), cfg.control)
    if not ref.converged:
        raise SweepError("classical reference solve did not converge")

    rows = []
    for s in cfg.s_list:
        op = assemble_fractional(grid, s)
        result = eigen_solve_control(op, cfg.control)
        fs, us = result.f_star, result.u_star
        nf = norm_h(fs, grid) * norm_h(ref.f_star, grid)
        align = abs(inner_product_h(fs, ref.f_star, grid)) / nf if nf > 0 else 1.0
        rows.append(SweepRow(
            s=s,
            J_star=result.J_star,
            dist_f=norm_h(fs - ref.f_star, grid),
            dist_u=norm_h(us - ref.u_star, grid),
            align=align,
            lambda_max=op.top_pair.value,
            seminorm_sq=inner_product_h(fs, us, grid),
            poincare_c=poincare_constant(op),
            error="" if result.converged else "eigensolver did not converge",
        ))
    return SweepReport(
        rows=rows,
        J_star_classical=ref.J_star,
        f_star_classical=ref.f_star,
    )


@dataclass(frozen=True)
class StateConvergenceRow:
    s: float
    dist_u: float
    seminorm_gap: float


@dataclass(frozen=True)
class StateConvergenceReport:
    rows: list[StateConvergenceRow]
    seminorm_classical: float
    u_norm_classical: float


def state_convergence_check(grid: Grid, f: GridFunction, s_list) -> StateConvergenceReport:
    """Distance of order-s states to the classical state for a fixed right-hand side."""
    s_list = _validate_s_list(s_list)
    f = np.asarray(f, dtype=float)
    ref = solve_poisson(assemble_classical(grid), f)
    rows = []
    for s in s_list:
        sol = solve_poisson(assemble_fractional(grid, s), f)
        rows.append(StateConvergenceRow(
            s=s,
            dist_u=norm_h(sol.u - ref.u, grid),
            seminorm_gap=abs(sol.seminorm_sq - ref.seminorm_sq),
        ))
    return StateConvergenceReport(rows=rows, seminorm_classical=ref.seminorm_sq,
                                  u_norm_classical=ref.l2_norm_u)


@dataclass(frozen=True)
class BbmRow:
    s: float
    energy: float


@dataclass(frozen=True)
class BbmReport:
    rows: list[BbmRow]
    energy_classical: float


def bbm_limit_check(grid: Grid, v: GridFunction, s_list) -> BbmReport:
    """Weighted fractional energy of a fixed function along the ladder.

    The values approach the classical Dirichlet energy <A_1 v, v>_h as
    s -> 1-, for any v with square-integrable gradient.
    """
    s_list = _validate_s_list(s_list)
    v = np.asarray(v, dtype=float)
    ref = quadratic_form(assemble_classical(grid), v)
    rows = [BbmRow(s=s, energy=quadratic_form(assemble_fractional(grid, s), v))
            for s in s_list]
    return BbmReport(rows=rows, energy_classical=ref)


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
    """Cost extended by +inf outside the admissible annulus."""
    nrm = norm_h(f, op.grid)
    slack = 1e-12 * max(1.0, cfg.b)
    if nrm < cfg.a - slack or nrm > cfg.b + slack:
        return math.inf
    return reduced_cost(op, f, cfg.mu)


def _gamma_clause(clause: str, grid: Grid, f: GridFunction, c: float, s_list,
                  cfg: ControlConfig, passes) -> GammaCheckReport:
    """Margins F_{s_k}(f + c sin(k pi x)) - F(f) along the ladder.

    The verdict applies passes to the last third of the rows with a
    finite margin.  The liminf clause takes the annulus as a
    precondition and raises where the recovery clause scores +inf.
    """
    s_list = _validate_s_list(s_list)
    f = np.asarray(f, dtype=float)
    F_ref = _extended_cost(assemble_classical(grid), f, cfg)
    strict = clause == "liminf"
    if strict and not math.isfinite(F_ref):
        raise ValueError("base control must lie in the admissible annulus")
    x = grid.nodes()
    rows = []
    for k, s in enumerate(s_list, start=1):
        f_k = f + c * np.sin(k * np.pi * x)
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

    Pairs f_k = f + c * sin(k pi x) with s_k from the ladder and reports
    the signed margins F_k(f_k) - F(f); the verdict passes when the tail
    (last third) stays above -LIMINF_TOLERANCE.  Oscillations that leave
    the annulus are a configuration error.
    """
    return _gamma_clause(
        "liminf", grid, f, float(oscillation_amplitude), s_list, cfg,
        lambda r: r.margin >= -LIMINF_TOLERANCE)
