"""Fractional Laplacian on an interval: discretization, optimal control,
and the approach to the classical problem as the order tends to 1."""

from .control import ControlConfig, OptimResult, eigen_solve_control
from .discretize import (
    Grid,
    Operator,
    StencilWeights,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
    quadratic_form,
    stencil_weights,
)
from .forward import ForwardSolution, solve_poisson
from .limitlab import SweepReport, default_s_ladder, run_sweep
from .specfun import frac_constant

__all__ = [
    "ControlConfig",
    "ForwardSolution",
    "Grid",
    "Operator",
    "OptimResult",
    "StencilWeights",
    "SweepReport",
    "assemble_classical",
    "assemble_fractional",
    "default_s_ladder",
    "eigen_solve_control",
    "frac_constant",
    "inner_product_h",
    "norm_h",
    "quadratic_form",
    "run_sweep",
    "solve_poisson",
    "stencil_weights",
]
