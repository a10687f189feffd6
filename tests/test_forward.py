import math
import re

import numpy as np
import pytest

from fraclap.discretize import (
    Grid,
    Operator,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
    quadratic_form,
)
from fraclap.forward import poincare_constant, solve_poisson
from fraclap.linalg import SolveError
from oracles import unit_rhs_exact_state


class TestSolvePoisson:
    def test_classical_unit_load(self):
        n = 511
        g = Grid(-1.0, 1.0, n)
        sol = solve_poisson(assemble_classical(g), np.ones(n))
        # -u'' = 1 with zero boundary: u = (1 - x^2)/2, so u(0) = 1/2.
        center = sol.u[n // 2]
        assert center == pytest.approx(0.5, rel=0.002)

    def test_fractional_half_order_unit_load(self):
        n = 512
        g = Grid(-1.0, 1.0, n)
        sol = solve_poisson(assemble_fractional(g, 0.5), np.ones(n))
        exact = unit_rhs_exact_state(g.nodes(), 0.5)
        rel_err = norm_h(sol.u - exact, g) / norm_h(exact, g)
        assert rel_err <= 0.03
        assert sol.u[n // 2] == pytest.approx(1.0, rel=0.03)

    def test_linearity(self):
        g = Grid(-1.0, 1.0, 64)
        op = assemble_fractional(g, 0.4)
        f = np.sin(np.pi * g.nodes())
        u1 = solve_poisson(op, f).u
        u2 = solve_poisson(op, 2.0 * f).u
        assert np.linalg.norm(u2 - 2.0 * u1) <= 1e-10 * np.linalg.norm(u1)

    def test_refinement_errors_decrease(self):
        errors = []
        for n in (64, 128, 256, 512):
            g = Grid(-1.0, 1.0, n)
            sol = solve_poisson(assemble_fractional(g, 0.5), np.ones(n))
            exact = unit_rhs_exact_state(g.nodes(), 0.5)
            errors.append(norm_h(sol.u - exact, g) / norm_h(exact, g))
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))

    def test_duality_identity(self):
        g = Grid(-1.0, 1.0, 128)
        op = assemble_fractional(g, 0.7)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.standard_normal(128)
            sol = solve_poisson(op, f)
            energy = quadratic_form(op, sol.u)
            assert abs(sol.seminorm_sq - energy) <= 1e-8 * abs(sol.seminorm_sq)

    def test_monotone_in_load(self):
        g = Grid(-1.0, 1.0, 96)
        op = assemble_fractional(g, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(10):
            gv = rng.uniform(0.0, 1.0, size=96)
            fv = gv + rng.uniform(0.0, 1.0, size=96)
            uf = solve_poisson(op, fv).u
            ug = solve_poisson(op, gv).u
            assert np.all(uf >= ug - 1e-12)

    def test_rejects_bad_rhs(self):
        g = Grid(-1.0, 1.0, 8)
        op = assemble_classical(g)
        with pytest.raises(ValueError):
            solve_poisson(op, np.ones(9))

    def test_refuses_a_right_hand_side_that_is_not_finite(self):
        op = assemble_classical(Grid(-1.0, 1.0, 8))
        with pytest.raises(SolveError, match="^right-hand side is not finite$"):
            solve_poisson(op, np.full(8, np.nan))

    def test_tiny_state_norm_does_not_underflow(self):
        # On (0, 1e-200) u is about h times f, and ||u||_h about 4e-301: the squares
        # of u underflow, but its h-norm does not.
        g = Grid(0.0, 1e-200, 16)
        sol = solve_poisson(assemble_fractional(g, 0.5), np.ones(16))
        peak = float(sol.u.max())
        expected = math.sqrt(g.h) * float(np.linalg.norm(sol.u / peak)) * peak
        assert 1e-301 < expected < 1e-300
        assert sol.l2_norm_u == pytest.approx(expected, rel=1e-14, abs=0.0)


    @pytest.mark.parametrize("right, named", [(1e120, "l2_norm_u"),
                                              (1e160, "seminorm_sq and l2_norm_u")])
    def test_overflowing_norms_name_the_spacing(self, right, named):
        # u grows like h^(2s) times f; on a wide domain its h-norm, then its
        # energy, pass the double range.  No numpy warning on the way.
        g = Grid(0.0, right, 16)
        with pytest.raises(OverflowError, match=re.escape(f"non-finite {named} at grid "
                                                          f"spacing h={g.h:.3e}")):
            solve_poisson(assemble_fractional(g, 0.5), np.ones(16))

def assert_nonnegative_state(op, f):
    # Criterion 7's round-off floor, scaled by the state's size.
    u = op.solve(f)
    assert np.all(u >= -1e-12 * max(1.0, float(np.abs(u).max())))


class TestMaximumPrinciple:
    """f >= 0 gives u >= 0: every assembled operator is an irreducible M-matrix."""

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_unit_load(self, s):
        assert_nonnegative_state(assemble_fractional(Grid(-1.0, 1.0, 64), s), np.ones(64))

    def test_point_mass_spreads_positively(self):
        g = Grid(-1.0, 1.0, 65)
        op = assemble_fractional(g, 0.5)
        f = np.zeros(65)
        f[32] = 1.0
        assert_nonnegative_state(op, f)
        u = solve_poisson(op, f).u
        assert np.all(u > 0.0)  # the inverse of the operator is positive

    def test_builds_no_dense_matrix_with_solve_poisson(self, dense_matrices):
        op = assemble_fractional(Grid(-1.0, 1.0, 64), 0.5)
        solve_poisson(op, np.ones(64))
        assert_nonnegative_state(op, np.ones(64))
        assert dense_matrices == []


class TestPoincare:
    def test_classical_constant(self):
        g = Grid(-1.0, 1.0, 255)
        c = poincare_constant(assemble_classical(g))
        assert c == pytest.approx(4.0 / math.pi**2, rel=0.01)

    def test_inequality_on_random_functions(self):
        g = Grid(-1.0, 1.0, 64)
        op = assemble_fractional(g, 0.6)
        c = poincare_constant(op)
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = rng.standard_normal(64)
            lhs = inner_product_h(u, u, g)
            rhs = c * quadratic_form(op, u)
            assert rhs - lhs >= -1e-10 * rhs

    def test_varies_continuously_in_order(self):
        g = Grid(-1.0, 1.0, 64)
        ladder = np.arange(0.1, 1.0, 0.05)
        values = [poincare_constant(assemble_fractional(g, float(s))) for s in ladder]
        for c1, c2 in zip(values, values[1:]):
            assert abs(c2 - c1) <= 0.2 * max(c1, c2)

    def test_indefinite_operator_has_none(self):
        col = np.zeros(8)
        col[:2] = 1.0, 2.0  # tridiag(2, 1, 2): eigenvalues 1 + 4 cos(k pi / 9), from -2.76
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 8))
        with pytest.raises(SolveError, match=r"not positive definite: eigenvalues span \[-"):
            poincare_constant(op)


class TestCrossSeminorm:
    def test_zero_vector(self):
        g = Grid(-1.0, 1.0, 32)
        assert quadratic_form(assemble_fractional(g, 0.5), np.zeros(32)) == 0.0

    def test_state_gap_decays_along_ladder(self):
        # Distance between the order-s state and the classical state,
        # measured in a fixed weaker norm of order 1/2, shrinks as s rises.
        n = 128
        g = Grid(-1.0, 1.0, n)
        op_half = assemble_fractional(g, 0.5)
        f = np.ones(n)
        u1 = solve_poisson(assemble_classical(g), f).u
        gaps = []
        for s in (0.7, 0.9, 0.99):
            us = solve_poisson(assemble_fractional(g, s), f).u
            gaps.append(quadratic_form(op_half, us - u1))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
