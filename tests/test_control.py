import math

import numpy as np
import pytest

from fraclap.control import (
    ControlConfig,
    eigen_solve_control,
    pgd_solve,
    project_annulus,
    reduced_cost,
    reduced_gradient,
)
from fraclap.discretize import (
    Grid,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
)
from oracles import eig_full_jacobi


def make_op(n=64, s=0.5):
    return assemble_fractional(Grid(-1.0, 1.0, n), s)


class TestControlConfig:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            ControlConfig(mu=0.0, a=1.0, b=2.0)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            ControlConfig(mu=0.1, a=2.0, b=1.0)

    def test_rejects_unknown_step_rule(self):
        with pytest.raises(ValueError):
            ControlConfig(mu=0.1, a=1.0, b=2.0, step_rule="exact")

    def test_rejects_nonfinite_inputs(self):
        for bad in ({"mu": math.nan}, {"mu": math.inf}, {"b": math.inf},
                    {"a": math.nan}, {"tol": math.nan}, {"tol": math.inf}):
            with pytest.raises(ValueError):
                ControlConfig(**{"mu": 0.1, "a": 1.0, "b": 2.0, **bad})


class TestReducedCost:
    def test_zero_control(self):
        op = make_op()
        assert reduced_cost(op, np.zeros(op.n), 0.1) == 0.0

    def test_quadratic_scaling(self):
        op = make_op()
        rng = np.random.default_rng(2)
        f = rng.standard_normal(op.n)
        J1 = reduced_cost(op, f, 0.1)
        J3 = reduced_cost(op, 3.0 * f, 0.1)
        assert J3 == pytest.approx(9.0 * J1, rel=1e-10)

    def test_classical_unit_load_limit(self):
        # With no regularization the cost is half the integral of the state;
        # for the unit load int u = int (1-x^2)/2 = 2/3, so J -> 1/3.
        n = 511
        op = assemble_classical(Grid(-1.0, 1.0, n))
        J = reduced_cost(op, np.ones(n), 0.0)
        assert J == pytest.approx(1.0 / 3.0, rel=0.01)


class TestReducedGradient:
    def test_zero_control(self):
        op = make_op()
        assert np.all(reduced_gradient(op, np.zeros(op.n), 0.1) == 0.0)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_matches_finite_differences(self, s):
        op = make_op(n=48, s=s)
        g = op.grid
        rng = np.random.default_rng(42)
        f = rng.standard_normal(48)
        grad = reduced_gradient(op, f, 0.1)
        eps = 1e-5
        for _ in range(10):
            d = rng.standard_normal(48)
            d /= norm_h(d, g)
            fd = (reduced_cost(op, f + eps * d, 0.1)
                  - reduced_cost(op, f - eps * d, 0.1)) / (2.0 * eps)
            directional = inner_product_h(grad, d, g)
            assert fd == pytest.approx(directional, rel=1e-6)

    def test_large_regularization_dominates(self):
        op = make_op(n=32, s=0.5)
        g = op.grid
        from fraclap.linalg import eig_extreme
        lam_min = eig_extreme(op, "smallest", h=g.h).value
        mu = 1e4 / lam_min  # 1e4 times the norm of the solution operator
        rng = np.random.default_rng(3)
        f = rng.standard_normal(32)
        grad = reduced_gradient(op, f, mu)
        assert norm_h(grad - mu * f, g) <= 0.01 * norm_h(mu * f, g)


class TestProjectAnnulus:
    def test_shrinks_to_upper_bound(self):
        g = Grid(-1.0, 1.0, 16)
        f = np.ones(16)
        f *= 3.0 / norm_h(f, g)
        p = project_annulus(f, 1.0, 2.0, g)
        assert norm_h(p, g) == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(p / norm_h(p, g), f / norm_h(f, g))

    def test_identity_inside_annulus(self):
        g = Grid(-1.0, 1.0, 16)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            f = rng.standard_normal(16)
            f *= rng.uniform(1.0, 2.0) / norm_h(f, g)
            p = project_annulus(f, 1.0, 2.0, g)
            assert np.array_equal(p, f)
            # Idempotence on projected points.
            q = project_annulus(project_annulus(3.0 * f, 1.0, 2.0, g), 1.0, 2.0, g)
            assert norm_h(q, g) <= 2.0 + 1e-12

    def test_zero_vector_degenerate_choice(self):
        g = Grid(-1.0, 1.0, 16)
        p = project_annulus(np.zeros(16), 1.0, 2.0, g)
        assert norm_h(p, g) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(p, p[0])  # constant direction
        assert p[0] > 0

    def test_zero_vector_with_zero_lower_bound(self):
        g = Grid(-1.0, 1.0, 16)
        assert np.all(project_annulus(np.zeros(16), 0.0, 2.0, g) == 0.0)

    def test_rejects_reversed_bounds(self):
        g = Grid(-1.0, 1.0, 16)
        with pytest.raises(ValueError):
            project_annulus(np.ones(16), 2.0, 1.0, g)


class TestPgd:
    def test_free_problem_converges_to_zero(self):
        op = make_op(n=48, s=0.5)
        cfg = ControlConfig(mu=0.1, a=0.0, b=2.0, tol=1e-10)
        r = pgd_solve(op, cfg)
        assert r.converged
        assert r.J_star <= 1e-12
        assert norm_h(r.f_star, op.grid) <= 1e-6
        assert r.active_bound == "none"

    def test_sphere_constraint_is_invariant(self):
        op = make_op(n=48, s=0.5)
        cfg = ControlConfig(mu=0.1, a=1.5, b=1.5, tol=1e-6, max_iter=3000)
        r = pgd_solve(op, cfg)
        assert norm_h(r.f_star, op.grid) == pytest.approx(1.5, abs=1e-9)

    def test_agrees_with_direct_solver_or_flags_gap(self):
        op = make_op(n=64, s=0.5)
        direct = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10))
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6, max_iter=500_000))
        assert r.converged
        rel_gap = abs(r.J_star - direct.J_star) / (1.0 + direct.J_star)
        # The annulus is nonconvex: a symmetric start can settle on a
        # symmetric stationary point whose cost sits just above the optimum.
        assert rel_gap <= 1e-8 or r.J_star >= direct.J_star - 1e-12

    def test_armijo_rule_descends_to_same_cost(self):
        op = make_op(n=48, s=0.5)
        fixed = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6, max_iter=500_000))
        armijo = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6,
                                             max_iter=500_000, step_rule="armijo"))
        assert armijo.converged
        assert armijo.J_star == pytest.approx(fixed.J_star, rel=1e-5)

    def test_feasibility_of_result(self):
        op = make_op(n=32, s=0.7)
        for a, b in ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0)):
            r = pgd_solve(op, ControlConfig(mu=0.2, a=a, b=b, tol=1e-6, max_iter=50_000))
            nrm = norm_h(r.f_star, op.grid)
            assert a - 1e-9 <= nrm <= b + 1e-9

    def test_nonconvergence_is_reported_not_raised(self):
        op = make_op(n=32, s=0.5)
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-14, max_iter=50))
        assert not r.converged
        assert r.iters == 50
        assert np.all(np.isfinite(r.f_star))


class TestEigenSolveControl:
    def test_zero_lower_bound(self):
        op = make_op()
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=0.0, b=2.0))
        assert r.J_star == 0.0
        assert np.all(r.f_star == 0.0)
        assert r.active_bound == "none"

    def test_classical_cost_from_spectrum_formula(self):
        n = 255
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g)
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-9))
        lam = 4.0 / g.h**2 * math.sin(n * math.pi / (2 * (n + 1))) ** 2
        assert r.J_star == pytest.approx(1.0 / (2.0 * lam) + 0.05, rel=0.01)
        assert r.active_bound == "lower"
        assert norm_h(r.f_star, g) == pytest.approx(1.0, rel=1e-9)

    def test_matches_jacobi_oracle(self):
        op = make_op(n=128, s=0.5)
        g = op.grid
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10))
        pairs = eig_full_jacobi(op, h=g.h)
        lam = pairs[-1].value
        J_oracle = 1.0 / (2.0 * lam) + 0.05
        assert abs(r.J_star - J_oracle) <= 1e-10
        overlap = abs(inner_product_h(r.f_star, pairs[-1].vector, g))
        assert overlap >= 1.0 - 1e-8

    def test_sign_normalization_deterministic(self):
        op = make_op(n=64, s=0.5)
        r1 = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10))
        r2 = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-12))
        assert np.abs(r1.f_star - r2.f_star).max() <= 1e-6

    def test_unattainable_tolerance_is_reported_not_converged(self):
        op = make_op(n=64, s=0.5)
        assert eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10)).converged
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-300))
        assert not r.converged and np.all(np.isfinite(r.f_star))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_cost_equals_reduced_cost_of_the_optimum(self, s):
        op = make_op(n=128, s=s)
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0)
        r = eigen_solve_control(op, cfg)
        assert r.J_star == pytest.approx(reduced_cost(op, r.f_star, cfg.mu), rel=1e-13)

    def test_gradient_is_radial_at_solution(self):
        op = make_op(n=64, s=0.5)
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10))
        assert r.grad_norm <= 1e-8
