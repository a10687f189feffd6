import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from fraclap.control import (
    ControlConfig,
    eigen_solve_control,
    pgd_solve,
    reduced_cost,
)
from fraclap.discretize import (
    FieldError,
    Grid,
    Operator,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
)
from fraclap import control, linalg
from fraclap.forward import poincare_constant
from fraclap.linalg import SolveError
from oracles import eig_full_jacobi, pgd_eigenbasis_reference, pgd_reference, project_annulus


def make_op(n=64, s=0.5):
    return assemble_fractional(Grid(-1.0, 1.0, n), s)


class TestControlConfig:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            ControlConfig(mu=0.0, a=1.0, b=2.0)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            ControlConfig(mu=0.1, a=2.0, b=1.0)

    @pytest.mark.parametrize("rule", ["exact", "fixed"])
    def test_rejects_any_step_rule_but_armijo(self, rule):
        with pytest.raises(FieldError) as err:
            ControlConfig(mu=0.1, a=1.0, b=2.0, step_rule=rule)
        assert err.value.fields == ("step_rule",)

    def test_has_no_iteration_cap(self):
        # The cap is control.PGD_MAX_ITER, not a field.
        with pytest.raises(TypeError):
            ControlConfig(mu=0.1, a=1.0, b=2.0, max_iter=10)

    @pytest.mark.parametrize("bad, message, fields", [
        ({"mu": 0.0}, "mu must be positive and finite, got 0.0", ("mu",)),
        ({"a": -1.0}, "a must be nonnegative and finite, got -1.0", ("a",)),
        ({"b": math.nan}, "b must be finite, got nan", ("b",)),
        ({"a": 3.0}, "a > b (3.0 > 2.0)", ("b", "a")),
        ({"tol": math.inf}, "tol must be positive and finite, got inf", ("tol",)),
    ])
    def test_rejection_names_the_fields_to_blame(self, bad, message, fields):
        with pytest.raises(FieldError) as err:
            ControlConfig(**{"mu": 0.1, "a": 1.0, "b": 2.0, **bad})
        assert (str(err.value), err.value.fields) == (message, fields)

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
        f = np.zeros(op.n)
        assert np.all(op.solve(f) + 0.1 * f == 0.0)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_matches_finite_differences(self, s):
        op = make_op(n=48, s=s)
        g = op.grid
        rng = np.random.default_rng(42)
        f = rng.standard_normal(48)
        grad = op.solve(f) + 0.1 * f
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
        lam_min = eig_extreme(np.ldexp(op.col, op.exponent), h=g.h).lambda_min
        mu = 1e4 / lam_min  # 1e4 times the norm of the solution operator
        rng = np.random.default_rng(3)
        f = rng.standard_normal(32)
        grad = op.solve(f) + mu * f
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

    @pytest.mark.parametrize("n", [3, 16, 64, 65, 128])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_origin_annulus(self, n, s):
        # a = b = 0 admits the zero control alone: one iteration, converged, on the lower bound.
        r = pgd_solve(make_op(n=n, s=s), ControlConfig(mu=0.1, a=0.0, b=0.0))
        assert (r.iters, r.converged, r.J_star, r.grad_norm, r.active_bound) == \
            (1, True, 0.0, 0.0, "lower")
        # Every entry is +0.0, with no sign bit set.
        assert np.all(r.f_star == 0.0) and not np.signbit(r.f_star).any()
        assert np.all(r.u_star == 0.0)

    def test_sphere_constraint_is_invariant(self, monkeypatch):
        monkeypatch.setattr(control, "PGD_MAX_ITER", 3000)
        op = make_op(n=48, s=0.5)
        cfg = ControlConfig(mu=0.1, a=1.5, b=1.5, tol=1e-6)
        r = pgd_solve(op, cfg)
        assert norm_h(r.f_star, op.grid) == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_search_down_to_the_floor(self, s):
        # At tol = 1e-12 on n = 16 the search reaches its last trial, the first
        # below 1e-12 step, which it takes whatever the cost (measured).
        op = make_op(n=16, s=s)
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-12)
        r = pgd_solve(op, cfg)
        assert r.converged and r.J_star >= eigen_solve_control(op, cfg).J_star - 1e-12

    def test_agrees_with_direct_solver_or_flags_gap(self):
        op = make_op(n=64, s=0.5)
        direct = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10))
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6))
        assert r.converged
        rel_gap = abs(r.J_star - direct.J_star) / (1.0 + direct.J_star)
        # The annulus is nonconvex: a symmetric start can settle on a
        # symmetric stationary point whose cost sits just above the optimum.
        assert rel_gap <= 1e-8 or r.J_star >= direct.J_star - 1e-12

    def test_default_config_converges_at_the_benchmark_order(self):
        # The benchmark's order with every default: 66 309 iterations, well
        # inside PGD_MAX_ITER.
        r = pgd_solve(make_op(n=128, s=0.5), ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6))
        assert r.converged and r.iters < control.PGD_MAX_ITER

    def test_feasibility_of_result(self):
        op = make_op(n=32, s=0.7)
        for a, b in ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0)):
            r = pgd_solve(op, ControlConfig(mu=0.2, a=a, b=b, tol=1e-6))
            nrm = norm_h(r.f_star, op.grid)
            assert a - 1e-9 <= nrm <= b + 1e-9

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(control, "PGD_MAX_ITER", 50)
        op = make_op(n=32, s=0.5)
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-14))
        assert not r.converged
        assert r.iters == 50
        assert np.all(np.isfinite(r.f_star))

    def test_overflowing_cost_raises_naming_h(self):
        # The loop meets tol at unit scale, and f_star's h-norm, 1e300, is finite,
        # but J_star ~ 1e600 is not: OverflowError naming h, with no numpy warning.
        op = make_op(n=64, s=0.5)
        with pytest.raises(OverflowError, match=re.escape(
                f"non-finite J_star at grid spacing h={op.grid.h:.3e}")):
            pgd_solve(op, ControlConfig(mu=0.1, a=1e300, b=1e300, tol=1e294))

    def test_subnormal_bounds(self, monkeypatch):
        # f_star's entries are about 1e-320; its state solve used to fail the
        # Toeplitz solve's check, whose bound underflowed to 0.
        op = make_op(n=64, s=0.5)
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1e-320, b=1e-320))
        monkeypatch.setattr(control, "PGD_MAX_ITER", r.iters)
        one = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=1.0))
        assert r.converged
        for got, unit in ((r.f_star, one.f_star), (r.u_star, one.u_star)):
            # The subnormal range holds about three digits here.
            assert np.allclose(got, 1e-320 * unit, rtol=1e-2, atol=2.0**-1070)

    @pytest.mark.parametrize("t", [2.0**-560, 2.0**330])
    def test_power_of_two_bounds_scale_exactly(self, t):
        # The loop decides on ratios of sums at unit scale, and a power of two
        # scales its norms exactly, so scaling the bounds and tol by one changes
        # no decision and scales f_star exactly.  At 2^-560 every h-norm of a
        # trial used to underflow to 0.
        op = make_op(n=64, s=0.5)
        one = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=1.0, tol=1e-5))
        r = pgd_solve(op, ControlConfig(mu=0.1, a=t, b=t, tol=1e-5 * t))
        assert (r.iters, r.converged) == (one.iters, one.converged)
        assert np.array_equal(r.f_star, t * one.f_star)


class TestPgdAgainstNodalOracle:
    """The eigenbasis iteration against the same iteration in nodal values."""

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_armijo_reaches_the_same_cost(self, s):
        # Round-off moves the Armijo accept/reject decisions, so only the
        # cost is compared, at the tolerance the benchmark uses.  Even the
        # first steps differ: the nodal iterate is up to 2e-7 away at step 10.
        op = make_op(n=64, s=s)
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6)
        r, ref = pgd_solve(op, cfg), pgd_reference(op, cfg)
        assert r.converged and ref.converged
        assert r.J_star == pytest.approx(ref.J_star, rel=1e-6, abs=0.0)
        optimum = eigen_solve_control(op, cfg).J_star
        assert min(r.J_star, ref.J_star) >= optimum - 1e-12


class TestPgdMatchesHelperLoop:
    """The loop on squared coefficients against the eigenbasis loop through the checked helpers.

    The two round differently, and the last bits of an iterate move the
    Armijo decisions (one ulp on every eigenvalue moves the n = 128 runs by
    up to 1.4 % in iterations), so whole runs are held to the tolerances of
    TestPgdAgainstNodalOracle, not to equality; only the first steps are
    compared step for step.  As there, the runs use the benchmark's tol: at
    1e-5 the stopping iterate moves J by up to 5e-6 relative between any two
    roundings, the nodal oracle's included.
    """

    @staticmethod
    def assert_close(op, cfg, optimum=None):
        r, ref = pgd_solve(op, cfg), pgd_eigenbasis_reference(op, cfg)
        assert r.converged and ref.converged
        assert r.J_star == pytest.approx(ref.J_star, rel=1e-6, abs=0.0)
        if optimum is None:
            optimum = eigen_solve_control(op, cfg).J_star
        assert min(r.J_star, ref.J_star) >= optimum - 1e-12
        return r

    @staticmethod
    def assert_same_steps(op, cfg, steps, monkeypatch):
        # Over a few iterations round-off has not yet moved an Armijo decision,
        # so the lookahead sums must take the helpers' trials step for step:
        # the same accepted lengths (grad_norm is the last step over its
        # length) and the same iterate.
        monkeypatch.setattr(control, "PGD_MAX_ITER", steps)
        r, ref = pgd_solve(op, cfg), pgd_eigenbasis_reference(op, cfg)
        assert r.iters == ref.iters == steps
        assert r.grad_norm == pytest.approx(ref.grad_norm, rel=1e-12, abs=0.0)
        assert r.J_star == pytest.approx(ref.J_star, rel=1e-12, abs=0.0)
        assert np.abs(r.f_star - ref.f_star).max() <= 1e-9

    @pytest.mark.parametrize("n", [64, 65, 128])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_first_steps_follow_the_same_path(self, n, s, monkeypatch):
        # n = 65: the odd order's bordered even half.  Measured: f_star
        # within 9.1e-11 after 10 steps.
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6)
        self.assert_same_steps(make_op(n=n, s=s), cfg, 10, monkeypatch)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("s, steps", [(s, k) for s in (0.25, 0.5, 0.75) for k in range(1, 6)]
                             + [(0.25, 33)])
    def test_runs_stopped_with_trial_0_steps_pending(self, n, s, steps, monkeypatch):
        # pgd_solve applies a run of trial-0 steps to its weights only when the run ends, so
        # a run cut after 1 to 5 iterations can stop with up to 4 steps pending, and the
        # 32nd iteration's renormalization meets them.  At 33 steps only s = 0.25 still
        # follows the helpers' path: at s = 0.5 and 0.75 the grad_norms part by 3e-10 and
        # 2.5e-5 relative, without the lookahead too.
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6)
        self.assert_same_steps(make_op(n=n, s=s), cfg, steps, monkeypatch)

    @pytest.mark.parametrize("n, s, steps", [(16, 0.5, 10), (64, 0.25, 33)])
    def test_shorter_trials_with_steps_pending(self, n, s, steps, monkeypatch):
        # Every trial but trial 0 is summed from the weights themselves, which must first
        # catch up with the pending trial-0 steps.  The search goes past trial 0 with steps
        # pending in the first iterations (measured: at iterations 6 and 9 at n = 16; 9, 12,
        # 15, 18, 20, 23, 28, with two pending, 30 and 32 at n = 64).  The search down to the
        # floor comes only at round-off (n = 16, tol = 1e-12, from iteration 553), where no
        # two roundings take the same steps.
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6)
        self.assert_same_steps(make_op(n=n, s=s), cfg, steps, monkeypatch)

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.0, 1.0), (1.5, 1.5), (1.0, 1e200)])
    def test_first_steps_at_the_bounds(self, a, b, monkeypatch):
        # test_bounds' annuli, step for step.  The two iterates part by about
        # a factor of 6.5 a step, from round-off; on the sphere they start
        # further apart (2.4e-13 after 5 steps, 2.8e-9 after 10), so 5 steps.
        cfg = ControlConfig(mu=0.1, a=a, b=b, tol=1e-6)
        self.assert_same_steps(make_op(n=64, s=0.5), cfg, 5, monkeypatch)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_orders(self, s):
        self.assert_close(make_op(n=64, s=s), ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6))

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.0, 1.0), (1.5, 1.5), (1.0, 1e200)])
    def test_bounds(self, a, b):
        # (0.5, 1): the start is clamped from above; (1, 1e200): squares at the
        # scale of b would underflow.
        self.assert_close(make_op(n=64, s=0.5), ControlConfig(mu=0.1, a=a, b=b, tol=1e-6))

    def test_benchmark_run(self):
        r = self.assert_close(make_op(n=128, s=0.25),
                              ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6))
        # A long run, not an accuracy gate: the count moves with the basis's last bits.
        assert r.converged and r.iters > 15_000  # 17 567 with numpy 2.4 and scipy 1.17

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_exactly_zero_trial(self, a, rotate, monkeypatch):
        # On the identity with mu = 1, step * q = 1: the trial c - step q c is exactly 0.
        col = np.zeros(16)
        col[0] = 1.0
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 16))
        if rotate:  # any orthonormal basis diagonalizes the identity; this one makes B^T visible
            basis = linalg.even_basis(col)
            rot, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))
            rotated = dataclasses.replace(basis, vectors=basis.vectors @ rot)
            monkeypatch.setattr(linalg, "even_basis", lambda c: rotated)
        # Every eigenvalue is equal, so eigen_solve_control refuses the top pair; the
        # optimum is still a^2/2 (1/lambda_max + mu), lambda_max = 1 the true-scale value
        # of the unit column's 0.5 (diagonal 0.5, exponent 1).
        cfg = ControlConfig(mu=1.0, a=a, b=2.0, tol=1e-5)
        optimum = 0.5 * a * a * (1.0 / np.ldexp(op.spectrum.lambda_max, op.exponent) + cfg.mu)
        r = self.assert_close(op, cfg, optimum)
        # The zero trial lands on 0, or restarts from the constant direction on the inner sphere.
        assert r.converged and r.iters <= 3
        assert np.allclose(r.f_star, a / math.sqrt(op.grid.h * 16), rtol=1e-13, atol=0.0)

    @staticmethod
    def without_top_mode(monkeypatch):
        """The operator and config of the runs on a mode other than the reference mode."""
        class WithoutTopMode(linalg.EvenBasis):
            def coefficients(self, v):
                c = super().coefficients(v)
                c[-1] = 0.0
                return c

        even_basis = linalg.even_basis
        monkeypatch.setattr(linalg, "even_basis",
                            lambda col: WithoutTopMode(**vars(even_basis(col))))
        return assemble_classical(Grid(-1.0, 1.0, 8)), ControlConfig(mu=1e-3, a=1.0, b=2.0,
                                                                     tol=1e-12)

    def test_elementwise_step_with_steps_pending(self, monkeypatch):
        # From iteration 27 the step is summed elementwise, from the weights themselves,
        # which must first catch up with the pending trial-0 steps: at iteration 29 one is
        # pending (measured).
        op, cfg = self.without_top_mode(monkeypatch)
        self.assert_same_steps(op, cfg, 29, monkeypatch)

    def test_step_on_a_mode_other_than_the_reference_mode(self, monkeypatch):
        # A basis whose coefficients drop the even half's top mode, so that the
        # constant start has no weight there and the iterate settles on the
        # next even mode.  The step's sums are expanded about the top mode and
        # cancel to round-off there long before tol = 1e-12: only the
        # elementwise sum reaches the reference.  The cost is quadratic in the
        # distance to that mode and cannot tell; f_star's other coefficients
        # can (2.7e-11 of its own here, 3.4e-11 for the helper loop, 1.2e-9
        # when the cancelled sum reads a zero step and stops early).
        even_basis = linalg.even_basis
        op, cfg = self.without_top_mode(monkeypatch)
        r = self.assert_close(op, cfg)
        assert r.converged
        basis = even_basis(np.ldexp(op.col, op.exponent))
        assert r.J_star == pytest.approx(0.5 * (1.0 / basis.values[-2] + cfg.mu), rel=1e-9)
        c = basis.coefficients(r.f_star)
        assert np.linalg.norm(np.delete(c, -2)) <= 1e-10 * abs(c[-2])


class TestPgdStructure:
    def test_large_n_builds_no_dense_matrix(self, dense_matrices, monkeypatch):
        monkeypatch.setattr(control, "PGD_MAX_ITER", 200)
        op = make_op(n=1024, s=0.5)
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6))
        assert dense_matrices == []  # the even half's basis comes from its own half matrix
        assert r.iters == 200 and np.all(np.isfinite(r.f_star))
        assert 1.0 - 1e-12 <= norm_h(r.f_star, op.grid) <= 2.0 + 1e-12

    def test_benchmark_order_takes_no_dense_eigendecomposition(self, dense_matrices,
                                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigh called")

        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        op = make_op(n=128, s=0.5)
        r = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-5))
        assert r.converged and dense_matrices == []
        # The iterate never leaves the even half, so f_star is exactly even.
        assert np.array_equal(r.f_star, r.f_star[::-1])

    def test_indefinite_operator_raises(self):
        col = np.zeros(8)
        col[:2] = 1.0, 2.0  # tridiag(2, 1, 2) has negative eigenvalues
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 8))
        with pytest.raises(SolveError, match="not positive definite"):
            pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0))


class TestActiveBound:
    # Distances to a bound are relative to max(1, b), with slack max(tol, 1e-12).
    @pytest.mark.parametrize("nrm, bound", [(1.0, "lower"), (1.0 + 1e-10, "lower"),
                                            (1.5, "none"), (2.0 - 1e-10, "upper"),
                                            (2.0, "upper"), (2.0 + 4e-10, "none")])
    def test_names_the_bound_the_norm_sits_on(self, nrm, bound):
        assert control._active_bound(nrm, 1.0, 2.0, 1e-10) == bound


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

    @pytest.mark.parametrize("n", [64, 1024])
    def test_overflowing_cost_raises_naming_h(self, n):
        # ||f_star||_h = a = 1e200 is finite, but J_star ~ a^2 is not: OverflowError naming h.
        op = make_op(n=n)
        with pytest.raises(OverflowError, match=re.escape(
                f"non-finite J_star at grid spacing h={op.grid.h:.3e}")):
            eigen_solve_control(op, ControlConfig(mu=0.1, a=1e200, b=1e200))

    @pytest.mark.parametrize("n", [256, 1024])
    def test_norm_at_the_top_of_the_range_is_solved_and_the_cost_named(self, n, monkeypatch):
        # ||f_star||_h = 1e308 is finite, so the state is solved, at unit scale: at
        # n = 1024 a Levinson solve at true scale used to overflow and raise SolveError.
        # Only J_star ~ 1e616 leaves the double range.
        op = make_op(n=n)
        solves, solve = [], linalg.toeplitz_solve
        monkeypatch.setattr(linalg, "toeplitz_solve", lambda col, b: solves.append(1) or solve(col, b))
        with pytest.raises(OverflowError, match=re.escape(
                f"non-finite J_star at grid spacing h={op.grid.h:.3e}")):
            eigen_solve_control(op, ControlConfig(mu=0.1, a=1e308, b=1e308))
        assert solves == [1]

    @pytest.mark.parametrize("right", [1e-200, 1e-170])
    def test_tiny_domain_cost_is_the_regularization(self, right):
        # On (0, 1e-200) h^(-1.8) ~ 1e363 is beyond the double range, on (0, 1e-170)
        # the diagonal is: J_star = a^2 (1/lambda_max + mu) / 2 with 1/lambda_max < 1e-300.
        op = assemble_fractional(Grid(0.0, right, 16), 0.9)
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0))
        assert r.converged and r.active_bound == "lower"
        assert r.J_star == pytest.approx(0.05, rel=1e-12)
        assert norm_h(r.f_star, op.grid) == pytest.approx(1.0, rel=1e-14)

    def test_cost_that_overflows_after_the_solve_names_the_spacing(self):
        # ||f_star||_h = 1e150 is finite, but mu/2 ||f_star||^2 ~ 1e600 is not.
        op = make_op(n=64)
        with pytest.raises(OverflowError, match=re.escape(
                f"non-finite J_star at grid spacing h={op.grid.h:.3e}")):
            eigen_solve_control(op, ControlConfig(mu=1e300, a=1e150, b=1e150))

    @pytest.mark.parametrize("n", [16, 256, 4096])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.999])
    def test_residual_does_not_grow_with_mu(self, n, s):
        # mu f is radial, so mu does not enter the projected gradient: it stays at
        # round-off however large mu is.
        op = make_op(n=n, s=s)
        for mu in (0.1, 1e3, 1e6):
            assert eigen_solve_control(op, ControlConfig(mu=mu, a=1.0, b=2.0)).grad_norm <= 1e-15

    @pytest.mark.parametrize("right", [1e-200, 1e-5, 1e150])
    def test_residual_on_extreme_domains(self, right):
        # Relative to the state, which scales with the domain.  Measured: <= 2e-15.
        op = assemble_fractional(Grid(0.0, right, 16), 0.5)
        r = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0))
        assert r.grad_norm <= 1e-13 * norm_h(r.u_star, op.grid)

    @pytest.mark.parametrize("n", [64, 257])
    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_residual_is_the_projected_gradient(self, n, eps):
        # The top vector turned by eps toward an h-orthogonal direction: the closed
        # form against a short projected step, ||f - P(f - t g)||_h / t with g = u + mu f.
        # Measured: 1.2e-5 relative.
        op, cfg = make_op(n=n), ControlConfig(mu=0.1, a=1.0, b=2.0)
        spectrum, g = op.spectrum, op.grid
        v = spectrum.vector
        w = np.random.default_rng(7).standard_normal(n)
        w -= inner_product_h(w, v, g) * v
        w /= norm_h(w, g)
        op.__dict__["spectrum"] = dataclasses.replace(
            spectrum, vector=math.cos(eps) * v + math.sin(eps) * w)
        r = eigen_solve_control(op, cfg)
        f = r.f_star
        t = 1e-4 * control._step(op, cfg.mu)
        trial = project_annulus(f - t * (r.u_star + cfg.mu * f), cfg.a, cfg.b, g)
        assert r.grad_norm == pytest.approx(norm_h(f - trial, g) / t, rel=1e-4)

    def test_top_eigenvalue_without_a_gap_is_refused(self):
        # At s = 1e-12 the operator is the identity to round-off: the top eigenvalue's
        # relative gap reads 0 at n = 256, so its eigenvector is any vector.  a = 0 needs none.
        op = make_op(n=256, s=1e-12)
        assert eigen_solve_control(op, ControlConfig(mu=0.1, a=0.0, b=2.0)).J_star == 0.0
        with pytest.raises(SolveError, match=re.escape(
                "top eigenvalue is not separated at s=1e-12: relative gap 0.000e+00")):
            eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0))

    def test_large_but_finite_cost_still_converges(self):
        r = eigen_solve_control(make_op(n=64), ControlConfig(mu=0.1, a=1e100, b=1e100))
        assert math.isfinite(r.J_star) and math.isfinite(r.grad_norm)
        assert r.converged

    def test_converged_exactly_when_the_relative_residual_is_within_tol(self):
        # A hand-built column, positive definite by diagonal dominance: the boundary is the
        # top pair's relative residual itself, which control prints as residual=.
        col = np.random.default_rng(7).standard_normal(30)
        col[0] = 1.0 + 2.0 * np.abs(col[1:]).sum()
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 30))
        residual = op.spectrum.residual
        assert 0.0 < residual <= 1e-14
        cfg = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=residual)
        assert eigen_solve_control(op, cfg).converged
        below = dataclasses.replace(cfg, tol=math.nextafter(residual, 0.0))
        assert not eigen_solve_control(op, below).converged

    def test_one_eigen_pass_per_operator(self, monkeypatch):
        # A hand-built column, positive definite by diagonal dominance: the Poincare
        # constant, both direct solves and the gradient method's step read one spectrum.
        calls, original = [], linalg.eig_extreme

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "eig_extreme", counted)
        col = np.random.default_rng(7).standard_normal(30)
        col[0] = 1.0 + 2.0 * np.abs(col[1:]).sum()
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 30))
        assert poincare_constant(op) > 0.0
        for a in (0.0, 1.0):
            assert eigen_solve_control(op, ControlConfig(mu=0.1, a=a, b=2.0)).converged
        assert control._step(op, 0.1) > 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_indefinite_operator_raises(self, a):
        # tridiag(2, 1, 2) has the eigenvalue -1, whose unit mode costs J = 1/(2 lambda) + mu/2
        # = -0.45 at a = 1, and -1.8 at the norm b = 2: neither 0 nor a times the top mode.
        col = np.zeros(8)
        col[:2] = 1.0, 2.0
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 8))
        with pytest.raises(SolveError, match="not positive definite"):
            eigen_solve_control(op, ControlConfig(mu=0.1, a=a, b=2.0))


def _ladder_op(n, s):
    g = Grid(-1.0, 1.0, n)
    return assemble_classical(g) if s == 1.0 else assemble_fractional(g, s)


class TestTopEigenvalueClosedForms:
    """The control ladder's closed forms in lambda_max, with no reference but the operator's column."""

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9, 1.0], ids=["0.25", "0.5", "0.9", "classical"])
    @pytest.mark.parametrize("n", [64, 255, 256, 1024])
    def test_cost_above_the_infimum_is_half_the_inverse_top_eigenvalue(self, n, s):
        # f* = a v_top, so J* = (a^2/2)(1/lambda_max + mu).  J* itself is good to a few eps,
        # and subtracting a^2 mu/2 magnifies that by J* / (J* - a^2 mu/2) = 1 + mu lambda_max.
        # Over these 16 cases the error read at most 1.24 eps (1 + mu lambda_max), and
        # 1.6e-12 at most.
        op, cfg = _ladder_op(n, s), ControlConfig(mu=0.1, a=1.0, b=2.0)
        lam = math.ldexp(op.spectrum.lambda_max, op.exponent)
        excess = eigen_solve_control(op, cfg).J_star - 0.5 * cfg.a**2 * cfg.mu
        assert excess == pytest.approx(0.5 * cfg.a**2 / lam,
                                       rel=4.0 * np.finfo(float).eps * (1.0 + cfg.mu * lam), abs=0.0)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9, 1.0], ids=["0.25", "0.5", "0.9", "classical"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_top_eigenvalue_below_the_truncated_symbol_at_pi(self, n, s):
        # sigma_n = col_0 + 2 sum (-1)^k col_k.  At even n the last term, k = n - 1, is odd
        # and adds 2|col_{n-1}|; sigma_n lay 1.3e-6 to 5.8e-4 above lambda_max here, relatively.
        # At odd n it need not bound lambda_max: at n = 255, s = 0.25 it lies 2.7e-5 below.
        op = _ladder_op(n, s)
        signs = np.where(np.arange(n) % 2 == 0, 2.0, -2.0)
        signs[0] = 1.0
        assert op.spectrum.lambda_max <= math.fsum(signs * op.col)
