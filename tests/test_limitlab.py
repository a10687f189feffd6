import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import fraclap.linalg
from fraclap.cli import parse_config
from fraclap.control import ControlConfig, eigen_solve_control
from fraclap.discretize import (
    Grid,
    assemble_classical,
    assemble_fractional,
    norm_h,
    quadratic_form,
)
from fraclap.forward import solve_poisson
from fraclap.linalg import SolveError
from fraclap.limitlab import (
    default_s_ladder,
    liminf_check,
    recovery_sequence_check,
    run_sweep,
)

CONTROL = ControlConfig(mu=0.1, a=1.0, b=2.0, tol=1e-9)


def test_default_ladder_is_geometric():
    ladder = default_s_ladder(4)
    assert ladder == [0.5, 0.75, 0.875, 0.9375]


class TestRunSweep:
    def test_distances_and_costs_decrease_along_ladder(self):
        report = run_sweep(Grid(-1.0, 1.0, 256), [0.5, 0.7, 0.9, 0.99], CONTROL)
        assert [r.s for r in report.rows] == [0.5, 0.7, 0.9, 0.99]
        gaps = [abs(r.J_star - report.J_star_classical) for r in report.rows]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        dist = [r.dist_f for r in report.rows]
        assert all(d1 > d2 for d1, d2 in zip(dist, dist[1:]))

    def test_singleton_ladder(self):
        report = run_sweep(Grid(-1.0, 1.0, 256), [0.99], CONTROL)
        assert len(report.rows) == 1
        assert report.rows[0].align >= 0.999

    def test_failed_reference_aborts(self, monkeypatch):
        import fraclap.limitlab as module

        def bad_reference(op, cfg):
            result = eigen_solve_control(op, cfg)
            return type(result)(**{**result.__dict__, "converged": False})

        monkeypatch.setattr(module, "eigen_solve_control", bad_reference)
        with pytest.raises(SolveError):
            run_sweep(Grid(-1.0, 1.0, 32), [0.5], CONTROL)

    def test_first_failed_order_stops_the_sweep(self, orders_failing_from_075):
        with pytest.raises(SolveError, match=re.escape("did not converge at s=0.75")):
            run_sweep(Grid(-1.0, 1.0, 32), default_s_ladder(4), CONTROL)
        assert orders_failing_from_075 == [0.5, 0.75]  # no solve after the failure

    def test_no_dense_matrix_and_one_spectral_pass_per_operator(self, monkeypatch,
                                                                dense_matrices):
        eigs = []
        original = fraclap.linalg.eig_extreme

        def counted(col, *args, **kwargs):
            eigs.append(col)  # holding col keeps each id unique
            return original(col, *args, **kwargs)

        monkeypatch.setattr(fraclap.linalg, "eig_extreme", counted)
        run_sweep(Grid(-1.0, 1.0, 32), default_s_ladder(10), CONTROL)
        per_operator = Counter(map(id, eigs))
        assert dense_matrices == []
        assert len(per_operator) == len(eigs) == 11

    def test_overflowing_distance_names_the_spacing(self):
        # Every order converges on (0, 1e150), but the classical state's
        # h-norm passes the double range, and so does each dist_u.
        g = Grid(0.0, 1e150, 16)
        with pytest.raises(OverflowError, match=re.escape(f"non-finite dist_u at s=0.5, grid "
                                                          f"spacing h={g.h:.3e}")):
            run_sweep(g, [0.5, 0.9], CONTROL)

    def test_rejects_unsorted_ladder(self):
        with pytest.raises(ValueError):
            run_sweep(Grid(-1.0, 1.0, 16), [0.9, 0.5], CONTROL)

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="^s_list must not be empty$"):
            run_sweep(Grid(-1.0, 1.0, 16), [], CONTROL)


class TestClassicalLimitRate:
    """The default sweep approaches s = 1 at first order in 1 - s (Bourgain, Brezis & Mironescu).

    Along s_k = 1 - 2^-k each gap to the classical solution halves, so successive ratios
    tend to 2, and 2 J_{s_k} - J_{s_(k-1)} cancels the first-order term.  The band and the
    bounds were set from a measurement at n = 256 and are not to be widened.
    """

    @pytest.fixture(scope="class")
    def default_sweep(self):
        cfg = parse_config("")
        return run_sweep(cfg.grid(), cfg.sweep_s_list(), cfg.control())

    @pytest.mark.parametrize("gap", ["J_star", "dist_u", "dist_f"])
    def test_last_four_ratios_lie_near_two(self, default_sweep, gap):
        # Measured: 2.090, 2.044, 2.022, 2.011 for J_star and dist_u; 2.0092 to 2.0011 for dist_f.
        J1 = default_sweep.J_star_classical
        gaps = [abs(r.J_star - J1) if gap == "J_star" else getattr(r, gap)
                for r in default_sweep.rows]
        ratios = [a / b for a, b in zip(gaps[-5:], gaps[-4:])]
        assert all(1.99 <= q <= 2.10 for q in ratios), ratios

    def test_richardson_estimate_recovers_the_classical_optimum(self, default_sweep):
        # Measured: 8.75e-10 from J_1, against 8.10e-8 for J_{s_10} itself.
        J1 = default_sweep.J_star_classical
        last, before = default_sweep.rows[-1].J_star, default_sweep.rows[-2].J_star
        richardson = abs(2.0 * last - before - J1)
        assert richardson <= 2e-9
        assert 50.0 * richardson <= abs(last - J1)


class TestStateLimit:
    """The state of a fixed load approaches the classical state as s -> 1-."""

    def test_unit_load_approaches_classical(self):
        n = 512
        grid = Grid(-1.0, 1.0, n)
        ref = solve_poisson(assemble_classical(grid), np.ones(n))
        sols = [solve_poisson(assemble_fractional(grid, s), np.ones(n))
                for s in (0.9, 0.99, 0.999)]
        dist = [norm_h(sol.u - ref.u, grid) for sol in sols]
        gaps = [abs(sol.seminorm_sq - ref.seminorm_sq) for sol in sols]
        assert all(d1 > d2 for d1, d2 in zip(dist, dist[1:]))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert dist[-1] <= 0.01 * ref.l2_norm_u
        assert gaps[-1] <= 0.03 * ref.seminorm_sq


class TestEnergyLimit:
    """The fractional energy <A_s v, v>_h approaches the classical <A_1 v, v>_h as s -> 1-."""

    @staticmethod
    def energies(grid, v):
        return (quadratic_form(assemble_classical(grid), v),
                [quadratic_form(assemble_fractional(grid, s), v) for s in (0.9, 0.99, 0.999)])

    def test_parabola_energy(self):
        grid = Grid(-1.0, 1.0, 1024)
        classical, energies = self.energies(grid, 1.0 - grid.nodes() ** 2)
        target = 8.0 / 3.0
        assert classical == pytest.approx(target, rel=0.01)
        gaps = [abs(e - target) for e in energies]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.03 * target

    def test_zero_function(self):
        grid = Grid(-1.0, 1.0, 64)
        for s in (0.5, 0.9):
            assert quadratic_form(assemble_fractional(grid, s), np.zeros(64)) == 0.0

    def test_lipschitz_kink(self):
        # The tent 1 - |x| has derivative of modulus 1 a.e., so the
        # classical energy is 2; a kink is fine for the limit.
        grid = Grid(-1.0, 1.0, 1024)
        classical, energies = self.energies(grid, 1.0 - np.abs(grid.nodes()))
        gaps = [abs(e - classical) for e in energies]
        assert classical == pytest.approx(2.0, rel=0.01)
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.03 * classical


class TestRecovery:
    def test_constant_midband_control(self):
        n = 256
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= 1.5 / norm_h(f, grid)
        report = recovery_sequence_check(grid, f, default_s_ladder(10), CONTROL)
        assert report.ok
        by_s = {r.s: r for r in report.rows}
        for s, row in by_s.items():
            if s >= 0.99:
                assert abs(row.margin) <= 0.02 * row.F_limit

    def test_inadmissible_control_is_infinite(self):
        n = 64
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= 3.0 / norm_h(f, grid)  # above the upper bound
        report = recovery_sequence_check(grid, f, [0.5, 0.9], CONTROL)
        assert all(math.isinf(r.F_s) for r in report.rows)
        assert all(math.isinf(r.F_limit) for r in report.rows)

    def test_classical_optimum_gaps_decrease(self):
        n = 128
        grid = Grid(-1.0, 1.0, n)
        ref = eigen_solve_control(assemble_classical(grid), CONTROL)
        report = recovery_sequence_check(grid, ref.f_star, [0.9, 0.99, 0.999], CONTROL)
        margins = [abs(r.margin) for r in report.rows]
        assert all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))


class TestLiminf:
    def test_zero_amplitude_reduces_to_recovery(self):
        n = 64
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= 1.5 / norm_h(f, grid)
        ladder = default_s_ladder(6)
        rec = recovery_sequence_check(grid, f, ladder, CONTROL)
        lim = liminf_check(grid, f, 0.0, ladder, CONTROL)
        for r1, r2 in zip(rec.rows, lim.rows):
            assert r2.margin == pytest.approx(r1.margin, rel=1e-12, abs=1e-14)
        # With the control fixed the margins are nonnegative up to a small
        # transient at the coarse end of the ladder.
        assert all(r.margin >= -0.02 * r.F_limit for r in lim.rows)
        assert all(r.margin >= 0.0 for r in lim.rows[-2:])

    def test_oscillatory_family_tail_margins(self):
        n = 256
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= 1.5 / norm_h(f, grid)
        c = 0.1 * norm_h(f, grid)
        report = liminf_check(grid, f, c, default_s_ladder(12), CONTROL)
        assert report.ok
        tail = report.rows[-4:]
        assert all(r.margin >= -1e-3 for r in tail)

    def test_oscillation_leaving_annulus_is_rejected(self):
        n = 64
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= 1.9 / norm_h(f, grid)  # close to the upper bound
        with pytest.raises(ValueError):
            liminf_check(grid, f, 1.0, default_s_ladder(6), CONTROL)

    def test_control_within_the_annulus_slack_matches_recovery(self):
        # ||f|| = b + 1.5e-12 lies inside the slack 1e-12 * max(1, b) that
        # both clauses use, so the liminf rows at c = 0 are the recovery rows.
        n = 64
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= (CONTROL.b + 1.5e-12) / norm_h(f, grid)
        assert norm_h(f, grid) > CONTROL.b + 1e-12
        ladder = default_s_ladder(6)
        rec = recovery_sequence_check(grid, f, ladder, CONTROL)
        lim = liminf_check(grid, f, 0.0, ladder, CONTROL)
        assert all(math.isfinite(r.F_s) for r in rec.rows)
        assert [replace(r, clause="recovery") for r in lim.rows] == rec.rows

    def test_rejection_names_the_step_and_the_exact_norm(self):
        n = 64
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n)
        f *= 1.9 / norm_h(f, grid)
        f_1 = f + 1.0 * np.sin(np.pi * grid.nodes())
        expected = f"at k=1: ||f_k||={norm_h(f_1, grid)!r},"
        with pytest.raises(ValueError, match=re.escape(expected)):
            liminf_check(grid, f, 1.0, default_s_ladder(6), CONTROL)

    def test_base_control_must_be_admissible(self):
        n = 64
        grid = Grid(-1.0, 1.0, n)
        f = np.ones(n) * 1e-3  # far below the lower bound
        with pytest.raises(ValueError):
            liminf_check(grid, f, 0.0, [0.5, 0.9], CONTROL)
