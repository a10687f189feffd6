import math

import numpy as np
import pytest

from fraclap.discretize import Grid, assemble_classical, assemble_fractional
from fraclap.linalg import FactorizationError, cholesky_factor, eig_extreme
from oracles import CgResult, cg_solve, eig_full_jacobi


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B.T @ B + np.eye(n)


class TestCholesky:
    def test_recovers_constructed_solution(self):
        A = random_spd(8, 1)
        u = np.random.default_rng(2).standard_normal(8)
        b = A @ u
        x = cholesky_factor(A).solve(b)
        assert np.linalg.norm(x - u) <= 1e-10 * np.linalg.norm(u)

    def test_zero_rhs(self):
        A = random_spd(8, 3)
        assert np.all(cholesky_factor(A).solve(np.zeros(8)) == 0.0)

    def test_scalar_reduction(self):
        assert cholesky_factor(np.array([[4.0]])).solve(np.array([2.0])) == pytest.approx([0.5])

    def test_residual_contract_on_operator(self):
        g = Grid(-1.0, 1.0, 512)
        op = assemble_fractional(g, 0.5)
        b = np.ones(512)
        u = cholesky_factor(op).solve(b)
        assert np.linalg.norm(op.matrix @ u - b) <= 1e-10 * np.linalg.norm(b)

    def test_non_pd_names_pivot(self):
        A = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(FactorizationError) as err:
            cholesky_factor(A).solve(np.ones(4))
        assert err.value.pivot == 3
        assert "pivot 3" in str(err.value)


class TestCg:
    def test_agrees_with_cholesky_on_random_systems(self):
        for seed in range(50):
            A = random_spd(12, seed)
            b = np.random.default_rng(1000 + seed).standard_normal(12)
            direct = cholesky_factor(A).solve(b)
            result = cg_solve(A, b, tol=1e-10)
            assert result.converged
            gap = np.linalg.norm(result.x - direct) / np.linalg.norm(direct)
            assert gap <= 1e-8

    def test_zero_rhs(self):
        result = cg_solve(random_spd(6, 0), np.zeros(6), tol=1e-10)
        assert result.converged and np.all(result.x == 0.0)

    def test_reports_nonconvergence(self):
        A = random_spd(30, 5)
        b = np.ones(30)
        result = cg_solve(A, b, tol=1e-14, max_iter=2)
        assert isinstance(result, CgResult)
        assert not result.converged
        assert result.iterations == 2
        assert np.all(np.isfinite(result.x))
        assert result.residual > 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            cg_solve(random_spd(4, 0), np.ones(4), tol=0.0)


class TestEigExtreme:
    def test_diagonal_matrix(self):
        A = np.diag([1.0, 2.0, 3.0])
        top = eig_extreme(A, "largest")
        assert top.value == pytest.approx(3.0, rel=1e-10)
        assert abs(top.vector[2]) == pytest.approx(1.0, rel=1e-8)
        bottom = eig_extreme(A, "smallest")
        assert bottom.value == pytest.approx(1.0, rel=1e-10)
        assert abs(bottom.vector[0]) == pytest.approx(1.0, rel=1e-8)

    def test_smallest_matches_dirichlet_eigenvalue(self):
        n = 255
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g)
        pair = eig_extreme(op, "smallest", h=g.h)
        assert pair.meets(1e-10)
        # First Dirichlet eigenvalue of the second derivative on a length-2
        # interval is (pi/2)^2; the discrete value sits within 0.5% at this n.
        assert pair.value == pytest.approx(math.pi**2 / 4.0, rel=0.005)

    def test_largest_matches_tridiagonal_formula(self):
        n = 255
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g)
        pair = eig_extreme(op, "largest", h=g.h)
        assert pair.meets(1e-9)
        expected = 4.0 / g.h**2 * math.sin(n * math.pi / (2 * (n + 1))) ** 2
        assert pair.value == pytest.approx(expected, rel=0.005)

    def test_eigenvector_h_normalized_with_small_residual(self):
        g = Grid(-1.0, 1.0, 64)
        op = assemble_fractional(g, 0.5)
        pair = eig_extreme(op, "largest", h=g.h)
        assert g.h * float(pair.vector @ pair.vector) == pytest.approx(1.0, rel=1e-12)
        res = np.linalg.norm(op.matrix @ pair.vector - pair.value * pair.vector)
        assert res <= 1e-9 * abs(pair.value) * np.linalg.norm(pair.vector)

    def test_rejects_unknown_which(self):
        with pytest.raises(ValueError):
            eig_extreme(np.eye(3), "middle")

    def test_large_operator_matches_full_spectrum(self):
        g = Grid(-1.0, 1.0, 1024)
        op = assemble_fractional(g, 0.5)
        lam = np.linalg.eigvalsh(op.matrix)
        top = eig_extreme(op, "largest", h=g.h)
        bottom = eig_extreme(op, "smallest", h=g.h)
        for pair, value, gap in ((top, lam[-1], (lam[-1] - lam[-2]) / lam[-1]),
                                 (bottom, lam[0], (lam[1] - lam[0]) / lam[0])):
            assert pair.meets(1e-9)
            assert pair.value == pytest.approx(value, rel=1e-10)
            assert pair.gap == pytest.approx(gap, rel=1e-6)
            res = np.linalg.norm(op.matrix @ pair.vector - pair.value * pair.vector)
            assert res <= 1e-9 * pair.value * np.linalg.norm(pair.vector)

    def test_converged_means_residual_within_tol(self):
        A = random_spd(30, 7)
        pair = eig_extreme(A, "largest")
        assert pair.meets(1e-9) and 0.0 < pair.residual <= 1e-9 * pair.value
        assert not pair.meets(0.5 * pair.residual / pair.value)
        assert not pair.meets(float("nan"))


class TestJacobi:
    def test_two_by_two_exact(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        pairs = eig_full_jacobi(A)
        assert pairs[0].value == pytest.approx(1.0, rel=1e-12)
        assert pairs[1].value == pytest.approx(3.0, rel=1e-12)
        assert np.allclose(np.abs(pairs[0].vector), 1.0 / math.sqrt(2.0), atol=1e-12)
        assert np.allclose(np.abs(pairs[1].vector), 1.0 / math.sqrt(2.0), atol=1e-12)

    def test_reconstruction_and_trace(self):
        A = random_spd(40, 11)
        pairs = eig_full_jacobi(A)
        V = np.column_stack([p.vector for p in pairs])
        lam = np.array([p.value for p in pairs])
        assert np.linalg.norm(A - V @ np.diag(lam) @ V.T) <= 1e-10 * np.linalg.norm(A)
        assert lam.sum() == pytest.approx(np.trace(A), rel=1e-10)

    def test_eigenvector_orthogonality(self):
        A = random_spd(25, 13)
        pairs = eig_full_jacobi(A)
        V = np.column_stack([p.vector for p in pairs])
        assert np.abs(V.T @ V - np.eye(25)).max() <= 1e-10

    def test_agrees_with_eig_extreme(self):
        g = Grid(-1.0, 1.0, 48)
        op = assemble_fractional(g, 0.6)
        pairs = eig_full_jacobi(op, h=g.h)
        top = eig_extreme(op, "largest", h=g.h)
        bottom = eig_extreme(op, "smallest", h=g.h)
        assert top.value == pytest.approx(pairs[-1].value, rel=1e-8)
        assert bottom.value == pytest.approx(pairs[0].value, rel=1e-8)

    def test_agrees_with_lapack(self):
        A = random_spd(30, 17)
        lam = np.array([p.value for p in eig_full_jacobi(A)])
        assert np.allclose(lam, np.linalg.eigvalsh(A), rtol=1e-10, atol=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            eig_full_jacobi(np.eye(257))


def test_factor_reuse_matches_single_shot():
    A = random_spd(20, 23)
    factor = cholesky_factor(A)
    rng = np.random.default_rng(29)
    for _ in range(5):
        b = rng.standard_normal(20)
        assert np.allclose(factor.solve(b), cholesky_factor(A).solve(b), rtol=1e-12, atol=1e-14)
