import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh, toeplitz

from fraclap.discretize import (
    FieldError,
    Grid,
    Operator,
    assemble_classical,
    assemble_fractional,
    inner_product_h,
    norm_h,
    quadratic_form,
    stencil_weights,
)
from fraclap.linalg import SolveError, eig_extreme, toeplitz_product
from oracles import direct_toeplitz_product, true_scale_column


def _true_col(op):
    """The operator's true-scale first column: its unit column times 2^exponent."""
    return np.ldexp(op.col, op.exponent)


def _true_weights(sw):
    """The true-scale weights and tail of a StencilWeights."""
    return np.ldexp(sw.w, sw.exponent), math.ldexp(sw.tail, sw.exponent)


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(-1.0, 1.0, 3)
        assert g.h == pytest.approx(0.5)
        assert np.allclose(g.nodes(), [-0.5, 0.0, 0.5])

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            Grid(1.0, -1.0, 10)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 2)

    @pytest.mark.parametrize("left, right", [(-1.0, math.inf), (-math.inf, 1.0),
                                             (-1.0, math.nan), (math.nan, 1.0)])
    def test_rejects_nonfinite_endpoints(self, left, right):
        with pytest.raises(ValueError, match="finite"):
            Grid(left, right, 16)

    def test_rejects_an_overflowing_length(self):
        with pytest.raises(ValueError, match=r"length overflows, got \[-1e\+308, 1e\+308\]"):
            Grid(-1e308, 1e308, 16)

    @pytest.mark.parametrize("left, right, n, fields", [
        (math.nan, math.inf, 16, ("x_left",)), (-1.0, math.nan, 16, ("x_right",)),
        (1.0, -1.0, 16, ("x_right", "x_left")), (-1e308, 1e308, 16, ("x_right", "x_left")),
        (-1.0, 1.0, 2, ("n",)), (0.0, 1e-320, 16, ("x_right", "x_left")),
    ])
    def test_rejection_names_the_fields_to_blame(self, left, right, n, fields):
        with pytest.raises(FieldError) as err:
            Grid(left, right, n)
        assert err.value.fields == fields

    def test_rejects_a_spacing_below_the_normal_range(self):
        # h = 5.9e-322 keeps a few bits, and so does every h-pairing, h times a sum.
        with pytest.raises(ValueError, match=r"^grid spacing h=5\.879e-322 is below the "
                                             r"normal double range"):
            Grid(0.0, 1e-320, 16)

    def test_accepts_the_smallest_normal_spacing(self):
        g = Grid(0.0, 17.0 * sys.float_info.min, 16)
        assert g.h == sys.float_info.min


class TestStencilWeights:
    def test_far_weight_closed_form(self):
        # Exact power-law integral over (1.5 h, 2.5 h) with the half-order
        # constant equal to 1/pi: w_2 = (1/pi) * 10 * (1/1.5 - 1/2.5).
        w, _ = _true_weights(stencil_weights(0.5, 0.1, 10))
        assert w[1] == pytest.approx(0.8488263631567752, rel=1e-12)

    def test_far_weights_match_quadrature(self):
        # Independent route: numerically integrate r^(-1-2s) over each cell.
        s, h = 0.35, 0.2
        sw = stencil_weights(s, h, 12)
        c_over = sw.w[4] / quad(lambda r: r ** (-1.0 - 2.0 * s), 4.5 * h, 5.5 * h)[0]
        for k in (2, 5, 9):
            cell, _ = quad(lambda r: r ** (-1.0 - 2.0 * s), (k - 0.5) * h, (k + 0.5) * h)
            assert sw.w[k - 1] == pytest.approx(c_over * cell, rel=1e-9)

    def test_tail_closed_form(self):
        # Telescoping the far weights beyond K = 10 at s = 1/2, h = 0.1
        # leaves (1/pi) * 10 / 10.5.
        _, tail = _true_weights(stencil_weights(0.5, 0.1, 10))
        assert tail == pytest.approx(0.30315227255599106, rel=1e-12)

    def test_tail_equals_residual_weight_sum(self):
        s, h = 0.7, 0.05
        short = stencil_weights(s, h, 20)
        long = stencil_weights(s, h, 2000)
        residual = long.w[20:].sum() + long.tail
        assert short.tail == pytest.approx(residual, rel=1e-12)

    def test_classical_limit_of_weights(self):
        w, _ = _true_weights(stencil_weights(0.999, 0.25, 50))
        assert w[0] * 0.25**2 == pytest.approx(1.0, abs=0.02)
        assert w[1] * 0.25**2 <= 0.01

    def test_first_order_term_of_the_classical_limit(self):
        # dW/ds at s = 1-, in closed form since C(1, s) = 2(1 - s) + O((1 - s)^2), against
        # (W(1) - W(s)) / (1 - s), W(1) the three-point stencil: w_1 = 1/h^2, the rest 0.
        # Measured: 5.4e-7 relative for w_1, 0.9-1.0e-6 for w_2..w_4, 5.4e-8 for the tail.
        n, s = 256, 1.0 - 1e-7
        h = 2.0 / (n + 1)
        w, tail = _true_weights(stencil_weights(s, h, n))
        classical = np.zeros(n)
        classical[0] = 1.0 / h**2
        k = np.arange(2, n + 1)
        slope = np.concatenate(([3.0 - 2.0 * np.euler_gamma - 2.0 * math.log(h) - 5.0 / 9.0],
                                -((k - 0.5) ** -2.0 - (k + 0.5) ** -2.0))) / h**2
        np.testing.assert_allclose((classical - w) / (1.0 - s), slope, rtol=2e-6)
        assert -tail / (1.0 - s) == pytest.approx(-(n + 0.5) ** -2.0 / h**2, rel=2e-6)

    @pytest.mark.parametrize("bad", [(-0.1, 0.1, 5), (1.0, 0.1, 5), (0.5, 0.0, 5), (0.5, 0.1, 1),
                                     (0.5, math.inf, 5)])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            stencil_weights(*bad)

    def test_overflowing_scale_is_carried_by_the_exponent(self):
        # (1e-200)^(-1.8) = 1e360 is beyond the double range; the weights are those at
        # h = 1 times it, held as a unit mantissa and a power of two.
        self.assert_scaled_by_the_power_of_h(1e-200)

    @pytest.mark.parametrize("h", [1e180, 1e300])
    def test_underflowing_scale_is_carried_by_the_exponent(self, h):
        # (1e180)^(-1.8) = 1e-324 is below the smallest normal double.
        self.assert_scaled_by_the_power_of_h(h)

    @staticmethod
    def assert_scaled_by_the_power_of_h(h, s=0.9):
        sw, ref = stencil_weights(s, h, 4), stencil_weights(s, 1.0, 4)
        log2_w, log2_ref = (np.log2(np.append(x.w, x.tail)) + x.exponent for x in (sw, ref))
        np.testing.assert_allclose(log2_w, log2_ref - 2.0 * s * math.log2(h), rtol=0.0, atol=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=1e-3, max_value=10.0),
           st.integers(min_value=2, max_value=64))
    @settings(max_examples=200)
    def test_positive_and_decaying(self, s, h, K):
        sw = stencil_weights(s, h, K)
        assert np.all(sw.w > 0.0)
        assert sw.tail > 0.0
        assert np.all(np.diff(sw.w[1:]) < 0.0)


class TestFractionalOperator:
    def test_exactly_symmetric(self):
        op = assemble_fractional(Grid(-1.0, 1.0, 4), 0.5)
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_row_sums_strictly_positive(self):
        op = assemble_fractional(Grid(-1.0, 1.0, 40), 0.3)
        assert np.all(op.matrix.sum(axis=1) > 0.0)

    def test_m_matrix_sign_pattern(self):
        op = assemble_fractional(Grid(-2.0, 3.0, 30), 0.6)
        off = op.matrix[~np.eye(30, dtype=bool)]
        assert np.all(off <= 0.0)
        assert np.all(np.diag(op.matrix) > 0.0)
        # Strict diagonal dominance: diagonal keeps the tail mass.
        assert np.all(2.0 * np.diag(op.matrix) - np.abs(op.matrix).sum(axis=1) > 0.0)

    def test_matches_classical_at_high_order(self):
        g = Grid(-1.0, 1.0, 256)
        frac = assemble_fractional(g, 0.9999)
        classical = assemble_classical(g)
        gap = np.abs(frac.matrix - classical.matrix).max() * g.h**2
        assert gap <= 0.02

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9, 0.999])
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_positive_definite(self, s, n):
        op = assemble_fractional(Grid(-1.0, 1.0, n), s)
        np.linalg.cholesky(op.matrix)  # raises LinAlgError if not PD

    def test_matrix_is_read_only(self):
        op = assemble_fractional(Grid(-1.0, 1.0, 8), 0.5)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.0

    def test_column_is_read_only(self):
        for op in (assemble_fractional(Grid(-1.0, 1.0, 8), 0.5),
                   assemble_classical(Grid(-1.0, 1.0, 8))):
            with pytest.raises(ValueError):
                op.col[0] = 0.0

    @pytest.mark.parametrize("scale, exponent", [(3.0, 2), (1e300, 997), (1e-300, -996),
                                                 (0.75, 0)])
    def test_hand_built_column_is_taken_to_unit_scale(self, scale, exponent):
        col = scale * np.array([1.0, -0.25, 0.0, 0.0])
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 4), exponent=5)
        assert 0.5 <= op.col[0] < 1.0 and op.exponent == 5 + exponent
        assert np.array_equal(np.ldexp(op.col, exponent), col)
        with pytest.raises(ValueError):
            op.col[0] = 0.0

    def test_matrix_is_built_on_first_use_from_the_column(self):
        op = assemble_fractional(Grid(-1.0, 1.0, 64), 0.5)
        assert "matrix" not in op.__dict__
        assert op.matrix is op.matrix
        assert np.array_equal(op.matrix[:, 0], _true_col(op))

    def test_overflowing_diagonal_is_carried_by_the_exponent(self):
        # Every true weight is finite (w_1 = 1.42e308), but twice their sum is not: the
        # unit column holds it, and only the true-scale dense matrix overflows.
        g = Grid(0.0, 1e-153, 16)
        sw = stencil_weights(0.999, g.h, 16)
        assert np.all(np.isfinite(_true_weights(sw)[0]))
        op = assemble_fractional(g, 0.999)
        assert 0.5 <= op.col[0] < 1.0
        assert math.ldexp(op.col[0], op.exponent - sw.exponent) == 2.0 * (sw.w.sum() + sw.tail)
        assert np.array_equal(np.ldexp(op.col[1:], op.exponent - sw.exponent), -sw.w[:15])
        with pytest.raises(OverflowError, match=re.escape(f"non-finite column at grid "
                                                          f"spacing h={g.h:.3e}")):
            op.matrix

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=3, max_value=24))
    @settings(max_examples=100, deadline=None)
    def test_structure_properties(self, s, n):
        op = assemble_fractional(Grid(0.0, 1.0, n), s)
        m = op.matrix
        assert np.array_equal(m, m.T)
        assert np.all(m[~np.eye(n, dtype=bool)] <= 0.0)
        assert np.all(m.sum(axis=1) > 0.0)
        np.linalg.cholesky(m)


class TestClassicalOperator:
    def test_three_point_entries(self):
        op = assemble_classical(Grid(-1.0, 1.0, 3))  # h = 0.5
        assert op.matrix[1, 1] == pytest.approx(8.0)
        assert op.matrix[0, 1] == pytest.approx(-4.0)
        assert op.matrix[0, 2] == 0.0

    @pytest.mark.parametrize("right", [1e-200, 1.7e-154])  # h^2 underflows to 0; 2/h^2 overflows
    def test_overflowing_entries_are_carried_by_the_exponent(self, right):
        self.assert_three_point(Grid(0.0, right, 16))

    @pytest.mark.parametrize("right", [1e160, 1.5e155])  # h^2 overflows; 1/h^2 is subnormal
    def test_underflowing_entries_are_carried_by_the_exponent(self, right):
        self.assert_three_point(Grid(0.0, right, 16))

    @staticmethod
    def assert_three_point(g):
        op = assemble_classical(g)
        assert 0.5 <= op.col[0] < 1.0 and op.col[1] == -0.5 * op.col[0] and not op.col[2:].any()
        assert math.log2(op.col[0]) + op.exponent == pytest.approx(1.0 - 2.0 * math.log2(g.h),
                                                                   abs=1e-12)

    def test_largest_eigenvalue_formula(self):
        n = 64
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g)
        lam = np.linalg.eigvalsh(op.matrix)[-1]
        expected = 4.0 / g.h**2 * math.sin(n * math.pi / (2 * (n + 1))) ** 2
        assert lam == pytest.approx(expected, rel=1e-10)

    def test_exact_on_quadratics(self):
        g = Grid(-1.0, 1.0, 101)
        op = assemble_classical(g)
        u = 1.0 - g.nodes() ** 2
        # Second differences of a quadratic are exact; the boundary rows see the
        # true (zero) boundary values, so the residual is pure round-off.
        assert np.allclose(op.matrix @ u, 2.0, atol=1e-10)


def _hand_built_toeplitz(col):
    """Symmetric Toeplitz matrix entry by entry: a[i, j] = col[|i - j|]."""
    n = len(col)
    a = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = col[abs(i - j)]
    return a


class TestToeplitzAssembly:
    @pytest.mark.parametrize("n", [3, 17, 64])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_fractional_is_bitwise_the_toeplitz_of_its_weights(self, s, n):
        grid = Grid(-1.0, 1.0, n)
        sw = stencil_weights(s, grid.h, n)
        w, tail = _true_weights(sw)
        col = [2.0 * (w.sum() + tail)] + [-x for x in w[: n - 1]]
        matrix = assemble_fractional(grid, s).matrix
        assert matrix.tobytes() == _hand_built_toeplitz(col).tobytes()

    @pytest.mark.parametrize("n", [3, 17, 64])
    @pytest.mark.parametrize("left, right", [(-1.0, 1.0), (0.0, 3.7)])
    def test_classical_is_bitwise_the_three_point_toeplitz(self, left, right, n):
        grid = Grid(left, right, n)
        col = [2.0 / grid.h**2, -1.0 / grid.h**2] + [0.0] * (n - 2)
        matrix = assemble_classical(grid).matrix
        assert matrix.tobytes() == _hand_built_toeplitz(col).tobytes()

    @pytest.mark.parametrize("h", [1e-150, 7.8e-3, 1e150])
    @pytest.mark.parametrize("s", [1e-6, 0.1, 0.5, 0.999, None])
    @pytest.mark.parametrize("n", [3, 16, 256, 4099])
    def test_unit_column_times_its_power_of_two_keeps_the_true_scale_bits(self, n, s, h):
        # The unit column and its exponent hold the true-scale column exactly, bit for bit.
        grid = Grid(0.0, h * (n + 1), n)
        op = assemble_classical(grid) if s is None else assemble_fractional(grid, s)
        reference = true_scale_column(grid, s)
        assert np.all(np.isfinite(reference)) and 0.5 <= op.col[0] < 1.0
        assert _true_col(op).tobytes() == reference.tobytes()

    def test_fractional_assembly_allocates_only_the_matrix(self):
        # An n-by-n index array on top of the matrix would double the peak.
        grid = Grid(-1.0, 1.0, 1024)
        assemble_fractional(grid, 0.5)
        tracemalloc.start()
        try:
            op = assemble_fractional(grid, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * op.matrix.nbytes

    def test_fractional_assembly_is_linear_in_memory(self):
        # The operator holds its first column; the n-by-n matrix waits for a dense path.
        n = 1024
        grid = Grid(-1.0, 1.0, n)
        assemble_fractional(grid, 0.5)
        tracemalloc.start()
        try:
            op = assemble_fractional(grid, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * n
        assert "matrix" not in op.__dict__


class TestInnerProduct:
    def test_constant_on_symmetric_interval(self):
        n = 199
        g = Grid(-1.0, 1.0, n)
        one = np.ones(n)
        assert inner_product_h(one, one, g) == pytest.approx(2.0 * n / (n + 1), rel=1e-14)

    def test_orthogonal_by_alternating_signs(self):
        g = Grid(-1.0, 1.0, 4)
        v = np.array([1.0, 1.0, 1.0, 1.0])
        w = np.array([1.0, -1.0, 1.0, -1.0])
        assert inner_product_h(v, w, g) == 0.0

    def test_riemann_sum_of_sine_squared(self):
        # First Dirichlet mode: vanishes at the boundary, so the rectangle
        # rule integrates its square to 1 (the exact value) within 1e-4.
        n = 999
        g = Grid(-1.0, 1.0, n)
        v = np.sin(np.pi * (g.nodes() + 1.0) / 2.0)
        assert inner_product_h(v, v, g) == pytest.approx(1.0, abs=1e-4)

    def test_shape_mismatch(self):
        g = Grid(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            inner_product_h(np.ones(4), np.ones(5), g)

    @given(st.integers(min_value=3, max_value=32), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_bilinear_and_symmetric(self, n, seed):
        rng = np.random.default_rng(seed)
        g = Grid(0.0, 1.0, n)
        v, w = rng.standard_normal(n), rng.standard_normal(n)
        assert inner_product_h(v, w, g) == pytest.approx(inner_product_h(w, v, g), rel=1e-12, abs=1e-14)
        assert inner_product_h(2.0 * v, w, g) == pytest.approx(2.0 * inner_product_h(v, w, g), rel=1e-12, abs=1e-14)


class TestQuadraticForm:
    def test_zero_vector(self):
        op = assemble_fractional(Grid(-1.0, 1.0, 8), 0.5)
        assert quadratic_form(op, np.zeros(8)) == 0.0

    def test_strictly_positive_on_nonzero(self):
        op = assemble_fractional(Grid(-1.0, 1.0, 16), 0.4)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(16)
            assert quadratic_form(op, v) > 0.0

    def test_classical_dirichlet_energy_of_parabola(self):
        g = Grid(-1.0, 1.0, 1024)
        op = assemble_classical(g)
        v = 1.0 - g.nodes() ** 2
        # int (v')^2 = int 4 x^2 dx = 8/3 over (-1, 1).
        assert quadratic_form(op, v) == pytest.approx(8.0 / 3.0, rel=0.01)

    def test_shape_mismatch(self):
        op = assemble_classical(Grid(-1.0, 1.0, 8))
        with pytest.raises(ValueError):
            quadratic_form(op, np.ones(9))

    @pytest.mark.parametrize("n", [3, 128, 4096, 65537])
    @pytest.mark.parametrize("s", [0.5, None])
    def test_is_the_h_pairing_of_v_with_a_v(self, n, s):
        # One summation rule: the energy is inner_product_h's pairwise sum, to the last bit.
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g) if s is None else assemble_fractional(g, s)
        v = np.random.default_rng(n).standard_normal(n)
        assert quadratic_form(op, v) == inner_product_h(v, toeplitz_product(_true_col(op))(v), g)

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 0.99, 0.999, None])
    @pytest.mark.parametrize("shape", ["smooth", "random", "solution"])
    def test_one_toeplitz_product_matches_the_dense_energy(self, n, s, shape):
        # Measured here at most 7.2e-12 (n = 4096, s = 0.99, the solution);
        # an all-FFT product is off by up to 5.2e-10 in the same cases.
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g) if s is None else assemble_fractional(g, s)
        x = g.nodes()
        if shape == "smooth":
            v = (1.0 - x**2) * np.cos(3.0 * x)
        elif shape == "random":
            v = np.random.default_rng(5).standard_normal(g.n)
        else:
            v = op.solve(np.ones(g.n))
        energy = quadratic_form(op, v)
        assert "matrix" not in op.__dict__
        reference = g.h * float(np.asarray(v, dtype=np.longdouble)
                                @ direct_toeplitz_product(_true_col(op), v))
        assert energy == pytest.approx(reference, rel=5e-11)

    @pytest.mark.parametrize("s", [0.5, None])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_smallest_grids_match_the_dense_energy(self, s, n):
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g) if s is None else assemble_fractional(g, s)
        v = np.random.default_rng(n).standard_normal(n)
        assert quadratic_form(op, v) == pytest.approx(g.h * float(v @ (op.matrix @ v)), rel=1e-12)


class TestSpectrum:
    def test_bottom_eigenvalue_approaches_the_continuum_at_half_order(self):
        # First Dirichlet eigenvalue of the half Laplacian on (-1, 1): Kulczycki,
        # Kwasnicki, Malecki & Stos, Proc. London Math. Soc. 101 (2010).  The
        # error must halve with each doubling of n: a monotone first-order decrease.
        lam1 = 1.1577738836977
        errors = [abs(_true_values(assemble_fractional(Grid(-1.0, 1.0, n), 0.5))[0] - lam1) / lam1
                  for n in (128, 256, 512, 1024, 2048)]
        ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
        assert all(1.9 <= r <= 2.1 for r in ratios), (errors, ratios)

    def test_second_eigenvalue_approaches_the_continuum_at_half_order(self):
        # Second Dirichlet eigenvalue of the half Laplacian on (-1, 1): Kwasnicki,
        # J. Funct. Anal. 262 (2012).  The operator keeps only its extreme pairs,
        # so lambda_2 comes from a dense LAPACK solve.  The error must halve with
        # each doubling of n.
        lam2 = 2.7547542
        errors = []
        for n in (128, 256, 512, 1024, 2048):
            col = _true_col(assemble_fractional(Grid(-1.0, 1.0, n), 0.5))
            value = eigh(toeplitz(col), subset_by_index=[1, 1], eigvals_only=True)[0]
            errors.append(abs(value - lam2) / lam2)
        ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:])), errors
        assert all(1.9 <= r <= 2.1 for r in ratios), (errors, ratios)

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=64),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_eigenvalues_scale_as_the_half_length_to_the_minus_2s(self, n, s, log_r):
        r = 10.0**log_r
        unit = assemble_fractional(Grid(-1.0, 1.0, n), s)
        scaled = assemble_fractional(Grid(-r, r, n), s)
        for value, expected in zip(_true_values(scaled), _true_values(unit)):
            assert value == pytest.approx(expected * r ** (-2.0 * s), rel=1e-12)


def test_spectrum_is_the_positive_definiteness_check():
    # tridiag(2, 1, 2): eigenvalues 1 + 4 cos(k pi / 9), from -2.76.  eig_extreme gives
    # them for any finite column; the operator refuses them, naming the unit-scale span.
    col = np.zeros(8)
    col[:2] = 1.0, 2.0
    spectrum = eig_extreme(col)
    assert spectrum.lambda_min == pytest.approx(1.0 - 4.0 * math.cos(math.pi / 9.0), rel=1e-14)
    op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, 8))
    lo, hi = (math.ldexp(value, -op.exponent) for value in (spectrum.lambda_min,
                                                            spectrum.lambda_max))
    with pytest.raises(SolveError, match=re.escape(
            f"matrix is not positive definite: eigenvalues span [{lo:.3e}, {hi:.3e}]")):
        op.spectrum


def _true_values(op):
    """op's true-scale lambda_min and lambda_max."""
    spectrum = op.spectrum
    return [math.ldexp(value, op.exponent) for value in (spectrum.lambda_min, spectrum.lambda_max)]


def test_norm_h_matches_inner_product():
    g = Grid(-1.0, 1.0, 10)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(10)
    assert norm_h(v, g) == pytest.approx(math.sqrt(inner_product_h(v, v, g)), rel=1e-14)


def test_norm_h_of_a_vector_whose_squares_underflow():
    # ||v||_h = 1e-300: every square underflows to 0, but the norm is a normal float.
    g = Grid(0.0, 1.0, 3)  # h = 1/4
    v = np.array([2e-300, 0.0, 0.0])
    assert norm_h(v, g) == pytest.approx(1e-300, rel=1e-15, abs=0.0)
    w = np.random.default_rng(1).standard_normal(3)
    assert norm_h(1e-300 * w, g) == pytest.approx(1e-300 * norm_h(w, g), rel=1e-14, abs=0.0)
