import functools
import glob
import inspect
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy
import scipy.linalg

from fraclap.discretize import Grid, Operator, assemble_classical, assemble_fractional
from fraclap import linalg
from fraclap.linalg import PCG_MIN_N, SolveError, eig_extreme, even_basis, toeplitz_solve
from oracles import direct_toeplitz_product, eig_full_jacobi, refined_toeplitz_solve


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B.T @ B + np.eye(n)


def random_spd_toeplitz(n, seed):
    """First column of a random symmetric Toeplitz matrix, positive definite by diagonal dominance."""
    col = np.random.default_rng(seed).standard_normal(n)
    col[0] = 1.0 + 2.0 * np.abs(col[1:]).sum()
    return col


def _assemble(n, s):
    """The operator of order s on (-1, 1), classical when s is None."""
    g = Grid(-1.0, 1.0, n)
    return assemble_classical(g) if s is None else assemble_fractional(g, s)


def _true_col(op):
    """The operator's true-scale first column: its unit column times 2^exponent."""
    return np.ldexp(op.col, op.exponent)


def _same_up_to_sign(v, ref, tol):
    """Whether v equals ref or -ref within tol times ref's largest entry."""
    scale = tol * np.abs(ref).max()
    return min(np.abs(v - ref).max(), np.abs(v + ref).max()) <= scale


def _exactly_even_or_odd(v):
    return np.array_equal(v, v[::-1]) or np.array_equal(v, -v[::-1])


class TestEigExtreme:
    def test_three_point_matrix_of_order_three(self):
        # tridiag(-1, 2, -1) of order 3: eigenvalues 2 -/+ sqrt(2), vectors (1, +/-sqrt(2), 1) / 2.
        spectrum = eig_extreme([2.0, -1.0, 0.0])
        assert spectrum.lambda_min == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
        assert spectrum.lambda_max == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)
        assert _same_up_to_sign(spectrum.vector, np.array([0.5, -math.sqrt(0.5), 0.5]), 1e-14)
        # The top's inward neighbour is the eigenvalue 2, of the odd vector (1, 0, -1).
        assert spectrum.gap == pytest.approx(math.sqrt(2.0) / (2.0 + math.sqrt(2.0)), rel=1e-14)

    def test_smallest_matches_dirichlet_eigenvalue(self):
        n = 255
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g)
        lambda_min = eig_extreme(_true_col(op), h=g.h).lambda_min
        # First Dirichlet eigenvalue of the second derivative on a length-2
        # interval is (pi/2)^2; the discrete value sits within 0.5% at this n.
        assert lambda_min == pytest.approx(math.pi**2 / 4.0, rel=0.005)

    def test_largest_matches_tridiagonal_formula(self):
        n = 255
        g = Grid(-1.0, 1.0, n)
        op = assemble_classical(g)
        spectrum = eig_extreme(_true_col(op), h=g.h)
        assert spectrum.residual <= 1e-9
        expected = 4.0 / g.h**2 * math.sin(n * math.pi / (2 * (n + 1))) ** 2
        assert spectrum.lambda_max == pytest.approx(expected, rel=0.005)

    def test_eigenvector_h_normalized_with_small_residual(self):
        g = Grid(-1.0, 1.0, 64)
        op = assemble_fractional(g, 0.5)
        spectrum = eig_extreme(_true_col(op), h=g.h)
        v, lam = spectrum.vector, spectrum.lambda_max
        assert g.h * float(v @ v) == pytest.approx(1.0, rel=1e-12)
        res = np.linalg.norm(op.matrix @ v - lam * v)
        assert res <= 1e-9 * abs(lam) * np.linalg.norm(v)

    @pytest.mark.parametrize("col, error", [(np.ones((2, 2)), ValueError), ([], ValueError),
                                            ([1.0], ValueError), ([2.0, math.nan, 0.0], SolveError),
                                            ([math.inf, -1.0], SolveError)])
    def test_rejects_a_column_that_is_not_finite_or_one_dimensional(self, col, error):
        # A defect of shape is a ValueError; a non-finite entry is the numerical failure
        # that toeplitz_solve reports for the same column.
        with pytest.raises(error):
            eig_extreme(col)

    def test_large_operator_matches_full_spectrum(self):
        g = Grid(-1.0, 1.0, 1024)
        op = assemble_fractional(g, 0.5)
        lam = np.linalg.eigvalsh(op.matrix)
        spectrum = eig_extreme(_true_col(op), h=g.h)
        assert spectrum.lambda_min == pytest.approx(lam[0], rel=1e-10)
        assert spectrum.residual <= 1e-9
        assert spectrum.lambda_max == pytest.approx(lam[-1], rel=1e-10)
        assert spectrum.gap == pytest.approx((lam[-1] - lam[-2]) / lam[-1], rel=1e-6)
        v = spectrum.vector
        res = np.linalg.norm(op.matrix @ v - spectrum.lambda_max * v)
        assert res <= 1e-9 * spectrum.lambda_max * np.linalg.norm(v)

    def test_residual_near_the_top_of_the_double_range_is_finite(self):
        # The residual's squared entries overflow, its norm does not; no warning either.
        col = 1e300 * random_spd_toeplitz(30, 7)
        spectrum = eig_extreme(col)
        assert math.isfinite(spectrum.residual) and spectrum.residual <= 1e-9
        # The absolute residual's square overflows.
        assert spectrum.residual * spectrum.lambda_max > 1e155 and spectrum.lambda_max > 1e301

    @pytest.mark.parametrize("n", [2, 30, 1024])
    def test_residual_is_relative_to_the_eigenvalue(self, n):
        # A column scaled by 2^900 or 2^-900 keeps a round-off residual; an absolute one
        # would scale with it.
        col = random_spd_toeplitz(n, 7)
        for e in (0, -900, 900):
            # 0 at n = 2, where the lifted vector is exact.
            assert eig_extreme(np.ldexp(col, e)).residual <= 1e-15

    def test_zero_top_eigenvalue_has_no_relative_residual(self):
        # [[-1, 1], [1, -1]] has the eigenvalues -2 and 0.
        spectrum = eig_extreme([-1.0, 1.0])
        assert spectrum.lambda_min == -2.0 and spectrum.lambda_max == 0.0
        assert spectrum.residual == spectrum.gap == math.inf

    @pytest.mark.parametrize("n", [3, 128, 1024])
    def test_one_toeplitz_product_per_call(self, n, monkeypatch):
        # The product is applied once, to the top vector, for its residual.
        applied, original = [], linalg.toeplitz_product

        def recorded(col):
            product = original(col)

            def apply(v):
                applied.append(v.copy())
                return product(v)
            return apply

        monkeypatch.setattr(linalg, "toeplitz_product", recorded)
        top = eig_extreme(_true_col(_assemble(n, 0.5))).vector
        assert len(applied) == 1
        (v,) = applied
        assert _same_up_to_sign(v / np.linalg.norm(v), top / np.linalg.norm(top), 1e-15)


ORDERS = [0.1, 0.5, 0.99, None]  # None: the classical operator


class TestEigExtremeAgainstDense:
    """lambda_min and the top pair of each half split against LAPACK on the dense matrix."""

    @staticmethod
    def check(col, h):
        n = len(col)
        dense = scipy.linalg.toeplitz(col)
        spectrum = eig_extreme(col, h=h)
        top = spectrum.lambda_max
        lam_max = max(abs(spectrum.lambda_min), abs(top))
        lam_min = scipy.linalg.eigh(dense, subset_by_index=[0, 0], eigvals_only=True)[0]
        assert abs(spectrum.lambda_min - lam_min) <= 1e-12 * lam_max
        lam, vecs = scipy.linalg.eigh(dense, subset_by_index=[n - 2, n - 1])
        assert abs(top - lam[1]) <= 1e-12 * lam_max
        assert spectrum.gap == pytest.approx(abs(lam[0] - lam[1]) / abs(lam[1]), rel=1e-6)
        v = spectrum.vector / np.linalg.norm(spectrum.vector)
        assert spectrum.residual <= 1e-9
        assert np.linalg.norm(dense @ v - top * v) <= 1e-9 * abs(top)
        assert _same_up_to_sign(v, vecs[:, 1], 1e-9)
        assert _exactly_even_or_odd(spectrum.vector)
        assert h * float(spectrum.vector @ spectrum.vector) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s", ORDERS)
    @pytest.mark.parametrize("n", range(3, 10))
    def test_small_orders(self, n, s):
        op = _assemble(n, s)
        self.check(_true_col(op), op.grid.h)

    @pytest.mark.parametrize("s", ORDERS)
    @pytest.mark.parametrize("n", [64, 65, 1024, 1025])
    def test_even_and_odd_orders(self, n, s):
        op = _assemble(n, s)
        self.check(_true_col(op), op.grid.h)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 33])
    def test_random_indefinite_columns(self, n):
        self.check(np.random.default_rng(n).standard_normal(n), 1.0)

    @pytest.mark.parametrize("n", [2047, 2048])
    def test_classical_closed_form(self, n):
        # lambda_k = (4/h^2) sin^2(k pi / (2(n+1))), v_k(i) ~ sin(k pi i / (n+1)); no dense matrix.
        op = _assemble(n, None)
        h = op.grid.h
        spectrum = eig_extreme(_true_col(op), h=h)
        i = np.arange(1, n + 1)

        def value(k):
            return 4.0 / h**2 * math.sin(k * math.pi / (2 * (n + 1))) ** 2

        assert abs(spectrum.lambda_min - value(1)) <= 1e-12 * value(n)
        top = spectrum.lambda_max
        assert abs(top - value(n)) <= 1e-12 * value(n)
        assert spectrum.gap == pytest.approx(abs(value(n - 1) - value(n)) / value(n), rel=1e-6)
        mode = np.sin(n * math.pi * i / (n + 1))
        v = spectrum.vector / np.linalg.norm(spectrum.vector)
        assert _same_up_to_sign(v, mode / np.linalg.norm(mode), 1e-9)
        padded = np.concatenate(([0.0], v, [0.0]))
        stencil = (2.0 * v - padded[:-2] - padded[2:]) / h**2
        assert np.linalg.norm(stencil - top * v) <= 1e-9 * top
        assert spectrum.residual <= 1e-9
        assert _exactly_even_or_odd(spectrum.vector)


class TestEvenBasis:
    """The even half's full spectrum and basis against LAPACK on the dense matrix, built here."""

    @pytest.mark.parametrize("s", ORDERS)
    @pytest.mark.parametrize("n", [*range(3, 10), 64, 65, 128, 129])
    def test_matches_the_dense_even_modes(self, n, s):
        col = _true_col(_assemble(n, s))
        basis = even_basis(col)
        k = (n + 1) // 2
        lam, V = scipy.linalg.eigh(scipy.linalg.toeplitz(col))
        even = [j for j in range(n) if np.abs(V[:, j] - V[::-1, j]).max() <= 1e-6]
        assert len(basis.values) == len(even) == k
        assert np.abs(basis.values - lam[even]).max() <= 1e-12 * np.abs(lam).max()
        B = np.column_stack([basis.nodal(e) for e in np.eye(k)])
        for j, b in zip(even, B.T):
            assert np.array_equal(b, b[::-1])
            assert _same_up_to_sign(b, V[:, j], 1e-9)
        # coefficients applies B^T, and the two maps invert each other on even vectors.
        C = np.column_stack([basis.coefficients(e) for e in np.eye(n)])
        assert np.abs(C - B.T).max() <= 1e-13
        rng = np.random.default_rng(n)
        c = rng.standard_normal(k)
        assert np.abs(basis.coefficients(basis.nodal(c)) - c).max() <= 1e-13 * np.abs(c).max()
        v = rng.standard_normal(n)
        even_part = 0.5 * (v + v[::-1])
        assert np.abs(basis.nodal(basis.coefficients(v)) - even_part).max() \
            <= 1e-13 * np.abs(v).max()
        # An odd vector has no even coefficients at all.
        assert not basis.coefficients(v - v[::-1]).any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smallest_orders(self, n):
        col = np.random.default_rng(n).standard_normal(n)
        basis = even_basis(col)
        lam, V = scipy.linalg.eigh(scipy.linalg.toeplitz(col))
        even = [j for j in range(n) if np.abs(V[:, j] - V[::-1, j]).max() <= 1e-6]
        assert np.abs(basis.values - lam[even]).max() <= 1e-14 * np.abs(lam).max()
        assert basis.nodal(basis.coefficients(np.ones(n))) == pytest.approx(np.ones(n), rel=1e-15)

    @pytest.mark.parametrize("col, error", [([1.0], ValueError), ([[1.0, 0.5]], ValueError),
                                            ([1.0, np.nan, 0.5], SolveError)])
    def test_rejects_what_eig_extreme_rejects(self, col, error):
        with pytest.raises(error):
            even_basis(np.asarray(col))


class TestOneReductionPerHalf:
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64])
    def test_lapack_calls(self, n, monkeypatch):
        # Halves of order 1 (n = 2, and the odd half at n = 3) take the same calls.
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        lapack = linalg.scipy.linalg.lapack
        for name in ("dsytrd", "dstemr"):
            monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
        col = random_spd_toeplitz(n, n)
        eig_extreme(col)
        assert calls.count("dsytrd") == 2 and calls.count("dstemr") <= 4
        calls.clear()
        even_basis(col)
        assert calls == ["dsytrd", "dstemr"]

    # Block size 4 (workspace 4k) up to order 200; the queried workspace above.
    @pytest.mark.parametrize("k, block4", [(33, True), (64, True), (128, True), (200, True),
                                           (201, False), (256, False)])
    def test_dsytrd_workspace(self, k, block4, monkeypatch):
        lapack = linalg.scipy.linalg.lapack
        original, lworks = lapack.dsytrd, []

        def recorded(M, **kwargs):
            lworks.append(kwargs["lwork"])
            return original(M, **kwargs)

        monkeypatch.setattr(lapack, "dsytrd", recorded)
        even_basis(random_spd_toeplitz(2 * k, k))
        assert lworks == [4 * k if block4 else int(lapack.dsytrd_lwork(k, lower=1)[0])]

    # dsytrd runs unblocked below order 33 whatever the workspace.
    @pytest.mark.parametrize("k", [1, 2, 16, 32, 201, 256])
    def test_same_bits_as_the_queried_workspace(self, k, monkeypatch):
        col = random_spd_toeplitz(2 * k, k)  # both halves of order k

        def arrays():
            spectrum, basis = eig_extreme(col), even_basis(col)
            return [np.asarray(x) for x in (spectrum.lambda_min, spectrum.lambda_max,
                                            spectrum.vector, spectrum.residual, spectrum.gap)] + \
                [basis.values, basis.vectors, basis.reflectors, basis.tau]

        ours = arrays()
        lapack = linalg.scipy.linalg.lapack
        original = lapack.dsytrd
        monkeypatch.setattr(lapack, "dsytrd", lambda M, lower, lwork, overwrite_a: original(
            M, lower=lower, lwork=int(lapack.dsytrd_lwork(M.shape[0], lower=lower)[0]),
            overwrite_a=overwrite_a))
        assert all(np.array_equal(a, b) for a, b in zip(ours, arrays(), strict=True))


class TestEigenPathMemory:
    @pytest.mark.parametrize("n", [2048, 2049])
    @pytest.mark.parametrize("path", [eig_extreme, even_basis])
    def test_two_half_matrices_at_the_peak(self, path, n):
        # A half matrix, which dsytrd overwrites with its reflectors, and dstemr's vectors;
        # the rest is O(n).  Measured for eig_extreme: 2.04 k^2 doubles; 5.04 k^2 when dsytrd
        # copied the half matrix, the residuals kept it and the first dstemr's vectors
        # outlived the call.  For even_basis: 2.03 k^2; 3.03 k^2 when dstemr's vectors were
        # copied into another k x k array.
        col = _true_col(_assemble(n, 0.5))
        k = (n + 1) // 2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            path(col)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * k * k * 8


def _other_threads_cpu_s():
    """CPU seconds used so far by this process's threads other than the main one."""
    total = 0
    for path in glob.glob("/proc/self/task/*/stat"):
        if int(path.split("/")[-2]) == os.getpid():
            continue
        try:
            with open(path) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread exited
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime in clock ticks
    return total / os.sysconf("SC_CLK_TCK")


def _scipy_blas_name():
    config = getattr(scipy.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name")


class TestNoIdleBlasWorker:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc and at least 2 CPUs")
    @pytest.mark.skipif(_scipy_blas_name() != "scipy-openblas",
                        reason="OpenBLAS's thread thresholds were measured on scipy-openblas")
    def test_half_reductions_leave_no_spinning_worker(self):
        # With the queried block of 32, the halves of order 128 and 200 wake an OpenBLAS
        # worker, which spins on through the busy wait: 50-60 ms on other threads.
        time.sleep(0.5)  # let workers woken by earlier tests go back to sleep
        before = _other_threads_cpu_s()
        eig_extreme(_true_col(_assemble(256, 0.5)))
        even_basis(_true_col(_assemble(400, 0.5)))
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        assert _other_threads_cpu_s() - before <= 0.01


class TestSameBytesOnOneAndTwoBlasThreads:
    # The commands whose CSVs README states do not depend on the BLAS thread count.  BLAS ddot
    # splits its sum by thread count from some n between 10 000 and 32 768, so gamma at
    # n = 32768 and the energies at n = 65537 check that no reported h-sum goes through it.
    COMMANDS = (["solve", "--n", "4096"], ["solve", "--n", "16384", "--s", "0.9"],
                ["solve", "--n", "65537", "--s", "0.9"], ["control"], ["control", "--n", "400"],
                ["sweep"], ["gamma"], ["gamma", "--n", "32768"])

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs at least 2 CPUs")
    @pytest.mark.skipif(_scipy_blas_name() != "scipy-openblas",
                        reason="the thread-count range was measured on scipy-openblas")
    def test_csv_bytes(self, tmp_path):
        # Each child runs every command; only the child's environment names a thread count.
        script = ("import os, sys\n"
                  "import numpy as np\n"
                  "from fraclap.cli import main\n"
                  "from fraclap.discretize import Grid, assemble_fractional\n"
                  "from fraclap.forward import solve_poisson\n"
                  f"for i, argv in enumerate({list(self.COMMANDS)!r}):\n"
                  "    assert main(argv + ['--out', os.path.join(sys.argv[1], str(i))]) == 0\n"
                  "sol = solve_poisson(assemble_fractional(Grid(-1.0, 1.0, 65537), 0.9), np.ones(65537))\n"
                  "print(repr(sol.seminorm_sq), repr(sol.l2_norm_u))\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        energies = {}
        for out, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path / out)],
                                  env={**env, **extra}, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            energies[out] = done.stdout.splitlines()[-1]
        assert energies["one"] == energies["default"], \
            f"seminorm_sq and l2_norm_u at n = 65537 differ between 1 and 2 threads: {energies}"
        for i, argv in enumerate(self.COMMANDS):
            (csv,) = os.listdir(tmp_path / "one" / str(i))
            one, default = ((tmp_path / out / str(i) / csv).read_bytes() for out in ("one", "default"))
            assert one == default, f"{' '.join(argv)}: {csv} differs between 1 and 2 threads"


class TestPairwiseDot:
    @pytest.mark.parametrize("n", [1, 2, 7, 128, 10000, 32768, 65537])
    def test_is_numpys_pairwise_sum_of_the_products(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        dot = linalg.pairwise_dot(a, b)
        assert type(dot) is float
        assert dot == float(np.sum(a * b))


class TestLapackWrappers:
    def test_every_wrapper_that_linalg_calls_exists(self):
        # The declared scipy floor must supply each of them; name any that it lacks.
        names = set(re.findall(r"scipy\.linalg\.lapack\.(\w+)", inspect.getsource(linalg)))
        assert {"dsytrd", "dsytrd_lwork", "dstemr", "dormqr"} <= names
        missing = sorted(name for name in names if not hasattr(scipy.linalg.lapack, name))
        assert not missing, f"scipy {scipy.__version__} has no LAPACK wrapper {missing}"

    @pytest.mark.parametrize("name", ["dsytrd", "dstemr", "dormqr"])
    def test_failure_raises_solve_error(self, name, monkeypatch):
        real = getattr(scipy.linalg.lapack, name)
        # Each wrapper returns info last; report 3 whatever the routine did.
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], 3))
        with pytest.raises(SolveError, match=f"^LAPACK {name} failed with info=3$"):
            eig_extreme(_true_col(_assemble(64, 0.5)))


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
        extremes = eig_extreme(_true_col(op), h=g.h)
        assert extremes.lambda_max == pytest.approx(pairs[-1].value, rel=1e-8)
        assert extremes.lambda_min == pytest.approx(pairs[0].value, rel=1e-8)

    def test_agrees_with_lapack(self):
        A = random_spd(30, 17)
        lam = np.array([p.value for p in eig_full_jacobi(A)])
        assert np.allclose(lam, np.linalg.eigvalsh(A), rtol=1e-10, atol=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            eig_full_jacobi(np.eye(257))


def _toeplitz_operator(s, n=1024):
    grid = Grid(-1.0, 1.0, n)
    return assemble_classical(grid) if s is None else assemble_fractional(grid, s)


# One size on each side of PCG_MIN_N, with the module and name of the
# function that toeplitz_solve calls there.
SOLVERS = {"levinson": (PCG_MIN_N - 1, scipy.linalg, "solve_toeplitz"),
           "pcg": (1024, linalg, "_pcg")}


def _wrap_solver(monkeypatch, path, wrap):
    """Replace the solver of one path by wrap(original); return that path's n."""
    n, module, name = SOLVERS[path]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return n


def _counted(calls, path, original):
    def call(col, b, **kwargs):
        calls.append((path, len(b)))
        return original(col, b, **kwargs)
    return call


class TestToeplitzProduct:
    # PCG_MIN_N = 2 gives every order the PCG_BAND band, clamped to n - 1: the
    # whole column up to n = 17, and about half of it at n = 32 and 33; a
    # "same"-mode convolve returns n + 1 sums at n = 32.
    @pytest.mark.parametrize("min_n", [PCG_MIN_N, 2])
    @pytest.mark.parametrize("n", [2, 3, 8, 32, 33, 599, 600, 4099])
    def test_matches_the_direct_sum(self, n, min_n, monkeypatch):
        monkeypatch.setattr(linalg, "PCG_MIN_N", min_n)
        col = _true_col(_toeplitz_operator(0.5, max(n, 3)))[:n]  # a grid has at least 3 nodes
        v = np.random.default_rng(n).standard_normal(n)
        error = np.abs(linalg.toeplitz_product(col)(v) - direct_toeplitz_product(col, v)).max()
        assert error <= 1e-14 * np.abs(col).sum() * np.abs(v).max()

    @pytest.mark.parametrize("min_n", [PCG_MIN_N, 2])
    @pytest.mark.parametrize("n", [8, 32])
    def test_cg_solves_small_orders(self, n, min_n, monkeypatch):
        monkeypatch.setattr(linalg, "PCG_MIN_N", min_n)
        col = _true_col(_toeplitz_operator(0.5, n))
        b = np.ones(n)
        x = linalg._pcg(col, b, linalg.toeplitz_product(col))
        dense = scipy.linalg.solve(scipy.linalg.toeplitz(col), b, assume_a="pos")
        assert np.abs(x - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_smooth_length(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1
        for n in range(1, 3000):
            assert linalg._smooth_length(n) == next(k for k in range(n, 2 * n + 1) if smooth(k))


# Orders from near 0 to near 1, and None for the classical operator.
ORDERS = [1e-6, 0.1, 0.5, 0.9, 0.99, 0.999999, None]
SIZES = [3, 4, 16, 64, 256, 512, 1024]


class TestToeplitzSolve:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("s", ORDERS)
    def test_matches_dense_solve(self, s, n):
        op = _toeplitz_operator(s, n)
        b = np.sin(np.linspace(0.0, 7.0, op.n)) + 1.0
        x = op.solve(b)
        assert "matrix" not in op.__dict__
        dense = scipy.linalg.solve(op.matrix, b, assume_a="pos")
        assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("s", ORDERS)
    def test_backward_error_is_round_off(self, s, n):
        op = _toeplitz_operator(s, n)
        b = np.ones(op.n)
        x = toeplitz_solve(_true_col(op), b)
        residual = np.abs(b - op.matrix @ x).max()
        assert residual <= 1e-13 * np.abs(op.matrix).sum(axis=1).max() * np.abs(x).max()

    @pytest.mark.parametrize("path", SOLVERS)
    def test_one_solver_call_per_solve(self, path, monkeypatch):
        calls = []
        for name in SOLVERS:
            _wrap_solver(monkeypatch, name, functools.partial(_counted, calls, name))
        n = SOLVERS[path][0]
        op = _toeplitz_operator(0.5, n)
        op.solve(np.ones(op.n))
        assert calls == [(path, n)]

    @pytest.mark.parametrize("s", [0.9, 0.99])
    def test_forward_error_near_the_classical_limit(self, s):
        # CG on the split product leaves 2.2e-13 and 5.7e-13 here, Levinson
        # alone 5.0e-13 and 2.1e-12; a refinement step or a CG whose residual
        # is a plain FFT product leaves about 1.1e-11 and 2.4e-11.
        op = _toeplitz_operator(s, 1024)
        b = np.sin(np.linspace(0.0, 7.0, op.n)) + 1.0
        dense = scipy.linalg.solve(scipy.linalg.toeplitz(_true_col(op)), b, assume_a="pos")
        assert np.linalg.norm(op.solve(b) - dense) <= 5e-12 * np.linalg.norm(dense)

    def test_zero_right_hand_side(self):
        op = _toeplitz_operator(0.5)
        assert np.all(toeplitz_solve(_true_col(op), np.zeros(op.n)) == 0.0)

    def test_singular_leading_minor(self):
        # [[1, 1], [1, 1]] leads an indefinite matrix (eigenvalues 1, 1 +- sqrt 2 at n = 3).
        col = np.zeros(16)
        col[:2] = 1.0
        with pytest.raises(SolveError, match="Levinson"):
            toeplitz_solve(col, np.ones(16))

    @pytest.mark.parametrize("path", SOLVERS)
    def test_non_finite_result(self, path, monkeypatch):
        n = _wrap_solver(monkeypatch, path,
                         lambda original: lambda col, b, **kwargs: np.full(len(b), np.nan))
        op = _toeplitz_operator(0.5, n)
        with pytest.raises(SolveError, match="non-finite"):
            op.solve(np.ones(op.n))

    @pytest.mark.parametrize("n", [2])
    def test_answer_that_overflows_is_refused_without_a_warning(self, n):
        # x peaks at 1.3e608: toeplitz_solve solves at the scale it is given.
        col = np.zeros(n)
        col[:2] = 1e-300, -2.5e-301
        with pytest.raises(SolveError, match="^Toeplitz solve returned non-finite values$"):
            toeplitz_solve(col, np.full(n, 1e308))

    @pytest.mark.parametrize("b, cause", [
        # numpy 2 FFTs raise the overflow of the FFT of b; numpy 1 FFTs pass its inf on to
        # the preconditioner's division.
        (1e308, r"(overflow encountered in rfft_n_even|(overflow|invalid value) encountered in divide)"),
        (1e300, r"overflow encountered in divide"),  # the preconditioner's division
        (1e-315, r"p\^T A p = 0\.000e\+00"),  # underflows to 0
    ], ids=["1e+308", "1e+300", "1e-315"])
    def test_breakdown_names_the_scale_contract(self, b, cause):
        # A positive definite column near 1e-300, solved by CG at the scale given: each case
        # ends in one SolveError, with no numpy warning.  Operator.solve passes unit columns.
        n = PCG_MIN_N + 100
        col = np.zeros(n)
        col[:2] = 1e-300, -2.5e-301
        with pytest.raises(SolveError, match=(
                rf"^conjugate gradients broke down: {cause}; toeplitz_solve solves at the "
                r"scale it is given, and Operator.solve passes a unit column$")):
            toeplitz_solve(col, np.full(n, b))

    @pytest.mark.parametrize("path", SOLVERS)
    def test_operator_answer_that_overflows_names_u(self, path):
        # u peaks near 1e608.  It is finite at unit scale, where the solve runs, and
        # scale_back names it, with no numpy warning.
        n = SOLVERS[path][0]
        col = np.zeros(n)
        col[:2] = 1e-300, -2.5e-301
        op = Operator(kind="fractional", s=0.5, col=col, grid=Grid(-1.0, 1.0, n))
        with pytest.raises(OverflowError, match=r"^non-finite u at grid spacing h=\S+$"):
            op.solve(np.full(n, 1e308))

    @pytest.mark.parametrize("path", SOLVERS)
    def test_large_backward_error(self, path, monkeypatch):
        # Each answer 0.1 % too large: the relative error of 1e-3 stays far
        # above round-off.
        n = _wrap_solver(monkeypatch, path, lambda original: lambda col, b, **kwargs:
                         original(col, b, **kwargs) * (1.0 + 1e-3))
        op = _toeplitz_operator(0.5, n)
        with pytest.raises(SolveError, match="residual"):
            op.solve(np.ones(op.n))

    @pytest.mark.parametrize("n", [PCG_MIN_N - 1, PCG_MIN_N, 1024, 2048])
    @pytest.mark.parametrize("s", [0.9, 0.99, 0.999999])
    def test_forward_error_against_a_refined_dense_solve(self, s, n):
        # Cholesky alone is 5.1e-11 from the refined answer at n = 2048,
        # s = 0.999999, so the reference is refined with long-double residuals.
        op = _toeplitz_operator(s, n)
        b = np.sin(np.linspace(0.0, 7.0, op.n)) + 1.0
        reference = refined_toeplitz_solve(_true_col(op), b)
        assert np.linalg.norm(op.solve(b) - reference) <= 5e-12 * np.linalg.norm(reference)

    # Relative max-norm errors of 2.2e-14 and 1.8e-11 were measured here
    # (5.9e-15 and 1.9e-12 with Strang's circulant of order n); the bounds
    # leave a factor of 5 over the larger.
    @pytest.mark.parametrize("s, bound", [(0.5, 1e-13), (0.99, 1e-10)])
    def test_manufactured_solution_at_a_prime_order(self, s, bound):
        # 4099 is prime: the padded FFT lengths, with no dense reference.
        op = _toeplitz_operator(s, 4099)
        x = np.random.default_rng(4099).standard_normal(op.n)
        b = direct_toeplitz_product(_true_col(op), x).astype(float)
        assert np.abs(op.solve(b) - x).max() <= bound * np.abs(x).max()

    # Relative max-norm errors of 5.9e-13, 2.0e-13, 2.3e-12 and 2.2e-10 were
    # measured here; the bounds leave a factor of 5 over each.
    @pytest.mark.parametrize("n, bound", [(PCG_MIN_N - 1, 3e-12), (PCG_MIN_N, 1e-12),
                                          (4099, 1.2e-11), (65537, 1.1e-9)])
    def test_classical_unit_load_is_exact(self, n, bound):
        # The three-point stencil is exact on quadratics: on (0, 1) the unit
        # load solves to x (1 - x) / 2 at the nodes, at any n.
        grid = Grid(0.0, 1.0, n)
        x = grid.nodes()
        exact = x * (1.0 - x) / 2.0
        u = assemble_classical(grid).solve(np.ones(n))
        assert np.abs(u - exact).max() <= bound * np.abs(exact).max()

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "PCG_MAX_ITER", 2)
        op = _toeplitz_operator(0.5, PCG_MIN_N)
        with pytest.raises(SolveError, match="2 iterations"):
            op.solve(np.ones(op.n))

    def test_indefinite_column_above_the_cutoff(self):
        # Eigenvalues 1 + 2 cos(k pi / (n + 1)): the matrix is indefinite.
        col = np.zeros(PCG_MIN_N)
        col[:2] = 1.0
        with pytest.raises(SolveError):
            toeplitz_solve(col, np.ones(PCG_MIN_N))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [PCG_MIN_N - 1, PCG_MIN_N])
    def test_non_finite_right_hand_side(self, n, bad):
        # Both paths refuse b before solving, with the same message.
        b = np.ones(n)
        b[n // 2] = bad
        with pytest.raises(SolveError, match="^right-hand side is not finite$"):
            toeplitz_solve(_true_col(_toeplitz_operator(0.5, n)), b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [PCG_MIN_N - 1, PCG_MIN_N])
    def test_non_finite_first_column(self, n, bad):
        # Both solve paths refuse col before scaling it, and the eigen pass before its
        # reduction, with the same message.
        col = _true_col(_toeplitz_operator(0.5, n)).copy()
        col[3] = bad
        with pytest.raises(SolveError, match="^first column is not finite$"):
            toeplitz_solve(col, np.ones(n))
        with pytest.raises(SolveError, match="^first column is not finite$"):
            eig_extreme(col)

    @pytest.mark.parametrize("path", SOLVERS)
    @pytest.mark.parametrize("b_exp, col_exp", [(600, 0), (0, -900), (-900, 0), (600, 600),
                                                (0, 900)])
    def test_power_of_two_scaling_is_exact(self, b_exp, col_exp, path):
        # A hand-built column 2^col_exp times the assembled one is taken back to unit
        # scale on construction, so the solve runs on the same bits.
        op = _toeplitz_operator(0.5, SOLVERS[path][0])
        scaled_op = Operator(kind="fractional", s=0.5, col=np.ldexp(op.col, col_exp),
                             grid=op.grid, exponent=op.exponent)
        assert np.array_equal(scaled_op.col, op.col)
        assert scaled_op.exponent == op.exponent + col_exp
        b = np.sin(np.linspace(0.0, 7.0, op.n)) + 1.0
        scaled = scaled_op.solve(np.ldexp(b, b_exp))
        assert np.array_equal(scaled, np.ldexp(op.solve(b), b_exp - col_exp))

    @pytest.mark.parametrize("n", [64, PCG_MIN_N])
    def test_subnormal_right_hand_side(self, n):
        # Operator.solve takes b to unit scale, so the check's bound ||A|| ||x|| cannot
        # underflow to 0 and fail the solve; the answer rounds once, when scaled back.
        op = _toeplitz_operator(0.5, n)
        x = op.solve(np.full(n, 1e-320))
        # Within two units in the last place of the subnormal range.
        assert np.abs(x - 1e-320 * op.solve(np.ones(n))).max() <= 2.0 ** -1073
        assert x.min() > 0.0

    @pytest.mark.parametrize("n", [64, 1024])
    def test_rejects_a_right_hand_side_of_another_shape(self, n):
        col = _true_col(_toeplitz_operator(0.5, n))
        for shape in [(n + 1,), (n, 1), ()]:
            with pytest.raises(ValueError, match=re.escape(f"shape ({n},), got {shape}")):
                toeplitz_solve(col, np.ones(shape))
