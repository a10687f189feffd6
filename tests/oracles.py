"""Independent references for the tests.

Pure-Python cyclic Jacobi shares no code with the LAPACK route in
fraclap.linalg, so agreement between the two is evidence for both; it runs
once per matrix in a process.  A dense Cholesky solve refined with
long-double residuals is the reference for Toeplitz solves, and the
long-double direct sum behind those residuals the reference for Toeplitz
products.  The first column assembled at true scale, entry by entry as it
was before operators held a unit column and a power of two, pins the
assembled column's bits.  The unit-load state is the
closed form the forward solver is measured against, and the classical top
eigenpair with its derivative in the order, both closed form, give the
slope of the classical limit.  Projected gradient descent in nodal
values, one Cholesky solve per trial, checks the eigenbasis iteration of
fraclap.control.pgd_solve; so does the same eigenbasis iteration written
with the checked helpers of fraclap.control and fraclap.discretize, on the
coefficients themselves rather than their squares.  Both project onto the
annulus by project_annulus, the radial projection, which no library path
needs.  The row-at-a-time CSV writer, one format call per value, is the
byte reference for the column writer fraclap.cli.write_csv.  The
CLI's former list of config rules is the reference for which configs
fraclap.cli.parse_config rejects, now that the library objects check them.
"""

import functools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from fraclap.control import OptimResult, _active_bound, _sign_normalize, _step
from fraclap import control, linalg
from fraclap.discretize import inner_product_h, norm_h
from fraclap.linalg import SolveError
from fraclap.specfun import frac_constant


def project_annulus(f, a, b, grid):
    """Radial projection of f onto {a <= ||.||_h <= b}.

    The zero vector with a > 0 has no nearest point; the canonical choice
    is the constant direction scaled to the lower bound.
    """
    if not 0.0 <= a <= b:
        raise ValueError(f"annulus bounds must satisfy 0 <= a <= b, got a={a}, b={b}")
    f = np.asarray(f, dtype=float)
    nrm = norm_h(f, grid)
    if nrm == 0.0:
        if a == 0.0:
            return f.copy()
        ones = np.ones(grid.n)
        return a * ones / norm_h(ones, grid)
    clamped = min(max(nrm, a), b)
    if clamped == nrm:
        return f.copy()
    return f * (clamped / nrm)


def _cost(f, u, mu, grid):
    """The reduced cost J = 1/2 <u, f>_h + mu/2 ||f||_h^2 as a float: control._cost scaled back."""
    return math.ldexp(*control._cost(f, u, mu, grid))


def unit_rhs_exact_state(x, s):
    """Closed-form state for a unit load on (-1, 1): c_s (1 - x^2)^s."""
    c = math.sqrt(math.pi) * 4.0 ** (-s) / (math.gamma(s + 0.5) * math.gamma(s + 1.0))
    return c * (1.0 - x**2) ** s


def classical_top_derivative(grid):
    """The classical top eigenvalue lambda and its derivative in s at s = 1-, in closed form.

    lambda = (4/h^2) sin^2(n pi / (2 (n + 1))), with the unit eigenvector
    v_k proportional to (-1)^(k+1) sin(k pi / (n + 1)).  By Hellmann-Feynman
    d lambda/ds = v^T A' v, A' = dA_s/ds at s = 1-.  Since C(1, s) =
    2 (1 - s) + O((1 - s)^2), the weights' derivatives are closed form:
    h^2 w_1' = 3 - 2 gamma - 2 log h - 5/9, h^2 w_k' = -((k - 1/2)^-2 -
    (k + 1/2)^-2) for k >= 2 and h^2 tail' = -(n + 1/2)^-2, so A' has the
    first column [2 (sum w' + tail'), -w_1', ..., -w_(n-1)'].  One
    linalg.toeplitz_product takes v^T A' v; no eigen solve runs, at any n.
    """
    n, h = grid.n, grid.h
    k = np.arange(1, n + 1)
    v = np.where(k % 2 == 1, 1.0, -1.0) * np.sin(k * math.pi / (n + 1))
    v /= np.linalg.norm(v)
    lam = 4.0 / h**2 * math.sin(n * math.pi / (2 * (n + 1))) ** 2
    w = np.concatenate(([3.0 - 2.0 * np.euler_gamma - 2.0 * math.log(h) - 5.0 / 9.0],
                        -((k[1:] - 0.5) ** -2.0 - (k[1:] + 0.5) ** -2.0))) / h**2
    tail = -(n + 0.5) ** -2.0 / h**2
    col = np.concatenate(([2.0 * (w.sum() + tail)], -w[:n - 1]))
    return lam, float(linalg.toeplitz_product(col)(v) @ v)


def classical_limit_slope(grid, cfg) -> float:
    """(a^2/2) v^T A' v / lambda^2, the limit of (J_s - J_1)/(1 - s) as s -> 1-.

    J_s = (a^2/2)(1/lambda_max(A_s) + mu), so this is Hellmann-Feynman's first-order term.
    """
    lam, dlam = classical_top_derivative(grid)
    return 0.5 * cfg.a**2 * dlam / lam**2


def _as_matrix(A) -> np.ndarray:
    """Accept an assembled operator or a bare symmetric ndarray."""
    return np.asarray(getattr(A, "matrix", A), dtype=float)


def true_scale_column(grid, s=None) -> np.ndarray:
    """First column of the order-s operator (the classical one for s=None), computed at true scale.

    The weights C(1, s) h^(-2s) (...) and the three-point (2, -1) / h^2 in
    the order of operations of an assembly that held no exponent, so that a
    spacing it could assemble gives the same bits.  Python's h ** p raises
    OverflowError where the power overflows.
    """
    n, h = grid.n, grid.h
    col = np.zeros(n)
    if s is None:
        h2 = h**2
        col[:2] = 2.0 / h2, -1.0 / h2
        return col
    scale = frac_constant(s) * h ** (-2.0 * s)
    k = np.arange(2, n + 1, dtype=float)
    w = np.empty(n)
    w[0] = scale / (2.0 - 2.0 * s) + (scale / (2.0 * s)) * (1.0 - 1.5 ** (-2.0 * s))
    w[1:] = (scale / (2.0 * s)) * ((k - 0.5) ** (-2.0 * s) - (k + 0.5) ** (-2.0 * s))
    tail = (scale / (2.0 * s)) * (n + 0.5) ** (-2.0 * s)
    col[0], col[1:] = 2.0 * (w.sum() + tail), -w[: n - 1]
    return col


def direct_toeplitz_product(col, v) -> np.ndarray:
    """toeplitz(col) @ v summed directly in long double, without the matrix or an FFT.

    np.convolve with the full symmetric kernel; "valid" keeps the n sums
    in which v lies wholly inside the kernel, which are A v.
    """
    col = np.asarray(col, dtype=np.longdouble)
    kernel = np.concatenate((col[:0:-1], col))
    return np.convolve(np.asarray(v, dtype=np.longdouble), kernel, "valid")


def refined_toeplitz_solve(col, b) -> np.ndarray:
    """Dense Cholesky solve of toeplitz(col) x = b, refined twice with long-double residuals.

    Each residual is the exact Toeplitz sum in long double
    (direct_toeplitz_product), so the refined answer is accurate well below
    the double-precision forward error of any solver under test.
    """
    col = np.asarray(col, dtype=float)
    factor = scipy.linalg.cho_factor(scipy.linalg.toeplitz(col))
    x = scipy.linalg.cho_solve(factor, b).astype(np.longdouble)
    for _ in range(2):
        r = np.asarray(b, dtype=np.longdouble) - direct_toeplitz_product(col, x)
        x = x + scipy.linalg.cho_solve(factor, r.astype(float))
    return x.astype(float)


@dataclass(frozen=True)
class JacobiPair:
    """Eigenvalue with its eigenvector (unit h-weighted norm) and residual."""

    value: float
    vector: np.ndarray
    residual: float


def eig_full_jacobi(A, tol: float = 1e-13, max_sweeps: int = 50, h: float = 1.0):
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Capped at n <= 256.  Returns eigenpairs sorted ascending, as a tuple
    with read-only vectors: a call with the same matrix bytes and arguments
    returns the first call's result.
    """
    m = _as_matrix(A)
    n = m.shape[0]
    if n > 256:
        raise ValueError(f"jacobi oracle is capped at n=256, got n={n}")
    return _cached_jacobi(m.tobytes(), n, tol, max_sweeps, h)


@functools.cache
def _cached_jacobi(matrix: bytes, n: int, tol: float, max_sweeps: int, h: float):
    m = np.frombuffer(matrix).reshape(n, n)
    a = m.copy()
    V = np.eye(n)
    norm = np.linalg.norm(a)
    diag_mask = np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a[~diag_mask])
        if off <= tol * norm:
            break
        thresh = off / n
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= thresh * 1e-4:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                V[:, p] = c * vp - s * V[:, q]
                V[:, q] = s * vp + c * V[:, q]
    values = np.diag(a).copy()
    order = np.argsort(values)
    scale = 1.0 / np.sqrt(h)
    pairs = []
    for j in order:
        lam = float(values[j])
        r = float(np.linalg.norm(m @ V[:, j] - lam * V[:, j]))
        vector = V[:, j] * scale
        vector.flags.writeable = False
        pairs.append(JacobiPair(value=lam, vector=vector, residual=r))
    return tuple(pairs)


def pgd_reference(op, cfg) -> OptimResult:
    """Projected gradient descent on the reduced cost in nodal values.

    The same start, Armijo steps, stopping rule and iteration cap
    (control.PGD_MAX_ITER) as pgd_solve, but every trial control gets its
    state from a Cholesky solve with A.
    """
    grid = op.grid
    mu = cfg.mu
    chol = scipy.linalg.cho_factor(op.matrix, lower=True)
    f = project_annulus(np.ones(grid.n), cfg.a, cfg.b, grid)
    step = _step(op, mu)
    u = scipy.linalg.cho_solve(chol, f, check_finite=False)
    J = _cost(f, u, mu, grid)
    pg_res = np.inf
    it = 0
    converged = False
    while it < control.PGD_MAX_ITER:
        it += 1
        grad = u + mu * f
        used = 4.0 * step
        while True:
            f_new = project_annulus(f - used * grad, cfg.a, cfg.b, grid)
            u_new = scipy.linalg.cho_solve(chol, f_new, check_finite=False)
            dn = norm_h(f_new - f, grid)
            J_new = _cost(f_new, u_new, mu, grid)
            if J_new <= J - 1e-4 / max(used, 1e-300) * dn**2 or used < 1e-12 * step:
                J = J_new
                break
            used *= 0.5
        pg_res = dn / used
        f, u = f_new, u_new
        if pg_res <= cfg.tol:
            converged = True
            break

    f = _sign_normalize(f)
    u = op.solve(f)
    return OptimResult(
        f_star=f,
        u_star=u,
        J_star=_cost(f, u, mu, grid),
        grad_norm=pg_res,
        iters=it,
        converged=converged,
        active_bound=_active_bound(norm_h(f, grid), cfg.a, cfg.b, cfg.tol),
    )


def pgd_eigenbasis_reference(op, cfg) -> OptimResult:
    """pgd_solve's eigenbasis iteration, every trial through the checked helpers.

    The same start, Armijo steps, stopping rule and iteration cap
    (control.PGD_MAX_ITER) as pgd_solve.

    Each trial forms d, its projection with project_annulus and c_new - c
    as arrays and measures them with norm_h and inner_product_h.  pgd_solve
    takes the same numbers as sums over the squared coefficients, which
    round differently, so the two agree to tolerances, not bit for bit.

    The coefficients are those of the whole operator: the even half's in
    the basis of fraclap.linalg.even_basis, which pgd_solve uses, and the
    odd half's in the eigenbasis of its own half matrix.  The even basis
    must be pgd_solve's: the iteration amplifies round-off, and the last
    bits of another eigenbasis move an Armijo run further than the
    tolerances (LAPACK dsyevr's basis of the whole matrix moves J_star by
    3.2e-4 relative at n = 64, a = 0, b = 1).  The odd coefficients are
    carried through every trial, so that pgd_solve's leaving them out is
    checked, not assumed.
    """
    grid = op.grid
    n, m = grid.n, grid.n // 2
    col = np.ldexp(op.col, op.exponent)  # the true-scale column, as pgd_solve's basis takes it
    basis = linalg.even_basis(col)
    lam_odd, V_odd = scipy.linalg.eigh(linalg._half_matrix(col, -1))
    lam = np.concatenate((basis.values, lam_odd))
    if not (np.all(np.isfinite(lam)) and lam.min() > 0.0):
        raise SolveError(f"matrix is not positive definite: eigenvalues span "
                         f"[{lam.min():.3e}, {lam.max():.3e}]")
    q = 1.0 / lam + cfg.mu
    k = len(basis.values)

    def coefficients(v):
        odd = V_odd.T @ ((v[:m] - v[::-1][:m]) / math.sqrt(2.0))
        return np.concatenate((basis.coefficients(v), odd))

    def nodal(c):
        return basis.nodal(c[:k]) + linalg._lift(V_odd @ c[k:], -1, n) / math.sqrt(2.0)

    def project(c):
        p = project_annulus(c, cfg.a, cfg.b, grid)
        # The zero vector projects to the constant direction, given in nodal values.
        return coefficients(p) if cfg.a > 0.0 and np.count_nonzero(c) == 0 else p

    c = coefficients(project_annulus(np.ones(n), cfg.a, cfg.b, grid))
    step = _step(op, cfg.mu)
    grad = q * c
    J = 0.5 * inner_product_h(grad, c, grid)
    pg_res = np.inf
    it = 0
    converged = False
    while it < control.PGD_MAX_ITER:
        it += 1
        used = 4.0 * step
        while True:
            c_new = project(c - used * grad)
            grad_new = q * c_new
            dn = norm_h(c_new - c, grid)
            J_new = 0.5 * inner_product_h(grad_new, c_new, grid)
            if J_new <= J - 1e-4 / max(used, 1e-300) * dn**2 or used < 1e-12 * step:
                J = J_new
                break
            used *= 0.5
        pg_res = dn / used
        c, grad = c_new, grad_new
        if pg_res <= cfg.tol:
            converged = True
            break

    f = _sign_normalize(nodal(c))
    u = op.solve(f)
    return OptimResult(
        f_star=f,
        u_star=u,
        J_star=_cost(f, u, cfg.mu, grid),
        grad_norm=pg_res,
        iters=it,
        converged=converged,
        active_bound=_active_bound(norm_h(f, grid), cfg.a, cfg.b, cfg.tol),
    )


def _format(value) -> str:
    """Shortest round-trip representation; floats use repr, ints stay exact."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv_rows(path: str, header: list[str], rows) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=".csv", dir=directory)
    try:
        with os.fdopen(fd, "w") as out:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_format(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


RHS_PRESETS = ("one", "sine", "hat")


def _fail(key, lines, message):
    where = f"line {lines[key]}: " if key in lines else ""
    raise ValueError(f"{where}{message}")


def validate_config(cfg, lines):
    """The CLI's own rule list for a merged RunConfig, before the library's objects checked it.

    lines maps each key read from the file to its line number.
    """
    for key in ("x_left", "x_right"):
        if not math.isfinite(getattr(cfg, key)):
            _fail(key, lines, f"{key} must be finite, got {getattr(cfg, key)}")
    if not cfg.x_left < cfg.x_right:
        _fail("x_right", lines, f"domain endpoints must satisfy x_left < x_right, "
                                f"got [{cfg.x_left}, {cfg.x_right}]")
    if not math.isfinite(cfg.x_right - cfg.x_left):
        _fail("x_right", lines, f"domain length x_right - x_left overflows, "
                                f"got [{cfg.x_left}, {cfg.x_right}]")
    if cfg.n < 3:
        _fail("n", lines, f"n must be at least 3, got {cfg.n}")
    if cfg.s is not None and not 0.0 < cfg.s < 1.0:
        _fail("s", lines, f"s must lie in (0, 1), got {cfg.s}")
    for s in cfg.s_list:
        if not 0.0 < s < 1.0:
            _fail("s_list", lines, f"every s in s_list must lie in (0, 1), got {s}")
    if any(b <= a for a, b in zip(cfg.s_list, cfg.s_list[1:])):
        _fail("s_list", lines, "s_list must be strictly ascending")
    if not (math.isfinite(cfg.mu) and cfg.mu > 0.0):
        _fail("mu", lines, f"mu must be positive and finite, got {cfg.mu}")
    if not (math.isfinite(cfg.a) and cfg.a >= 0.0):
        _fail("a", lines, f"a must be nonnegative and finite, got {cfg.a}")
    if not math.isfinite(cfg.b):
        _fail("b", lines, f"b must be finite, got {cfg.b}")
    if cfg.a > cfg.b:
        _fail("b" if "b" in lines else "a", lines, f"a > b ({cfg.a} > {cfg.b})")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        _fail("tol", lines, f"tol must be positive and finite, got {cfg.tol}")
    if cfg.rhs not in RHS_PRESETS:
        _fail("rhs", lines, f"unknown rhs preset '{cfg.rhs}' (available: {', '.join(RHS_PRESETS)})")
