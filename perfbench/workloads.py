"""Workload definitions: the ops each workload runs and the checks on their outputs.

An op is one in-process call to ``fraclap.cli.main(argv)``, or to a library
entry point where the CLI has no subcommand for it (``pgd_solve``).  Every
output is checked against a reference computed here: the closed-form
unit-load state from ``math.gamma`` for forward solves, and
``scipy.linalg.eigh(subset_by_index=...)`` eigenpairs for the control
problem.  No reference is taken from fraclap itself; only the discrete
operator (the matrix the program defines) is assembled by fraclap.
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# Entry points are looked up on their modules at call time, so that the
# tracer's wrappers (installed on those modules) see every call.
from fraclap import cli, control, discretize
from fraclap.control import ControlConfig
from fraclap.discretize import Grid

WORKLOADS = ("forward", "control")

# Largest seed-driven shift of a nominal order s.  Iteration counts of the
# eigen and gradient solvers move ~10 % per 0.02 of s, so the shift is kept
# small enough that the seed does not change an op's cost.  The sweep ladder
# s_k = 1 - 2^-k cannot shift by an absolute amount near s = 1, so its gaps
# 1 - s_k are scaled by a factor within (1 - JITTER, 1 + JITTER) instead.
JITTER = 0.005

# Relative errors below this level are round-off for these grid sizes
# (condition numbers up to ~1e5 times double-precision epsilon, with margin),
# so max_rel_err reports at least this value.
ERR_FLOOR = 1e-9

# Pass/fail thresholds.  FORWARD_TOL is the release gate of `fraclap validate`
# (3 % relative L2 error against the closed form).  PGD_TOL admits what the
# optimizer cross-check (acceptance criterion 5) admits: a converged iterate
# that may stop short of the optimum on the clustered top of the spectrum
# (5e-5 above it at n = 128, 2e-3 at n = 24), never below it.
FORWARD_TOL = 0.03
EIGVEC_TOL = 1e-4
VALUE_TOL = 1e-8
PGD_TOL = 1e-2

MU, A, B = 0.1, 1.0, 2.0
PGD_CONFIG = dict(mu=MU, a=A, b=B, tol=1e-6, step_rule="armijo")

# Sizes of the measured workloads and of the tiny-n smoke mode.
SIZES = {
    "full": {"forward": (1024, 2048, 4096), "control": 256, "pgd": 128, "sweep": 128,
             "warmup": 32},
    "smoke": {"forward": (32, 64, 128), "control": 24, "pgd": 24, "sweep": 16,
              "warmup": 16},
}
FORWARD_S = (0.25, 0.5, 0.9)
CONTROL_S = (0.25, 0.5, 0.75)


def closed_form(x: np.ndarray, s: float) -> np.ndarray:
    """State of the unit load on (-1, 1): c_s (1 - x^2)^s."""
    c = math.sqrt(math.pi) * 4.0 ** (-s) / (math.gamma(s + 0.5) * math.gamma(s + 1.0))
    return c * np.maximum(1.0 - x**2, 0.0) ** s


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def _rel_scalar(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _read_csv(path: str) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{os.path.basename(path)} holds non-finite values")
    return data


class CheckFailed(Exception):
    """An op's output does not match the benchmark's reference."""


@dataclass(frozen=True)
class ControlReference:
    """Top eigenpair of the operator and the optimal control it defines."""

    lam_max: float
    lam_min: float
    f_star: np.ndarray
    J_star: float


def control_reference(matrix: np.ndarray, h: float) -> ControlReference:
    """Global minimizer of the annulus problem: a times the top eigenvector."""
    n = matrix.shape[0]
    lam, vec = scipy.linalg.eigh(matrix, subset_by_index=[n - 1, n - 1])
    lam_min = scipy.linalg.eigh(matrix, subset_by_index=[0, 0], eigvals_only=True)[0]
    v = vec[:, 0] * (A / math.sqrt(h * float(vec[:, 0] @ vec[:, 0])))
    return ControlReference(lam_max=float(lam[0]), lam_min=float(lam_min), f_star=v,
                            J_star=A * A / (2.0 * float(lam[0])) + 0.5 * MU * A * A)


def _up_to_sign(f: np.ndarray, ref: np.ndarray) -> float:
    return min(_rel(f, ref), _rel(-f, ref))


def _stdout_value(text: str, key: str) -> float:
    for token in text.split():
        if token.startswith(key + "="):
            return float(token.split("=", 1)[1])
    raise CheckFailed(f"no {key}= in the command output")


@dataclass
class Op:
    """One unit of work: ``run`` is timed, ``check`` is not.

    ``check`` returns the largest relative error against the reference
    (floored at ERR_FLOOR) or raises CheckFailed.
    """

    kind: str
    n: int
    s: float
    workdir: str
    config_path: str = ""
    ladder: tuple = ()
    reference: object = field(default=None, repr=False)
    stdout: str = field(default="", repr=False)
    result: object = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return f"{self.kind}(n={self.n}, s={self.s:.6g})"

    def prepare(self) -> None:
        """Compute the reference once, before any timing."""
        if self.kind == "solve":
            self.reference = closed_form(Grid(-1.0, 1.0, self.n).nodes(), self.s)
        elif self.kind in ("control", "pgd"):
            op = discretize.assemble_fractional(Grid(-1.0, 1.0, self.n), self.s)
            self.reference = control_reference(op.matrix, op.grid.h)
        elif self.kind == "sweep":
            grid = Grid(-1.0, 1.0, self.n)
            self.reference = {
                s: control_reference(discretize.assemble_fractional(grid, s).matrix, grid.h)
                for s in self.ladder}

    def _cli(self, argv) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        self.stdout += out.getvalue()
        return code

    def run(self):
        """The timed call; returns the CLI exit codes (0 for library ops)."""
        self.stdout = ""
        if self.kind == "solve":
            return (self._cli(["solve", "--n", str(self.n), "--s", repr(self.s),
                               "--out", self.workdir]),)
        if self.kind == "control":
            return (self._cli(["control", "--n", str(self.n), "--s", repr(self.s),
                               "--out", self.workdir]),)
        if self.kind == "pgd":
            op = discretize.assemble_fractional(Grid(-1.0, 1.0, self.n), self.s)
            self.result = control.pgd_solve(op, ControlConfig(**PGD_CONFIG))
            return (0,)
        if self.kind == "sweep":
            common = ["--config", self.config_path, "--n", str(self.n), "--out", self.workdir]
            return (self._cli(["sweep"] + common), self._cli(["gamma"] + common))
        raise ValueError(f"unknown op kind {self.kind!r}")

    def check(self, codes) -> float:
        if any(code != 0 for code in codes):
            raise CheckFailed(f"exit codes {codes}: {self.stdout.strip()[-200:]}")
        return max(ERR_FLOOR, getattr(self, "_check_" + self.kind)())

    def _check_solve(self) -> float:
        data = _read_csv(os.path.join(self.workdir, "solution.csv"))
        x, u, f = data[:, 0], data[:, 1], data[:, 2]
        if len(u) != self.n or not np.allclose(x, Grid(-1.0, 1.0, self.n).nodes(),
                                                rtol=0, atol=1e-12):
            raise CheckFailed("solution.csv does not hold the grid nodes")
        if not np.all(f == 1.0):
            raise CheckFailed("solution.csv right-hand side is not the unit load")
        err = _rel(u, self.reference)
        if not err <= FORWARD_TOL:
            raise CheckFailed(f"relative L2 error {err:.3e} above {FORWARD_TOL}")
        return err

    def _check_control(self) -> float:
        ref = self.reference
        data = _read_csv(os.path.join(self.workdir, "control.csv"))
        f, u = data[:, 1], data[:, 2]
        errs = {
            "f_star": _up_to_sign(f, ref.f_star),
            "u_star": _up_to_sign(u, ref.f_star / ref.lam_max),
            "J_star": _rel_scalar(_stdout_value(self.stdout, "J_star"), ref.J_star),
        }
        if not (errs["f_star"] <= EIGVEC_TOL and errs["u_star"] <= EIGVEC_TOL
                and errs["J_star"] <= VALUE_TOL):
            raise CheckFailed(f"control errors {errs}")
        return max(errs.values())

    def _check_pgd(self) -> float:
        # The annulus is nonconvex: the gradient method must converge, may not
        # undercut the global optimum, and must come within PGD_TOL of it.
        ref, res = self.reference, self.result
        if not res.converged:
            raise CheckFailed(f"pgd did not converge in {res.iters} iterations")
        if res.J_star < ref.J_star - 1e-12:
            raise CheckFailed(f"pgd J_star {res.J_star!r} below the optimum {ref.J_star!r}")
        err = _rel_scalar(res.J_star, ref.J_star)
        if not err <= PGD_TOL:
            raise CheckFailed(f"pgd J_star relative error {err:.3e} above {PGD_TOL}")
        return err

    def _check_sweep(self) -> float:
        if "recovery=pass" not in self.stdout or "liminf=pass" not in self.stdout:
            raise CheckFailed(f"gamma verdicts failed: {self.stdout.strip()[-200:]}")
        rows = _read_csv(os.path.join(self.workdir, "sweep.csv"))
        if rows.shape != (len(self.ladder), 8) or tuple(rows[:, 0]) != self.ladder:
            raise CheckFailed("sweep.csv rows do not match the configured ladder")
        worst = 0.0
        for row in rows:
            ref = self.reference[row[0]]
            errs = (
                _rel_scalar(row[1], ref.J_star),
                _rel_scalar(row[5], ref.lam_max),
                _rel_scalar(row[6], A * A / ref.lam_max),
                _rel_scalar(row[7], 1.0 / ref.lam_min),
            )
            if not max(errs) <= VALUE_TOL:
                raise CheckFailed(f"sweep row s={row[0]!r} errors {errs}")
            worst = max(worst, *errs)
        return worst

    def output_bytes(self) -> bytes:
        """Bytes that must repeat exactly across repeats of the same config."""
        if self.kind != "sweep":
            return b""
        parts = []
        for name in ("sweep.csv", "gamma.csv"):
            with open(os.path.join(self.workdir, name), "rb") as handle:
                parts.append(handle.read())
        return b"\0".join(parts)


def _jitter(rng: random.Random, s: float) -> float:
    return s + rng.uniform(-JITTER, JITTER)


def build_cycle(workload: str, seed: int, workdir: str, size: str = "full") -> list[Op]:
    """The ops of one cycle; the seed only jitters orders (the (n, s) set is fixed)."""
    rng = random.Random(f"{workload}:{seed}")
    sz = SIZES[size]
    os.makedirs(workdir, exist_ok=True)
    if workload == "forward":
        ops = [Op("solve", n, _jitter(rng, s), workdir)
               for n in sz["forward"] for s in FORWARD_S]
    elif workload == "control":
        ops = [Op("control", sz["control"], _jitter(rng, s), workdir) for s in CONTROL_S]
        ops += [Op("pgd", sz["pgd"], _jitter(rng, s), workdir) for s in CONTROL_S]
        # Default ladder s_k = 1 - 2^-k with each gap 1 - s_k scaled by the seed.
        ladder = tuple(1.0 - 2.0 ** (-k) * (1.0 + rng.uniform(-JITTER, JITTER))
                       for k in range(1, 11))
        config = os.path.join(workdir, "sweep.cfg")
        with open(config, "w") as handle:
            handle.write(f"mu = {MU!r}\na = {A!r}\nb = {B!r}\n")
            handle.write("s_list = " + ", ".join(repr(s) for s in ladder) + "\n")
        ops.append(Op("sweep", sz["sweep"], ladder[0], workdir, config_path=config,
                      ladder=ladder))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops


def cycle_order(ops: list[Op], seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle in a seed-dependent order."""
    order = list(ops)
    random.Random(f"order:{seed}:{cycle}").shuffle(order)
    return order


def warmup_ops(workload: str, workdir: str, size: str = "full") -> list[Op]:
    """One small op of each kind the workload runs, to trigger lazy set-up."""
    n = SIZES[size]["warmup"]
    ops = build_cycle(workload, 0, workdir, size)
    kinds = {op.kind: op for op in ops}
    return [Op(kind, n, op.s, workdir, config_path=op.config_path, ladder=op.ladder)
            for kind, op in kinds.items()]
