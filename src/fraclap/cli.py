"""Command-line front end: config parsing, experiment dispatch, CSV output."""

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import limitlab
from .control import ControlConfig, eigen_solve_control
from .discretize import Grid, assemble_fractional, norm_h
from .forward import solve_poisson
from .limitlab import SweepConfig, default_s_ladder
from .linalg import FactorizationError
from .specfun import gamma

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

RHS_PRESETS = ("one", "sine", "hat")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    x_left: float = -1.0
    x_right: float = 1.0
    n: int = 256
    s: float | None = None  # single-order mode when set
    s_list: list[float] = field(default_factory=default_s_ladder)
    mu: float = 0.1
    a: float = 1.0
    b: float = 2.0
    tol: float = 1e-10
    rhs: str = "one"
    out: str = "."

    def grid(self) -> Grid:
        return Grid(self.x_left, self.x_right, self.n)

    def control(self) -> ControlConfig:
        return ControlConfig(mu=self.mu, a=self.a, b=self.b, tol=self.tol)

    def single_s(self) -> float:
        return 0.5 if self.s is None else self.s

    def sweep_s_list(self) -> list[float]:
        return [self.s] if self.s is not None else list(self.s_list)


def _parse_float(key, value, lineno):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed number for key '{key}': {value!r}")


def _parse_int(key, value, lineno):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed integer for key '{key}': {value!r}")


def _parse_s_list(key, value, lineno):
    items = [p.strip() for p in value.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"line {lineno}: empty list for key '{key}'")
    return [_parse_float(key, p, lineno) for p in items]


_KEY_PARSERS = {
    "x_left": _parse_float,
    "x_right": _parse_float,
    "n": _parse_int,
    "s": _parse_float,
    "s_list": _parse_s_list,
    "mu": _parse_float,
    "a": _parse_float,
    "b": _parse_float,
    "tol": _parse_float,
    "rhs": lambda key, value, lineno: value,
    "out": lambda key, value, lineno: value,
}


def parse_config(text: str) -> RunConfig:
    """Parse "key = value" lines with '#' comments into a validated RunConfig.

    Unknown keys, malformed numbers and constraint violations raise a
    ConfigError naming the key and line number.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        values[key] = _KEY_PARSERS[key](key, value, lineno)
        lines[key] = lineno
    cfg = RunConfig(**values)
    _validate(cfg, lines)
    return cfg


def _fail(key, lines, message):
    where = f"line {lines[key]}: " if key in lines else ""
    raise ConfigError(f"{where}{message}")


def _validate(cfg: RunConfig, lines=None):
    lines = lines or {}
    for key in ("x_left", "x_right"):
        if not math.isfinite(getattr(cfg, key)):
            _fail(key, lines, f"{key} must be finite, got {getattr(cfg, key)}")
    if not cfg.x_left < cfg.x_right:
        _fail("x_right", lines, f"domain endpoints must satisfy x_left < x_right, "
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


def rhs_preset(name: str, grid: Grid) -> np.ndarray:
    """Named right-hand sides sampled at the interior nodes."""
    x = grid.nodes()
    mid = 0.5 * (grid.x_left + grid.x_right)
    half = 0.5 * (grid.x_right - grid.x_left)
    if name == "one":
        return np.ones(grid.n)
    if name == "sine":
        return np.sin(np.pi * (x - grid.x_left) / (2.0 * half))
    if name == "hat":
        return 1.0 - np.abs(x - mid) / half
    raise ConfigError(f"unknown rhs preset '{name}'")


def _format(value) -> str:
    """Shortest round-trip representation; floats use repr, ints stay exact."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str, header: list[str], rows) -> None:
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


def exact_unit_ball_solution(x: np.ndarray, s: float) -> np.ndarray:
    """Closed-form state for a unit right-hand side on (-1, 1): c (1-x^2)^s."""
    c = math.sqrt(math.pi) * 4.0 ** (-s) / (gamma(s + 0.5) * gamma(s + 1.0))
    return c * np.maximum(1.0 - x**2, 0.0) ** s


def _cmd_validate(cfg: RunConfig) -> int:
    """Forward-solver check against the closed-form unit-ball solution."""
    if not (cfg.x_left, cfg.x_right) == (-1.0, 1.0):
        print("validate requires the domain (-1, 1) where the closed form holds",
              file=sys.stderr)
        return EXIT_CONFIG
    s = cfg.single_s()
    sizes = [64, 128, 256, 512]
    errors = []
    print(f"validate: s={s}, f = 1, exact solution c*(1-x^2)^s")
    print(f"{'n':>6} {'rel_l2_error':>14} {'rate':>8}")
    for n in sizes:
        grid = Grid(cfg.x_left, cfg.x_right, n)
        sol = solve_poisson(assemble_fractional(grid, s), np.ones(n))
        exact = exact_unit_ball_solution(grid.nodes(), s)
        err = norm_h(sol.u - exact, grid) / norm_h(exact, grid)
        # Observed order of convergence: log2 of the error ratio per doubling of n.
        rate = f" {math.log2(errors[-1] / err):8.2f}" if errors else ""
        errors.append(err)
        print(f"{n:>6} {err:>14.6e}{rate}")
    decreasing = all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] <= 0.03
    print(f"monotone decrease: {decreasing}; final error {errors[-1]:.4%} "
          f"(threshold 3%) -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_solve(cfg: RunConfig) -> int:
    grid = cfg.grid()
    s = cfg.single_s()
    f = rhs_preset(cfg.rhs, grid)
    sol = solve_poisson(assemble_fractional(grid, s), f)
    x = grid.nodes()
    write_csv(os.path.join(cfg.out, "solution.csv"), ["x", "u", "f"],
              zip(x, sol.u, f))
    print(f"solved s={s} n={grid.n}: seminorm_sq={sol.seminorm_sq:.12g} "
          f"l2_norm_u={sol.l2_norm_u:.12g} -> solution.csv")
    return EXIT_OK


def _cmd_control(cfg: RunConfig) -> int:
    grid = cfg.grid()
    s = cfg.single_s()
    op = assemble_fractional(grid, s)
    result = eigen_solve_control(op, cfg.control())
    if result.converged:
        write_csv(os.path.join(cfg.out, "control.csv"), ["x", "f_star", "u_star"],
                  zip(grid.nodes(), result.f_star, result.u_star))
    print(f"control s={s} n={grid.n}: J_star={result.J_star:.12g} "
          f"norm_f={norm_h(result.f_star, grid):.12g} active={result.active_bound} "
          f"grad_norm={result.grad_norm:.3e} residual={op.top_pair.residual:.3e} "
          f"gap={op.top_pair.gap:.3e} converged={result.converged}"
          + (" -> control.csv" if result.converged else ""))
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _cmd_sweep(cfg: RunConfig) -> int:
    sweep_cfg = SweepConfig(grid=cfg.grid(), s_list=cfg.sweep_s_list(),
                            control=cfg.control())
    report = limitlab.run_sweep(sweep_cfg)
    if any(row.error for row in report.rows):
        for row in report.rows:
            if row.error:
                print(f"s={row.s}: {row.error}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_csv(
        os.path.join(cfg.out, "sweep.csv"),
        ["s", "J_star", "dist_f", "dist_u", "align", "lambda_max",
         "seminorm_sq", "poincare_c"],
        ((r.s, r.J_star, r.dist_f, r.dist_u, r.align, r.lambda_max,
          r.seminorm_sq, r.poincare_c) for r in report.rows),
    )
    print(f"sweep over {len(report.rows)} orders vs classical "
          f"J_star={report.J_star_classical:.12g} -> sweep.csv")
    return EXIT_OK


def _cmd_gamma(cfg: RunConfig) -> int:
    grid = cfg.grid()
    control = cfg.control()
    s_list = cfg.sweep_s_list()
    target = 0.5 * (cfg.a + cfg.b)
    f = rhs_preset("one", grid)
    f = f * (target / norm_h(f, grid))
    recovery = limitlab.recovery_sequence_check(grid, f, s_list, control)
    c = 0.1 * norm_h(f, grid)
    liminf = limitlab.liminf_check(grid, f, c, s_list, control)
    rows = [(r.clause, r.index, r.s, r.F_s, r.F_limit, r.margin)
            for r in recovery.rows + liminf.rows]
    write_csv(os.path.join(cfg.out, "gamma.csv"),
              ["clause", "index", "s", "F_s", "F", "margin"], rows)
    print(f"gamma checks: recovery={'pass' if recovery.ok else 'fail'} "
          f"liminf={'pass' if liminf.ok else 'fail'} -> gamma.csv")
    return EXIT_OK


HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "control": _cmd_control,
    "sweep": _cmd_sweep,
    "gamma": _cmd_gamma,
}

# Command-line flags that override the config key of the same name.
OVERRIDES = {"out": str, "n": int, "s": float, "mu": float, "a": float, "b": float,
             "tol": float}


def dispatch(cfg: RunConfig, subcommand: str) -> int:
    """Run one subcommand; exit codes: 0 ok, 1 config, 2 numerical, 3 check failed."""
    if subcommand not in HANDLERS:
        print(f"unknown subcommand '{subcommand}'", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return HANDLERS[subcommand](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(f"out of memory: n={cfg.n} is too large for the dense solver", file=sys.stderr)
        return EXIT_CONFIG
    except (FactorizationError, limitlab.SweepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG, not argparse's 2, with its one-line message."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fraclap",
        description="Fractional-Laplacian forward solves, norm-constrained "
                    "optimal control, and classical-limit sweeps on an interval.",
    )
    parser.add_argument("subcommand", choices=HANDLERS)
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, kind in OVERRIDES.items():
        parser.add_argument(f"--{key}", type=kind, help=f"override config key '{key}'")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config) as handle:
                cfg = parse_config(handle.read())
        else:
            cfg = RunConfig()
        overrides = {key: getattr(args, key) for key in OVERRIDES
                     if getattr(args, key) is not None}
        if overrides:
            cfg = replace(cfg, **overrides)
            _validate(cfg)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return dispatch(cfg, args.subcommand)


if __name__ == "__main__":
    sys.exit(main())
