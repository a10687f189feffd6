"""Command-line front end: config parsing, experiment dispatch, CSV output.

A config is checked by the library objects a subcommand builds; the CLI adds the file line.
"""

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np
import orjson

from . import limitlab
from .control import ControlConfig, eigen_solve_control
from .discretize import Grid, assemble_fractional, norm_h, scaled_norm
from .forward import solve_poisson
from .limitlab import default_s_ladder, validate_s_list
from .linalg import SolveError
from .specfun import frac_constant

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

# Named right-hand sides at the interior nodes x of the interval (lo, hi).
RHS_PRESETS = {
    "one": lambda x, lo, hi: np.ones(len(x)),
    "sine": lambda x, lo, hi: np.sin(np.pi * (x - lo) / (2.0 * (0.5 * (hi - lo)))),
    "hat": lambda x, lo, hi: 1.0 - np.abs(x - 0.5 * (lo + hi)) / (0.5 * (hi - lo)),
}


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


def _float_list(value: str) -> list[float]:
    items = [p.strip() for p in value.split(",") if p.strip()]
    if not items:
        raise ValueError("empty list")
    return [float(p) for p in items]


# Each config key's parser, from the type of its RunConfig field: adding a key is adding a field.
_KEY_PARSERS = {f.name: {float: float, int: int, str: str, float | None: float,
                         list[float]: _float_list}[f.type] for f in fields(RunConfig)}


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse "key = value" lines with '#' comments into a validated RunConfig.

    overrides maps keys to already parsed values that take precedence over
    the file's; the library's objects validate the merged config once.  Unknown
    keys, malformed values and constraint violations raise a ValueError, with
    the line of the key to blame when its value came from the file.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = _KEY_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed value for key '{key}': {exc}")
        lines[key] = lineno
    for key, value in (overrides or {}).items():
        values[key] = value
        lines.pop(key, None)
    cfg = RunConfig(**values)
    # The library's checks, each with the keys it blames; a FieldError names its own.
    checks = (((), cfg.grid),
              (("s",), lambda: cfg.s is None or frac_constant(cfg.s)),
              (("s_list",), lambda: validate_s_list(cfg.s_list)),
              ((), cfg.control),
              (("rhs",), lambda: _rhs_formula(cfg.rhs)))
    for keys, check in checks:
        try:
            check()
        except ValueError as exc:
            keys = getattr(exc, "fields", keys)
            where = next((f"line {lines[k]}: " for k in keys if k in lines), "")
            raise ValueError(f"{where}{exc}") from None
    return cfg


def _rhs_formula(name: str):
    if name not in RHS_PRESETS:
        raise ValueError(f"unknown rhs preset '{name}' (available: {', '.join(RHS_PRESETS)})")
    return RHS_PRESETS[name]


def rhs_preset(name: str, grid: Grid) -> np.ndarray:
    """Named right-hand sides sampled at the interior nodes."""
    return _rhs_formula(name)(grid.nodes(), grid.x_left, grid.x_right)


def _float_text(block):
    """repr(float(v)) of each value of a float block, the shortest round-trip text.

    orjson's Ryu writes the same shortest, correctly rounded digits as repr's
    dtoa, about 15 times faster, and in the same layout for zeros and for
    1e-4 <= |v| < 1e16. Outside that range the layouts differ (orjson writes
    0.00001, 1.5e-7 and 1e16 for repr's 1e-05, 1.5e-07 and 1e+16, and null
    for nan and inf), so those entries take repr. A block with no entry in
    range skips orjson.
    """
    values = np.ascontiguousarray(block, dtype=float)
    magnitude = np.abs(values)
    same = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0.0)
    if not same.any():
        return map(repr, values.tolist())
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    differ = np.flatnonzero(~same)
    for i, v in zip(differ.tolist(), values[differ].tolist()):
        texts[i] = repr(v)
    return texts


# Text of a block of one column, by its dtype kind: floats as repr(float(v)),
# ints exactly.
_COLUMN_TEXT = {
    "f": _float_text,
    "i": lambda block: map(str, block.tolist()),
    "u": lambda block: map(str, block.tolist()),
    "U": lambda block: block.tolist(),
}

CSV_BLOCK_ROWS = 1024


def write_csv(path: str, header: list[str], columns) -> None:
    """Atomic CSV write of equal-length columns: temp file in the target directory, then rename.

    Each column becomes text a block of CSV_BLOCK_ROWS rows at a time, so the
    temporary strings stay small: floats of any width as the repr of the
    Python float, by one orjson call per block (_float_text), ints exactly,
    strings as given. The bytes equal those of formatting each value on its
    own. A column count other than the header's, columns of unequal length
    and a column of any other dtype raise before the temp file exists.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"write_csv: {len(columns)} columns for a header of {len(header)}")
    for c in columns:
        if c.ndim != 1 or c.dtype.kind not in _COLUMN_TEXT:
            raise TypeError(f"write_csv: cannot write a {c.ndim}-d column of dtype {c.dtype}")
    lengths = sorted({len(c) for c in columns}) or [0]
    if len(lengths) > 1:
        raise ValueError(f"write_csv: columns of unequal length {lengths[0]} and {lengths[-1]}")
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=".csv", dir=directory)
    try:
        with os.fdopen(fd, "w") as out:
            out.write(",".join(header) + "\n")
            for start in range(0, lengths[0], CSV_BLOCK_ROWS):
                stop = start + CSV_BLOCK_ROWS
                texts = [_COLUMN_TEXT[c.dtype.kind](c[start:stop]) for c in columns]
                out.write("\n".join(map(",".join, zip(*texts))) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def exact_unit_ball_solution(x: np.ndarray, s: float) -> np.ndarray:
    """Closed-form state for a unit right-hand side on (-1, 1): c (1-x^2)^s."""
    c = math.sqrt(math.pi) * 4.0 ** (-s) / (math.gamma(s + 0.5) * math.gamma(s + 1.0))
    return c * np.maximum(1.0 - x**2, 0.0) ** s


def _cmd_validate(cfg: RunConfig) -> int:
    """Forward-solver check against the closed-form solution at n//4, n//2, n and 2n.

    On centre m and half-length R it is R^(2s) times the unit-ball one at (x - m) / R.
    """
    if cfg.n // 4 < 3:
        raise ValueError("validate runs n//4, n//2, n and 2n nodes and needs n >= 12, "
                         f"got n={cfg.n}")
    s = cfg.single_s()
    mid, R = 0.5 * cfg.x_left + 0.5 * cfg.x_right, 0.5 * cfg.x_right - 0.5 * cfg.x_left
    sizes = [cfg.n // 4, cfg.n // 2, cfg.n, 2 * cfg.n]
    errors = []
    print(f"validate: s={s}, f = 1, exact solution c*(1-x^2)^s")
    print(f"{'n':>6} {'rel_l2_error':>14} {'rate':>8}")
    for n in sizes:
        grid = Grid(cfg.x_left, cfg.x_right, n)
        sol = solve_poisson(assemble_fractional(grid, s), np.ones(n))
        exact = R ** (2.0 * s) * exact_unit_ball_solution((grid.nodes() - mid) / R, s)
        # One ratio of unit-scale norms: either norm alone may underflow on a tiny domain.
        (d, e_d), (x, e_x) = scaled_norm(sol.u - exact, grid), scaled_norm(exact, grid)
        err = math.ldexp(d / x, e_d - e_x)
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
    write_csv(os.path.join(cfg.out, "solution.csv"), ["x", "u", "f"], (x, sol.u, f))
    print(f"solved s={s} n={grid.n}: seminorm_sq={sol.seminorm_sq:.12g} "
          f"l2_norm_u={sol.l2_norm_u:.12g} -> solution.csv")
    return EXIT_OK


def _cmd_control(cfg: RunConfig) -> int:
    grid = cfg.grid()
    s = cfg.single_s()
    op = assemble_fractional(grid, s)
    result = eigen_solve_control(op, cfg.control())
    norm_f = norm_h(result.f_star, grid)
    if result.converged:
        write_csv(os.path.join(cfg.out, "control.csv"), ["x", "f_star", "u_star"],
                  (grid.nodes(), result.f_star, result.u_star))
    # The top pair's residual and gap, where the answer is built from it: not at a = 0.
    pair = f"residual={op.spectrum.residual:.3e} gap={op.spectrum.gap:.3e} " if cfg.a else ""
    print(f"control s={s} n={grid.n}: J_star={result.J_star:.12g} "
          f"norm_f={norm_f:.12g} active={result.active_bound} "
          f"grad_norm={result.grad_norm:.3e} {pair}converged={result.converged}"
          + (" -> control.csv" if result.converged else ""))
    if not result.converged:
        raise SolveError(f"control solve did not converge at s={s}")
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> int:
    report = limitlab.run_sweep(cfg.grid(), cfg.sweep_s_list(), cfg.control())
    header = [fld.name for fld in fields(limitlab.SweepRow)]
    write_csv(os.path.join(cfg.out, "sweep.csv"), header,
              [[getattr(row, name) for row in report.rows] for name in header])
    print(f"sweep over {len(report.rows)} orders vs classical "
          f"J_star={report.J_star_classical:.12g} -> sweep.csv")
    return EXIT_OK


def _cmd_gamma(cfg: RunConfig) -> int:
    grid = cfg.grid()
    control = cfg.control()
    s_list = cfg.sweep_s_list()
    target = 0.5 * cfg.a + 0.5 * cfg.b  # a + b can overflow
    f = rhs_preset("one", grid)
    f = f * (target / norm_h(f, grid))
    recovery, liminf = limitlab.gamma_check(grid, f, 0.1 * norm_h(f, grid), s_list, control)
    rows = [(r.clause, r.index, r.s, r.F_s, r.F_limit, r.margin)
            for r in recovery.rows + liminf.rows]
    write_csv(os.path.join(cfg.out, "gamma.csv"),
              ["clause", "index", "s", "F_s", "F", "margin"], zip(*rows))
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
OVERRIDES = ("out", "n", "s", "mu", "a", "b", "tol")


def dispatch(cfg: RunConfig, subcommand: str) -> int:
    """Run one subcommand; exit codes: 0 ok, 1 config, 2 numerical, 3 check failed."""
    try:
        if subcommand not in HANDLERS:
            raise ValueError(f"unknown subcommand '{subcommand}'")
        return HANDLERS[subcommand](cfg)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(f"out of memory: n={cfg.n} is too large for this machine", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # ArithmeticError: the OverflowError of discretize.scale_back, naming a value that
    # leaves the double range, or a Python float's overflow or division by zero.
    except (SolveError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG, not argparse's 2, with its one-line message."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# Built once at import: in-process callers of main reuse it.
_PARSER = _ArgumentParser(
    prog="fraclap",
    description="Fractional-Laplacian forward solves, norm-constrained "
                "optimal control, and classical-limit sweeps on an interval.",
)
_PARSER.add_argument("subcommand", choices=HANDLERS)
_PARSER.add_argument("--config", metavar="PATH", help="key = value config file")
for _key in OVERRIDES:
    _PARSER.add_argument(f"--{_key}", type=_KEY_PARSERS[_key],
                         help=f"override config key '{_key}'")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    overrides = {key: getattr(args, key) for key in OVERRIDES
                 if getattr(args, key) is not None}
    try:
        text = ""
        if args.config is not None:
            with open(args.config, encoding="utf-8") as handle:
                text = handle.read()
        cfg = parse_config(text, overrides)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # caught after UnicodeDecodeError, itself a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return dispatch(cfg, args.subcommand)


if __name__ == "__main__":
    sys.exit(main())
