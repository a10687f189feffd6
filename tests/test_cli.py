import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fraclap.cli
import fraclap.limitlab
import fraclap.linalg
import oracles
from fraclap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    dispatch,
    exact_unit_ball_solution,
    main,
    parse_config,
    rhs_preset,
    write_csv,
)
from fraclap.discretize import Grid, assemble_fractional, scaled_norm
from fraclap.limitlab import default_s_ladder


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


class TestParseConfig:
    def test_single_order_mode(self):
        cfg = parse_config("n = 128\ns = 0.5")
        assert cfg.n == 128
        assert cfg.s == 0.5
        assert cfg.sweep_s_list() == [0.5]

    def test_reversed_bounds_name_line(self):
        with pytest.raises(ValueError) as err:
            parse_config("a = 2\nb = 1")
        assert "a > b" in str(err.value)
        assert "line 2" in str(err.value)

    def test_empty_file_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.n == 256 and cfg.mu == 0.1 and cfg.a == 1.0 and cfg.b == 2.0
        assert cfg.tol == 1e-10
        assert cfg.s is None
        assert cfg.s_list == default_s_ladder(10)
        assert (cfg.x_left, cfg.x_right) == (-1.0, 1.0)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nn = 64  # trailing comment\n")
        assert cfg.n == 64

    def test_unknown_key(self):
        with pytest.raises(ValueError) as err:
            parse_config("order = 0.5")
        assert "line 1" in str(err.value) and "order" in str(err.value)

    def test_malformed_number(self):
        with pytest.raises(ValueError) as err:
            parse_config("n = 12\nmu = lots")
        assert "line 2" in str(err.value) and "mu" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ValueError):
            parse_config("just words")

    def test_s_list_parsing(self):
        cfg = parse_config("s_list = 0.25, 0.5, 0.75")
        assert cfg.s_list == [0.25, 0.5, 0.75]

    def test_s_out_of_range(self):
        with pytest.raises(ValueError) as err:
            parse_config("s = 1.5")
        assert "s" in str(err.value)

    def test_too_small_grid(self):
        with pytest.raises(ValueError):
            parse_config("n = 2")

    def test_unknown_rhs(self):
        with pytest.raises(ValueError):
            parse_config("rhs = gaussian")

    def test_nonfinite_values_name_line(self):
        for text in ("mu = nan", "n = 16\na = inf", "b = inf", "tol = inf",
                     "x_left = -inf", "n = 16\nx_right = inf", "x_right = nan"):
            with pytest.raises(ValueError) as err:
                parse_config(text)
            assert "finite" in str(err.value) and "line" in str(err.value)

    def test_seed_is_not_a_key(self):
        with pytest.raises(ValueError):
            parse_config("seed = 5")

    @pytest.mark.parametrize("text", ["workers = 2", "max_iter = 1", "scheme = monotone"])
    def test_removed_keys_are_unknown(self, text):
        with pytest.raises(ValueError, match="line 1: unknown key"):
            parse_config(text)

    def test_empty_s_list_names_line_and_key(self):
        with pytest.raises(ValueError, match="^line 1: malformed value for key 's_list': "):
            parse_config("s_list = ,")

    def test_overrides_win_and_drop_the_line_number(self):
        assert parse_config("a = 3", {"b": 5.0}) == RunConfig(a=3.0, b=5.0)
        with pytest.raises(ValueError) as err:
            parse_config("a = 3\nb = 2.5", {"a": 4.0})
        assert str(err.value) == "line 2: a > b (4.0 > 2.5)"

    def test_keys_and_flags_match_run_config_fields(self):
        assert set(fraclap.cli._KEY_PARSERS) == {f.name for f in fields(RunConfig)}
        assert set(fraclap.cli.OVERRIDES) <= set(fraclap.cli._KEY_PARSERS)


# Each key draws a valid value half the time, else a value on or across the edge of a
# rule or any float, so that the rules checked late are still the first to fail often.
_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 2.0, 3.0, 0.5, 1e-300,
          5e-324, 1e308, -1e308, 1.7976931348623157e308]
_ORDERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.5, -0.5, 0.25, 0.5,
                           0.75, 0.999, 5e-324]) | st.floats(min_value=-0.5, max_value=1.5)


def _float(valid):
    return st.one_of(valid, valid, st.sampled_from(_EDGES), st.floats(width=64))


# Endpoints in order, reversed, nonfinite, or so far apart that the length overflows.
_HUGE = st.sampled_from([1e308, 1.7976931348623157e308])
_VALUES = {
    "x_left": st.one_of(st.sampled_from([-1.0, 0.0, 5.0]), _HUGE.map(float.__neg__),
                        _float(st.just(-1.0))),
    "x_right": st.one_of(st.sampled_from([1.0, 2.0, 0.5]), _HUGE, _float(st.just(1.0))),
    "n": st.one_of(st.integers(min_value=3, max_value=4096), st.integers(min_value=-3, max_value=8),
                   st.integers(min_value=-2**40, max_value=2**40)),
    "s": st.floats(min_value=0.01, max_value=0.99) | _ORDERS,
    # Ascending orders in (0, 1); repeated or out of order; or some outside (0, 1).
    "s_list": st.one_of(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=4, unique=True)
        .map(sorted),
        st.lists(st.sampled_from([0.25, 0.5, 0.75, 0.999]), min_size=1, max_size=4),
        st.lists(_ORDERS, min_size=1, max_size=4)),
    "mu": _float(st.floats(min_value=1e-3, max_value=10.0)),
    "a": _float(st.floats(min_value=0.0, max_value=3.0)),
    "b": _float(st.floats(min_value=0.0, max_value=3.0)),
    "tol": _float(st.floats(min_value=1e-14, max_value=1e-3)),
    "rhs": st.sampled_from(["one", "sine", "hat", "gaussian", "One", "ones"]),
    "out": st.sampled_from([".", "results"]),
}


def _text(value) -> str:
    """The config text of a parsed value; repr round-trips every float, nan and inf included."""
    if isinstance(value, list):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


@st.composite
def _configs(draw):
    """A config text, its overrides, the merged values and the line each file key was last read from.

    Each key is absent, set once or set twice in the file, in a random order,
    and an overridable key is overridden one time in three.
    """
    text_lines, merged, lines, overrides = [], {}, {}, {}
    for key in draw(st.permutations(sorted(_VALUES))):
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            if draw(st.booleans()):
                text_lines.append("# a comment")
            merged[key] = draw(_VALUES[key])
            text_lines.append(f"{key} = {_text(merged[key])}")
            lines[key] = len(text_lines)
    for key in fraclap.cli.OVERRIDES:
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            merged[key] = overrides[key] = draw(_VALUES[key])
            lines.pop(key, None)
    return "\n".join(text_lines), overrides, merged, lines


class TestConfigRulesMatchReference:
    """parse_config, checking through the library objects, against the CLI's former rule list."""

    @seed(20261019)
    @settings(max_examples=400, deadline=None)
    @given(_configs())
    # The reference's order: the grid before s, so n = 2 is blamed, on line 2.
    @example(("s = 2.0\nn = 2", {}, {"s": 2.0, "n": 2}, {"s": 1, "n": 2}))
    @example(("a = 3.0\nb = 2.5", {"a": 4.0}, {"a": 4.0, "b": 2.5}, {"b": 2}))
    @example(("x_left = -1e+308\nx_right = 1e+308", {}, {"x_left": -1e308, "x_right": 1e308},
              {"x_left": 1, "x_right": 2}))
    def test_rejects_what_the_reference_rejects_naming_the_same_line(self, case):
        text, overrides, merged, lines = case
        try:
            oracles.validate_config(RunConfig(**merged), lines)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            cfg, got = parse_config(text, overrides), None
        except ValueError as exc:
            got = str(exc)
        assert (got is None) == (expected is None), (expected, got)
        if expected is None:
            assert cfg == RunConfig(**merged)
            return
        where = re.match(r"line \d+: ", expected)
        if where:
            assert got.startswith(where.group()), (expected, got)
        assert len(got.splitlines()) == 1

    def test_reversed_endpoints_fall_back_to_the_x_left_line(self):
        # The reference blamed the default x_right and printed no line.
        with pytest.raises(ValueError, match=r"^line 1: need x_left < x_right, got \[5.0, 1.0\]$"):
            parse_config("x_left = 5")


class TestRhsPresets:
    def test_one(self):
        g = Grid(-1.0, 1.0, 11)
        assert np.all(rhs_preset("one", g) == 1.0)

    def test_sine_vanishes_at_boundary_scale(self):
        g = Grid(-1.0, 1.0, 127)
        f = rhs_preset("sine", g)
        assert f.max() == pytest.approx(1.0, abs=1e-3)
        assert f[0] == pytest.approx(0.0, abs=0.05)

    def test_hat_peaks_at_center(self):
        g = Grid(-1.0, 1.0, 127)
        f = rhs_preset("hat", g)
        assert f[63] == pytest.approx(1.0, rel=1e-12)
        assert np.all(f >= 0.0)


class TestWriteCsv:
    def test_round_trip_floats(self, tmp_path):
        path = str(tmp_path / "values.csv")
        values = [1.0 / 3.0, 1e-17, 123456.789, float(np.pi)]
        write_csv(path, ["v"], [values])
        _, rows = read_csv(path)
        assert [float(r[0]) for r in rows] == values

    def test_no_partial_file_on_failure(self, tmp_path, monkeypatch):
        path = str(tmp_path / "broken.csv")
        seen = []

        def column_text(block):
            seen.extend(p.name for p in tmp_path.iterdir())
            yield "1.0"
            raise RuntimeError("interrupted")

        monkeypatch.setitem(fraclap.cli._COLUMN_TEXT, "f", column_text)
        with pytest.raises(RuntimeError):
            write_csv(path, ["v"], [np.ones(2)])
        assert not os.path.exists(path)
        assert list(tmp_path.iterdir()) == []
        assert [name.startswith(".tmp-") for name in seen] == [True]

    def test_temp_file_removed_when_rename_fails(self, tmp_path, monkeypatch):
        path = str(tmp_path / "renamed.csv")

        def replace(src, dst):
            assert os.path.basename(src).startswith(".tmp-") and dst == path
            raise OSError("rename failed")

        monkeypatch.setattr(fraclap.cli.os, "replace", replace)
        with pytest.raises(OSError, match="rename failed"):
            write_csv(path, ["v"], [np.ones(3)])
        assert list(tmp_path.iterdir()) == []

    def test_column_count_must_match_header(self, tmp_path):
        path = str(tmp_path / "short.csv")
        with pytest.raises(ValueError, match=r"\b2 columns for a header of 3\b"):
            write_csv(path, ["x", "u", "f"], [np.ones(4), np.ones(4)])
        assert list(tmp_path.iterdir()) == []

    def test_columns_must_have_equal_length(self, tmp_path):
        path = str(tmp_path / "ragged.csv")
        with pytest.raises(ValueError, match=r"unequal length 4 and 5\b"):
            write_csv(path, ["x", "u", "f"], [np.ones(4), np.ones(5), np.ones(4)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("column", [np.ones((2, 2)), [True, False], [1.0, None]],
                             ids=["2-d", "bool", "object"])
    def test_unformattable_column_writes_nothing(self, tmp_path, column):
        path = str(tmp_path / "bad.csv")
        with pytest.raises(TypeError, match="cannot write"):
            write_csv(path, ["v"], [column])
        assert list(tmp_path.iterdir()) == []


# Values whose shortest round-trip text is easy to get wrong: signed zero,
# non-finite values, the smallest subnormal and normal, both sides of repr's
# switch to exponent notation at 1e16 and 1e-4 and of orjson's at 1e-5, and a
# repeating fraction.
EDGE_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               1e16, -1e16, float(np.nextafter(1e16, 0.0)), 1e-4, float(np.nextafter(1e-4, 0.0)),
               1e-5, float(np.nextafter(1e-5, math.inf)), float(np.nextafter(1e-5, -math.inf)),
               1.0 / 3.0]


def _columns(kind, n):
    rng = np.random.default_rng(n)
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 307, n)
    single = (rng.standard_normal(n) * 10.0 ** rng.integers(-45, 37, n)).astype(np.float32)
    edge = np.resize(np.array(EDGE_FLOATS), n)
    int_column = [int(v) for v in rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64)]
    str_column = [("recovery", " liminf ", "")[i % 3] for i in range(n)]
    return {
        "edge": [edge, -edge, wide],
        "widths": [single, edge.astype(np.float32), wide.astype(np.longdouble)],
        "python_floats": [[float(v) for v in wide]],
        "int": [int_column, np.arange(n, dtype=np.uint64)],
        "str": [str_column],
        "mixed": [str_column, int_column, edge, single, list(wide)],
    }[kind]


class TestWriteCsvMatchesRowWriter:
    """write_csv's bytes equal those of the row-at-a-time reference writer."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4097])
    @pytest.mark.parametrize("kind", ["edge", "widths", "python_floats", "int", "str", "mixed"])
    def test_same_bytes(self, tmp_path, kind, n):
        columns = _columns(kind, n)
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(str(tmp_path / "columns.csv"), header, columns)
        oracles.write_csv_rows(str(tmp_path / "rows.csv"), header, zip(*columns))
        text = (tmp_path / "columns.csv").read_bytes()
        assert text == (tmp_path / "rows.csv").read_bytes()
        assert text.count(b"\n") == n + 1

    # Raw bit patterns cover subnormals, signed zeros, NaN payloads and infinities,
    # and the window 1e-5 <= |v| <= 1e17 puts entries on both sides of each layout switch.
    @seed(20261022)
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_bytes_on_raw_bit_patterns(self, data):
        n = data.draw(st.integers(min_value=2, max_value=80))
        window = st.integers(int(np.float64(1e-5).view(np.uint64)),
                             int(np.float64(1e17).view(np.uint64)))
        edges = np.array(EDGE_FLOATS).view(np.uint64).tolist()
        # The largest subnormal, a signalling NaN and a negative NaN besides EDGE_FLOATS.
        edges += [0x000FFFFFFFFFFFFF, 0x7FF0000000000001, 0xFFF8000000000000]
        bits64 = st.one_of(st.integers(0, 2**64 - 1), window, window.map(lambda b: b | 1 << 63),
                           st.sampled_from(edges))
        raw = [np.array(data.draw(st.lists(bits64, min_size=n, max_size=n)), dtype=np.uint64)
               for _ in range(2)]
        strided = np.empty(2 * n)
        strided[::2] = raw[1].view(np.float64)
        single = np.array(data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
                          dtype=np.uint32).view(np.float32)
        columns = [raw[0].view(np.float64), strided[::2], single]
        assert not columns[1].flags.c_contiguous
        with tempfile.TemporaryDirectory() as tmp:
            write_csv(os.path.join(tmp, "columns.csv"), ["x", "y", "z"], columns)
            oracles.write_csv_rows(os.path.join(tmp, "rows.csv"), ["x", "y", "z"], zip(*columns))
            with open(os.path.join(tmp, "columns.csv"), "rb") as got, \
                    open(os.path.join(tmp, "rows.csv"), "rb") as want:
                assert got.read() == want.read()

    @pytest.mark.parametrize("argv", [
        ["solve"], ["solve", "--n", "4096"], ["control"], ["sweep"], ["gamma"],
    ], ids=" ".join)
    def test_default_outputs(self, tmp_path, monkeypatch, argv):
        calls = []
        original = fraclap.cli.write_csv

        def capture(path, header, columns):
            columns = list(columns)
            calls.append((path, header, columns))
            original(path, header, columns)

        monkeypatch.setattr(fraclap.cli, "write_csv", capture)
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
        [(path, header, columns)] = calls
        oracles.write_csv_rows(str(tmp_path / "rows.csv"), header, zip(*columns))
        with open(path, "rb") as written:
            assert written.read() == (tmp_path / "rows.csv").read_bytes()


class TestExactUnitBallSolution:
    @pytest.mark.parametrize("s, c", [
        # c = sqrt(pi) 4^(-s) / (Gamma(s + 1/2) Gamma(s + 1)), with Gamma(1/4) Gamma(3/4)
        # = pi sqrt(2) at the quarter orders and Gamma(3/2) = sqrt(pi)/2 at s = 1/2.
        (0.25, 2.0 / math.sqrt(math.pi)),
        (0.5, 1.0),
        (0.75, 4.0 / (3.0 * math.sqrt(math.pi))),
    ])
    def test_closed_forms_without_gamma(self, s, c):
        x = np.linspace(-1.0, 1.0, 41)
        expected = c * (1.0 - x**2) ** s
        np.testing.assert_allclose(exact_unit_ball_solution(x, s), expected, rtol=1e-13, atol=0.0)


class TestDispatch:
    def test_validate_defaults_pass(self, capsys):
        cfg = RunConfig()
        assert dispatch(cfg, "validate") == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert out.count("\n") >= 5  # table with one line per grid size

    def test_validate_reports_observed_rate(self, capsys):
        assert dispatch(RunConfig(), "validate") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["n", "rel_l2_error", "rate"]
        table = [line.split() for line in lines[2:6]]
        assert len(table[0]) == 2  # no rate on the coarsest grid
        for prev, row in zip(table, table[1:]):
            ratio = float(prev[1]) / float(row[1])
            assert float(row[2]) == pytest.approx(math.log2(ratio), abs=0.01)

    def test_validate_runs_a_quarter_half_one_and_two_times_n(self, capsys):
        # The default n = 256 gives the table 64, 128, 256, 512; n = 2400 runs only the CG path.
        for n, sizes in ((256, [64, 128, 256, 512]), (2400, [600, 1200, 2400, 4800])):
            assert dispatch(RunConfig(n=n), "validate") == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert [int(line.split()[0]) for line in lines[2:6]] == sizes
            assert lines[-1].endswith("PASS")

    @pytest.mark.parametrize("n", [3, 11])
    def test_validate_refuses_a_quarter_below_three_nodes(self, n, capsys):
        assert main(["validate", "--n", str(n)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert f"n={n}" in captured.err

    @pytest.mark.parametrize("left, right", [(0.0, 2.0), (-1e-100, 1e-100)])
    def test_validate_on_another_domain_matches_the_unit_ball(self, left, right, monkeypatch,
                                                              capsys):
        # The closed form scaled to the domain: the relative errors are those on (-1, 1).
        # On (0, 2) the spacing and so the operator are (-1, 1)'s; on (-1e-100, 1e-100)
        # h rounds otherwise, and the solves' round-off, some 1e-14 of u, moved the
        # errors, near 1e-2, by up to 1.4e-12 of themselves here.
        def errors(lo, hi):
            norms = []

            def recorded_scaled_norm(v, grid):  # the error's norm, then the closed form's
                norms.append(scaled_norm(v, grid))
                return norms[-1]

            monkeypatch.setattr(fraclap.cli, "scaled_norm", recorded_scaled_norm)
            cfg = parse_config(f"x_left = {lo!r}\nx_right = {hi!r}\nn = 64\n")
            assert dispatch(cfg, "validate") == EXIT_OK
            capsys.readouterr()
            assert len(norms) == 8
            return [math.ldexp(d / x, e_d - e_x)
                    for (d, e_d), (x, e_x) in zip(norms[0::2], norms[1::2])]

        np.testing.assert_allclose(errors(left, right), errors(-1.0, 1.0), rtol=1e-11)

    def test_validate_on_a_tiny_domain_passes(self, tmp_path, capsys):
        # On (0, 1e-153) at s = 0.999 the closed form is about 1e-307 and its h-norm about
        # 1e-384, which reads 0; the ratio of unit-scale norms does not.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e-153\nn = 16\ns = 0.999\n")
        assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split()[1] for line in lines[2:6]] == [
            "4.816511e-04", "2.625766e-04", "1.178041e-04", "3.893973e-05"]
        assert lines[-1].endswith("-> PASS")

    def test_validate_failure_exit_code(self, monkeypatch):
        import fraclap.cli as cli_module

        monkeypatch.setattr(cli_module, "exact_unit_ball_solution",
                            lambda x, s: np.ones_like(x))
        assert dispatch(RunConfig(), "validate") == EXIT_CHECK_FAILED

    def test_solve_writes_solution(self, tmp_path):
        cfg = parse_config(f"n = 256\ns = 0.5\nout = {tmp_path}")
        assert dispatch(cfg, "solve") == EXIT_OK
        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["x", "u", "f"]
        assert len(rows) == 256
        middle = rows[len(rows) // 2]
        assert float(middle[1]) == pytest.approx(1.0, rel=0.03)
        assert float(middle[2]) == 1.0

    def test_control_writes_result(self, tmp_path, capsys):
        cfg = parse_config(f"n = 64\ns = 0.5\nout = {tmp_path}")
        assert dispatch(cfg, "control") == EXIT_OK
        header, rows = read_csv(tmp_path / "control.csv")
        assert header == ["x", "f_star", "u_star"]
        assert len(rows) == 64
        summary = capsys.readouterr().out
        assert "J_star=" in summary and "active=lower" in summary

    def test_sweep_has_sorted_ladder(self, tmp_path):
        cfg = parse_config(f"n = 64\nout = {tmp_path}")
        assert dispatch(cfg, "sweep") == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["s", "J_star", "dist_f", "dist_u", "align",
                          "lambda_max", "seminorm_sq", "poincare_c"]
        svals = [float(r[0]) for r in rows]
        assert len(svals) == 10
        assert svals == sorted(svals)
        assert svals == default_s_ladder(10)

    def test_sweep_numerical_failure_leaves_no_csv(self, tmp_path, monkeypatch):
        def boom(*args):
            raise fraclap.linalg.SolveError("reference failed")

        monkeypatch.setattr(fraclap.limitlab, "run_sweep", boom)
        cfg = parse_config(f"n = 64\nout = {tmp_path}")
        assert dispatch(cfg, "sweep") == EXIT_NUMERICAL
        assert not (tmp_path / "sweep.csv").exists()
        assert list(tmp_path.iterdir()) == []

    def test_sweep_failing_at_several_orders_prints_one_line(self, tmp_path, capsys,
                                                             orders_failing_from_075):
        # Orders 0.75 to 0.9990234375 all fail; the sweep stops at the first.
        code = main(["sweep", "--n", "32", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert err == "numerical failure: control solve did not converge at s=0.75\n"
        assert list(tmp_path.iterdir()) == []

    def test_control_without_a_top_gap_exits_numerical(self, tmp_path, capsys):
        # At s = 1e-12 the top eigenvalue's relative gap reads 0: no eigenvector is the answer.
        code = main(["control", "--s", "1e-12", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL and captured.out == ""
        assert captured.err == ("numerical failure: top eigenvalue is not separated at "
                                "s=1e-12: relative gap 0.000e+00\n")
        assert list(tmp_path.iterdir()) == []

    def test_gamma_writes_both_clauses(self, tmp_path):
        cfg = parse_config(f"n = 64\nout = {tmp_path}")
        assert dispatch(cfg, "gamma") == EXIT_OK
        header, rows = read_csv(tmp_path / "gamma.csv")
        assert header == ["clause", "index", "s", "F_s", "F", "margin"]
        clauses = {r[0] for r in rows}
        assert clauses == {"recovery", "liminf"}
        assert len(rows) == 20

    def test_gamma_assembles_each_order_once(self, tmp_path, monkeypatch, capsys):
        # Both clauses read one operator per order and one classical operator.
        counts = {"assemble_fractional": 0, "assemble_classical": 0}

        def counting(name):
            original = getattr(fraclap.limitlab, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)
            return counted

        for name in counts:
            monkeypatch.setattr(fraclap.limitlab, name, counting(name))
        assert main(["gamma", "--n", "64", "--out", str(tmp_path)]) == EXIT_OK
        assert "recovery=pass liminf=pass" in capsys.readouterr().out
        assert counts == {"assemble_fractional": 10, "assemble_classical": 1}

    def test_gamma_perturbation_leaving_the_annulus_exits_config(self, tmp_path, capsys):
        # ||f|| = 1.995 and c = 0.1995: f_1 leaves [1.99, 2] at once.
        code = main(["gamma", "--a", "1.99", "--b", "2", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == ("configuration error: perturbed control leaves the annulus at "
                                "k=1: ||f_k||=2.004950186413618, bounds [1.99, 2.0]\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand(self, capsys):
        assert dispatch(RunConfig(), "plot") == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: unknown subcommand 'plot'\n"

    def test_unknown_rhs_past_parse_config_exits_config(self, tmp_path, capsys):
        assert dispatch(RunConfig(rhs="gaussian", out=str(tmp_path)), "solve") == EXIT_CONFIG
        assert capsys.readouterr().err == ("configuration error: unknown rhs preset 'gaussian' "
                                           "(available: one, sine, hat)\n")


class TestMain:
    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n = 32\ns = 0.5\n")
        out_dir = tmp_path / "out"
        code = main(["solve", "--config", str(cfg_path), "--n", "64",
                     "--out", str(out_dir)])
        assert code == EXIT_OK
        _, rows = read_csv(out_dir / "solution.csv")
        assert len(rows) == 64  # the flag overrides the file value

    def test_bad_config_file_exit(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("a = 2\nb = 1\n")
        assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_missing_config_file_exit(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_invalid_override_exit(self):
        assert main(["solve", "--n", "2"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--mu", "inf"),
                                             ("--tol", "nan"), ("--tol", "inf")])
    def test_nonfinite_control_input_exits_config(self, flag, value, tmp_path, capsys):
        code = main(["control", "--n", "32", flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_config_with_one_line(self, tmp_path, monkeypatch, capsys):
        def no_memory(grid, s):
            raise MemoryError

        # Stands in for an allocation the machine cannot grant.
        monkeypatch.setattr(fraclap.cli, "assemble_fractional", no_memory)
        code = main(["solve", "--n", "200000", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "n=200000" in err
        assert list(tmp_path.iterdir()) == []

    def test_seed_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["solve", "--seed", "5"])

    @pytest.mark.parametrize("argv", [["solve", "--bogus"], ["solve", "--n", "abc"],
                                      ["sweep", "--workers", "2"]])
    def test_usage_errors_exit_config(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("fraclap: error: ") and len(err.strip().splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert "usage: fraclap" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["x_right = inf", "x_right = nan", "x_left = nan"])
    def test_nonfinite_endpoint_exits_config(self, text, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"n = 16\n{text}\n")
        out_dir = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "finite" in err and "line 2" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand, named", [
        # h ~ 6e-202: h^(-1.8) ~ 1e363 is beyond the double range, and so is every value
        # that carries it: u ~ 1e-363 underflows whole, lambda_max overflows.  The gamma
        # checks' costs are about mu/2 ||f||^2 and finite.
        ("solve", "underflowing u at"),
        ("sweep", "non-finite lambda_max at s=0.9,"),
        ("gamma", None),
    ])
    def test_tiny_spacing_names_the_value_that_leaves_the_range(self, subcommand, named,
                                                                 tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e-200\nn = 16\ns = 0.9\n")
        out_dir = tmp_path / "out"
        code = main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)])
        out, err = capsys.readouterr()
        if named is None:
            assert code == EXIT_OK and err == "" and "recovery=pass liminf=pass" in out
            return
        assert code == EXIT_NUMERICAL
        assert err == f"numerical failure: {named} grid spacing h=5.882e-202\n"
        assert out == "" and not out_dir.exists()

    def test_control_on_a_tiny_spacing_prints_its_finite_cost(self, tmp_path, capsys):
        # lambda_max ~ 1e363 on (0, 1e-200) at s = 0.9, but J_star = a^2 (1/lambda_max + mu) / 2
        # and the printed residual, relative to lambda_max, are finite.  The absolute
        # residual, about 1.8e347, was printed and overflowed, and the run exited 2.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e-200\nn = 16\ns = 0.9\n")
        out_dir = tmp_path / "out"
        assert main(["control", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and " J_star=0.05 " in out and "converged=True" in out
        assert float(re.search(r" residual=(\S+)", out).group(1)) <= 1e-14
        _, rows = read_csv(out_dir / "control.csv")
        assert len(rows) == 16

    @pytest.mark.parametrize("right", ["1e-317", "1e-320"])
    @pytest.mark.parametrize("subcommand", ["solve", "control"])
    def test_spacing_below_the_normal_range_exits_config(self, subcommand, right, tmp_path,
                                                         capsys):
        # Every h-pairing multiplies by h, which keeps only a few bits below 2.2e-308:
        # control printed J_star=0.05078125 on (0, 1e-320) with exit 0.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"x_left = 0\nx_right = {right}\nn = 16\n")
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and not out_dir.exists()
        assert re.fullmatch(r"configuration error: line 2: grid spacing h=\S+ is below the "
                            r"normal double range, got \[0\.0, \S+\] with n=16\n", err)

    def test_spacing_at_the_foot_of_the_normal_range_is_finite(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 4e-306\nn = 16\n")
        assert main(["control", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        assert " J_star=0.05 " in capsys.readouterr().out

    @pytest.mark.parametrize("right, s", [("1e-170", 0.9), ("1e-153", 0.999)])
    def test_control_beyond_the_range_of_the_diagonal(self, right, s, tmp_path, capsys):
        # The diagonal, twice the weights' sum, overflows at true scale: the control's
        # cost is a^2 (1/lambda_max + mu) / 2 = 0.05, as 1/lambda_max < 1e-300.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"x_left = 0\nx_right = {right}\nn = 16\ns = {s}\n")
        assert main(["control", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "converged=True" in out
        J_star = float(re.search(r"J_star=(\S+)", out).group(1))
        assert J_star == pytest.approx(0.05, rel=1e-12)

    def test_solve_beyond_the_range_of_the_diagonal(self, tmp_path, capsys):
        # u ~ 1e-309 is subnormal, and its h-norm and energy read 0 as in IEEE arithmetic.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e-153\nn = 16\ns = 0.999\n")
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "seminorm_sq=0 l2_norm_u=0 " in out
        _, rows = read_csv(tmp_path / "solution.csv")
        assert any(float(row[1]) > 0.0 for row in rows)

    def test_control_on_a_tiny_spacing_is_finite_or_fails_cleanly(self, tmp_path, capsys):
        # Entries near 1e201 at s = 0.5: the eigen residual's squares overflow, its norm need not.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e-200\nn = 16\n")
        code = main(["control", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_NUMERICAL)
        if code == EXIT_NUMERICAL:
            assert len(err.strip().splitlines()) == 1 and not (tmp_path / "out").exists()
            return
        assert err == "" and "converged=True" in out
        numbers = re.findall(r"=(-?inf|nan|[-+0-9.e]+)", out)
        assert len(numbers) >= 6 and all(math.isfinite(float(x)) for x in numbers)
        _, rows = read_csv(tmp_path / "out" / "control.csv")
        assert len(rows) == 16 and all(math.isfinite(float(x)) for row in rows for x in row)

    @pytest.mark.parametrize("subcommand, left, right, s, code, named", [
        # The classical reference's J_star, about L^2, and the gamma checks' costs.
        ("sweep", 0.0, 1e160, None, EXIT_NUMERICAL, "non-finite J_star at grid spacing h="),
        ("gamma", 0.0, 1e160, None, EXIT_NUMERICAL, "non-finite cost at grid spacing h="),
        # u grows like L^1.8 at s = 0.9; the control's cost like 1/lambda_max.
        ("solve", 0.0, 1e174, 0.9, EXIT_NUMERICAL, "non-finite u at grid spacing h=5.882e+172\n"),
        ("solve", 0.0, 1e182, 0.9, EXIT_NUMERICAL, "non-finite u at grid spacing h="),
        ("control", 0.0, 1e182, 0.9, EXIT_NUMERICAL,
         "non-finite J_star and grad_norm at grid spacing h=5.882e+180\n"),
        # The energy, about L^2, overflows; ||u||_h, about L^1.5, does not.
        ("solve", 0.0, 1e160, None, EXIT_NUMERICAL,
         "non-finite seminorm_sq at grid spacing h=5.882e+158\n"),
        ("solve", -1e308, 1e308, None, EXIT_CONFIG, "line 2: domain length"),
        ("control", -1e308, 1e308, None, EXIT_CONFIG, "line 2: domain length"),
    ])
    def test_huge_spacing_fails_with_one_line(self, subcommand, left, right, s, code, named,
                                              tmp_path, capsys):
        # Where a reported value overflows: one line naming it and h (or the endpoints'
        # line), no CSV, no warning.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"x_left = {left!r}\nx_right = {right!r}\nn = 16\n"
                            + ("" if s is None else f"s = {s}\n"))
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg_path), "--out", str(out_dir)]) == code
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and named in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("subcommand, printed", [
        ("solve", "l2_norm_u=3.91172576262e+224 "),
        ("sweep", "classical J_star=4.36239857844e+296 "),
    ])
    def test_wide_domain_prints_its_finite_values(self, subcommand, printed, tmp_path, capsys):
        # On (0, 1e150) ||u||_h and the sweep's distances are finite; their squares are not.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e150\nn = 16\n")
        assert main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and printed in out

    def test_gamma_on_a_huge_domain_completes(self, tmp_path, capsys):
        # The oscillation is scaled to the domain's centre and half-length, so its
        # h-norm is about c on (0, 1e150) as on (-1, 1).  On the raw nodes it was
        # 1.1e74, outside the annulus, and the run exited 1 as a configuration error.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("x_left = 0\nx_right = 1e150\nn = 16\n")
        out_dir = tmp_path / "out"
        assert main(["gamma", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out_dir / "gamma.csv")
        assert len(rows) == 20
        assert all(math.isfinite(float(x)) for row in rows for x in row[1:])

    def test_control_failure_leaves_no_csv(self, tmp_path, capsys):
        code = main(["control", "--n", "32", "--tol", "1e-300", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert "converged=False" in out and "control.csv" not in out
        assert err == "numerical failure: control solve did not converge at s=0.5\n"
        assert list(tmp_path.iterdir()) == []

    def test_printed_residual_is_the_one_compared_with_tol(self, tmp_path, capsys):
        # The default operator's top pair: at tol = its relative residual the run converges,
        # one float below it the run does not, and both print that residual.
        residual = assemble_fractional(Grid(-1.0, 1.0, 256), 0.5).spectrum.residual
        for tol, code, converged in ((residual, EXIT_OK, True),
                                     (math.nextafter(residual, 0.0), EXIT_NUMERICAL, False)):
            assert main(["control", "--tol", repr(tol), "--out", str(tmp_path)]) == code
            out = capsys.readouterr().out
            assert f" residual={residual:.3e} " in out and f"converged={converged}" in out

    @pytest.mark.parametrize("args", [["--tol", "1e-300"], ["--s", "1e-12"]])
    def test_zero_control_prints_no_pair(self, args, tmp_path, capsys):
        # At a = 0 the answer is 0 and reads no eigenpair, so none is printed: not the
        # residual 8.3e-16 above tol = 1e-300, nor the gap 0 at s = 1e-12.
        assert main(["control", "--a", "0", *args, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged=True" in out and "residual=" not in out and "gap=" not in out
        _, rows = read_csv(tmp_path / "control.csv")
        assert len(rows) == RunConfig().n and not any(map(float, rows[0][1:]))

    def test_control_at_large_n(self, tmp_path, capsys):
        assert main(["control", "--n", "1024", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged=True" in out and "residual=" in out and "gap=" in out
        _, rows = read_csv(tmp_path / "control.csv")
        assert len(rows) == 1024

    def test_flag_is_merged_before_validation(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("a = 3\n")
        out_dir = tmp_path / "out"
        code = main(["control", "--config", str(cfg_path), "--b", "5", "--n", "32",
                     "--out", str(out_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out_dir / "control.csv")
        assert len(rows) == 32

    def test_flag_replaces_an_invalid_file_value(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n = 2\n")
        code = main(["solve", "--config", str(cfg_path), "--n", "16",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "out" / "solution.csv")
        assert len(rows) == 16

    @pytest.mark.parametrize("text, argv, message", [
        ("a = 3\n", [], "configuration error: line 1: a > b (3.0 > 2.0)"),
        (None, ["--a", "3"], "configuration error: a > b (3.0 > 2.0)"),
        ("n = 1e3\n", [], "configuration error: line 1: malformed value for key 'n': "),
    ])
    def test_invalid_merged_config_exits_config(self, text, argv, message, tmp_path, capsys):
        if text is not None:
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(text)
            argv = argv + ["--config", str(cfg_path)]
        out_dir = tmp_path / "out"
        assert main(["control", *argv, "--out", str(out_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_undecodable_config_exits_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"\xff\xfe n = 3\n")
        out_dir = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("cannot read config: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("subpath", ["taken", "taken/sub"])
    def test_unwritable_out_exits_config(self, subpath, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        code = main(["solve", "--n", "16", "--out", str(tmp_path / subpath)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith("cannot write output: ")
        assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "not a directory\n"

    def test_identical_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["solve", "--n", "64", "--s", "0.5", "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--n", "64", "--s", "0.5", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


class TestSolvesNeedNoDenseMatrix:
    @pytest.mark.parametrize("n", [64, 1024])
    def test_solve_builds_no_dense_matrix(self, n, tmp_path, dense_matrices):
        assert main(["solve", "--n", str(n), "--out", str(tmp_path)]) == EXIT_OK
        assert dense_matrices == []
        _, rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == n

    @pytest.mark.parametrize("n", [64, 1024])
    def test_gamma_builds_no_dense_matrix(self, n, tmp_path, dense_matrices, capsys):
        assert main(["gamma", "--n", str(n), "--out", str(tmp_path)]) == EXIT_OK
        assert dense_matrices == []
        assert "recovery=pass liminf=pass" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [64, 1024])
    def test_control_builds_no_dense_matrix(self, n, tmp_path, dense_matrices, capsys):
        assert main(["control", "--n", str(n), "--out", str(tmp_path)]) == EXIT_OK
        assert dense_matrices == []
        assert "converged=True" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [64, 1024])
    def test_sweep_builds_no_dense_matrix(self, n, tmp_path, dense_matrices):
        assert main(["sweep", "--n", str(n), "--out", str(tmp_path)]) == EXIT_OK
        assert dense_matrices == []
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == len(default_s_ladder())

    def test_solves_do_not_import_scipy_fft(self, tmp_path):
        script = (
            "import sys\n"
            "from fraclap.cli import main\n"
            f"assert main(['control', '--out', {str(tmp_path)!r}]) == 0\n"
            f"assert main(['solve', '--n', '1024', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'scipy.fft' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(fraclap.cli.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    # One size on each side of PCG_MIN_N, with the solver toeplitz_solve calls there.
    @pytest.mark.parametrize("n, module, name",
                             [(fraclap.linalg.PCG_MIN_N - 1, scipy.linalg, "solve_toeplitz"),
                              (1024, fraclap.linalg, "_pcg")])
    def test_failed_toeplitz_solve_exits_numerical(self, n, module, name, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.setattr(module, name, lambda col, b, **kwargs: np.full(len(b), np.nan))
        code = main(["solve", "--n", str(n), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.err.startswith("numerical failure: ")
        assert "Traceback" not in captured.err and len(captured.err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestSolvesRunAtUnitScale:
    """Operator.solve, the one caller of toeplitz_solve, hands it a unit column and a unit b."""

    @pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 1e-200), (0.0, 1e150)])
    @pytest.mark.parametrize("subcommand", ["solve", "control", "sweep", "gamma"])
    def test_every_solve_is_at_unit_scale(self, subcommand, domain, tmp_path, monkeypatch,
                                          capsys):
        calls, solve = [], fraclap.linalg.toeplitz_solve

        def recorded(col, b):
            calls.append((float(np.abs(col).max()), float(np.abs(b).max())))
            return solve(col, b)

        monkeypatch.setattr(fraclap.linalg, "toeplitz_solve", recorded)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"x_left = {domain[0]!r}\nx_right = {domain[1]!r}\nn = 64\n")
        # On (0, 1e-200) solve and sweep exit 2 on a value that leaves the double range.
        assert main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) in (
            EXIT_OK, EXIT_NUMERICAL)
        capsys.readouterr()
        assert calls
        assert all(0.5 <= c < 1.0 and (b == 0.0 or 0.5 <= b < 1.0) for c, b in calls), calls


class TestLapackFailure:
    @pytest.mark.parametrize("subcommand", ["control", "sweep"])
    def test_exits_numerical_with_one_line(self, subcommand, tmp_path, monkeypatch, capsys):
        real = scipy.linalg.lapack.dstemr
        monkeypatch.setattr(scipy.linalg.lapack, "dstemr",
                            lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], 3))
        code = main([subcommand, "--n", "64", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.err == "numerical failure: LAPACK dstemr failed with info=3\n"
        assert list(tmp_path.iterdir()) == []


class TestOverflowNamesTheSpacing:
    """A reported value that overflows exits 2 with one stderr line naming h, and no CSV."""

    def test_control_exits_numerical_without_csv_or_warning(self, tmp_path, capsys):
        # ||f_star||_h = 1e200 is finite; J_star ~ 1e399 is the value that overflows.
        code = main(["control", "--a", "1e200", "--b", "1e200", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err == "numerical failure: non-finite J_star at grid spacing h=7.782e-03\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_cost_fails_the_same_way_at_every_n(self, tmp_path, capsys):
        # ||f_star||_h = 1e308 is finite, and its state is solved at unit scale by
        # Levinson (n = 256) or CG (n = 1024); J_star ~ 1e615 overflows.
        for n in (256, 1024):
            out = tmp_path / str(n)
            code = main(["control", "--n", str(n), "--a", "1e308", "--b", "1e308",
                         "--out", str(out)])
            captured = capsys.readouterr()
            assert code == EXIT_NUMERICAL
            assert captured.out == ""
            assert captured.err == (f"numerical failure: non-finite J_star at grid spacing "
                                    f"h={2.0 / (n + 1):.3e}\n")
            assert not out.exists()

    def test_sweep_exits_numerical_without_csv_or_warning(self, tmp_path, capsys):
        code = main(["sweep", "--n", "64", "--a", "1e200", "--b", "1e200",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.err.startswith("numerical failure: ")
        assert "Warning" not in captured.err and len(captured.err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, named", [
        # ||f||_h = 5.5e154 is finite, and so is its mu/2 ||f||^2 = 1.5e308, but
        # the cost F = 1/2 <u, f>_h + mu/2 ||f||^2 of the classical limit is 6.6e308.
        # Before, a valid annulus exited 1, after numpy's overflow warning, as if the
        # control lay outside it.
        (["gamma", "--a", "1e154", "--b", "1e155"], "cost"),
        # a + b overflowed, and the run exited 1.
        (["gamma", "--a", "1e308", "--b", "1e308"], "cost"),
        # It read "classical reference solve did not converge".
        (["sweep", "--n", "64", "--a", "1e200", "--b", "1e200"], "J_star"),
    ], ids=["gamma-1e154", "gamma-1e308", "sweep-1e200"])
    def test_one_line_naming_h(self, args, named, tmp_path, capsys):
        code = main(args + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert re.fullmatch(rf"numerical failure: non-finite {named} at grid spacing "
                            r"h=\d\.\d{3}e-\d\d\n", captured.err)
        assert not (tmp_path / "out").exists()

    def test_gamma_whose_squares_overflow_completes(self, tmp_path, capsys):
        # ||f||_h = 1.25e154: h sum f_i^2 is 1.6e308, but the sum alone overflowed,
        # and the run exited 2 naming norm_f.  Each cost is scaled back once.
        code = main(["gamma", "--a", "1e154", "--b", "1.5e154", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and err == ""
        assert out == "gamma checks: recovery=pass liminf=pass -> gamma.csv\n"
        _, rows = read_csv(tmp_path / "gamma.csv")
        assert all(math.isfinite(float(x)) for row in rows for x in row[1:])


def _log_uniform(lo, hi):
    """10^U(lo, hi): a float whose decimal exponent is uniform on [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


@st.composite
def _extreme_runs(draw):
    """A subcommand's arguments and config text, with a, mu, tol and the domain length anywhere."""
    a = draw(st.just(0.0) | _log_uniform(-300, 300))
    b = a * 10.0 ** draw(st.floats(min_value=0.0, max_value=3.0))
    length = draw(_log_uniform(-200, 200))
    left = draw(st.sampled_from([0.0, -0.5 * length, -1.0]))
    s = draw(st.none() | _log_uniform(-12, -1e-4)
             | _log_uniform(-12, -0.5).map(lambda d: 1.0 - d))
    text = f"x_left = {left!r}\nx_right = {left + length!r}\n" + ("" if s is None else f"s = {s!r}\n")
    args = [draw(st.sampled_from(["solve", "control", "sweep", "gamma"])),
            "--n", str(draw(st.integers(min_value=3, max_value=64))),
            "--a", repr(a), "--b", repr(b), "--mu", repr(draw(_log_uniform(-300, 300))),
            "--tol", repr(draw(st.sampled_from([RunConfig().tol, 1e-300]) | _log_uniform(-300, 0)))]
    return args, text


def _floats(texts):
    """The texts that parse as floats, as floats."""
    for text in texts:
        try:
            yield float(text)
        except ValueError:
            pass


class TestExitContract:
    """Every run ends in exit 0 with finite numbers, 1 or 2 with one stderr line, or 3 with none."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_extreme_runs())
    # The zero control reads no eigenpair: it printed one whose residual missed the tol.
    @example((["control", "--a", "0.0", "--tol", "1e-300"], ""))
    def test_documented_exit_one_line_and_finite_numbers(self, run):
        args, text = run
        with tempfile.TemporaryDirectory() as directory:
            cfg_path, out_dir = os.path.join(directory, "run.cfg"), os.path.join(directory, "out")
            with open(cfg_path, "w") as handle:
                handle.write(text)
            out, err = io.StringIO(), io.StringIO()
            with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                warnings.simplefilter("error")
                code = main(args + ["--config", cfg_path, "--out", out_dir])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_CHECK_FAILED)
            refused = code in (EXIT_CONFIG, EXIT_NUMERICAL)
            assert len(err.getvalue().splitlines()) == (1 if refused else 0)
            if code != EXIT_OK:
                return
            if "converged=True" in out.getvalue():  # control: a pair printed meets this run's tol
                a, tol = (float(args[args.index(flag) + 1]) for flag in ("--a", "--tol"))
                residual = re.search(r" residual=(\S+) ", out.getvalue())
                assert (residual is None) == (a == 0.0)
                assert residual is None or float(residual.group(1)) <= tol
            cells = [value.rstrip(":") for value in re.findall(r"\w=(\S+)", out.getvalue())]
            for name in os.listdir(out_dir):
                cells += [cell for row in read_csv(os.path.join(out_dir, name))[1] for cell in row]
            assert all(map(math.isfinite, _floats(cells)))
