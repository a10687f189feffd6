import math
import os
from dataclasses import fields

import numpy as np
import pytest

import fraclap.cli
import fraclap.limitlab
from fraclap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    dispatch,
    main,
    parse_config,
    rhs_preset,
    write_csv,
)
from fraclap.discretize import Grid
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
        with pytest.raises(ConfigError) as err:
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
        with pytest.raises(ConfigError) as err:
            parse_config("order = 0.5")
        assert "line 1" in str(err.value) and "order" in str(err.value)

    def test_malformed_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("n = 12\nmu = lots")
        assert "line 2" in str(err.value) and "mu" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just words")

    def test_s_list_parsing(self):
        cfg = parse_config("s_list = 0.25, 0.5, 0.75")
        assert cfg.s_list == [0.25, 0.5, 0.75]

    def test_s_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config("s = 1.5")
        assert "s" in str(err.value)

    def test_too_small_grid(self):
        with pytest.raises(ConfigError):
            parse_config("n = 2")

    def test_unknown_rhs(self):
        with pytest.raises(ConfigError):
            parse_config("rhs = gaussian")

    def test_nonfinite_values_name_line(self):
        for text in ("mu = nan", "n = 16\na = inf", "b = inf", "tol = inf",
                     "x_left = -inf", "n = 16\nx_right = inf", "x_right = nan"):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert "finite" in str(err.value) and "line" in str(err.value)

    def test_seed_is_not_a_key(self):
        with pytest.raises(ConfigError):
            parse_config("seed = 5")

    @pytest.mark.parametrize("text", ["workers = 2", "max_iter = 1", "scheme = monotone"])
    def test_removed_keys_are_unknown(self, text):
        with pytest.raises(ConfigError, match="line 1: unknown key"):
            parse_config(text)

    def test_keys_and_flags_match_run_config_fields(self):
        assert set(fraclap.cli._KEY_PARSERS) == {f.name for f in fields(RunConfig)}
        assert set(fraclap.cli.OVERRIDES) <= set(fraclap.cli._KEY_PARSERS)


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
        write_csv(path, ["v"], [[v] for v in values])
        _, rows = read_csv(path)
        assert [float(r[0]) for r in rows] == values

    def test_no_partial_file_on_failure(self, tmp_path):
        path = str(tmp_path / "broken.csv")

        def rows():
            yield [1.0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_csv(path, ["v"], rows())
        assert not os.path.exists(path)
        assert list(tmp_path.iterdir()) == []


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
        def boom(cfg):
            raise fraclap.limitlab.SweepError("reference failed")

        monkeypatch.setattr(fraclap.limitlab, "run_sweep", boom)
        cfg = parse_config(f"n = 64\nout = {tmp_path}")
        assert dispatch(cfg, "sweep") == EXIT_NUMERICAL
        assert not (tmp_path / "sweep.csv").exists()
        assert list(tmp_path.iterdir()) == []

    def test_gamma_writes_both_clauses(self, tmp_path):
        cfg = parse_config(f"n = 64\nout = {tmp_path}")
        assert dispatch(cfg, "gamma") == EXIT_OK
        header, rows = read_csv(tmp_path / "gamma.csv")
        assert header == ["clause", "index", "s", "F_s", "F", "margin"]
        clauses = {r[0] for r in rows}
        assert clauses == {"recovery", "liminf"}
        assert len(rows) == 20

    def test_unknown_subcommand(self):
        assert dispatch(RunConfig(), "plot") == EXIT_CONFIG


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

        # Stands in for the dense assembly at a size the machine cannot hold.
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

    def test_control_failure_leaves_no_csv(self, tmp_path, capsys):
        code = main(["control", "--n", "32", "--tol", "1e-300", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "converged=False" in out and "control.csv" not in out
        assert list(tmp_path.iterdir()) == []

    def test_control_at_large_n(self, tmp_path, capsys):
        assert main(["control", "--n", "1024", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged=True" in out and "residual=" in out and "gap=" in out
        _, rows = read_csv(tmp_path / "control.csv")
        assert len(rows) == 1024

    def test_identical_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["solve", "--n", "64", "--s", "0.5", "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--n", "64", "--s", "0.5", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
