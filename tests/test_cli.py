import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import octads.acceptance
from octads.cli import main, write_records
from octads.fiber_kernel import SeriesConvergenceError
from octads.subelliptic_kernel import QuadratureConvergenceError

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_bytes()


class TestWriteRecords:
    def test_empty_rows_header_only(self):
        buf = io.StringIO()
        write_records([], ["a", "b"], "csv", buf)
        assert buf.getvalue() == "a,b\n"

    def test_float_formatting(self):
        buf = io.StringIO()
        write_records([{"x": 1.0, "n": 3, "s": "ok"}], ["x", "n", "s"], "csv", buf)
        assert buf.getvalue() == "x,n,s\n1.000000000000e+00,3,ok\n"

    def test_json_is_valid_and_matches_fields(self):
        buf = io.StringIO()
        write_records([{"x": 0.5, "n": 2}], ["x", "n"], "json", buf)
        data = json.loads(buf.getvalue())
        assert data == [{"x": 0.5, "n": 2}]

    def test_json_non_finite_floats_are_strings(self):
        buf = io.StringIO()
        write_records([{"x": math.inf, "y": math.nan}], ["x", "y"], "json", buf)
        assert json.loads(buf.getvalue()) == [{"x": "inf", "y": "nan"}]


class TestEval:
    def test_single_rep_row_shape(self, tmp_path):
        code, payload = run_cli(
            ["eval", "--t", "1", "--r", "0,0.5", "--eta", "0", "--rep", "1"], tmp_path)
        assert code == 0
        lines = payload.decode().splitlines()
        assert lines[0] == "t,r,eta,value,est_error,m_used,u_max_used"
        assert len(lines) == 3
        assert re.match(r"^1\.000000000000e\+00,0\.000000000000e\+00,", lines[1])

    def test_byte_identical_runs(self, tmp_path):
        args = ["eval", "--t", "0.5", "--r", "0,1", "--eta", "0.7853981634", "--rep", "both"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args, tmp_path, "b.csv")
        assert a == b

    def test_json_format(self, tmp_path):
        code, payload = run_cli(
            ["eval", "--t", "1", "--r", "0", "--eta", "0", "--rep", "1", "--format", "json"],
            tmp_path, "out.json")
        assert code == 0
        rows = json.loads(payload.decode())
        assert list(rows[0].keys()) == ["t", "r", "eta", "value", "est_error", "m_used", "u_max_used"]

    def test_below_min_time_exits_2(self, tmp_path):
        code, _ = run_cli(["eval", "--t", "0.02", "--r", "0.5", "--eta", "0.3"], tmp_path)
        assert code == 2

    def test_underflow_to_zero_fails(self, tmp_path):
        # at t = 16 both representations underflow to exactly 0.0
        code, payload = run_cli(["eval", "--t", "16", "--r", "0", "--eta", "0"], tmp_path)
        assert code == 1
        assert payload.decode().splitlines()[1].endswith(",inf")

    def test_negative_value_fails(self, tmp_path, capsys):
        # rep 1 printed -6.729e-08 here with exit code 0
        code, payload = run_cli(
            ["eval", "--rep", "1", "--t", "0.05", "--r", "0.05", "--eta", "1.0471975511965976"],
            tmp_path)
        assert code == 1
        assert ",-6.729" in payload.decode().splitlines()[1]
        err = capsys.readouterr().err
        assert err == "1 kernel values are not positive, subnormal or not finite\n"

    def test_point_rows_refuses_an_unknown_rep(self):
        # "rep1" evaluated both representations and returned rep 2's values
        with pytest.raises(ValueError, match="unknown representation"):
            octads.acceptance.point_rows(rep="rep1")


class TestCompareReps:
    def test_small_grid_passes(self, tmp_path):
        code, payload = run_cli(
            ["compare-reps", "--t", "1", "--r", "0,1", "--eta", "0,2.356194490192345"],
            tmp_path)
        assert code == 0
        header = payload.decode().splitlines()[0]
        assert header.endswith("rel_diff,status")

    def test_absurd_threshold_fails(self, tmp_path, monkeypatch):
        # a 2e-6 gap between the representations fails the fixed 1e-6
        real = octads.acceptance.heat_kernel_rep2

        def rep2(t, r, eta):
            k = real(t, r, eta)
            return dataclasses.replace(k, value=k.value * (1.0 + 2e-6))

        monkeypatch.setattr(octads.acceptance, "heat_kernel_rep2", rep2)
        code, _ = run_cli(["compare-reps", "--t", "1", "--r", "0.5", "--eta", "0"], tmp_path)
        assert code == 1

    def test_zero_values_do_not_agree(self, tmp_path):
        code, _ = run_cli(["compare-reps", "--t", "16", "--r", "0", "--eta", "0"], tmp_path)
        assert code == 1

    def test_nan_value_fails(self, tmp_path, monkeypatch):
        # a NaN between two good points must not vanish from the verdict
        real = octads.acceptance.heat_kernel_rep2

        def rep2(t, r, eta, *args, **kwargs):
            k = real(t, r, eta, *args, **kwargs)
            return dataclasses.replace(k, value=math.nan) if r == 0.5 else k

        monkeypatch.setattr(octads.acceptance, "heat_kernel_rep2", rep2)
        code, payload = run_cli(
            ["compare-reps", "--t", "1", "--r", "0,0.5,1", "--eta", "0"], tmp_path)
        assert code == 1
        assert payload.decode().splitlines()[2].endswith(",inf,fail")

    def test_rep2_paths(self, tmp_path):
        code, _ = run_cli(
            ["rep2-paths", "--t", "1", "--r", "0.5", "--eta", "0.7853981634"], tmp_path)
        assert code == 0

    def test_rep2_paths_default_threshold(self, tmp_path, monkeypatch, capsys):
        # the two rep-2 paths must agree to 1e-8: a 1e-7 gap fails, a 1e-9 gap passes
        real = octads.acceptance._rep2_direct
        args = ["rep2-paths", "--t", "1", "--r", "0.5", "--eta", "0"]
        for gap, expected in ((1e-7, 1), (1e-9, 0)):
            def direct(t, r, eta, gap=gap):
                k = real(t, r, eta)
                return dataclasses.replace(k, value=k.value * (1.0 + gap))

            monkeypatch.setattr(octads.acceptance, "_rep2_direct", direct)
            code, _ = run_cli(args, tmp_path)
            assert code == expected, gap
            assert "(threshold 1.0e-08)" in capsys.readouterr().err


class TestOtherCommands:
    def test_residual_single_point(self, tmp_path):
        code, payload = run_cli(
            ["residual", "--t", "1", "--r", "0.5", "--eta", "1.5707963268", "--which", "rep1"],
            tmp_path)
        assert code == 0
        assert "pass" in payload.decode()

    def test_hyperbolic_dump_terms(self):
        # the exact term table is gone: its flag is refused
        with pytest.raises(SystemExit) as exc:
            main(["hyperbolic", "--n", "3", "--dump-terms"])
        assert exc.value.code == 2

    def test_hyperbolic_suite(self, tmp_path):
        code, payload = run_cli(["hyperbolic-suite"], tmp_path)
        assert code == 0
        rows = [line.split(",") for line in payload.decode().splitlines()[1:]]
        checks = [row[0] for row in rows]
        for n in (9, 15):
            assert checks.count(f"normalization_n{n}") == 3
            assert checks.count(f"pde_residual_n{n}") == 3
        assert checks.count("closed_form_n3") == 1
        for row in rows:
            if row[0].startswith("pde_residual"):
                assert float(row[3]) <= 1e-5 and row[4] == "pass"

    def test_hyperbolic_suite_at_large_time(self, tmp_path):
        # the normalization's float product q Omega sinh^(n-1) printed nan at t = 3, with two
        # RuntimeWarnings; a time step of 1e-3 t failed the n = 15 residual at t = 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_cli(["hyperbolic-suite", "--t", "3,6,10"], tmp_path)
        assert code == 0
        assert all(line.endswith(",pass") for line in payload.decode().splitlines()[1:])

    @pytest.mark.parametrize("args", [
        # every row read 0,0,0,pass with exit code 0
        pytest.param(["residual", "--t", "15"], id="residual"),
        # a ZeroDivisionError traceback from the n = 15 residual, whose q underflows to 0
        pytest.param(["hyperbolic-suite", "--t", "20"], id="hyperbolic-suite"),
    ])
    def test_underflowed_kernel_fails_its_row(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "octads"] + args,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert ",fail" in proc.stdout

    def test_hyperbolic_values(self, tmp_path):
        code, payload = run_cli(["hyperbolic", "--n", "3", "--t", "1", "--s", "1"], tmp_path)
        assert code == 0
        value = float(payload.decode().splitlines()[1].split(",")[3])
        ref = math.exp(-1.0) / (4.0 * math.pi) ** 1.5 / math.sinh(1.0) * math.exp(-0.25)
        assert value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_octonion_check(self, tmp_path):
        code, payload = run_cli(["octonion-check"], tmp_path)
        assert code == 0
        lines = payload.decode().splitlines()
        assert lines[0] == "check,max_error,tolerance,status"
        rows = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        tolerances = {"generator_triples": 0.0, "norm_multiplicativity": 1e-12,
                      "alternativity": 1e-12, "non_associativity_witness": 0.0,
                      "quadric": 1e-12, "projection": 1e-12}
        assert list(rows) == list(tolerances)
        for check, tol in tolerances.items():
            err, written_tol, status = rows[check]
            assert float(written_tol) == tol
            assert float(err) <= tol and status == "pass", check

    def test_fiber_profile_check(self, tmp_path):
        # one row per degree m = 0..15, as in criterion 09
        code, payload = run_cli(["mode-profile"], tmp_path)
        assert code == 0
        rows = payload.decode().splitlines()[1:]
        assert len(rows) == 16 and all(row.endswith(",pass") for row in rows)

    def test_fiber_values(self, tmp_path):
        code, payload = run_cli(
            ["fiber", "--t", "1", "--eta", "0.5", "--u", "0.25,0.5"], tmp_path)
        assert code == 0
        assert len(payload.decode().splitlines()) == 3

    def test_mc_check_smoke(self, tmp_path):
        code, payload = run_cli(
            ["mc-check", "--t", "0.25", "--n-paths", "4000", "--dt", "0.0005",
             "--seed", "2"], tmp_path)
        assert code == 0
        lines = payload.decode().splitlines()
        assert lines[0] == "function,mc_mean,stderr,analytic,z,status"
        assert len(lines) == 4

    def test_mc_check_single_path_exits_2(self, tmp_path, monkeypatch, capsys):
        # one path has no standard error; it used to pass with every z set to 0, and then was
        # refused only after every path had run
        def simulate(*args, **kwargs):
            raise AssertionError("paths simulated before n_paths was checked")

        monkeypatch.setattr(octads.acceptance, "simulate_paths", simulate)
        code, payload = run_cli(["mc-check", "--n-paths", "1", "--t", "1,5", "--dt", "0.0001"],
                                tmp_path)
        assert code == 2 and payload == b""
        assert capsys.readouterr().err == (
            "error: 1 path(s) cannot estimate a standard error; need 2\n")

    def test_mc_check_zero_stderr_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(octads.acceptance, "estimate_expectation",
                            lambda f, samples: (0.5, 0.0))
        code, payload = run_cli(
            ["mc-check", "--t", "0.1", "--n-paths", "200", "--dt", "0.001"], tmp_path)
        assert code == 1
        assert all(line.endswith(",nan,fail") for line in payload.decode().splitlines()[1:])

    def test_mass_at_large_time(self, tmp_path):
        # rep 1's mass raised from t = 3, with exit code 2
        code, payload = run_cli(["mass", "--t", "3,4,6,10", "--no-moment"], tmp_path)
        assert code == 0
        assert len(payload.decode().splitlines()) == 5


class TestRefusedInput:
    @pytest.mark.parametrize("args", [
        ["hyperbolic", "--n", "9", "--t", "nan", "--s", "1"],
        ["hyperbolic", "--n", "9", "--t", "1", "--s", "nan"],
        ["hyperbolic", "--n", "9", "--t", "inf", "--s", "1"],
        ["eval", "--t", "1", "--r", "nan", "--eta", "0"],
        ["eval", "--t", "1", "--r", "inf", "--eta", "0"],
        ["fiber", "--t", "nan"],
        ["fiber", "--continued", "--u", "nan"],
        # a time so small that both rows were NaN, with exit code 0
        ["hyperbolic", "--n", "9", "--t", "1e-200", "--s", "0,2"],
        ["hyperbolic", "--n", "15", "--t", "1e-200", "--s", "0,2"],
    ])
    def test_non_finite_input_exits_2(self, tmp_path, args):
        code, payload = run_cli(args, tmp_path)
        assert code == 2
        assert payload == b""

    @pytest.mark.parametrize("args", [
        ["hyperbolic", "--tol", "-1"],
        ["hyperbolic", "--m-cap", "0"],
        ["hyperbolic", "--series-tol", "-5"],
        ["hyperbolic", "--u-max", "-2"],
        ["octonion-check", "--n-u", "3"],
        ["chebyshev", "--u-max", "-1"],
        ["fiber", "--n-phi", "32"],
        ["mass", "--u-max", "0.5"],
        ["mass", "--tol", "0.1"],
        ["mass", "--n-phi", "16"],
        ["mc-check", "--u-max", "3"],
        ["residual", "--n-phi", "32"],
        ["residual", "--tol", "1e-3"],
        # grid options that these checks do not read
        ["hyperbolic-suite", "--n", "3"],
        ["chebyshev", "--t", "5", "--u", "9", "--continued"],
        ["orthogonality", "--eta", "2", "--mode", "raw"],
        ["rep2-paths", "--path", "direct_2d"],
        # no option selects a check
        ["fiber", "--check", "values"],
        ["hyperbolic", "--check", "suite"],
        ["compare-reps", "--what", "reps"],
        # the point rule, the series truncation and the measure nodes are fixed
        ["eval", "--n-u", "48"],
        ["compare-reps", "--tol", "1e-8"],
        ["rep2-paths", "--n-phi", "32"],
        ["residual", "--u-max", "9"],
        ["mass", "--n-u", "192"],
        ["mc-check", "--series-tol", "1e-12"],
        ["fiber", "--m-cap", "128"],
        # one convention per series and one route per representation
        ["fiber", "--mode", "raw"],
        ["fiber-normalization", "--mode", "raw"],
        ["eval", "--path", "direct_2d"],
        ["compare-reps", "--path", "direct_2d"],
    ])
    def test_option_the_command_does_not_read_exits_2(self, args):
        # each was accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("compare-reps", "--threshold"), ("rep2-paths", "--threshold"),
        ("residual", "--rel-tol"), ("residual", "--abs-tol"), ("mc-check", "--z-max"),
        ("octonion-check", "--n-pairs"), ("octonion-check", "--seed"),
    ])
    def test_gate_option_is_refused(self, capsys, command, flag):
        # each loosened its gate: compare-reps --threshold 1 passed values 100% apart
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("times", [
        "0.05003,0.1",  # not a whole number of steps: a KeyError traceback with exit code 1
        "0.01,0.1",  # below MIN_TIME: refused by the quadrature after every path had run
    ])
    def test_mc_check_time_refused_before_simulating(self, tmp_path, monkeypatch, capsys,
                                                     times):
        def simulate(*args, **kwargs):
            raise AssertionError("paths simulated before the times were checked")

        monkeypatch.setattr(octads.acceptance, "simulate_paths", simulate)
        code, payload = run_cli(["mc-check", "--t", times, "--n-paths", "50"], tmp_path)
        assert code == 2 and payload == b""
        assert capsys.readouterr().err.startswith(f"error: time {times.split(',')[0]} ")

    def test_mc_check_negative_seed_names_the_seed(self, tmp_path, capsys):
        # numpy refused it with "expected non-negative integer", which names no option
        code, payload = run_cli(["mc-check", "--seed", "-1", "--n-paths", "10", "--t", "0.05"],
                                tmp_path)
        assert code == 2 and payload == b""
        assert capsys.readouterr().err.startswith("error: seed ")

    @pytest.mark.parametrize("args, value", [(["--t="], ""), (["--t", "1,x"], "1,x")],
                             ids=["empty", "not-a-number"])
    def test_bad_grid_names_a_float_list(self, capsys, args, value):
        # the message named the private parser: "invalid _parse_float_list value: ''"
        with pytest.raises(SystemExit) as exc:
            main(["residual"] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --t: invalid float list value: {value!r}" in err

    @pytest.mark.parametrize("eta, code", [("3", 2), ("2", 0)])
    def test_fiber_value_within_its_rounding_floor_exits_2(self, tmp_path, capsys, eta, code):
        # at eta = 3 the series printed -9.746e-14, against the true 3.18e-14, with exit code 0
        assert run_cli(["fiber", "--t", "0.05", "--eta", eta, "--u", "0"], tmp_path)[0] == code
        err = capsys.readouterr().err
        assert err == "" if code == 0 else re.fullmatch(r"error: fiber series [^\n]*\n", err)

    def test_fiber_normalization_keeps_nodes_within_their_rounding_floor(self, tmp_path):
        # the u node nearest 0 is such a node; it contributes its floor times w sin^6 u
        code, out = run_cli(["fiber-normalization", "--t", "0.05", "--eta", "3"], tmp_path)
        assert code == 0
        assert out.decode().splitlines()[1].endswith(",pass")

    @pytest.mark.parametrize("r, eta", [("1", "3.141592653589793"), ("0", "2.0943951023931953")])
    def test_rep2_direct_2d_failure_exits_2(self, capsys, r, eta):
        # the direct route does not stabilize at the first point; at the second its angular
        # integral keeps an imaginary residue, which was an AssertionError traceback with
        # exit code 1
        code = main(["rep2-paths", "--t", "0.05", "--r", r, "--eta", eta])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("point, error", [
        # numpy's "overflow encountered in multiply" warning came first, in a fresh process
        pytest.param(["--rep", "1", "--t", "0.05", "--r", "1", "--eta", "3.141592653589793"],
                     r"representation 1 at \(t=0\.05, r=1\.0, eta=3\.141592653589793\): "
                     r"degree-\d+ polynomial overflowed ", id="rep1"),
        # "overflow encountered in exp" and "invalid value encountered in matmul" came first,
        # then "mode series not converged by degree 256"; rep 2's mode factor, one exp per
        # exponent, stays finite at every point's cutoff, and the point does not stabilize
        # (at eta = pi a level is negative: KernelRangeError, exit code 1)
        pytest.param(["--rep", "2", "--t", "0.05", "--r", "1", "--eta", "2.356194490192345"],
                     r"representation 2 did not stabilize ", id="rep2"),
        # numpy's "overflow encountered in cosh" warning and its source line came first
        pytest.param(["--rep", "1", "--t", "1", "--r", "705", "--eta", "1"],
                     r"representation 1 at \(t=1\.0, r=705\.0, eta=1\.0\): "
                     r"degree-1 polynomial overflowed ", id="rep1-cosh-u"),
        # composed_distance, log g and the weight sums wrote 10 RuntimeWarning lines first
        pytest.param(["--rep", "1", "--t", "1", "--r", "3e307", "--eta", "1"],
                     r"representation 1 at \(t=1\.0, r=3e\+307, eta=1\.0\): "
                     r"degree-0 polynomial overflowed ", id="rep1-huge-r"),
        pytest.param(["--rep", "2", "--t", "1", "--r", "1e308", "--eta", "1"],
                     r"representation 2 at \(t=1\.0, r=1e\+308, eta=1\.0\): "
                     r"degree-0 polynomial overflowed ", id="rep2-huge-r"),
    ])
    def test_polynomial_overflow_prints_one_error_line(self, point, error):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "octads", "eval"] + point,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(rf"error: {error}[^\n]*\n", proc.stderr)

    def test_direct_route_past_the_cosh_overflow_fails_its_row(self, tmp_path, capsys):
        # cosh^3 r overflowed past r = 236.5: a 34-line OverflowError traceback with exit
        # code 1; both routes now refuse the value 0 and the row fails
        code, out = run_cli(["rep2-paths", "--t", "20", "--r", "240", "--eta", "1"], tmp_path)
        assert code == 1
        assert out.decode().splitlines()[1].endswith(",0.000000000000e+00,0.000000000000e+00,"
                                                     "inf,fail")
        assert capsys.readouterr().err.startswith("max relative difference = inf ")

    @pytest.mark.parametrize("args", [
        # a ZeroDivisionError traceback each, after a mass of 0.0
        pytest.param(["mass", "--t", "15"], id="mass"),
        pytest.param(["mc-check", "--t", "15", "--n-paths", "10", "--dt", "0.001"],
                     id="mc-check"),
        # RuntimeWarnings from np.sinh past s = 710, then a QuadratureConvergenceError
        pytest.param(["mass", "--t", "100", "--no-moment"], id="past-the-range"),
    ])
    def test_large_time_prints_one_error_line(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "octads"] + args,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(r"error: [^\n]*\n", proc.stderr)

    @pytest.mark.parametrize("error", [SeriesConvergenceError, QuadratureConvergenceError])
    def test_convergence_failure_exits_2(self, tmp_path, monkeypatch, capsys, error):
        def rep1(*args, **kwargs):
            raise error("did not converge")

        monkeypatch.setattr(octads.acceptance, "heat_kernel_rep1", rep1)
        code, _ = run_cli(["eval", "--t", "1", "--r", "0", "--eta", "0"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: did not converge\n"


def config_line(command, option, value):
    """One argument-file line for `command`, with the id of its `key = value` config-file twin."""
    return pytest.param(command, f"--{option}={value}", id=f"{command}-{option} = {value}\n")


class TestConfigFile:
    """A config file is an argument @FILE: one argument a line, read as typed flags."""

    @staticmethod
    def args_file(tmp_path, *lines):
        path = tmp_path / "run.args"
        path.write_text("".join(line + "\n" for line in lines))
        return f"@{path}"

    @staticmethod
    def refused(args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        run_args = self.args_file(tmp_path, "--t=1", "--r=0", "--eta=0", "--rep=1")
        code, payload = run_cli(["eval", run_args], tmp_path)
        assert code == 0 and len(payload.decode().splitlines()) == 2
        code, payload = run_cli(["eval", run_args, "--r", "0,1"], tmp_path)
        assert code == 0 and len(payload.decode().splitlines()) == 3
        # the last argument wins, so a file after a flag overrides it
        code, payload = run_cli(["eval", "--r", "0,1", run_args], tmp_path)
        assert code == 0 and len(payload.decode().splitlines()) == 2

    @pytest.mark.parametrize("command, line", [
        config_line("eval", "rep", "bogus"),
        config_line("fiber", "continued", "maybe"),
        config_line("mass", "moment", "2"),
    ])
    def test_config_value_the_flag_refuses_exits_2(self, tmp_path, capsys, command, line):
        err = self.refused([command, self.args_file(tmp_path, line)], capsys)
        assert f"error: argument {line.split('=')[0]}" in err

    def test_config_booleans(self, tmp_path):
        run_args = self.args_file(tmp_path, "--t=1", "--eta=0.5", "--u=1.5", "--continued")
        code, payload = run_cli(["fiber", run_args], tmp_path)
        assert code == 0 and payload.decode().splitlines()[1].split(",")[3] == "true"
        code, payload = run_cli(["fiber", run_args, "--no-continued"], tmp_path)
        assert code == 0 and payload.decode().splitlines()[1].split(",")[3] == "false"

    def test_option_of_another_command_exits_2(self, tmp_path, capsys):
        # --which is an option of residual, not of hyperbolic
        run_args = self.args_file(tmp_path, "--which=rep1", "--n=3", "--t=1", "--s=1")
        err = self.refused(["hyperbolic", run_args], capsys)
        assert "unrecognized arguments: --which=rep1" in err
        run_args = self.args_file(tmp_path, "--n=3", "--t=1", "--s=1")
        code, payload = run_cli(["hyperbolic", run_args], tmp_path)
        assert code == 0
        assert payload.decode().splitlines()[1].startswith("3,1.000000000000e+00,")

    @pytest.mark.parametrize("command, line", [
        # each check has its own command, so no option picks one; no option sets the
        # point rule, the series truncation or the measure nodes, which are fixed; and the
        # fiber series has one coefficient convention
        config_line("fiber", "check", "values"),
        config_line("hyperbolic", "check", "suite"),
        config_line("compare-reps", "what", "reps"),
        config_line("eval", "n-u", "48"),
        config_line("compare-reps", "tol", "1e-8"),
        config_line("fiber", "m-cap", "128"),
        config_line("fiber", "mode", "bogus"),
    ])
    def test_selector_key_is_unknown(self, tmp_path, capsys, command, line):
        err = self.refused([command, self.args_file(tmp_path, line)], capsys)
        assert f"unrecognized arguments: {line}" in err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        err = self.refused(["eval", self.args_file(tmp_path, "--no-such-key=1")], capsys)
        assert "unrecognized arguments: --no-such-key=1" in err

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        # an empty grid used to pass with no rows checked
        err = self.refused(["residual", self.args_file(tmp_path, "--t=")], capsys)
        assert "error: argument --t" in err

    def test_bad_config_line_exits_2(self, tmp_path, capsys):
        # a line is one argument: "--t 1" is one word, not --t and 1
        for line in ["just words", "--t 1"]:
            err = self.refused(["eval", self.args_file(tmp_path, line)], capsys)
            assert f"unrecognized arguments: {line}" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        err = self.refused(["eval", f"@{tmp_path / 'missing.args'}"], capsys)
        assert "No such file or directory" in err
