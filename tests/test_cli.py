import json

import numpy as np
import pytest

from hhkit import bounds, cli, harness, quadrature
from hhkit.bounds import Interval
from hhkit.cli import _build_function, build_parser, main
from hhkit.errors import ConvergenceError
from hhkit.functions import FAMILIES, FAMILY_ROWS, Family, Param


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        beta = ["specfun", "--fn", "beta", "--x", "1.5", "--y", "0.5", "--format", "json"]
        first = run(capsys, *beta)
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a second parser"))
        with pytest.raises(SystemExit):
            main(["specfun", "--fn", "nope"])
        capsys.readouterr()
        assert run(capsys, *beta) == first

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestSpecfunCommand:
    def test_2f1_at_zero(self, capsys):
        code, out, _ = run(capsys, "specfun", "--fn", "2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_2f1_series_log_value(self, capsys):
        code, out, _ = run(capsys, "specfun", "--fn", "2f1-series", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(1.3862943611198906, rel=1e-13)

    def test_beta_json(self, capsys):
        code, out, _ = run(capsys, "specfun", "--fn", "beta", "--x", "2", "--y", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["value"] == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_lngamma(self, capsys):
        code, out, _ = run(capsys, "specfun", "--fn", "lngamma", "--x", "5")
        assert float(out) == pytest.approx(3.1780538303479458, rel=1e-13)

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run(capsys, "specfun", "--fn", "2f1", "--a", "1", "--b", "1", "--c", "2")
        assert code == 2
        assert "--z" in err

    def test_invalid_domain_usage_error(self, capsys):
        code, _, err = run(capsys, "specfun", "--fn", "2f1", "--a", "1", "--b", "3", "--c", "2", "--z", "0.5")
        assert code == 2
        assert "c > b" in err

    def test_series_non_convergence_is_a_numerical_failure(self, capsys):
        # the argument set of test_specfun's series non-convergence case
        code, out, err = run(capsys, "specfun", "--fn", "2f1-series", "--a", "8", "--b", "3.5", "--c", "4",
                             "--z", "0.999999")
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: 2F1 series did not converge within 1000000 terms")

    @pytest.mark.parametrize("x, y, value", [("1e17", "2", 1e-34), ("1e306", "1", 1e-306), ("1e308", "1e308", 0.0)])
    def test_beta_of_a_large_argument(self, capsys, x, y, value):
        code, out, err = run(capsys, "specfun", "--fn", "beta", "--x", x, "--y", y, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize("argv, message", [
        (("--fn", "beta", "--x", "1e-320", "--y", "1e-320"), "beta(1e-320, 1e-320) = exp("),
        (("--fn", "lngamma", "--x", "1e308", "--format", "json"), "ln_gamma(1e+308) overflows a double"),
    ])
    def test_overflow_is_a_numerical_failure(self, capsys, argv, message):
        code, out, err = run(capsys, "specfun", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: " + message)


class TestCoeffsCommand:
    def test_rho_json_document(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--set", "rho", "--s", "0.5", "--q", "2", "--a", "1", "--b", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["rho1", "rho2_statement", "rho2_proof"]
        assert doc["printed"][0] == pytest.approx(doc["oracle"][0], abs=1e-8)
        assert doc["deviations"][2] > 1e-3

    def test_lambda_text(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--set", "lambda", "--a", "1", "--b", "2")
        assert code == 0
        assert "lambda1" in out and "max_abs_dev" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--set", "nu", "--s", "0.5", "--q", "2", "--a", "1", "--b", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,printed,oracle,deviation"
        assert len(lines) == 3

    def test_interval_validated_before_compute(self, capsys):
        code, _, err = run(capsys, "coeffs", "--set", "lambda", "--a", "2", "--b", "1")
        assert code == 2
        assert "--a/--b" in err and "0 < a < b" in err

    @pytest.mark.parametrize("argv, message", [
        (("--set", "lambda", "--a", "1", "--b", "inf"), "interval requires finite 0 < a < b, got (1.0, inf)"),
        (("--set", "mu", "--a", "1", "--b", "2", "--q", "inf"), "mu coefficients require a finite q > 1, got inf"),
        (("--set", "nu", "--a", "1", "--b", "2", "--s", "0.5", "--q", "inf"),
         "nu coefficients require a finite q > 1, got inf"),
        (("--set", "rho", "--a", "1", "--b", "2", "--s", "0.5", "--q", "nan"),
         "rho coefficients require a finite r >= 1, got nan"),
    ], ids=["lambda-b-inf", "mu-q-inf", "nu-q-inf", "rho-q-nan"])
    def test_non_finite_input_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "coeffs", *argv, "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"usage error: {message}\n"

    def test_missing_set_parameter(self, capsys):
        code, _, err = run(capsys, "coeffs", "--set", "mu", "--a", "1", "--b", "2")
        assert code == 2
        assert "--q" in err


class TestVerifyCommand:
    def test_ii1_square_text_line(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "II1", "--family", "pow", "--coeff", "1", "--exp", "2",
            "--shift", "0", "--s", "1", "--m", "1", "--a", "1", "--b", "2",
        )
        assert code == 0
        assert out.strip() == "lhs=2 rhs=2.5 margin=0.5 satisfied"

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "II4", "--family", "pow", "--s", "0.5", "--m", "0.8",
            "--q", "2", "--a", "1", "--b", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfied"] is True
        assert doc["margin"] == pytest.approx(doc["rhs"] - doc["lhs"], abs=1e-12)

    def test_lemma_residual(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "Lemma", "--family", "pow", "--exp", "3",
                           "--a", "1", "--b", "2")
        assert code == 0
        assert "satisfied" in out

    def test_harmhh(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "HarmHH", "--family", "pow", "--a", "1", "--b", "2")
        assert code == 0
        assert "satisfied" in out

    def test_invalid_interval_never_computes(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "II1", "--family", "pow", "--a", "3", "--b", "2")
        assert code == 2
        assert "--a/--b" in err and "0 < a < b" in err

    @pytest.mark.parametrize("theorem, flag, value, message", [
        ("II2", "--q", "nan", "q must be a finite number >= 1, got nan"),
        ("II2", "--q", "inf", "q must be a finite number >= 1, got inf"),
        ("II1", "--b", "inf", "interval requires finite 0 < a < b, got (1.0, inf)"),
        ("II1", "--exp", "inf", "pow takes 3 finite parameters, got (1.0, inf, 0.0)"),
        ("II1", "--coeff", "nan", "pow takes 3 finite parameters, got (nan, 2.0, 0.0)"),
    ], ids=["q-nan", "q-inf", "b-inf", "exp-inf", "coeff-nan"])
    def test_non_finite_input_is_a_usage_error(self, capsys, theorem, flag, value, message):
        argv = {"--a": "1", "--b": "2", "--q": "1", flag: value}
        code, out, err = run(capsys, "verify", "--theorem", theorem, "--family", "pow",
                             *(item for pair in argv.items() for item in pair))
        assert (code, out) == (2, "")
        assert err == f"usage error: {message}\n"

    def test_parameter_range_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "II4", "--family", "pow", "--q", "1",
                           "--a", "1", "--b", "2")
        assert code == 2
        assert "q > 1" in err

    def test_certification_failure_exits_one(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "II1", "--family", "pow", "--coeff", "-1",
                           "--a", "1", "--b", "2")
        assert code == 1
        assert "certification failed" in err

    def test_spiece_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "II1", "--family", "spiece", "--b0", "1",
                           "--c0", "0", "--s", "0.5", "--m", "1", "--a", "1", "--b", "2")
        assert code == 0
        assert "satisfied" in out

    @pytest.mark.parametrize("grid", ["0", "-1", "7"])
    def test_grid_below_eight_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--theorem", "II2", "--family", "pow", "--exp", "2",
                             "--a", "1", "--b", "2", "--s", "0.5", "--m", "0.8", "--q", "2", "--grid", grid)
        assert code == 2
        assert out == ""
        assert f"certification grid density must be >= 8, got {grid}" in err

    def test_grid_eight_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "II2", "--family", "pow", "--exp", "2",
                           "--a", "1", "--b", "2", "--s", "0.5", "--m", "0.8", "--q", "2", "--grid", "8")
        assert code == 0
        assert out.endswith(" satisfied\n")

    def test_unknown_theorem_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "nope", "--family", "pow", "--a", "1", "--b", "2"])
        assert exc.value.code == 2


def _params_by_family(args):
    """The per-family parameter order the family table replaced."""
    return {
        "pow": (args.coeff, args.exp, args.shift),
        "spiece": (args.a0, args.b0, args.c0, args.s if args.sexp is None else args.sexp),
        "recip": (),
        "affine": (args.slope, args.intercept),
        "exp": (args.scale,),
    }[args.family]


class TestBuildFunction:
    ALL_FLAGS = ["--coeff", "1.5", "--exp", "2.5", "--shift", "0.25", "--slope", "-2", "--intercept", "3",
                 "--scale", "0.5", "--a0", "2", "--b0", "1.25", "--c0", "0.5"]

    @pytest.mark.parametrize("flags", [[], ALL_FLAGS, [*ALL_FLAGS, "--sexp", "0.3"]],
                             ids=["defaults", "every-flag", "explicit-sexp"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_params_follow_the_family_row(self, family, flags):
        args = build_parser().parse_args(["verify", "--theorem", "II1", "--family", family, "--a", "1", "--b", "2",
                                          "--s", "0.75", "--m", "0.8", *flags])
        iv = Interval(1.0, 2.0)
        expected = harness.make_function({"family": family, "params": _params_by_family(args)}, 0.8, iv)
        assert _build_function(args, 0.8, iv) == expected

    def test_sexp_defaults_to_s(self):
        args = build_parser().parse_args(["verify", "--theorem", "II1", "--family", "spiece", "--a", "1",
                                          "--b", "2", "--s", "0.75"])
        assert _build_function(args, 1.0, Interval(1.0, 2.0)).params == (1.0, 1.0, 0.0, 0.75)

    def test_family_flags_are_the_rows_parameters(self):
        args = build_parser().parse_args(["verify", "--theorem", "II1", "--family", "pow", "--a", "1", "--b", "2"])
        flags = {name: value for name, value in vars(args).items()
                 if name not in ("command", "theorem", "family", "s", "m", "q", "a", "b", "grid", "format")}
        assert flags == {p.name: p.default for row in FAMILY_ROWS.values() for p in row.params}

    def test_a_new_row_gets_its_flag(self, monkeypatch):
        row = Family("gauss", (Param("alpha", 0.5, "width"),), lambda p, x: np.exp(-p[0] * x * x),
                     lambda p, x: -2.0 * p[0] * x * np.exp(-p[0] * x * x))
        monkeypatch.setitem(FAMILY_ROWS, "gauss", row)
        argv = ["verify", "--theorem", "II1", "--family", "gauss", "--a", "1", "--b", "2"]
        for flags, params in (([], (0.5,)), (["--alpha", "2"], (2.0,))):
            args = build_parser().parse_args(argv + flags)
            assert _build_function(args, 1.0, Interval(1.0, 2.0)).params == params


class TestSweepCommand:
    @pytest.fixture
    def config_path(self, tmp_path):
        cfg = {
            "theorems": ["II1", "II2"],
            "families": [{"family": "pow", "params": [1.0, 2.0, 0.0]}],
            "a_values": [1.0],
            "ratios": [2.0],
            "s_grid": [0.5, 1.0],
            "m_grid": [1.0],
            "q_grid": [1.0, 2.0],
            "grid": 24,
            "seed": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sweep_writes_reports_and_summary(self, capsys, tmp_path, config_path):
        jout = tmp_path / "r.json"
        cout = tmp_path / "r.csv"
        code, out, _ = run(capsys, "sweep", "--config", str(config_path),
                           "--json", str(jout), "--csv", str(cout))
        assert code == 0
        assert "violations=0" in out
        doc = json.loads(jout.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["records"]) == 6  # 2 II1 + 4 II2
        assert cout.read_text().startswith("theorem,a,b,s,m,q,family")

    def test_round_trip_identical_files(self, capsys, tmp_path, config_path):
        paths = [tmp_path / n for n in ("a.json", "a.csv", "b.json", "b.csv")]
        run(capsys, "sweep", "--config", str(config_path), "--json", str(paths[0]), "--csv", str(paths[1]))
        run(capsys, "sweep", "--config", str(config_path), "--json", str(paths[2]), "--csv", str(paths[3]))
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()

    def test_csv_format_renders_the_report_once(self, capsys, tmp_path, config_path, monkeypatch):
        # the report is streamed to its file, and stdout is that file's text
        calls, render = [], harness.render_report_csv
        for name in ("render_report_csv", "write_report_csv"):
            def counted(*args, _real=getattr(harness, name)):
                calls.append((_real.__name__, args[0]))
                return _real(*args)
            monkeypatch.setattr(harness, name, counted)
        cout = tmp_path / "r.csv"
        code, out, _ = run(capsys, "sweep", "--config", str(config_path), "--json", str(tmp_path / "r.json"),
                           "--csv", str(cout), "--format", "csv")
        assert code == 0
        assert out.startswith("theorem,a,b,s,m,q,family")
        assert [name for name, _ in calls] == ["write_report_csv"]
        assert cout.read_bytes() == out.encode("utf-8") == render(calls[0][1]).encode("utf-8")

    def test_missing_config_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_directory_as_config_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "sweep", "--config", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: [Errno 21] Is a directory")

    def test_unwritable_report_path_is_a_usage_error(self, capsys, tmp_path, config_path, monkeypatch):
        # Both report paths are opened before the sweep: a bad one fails at
        # once, and no report file is left behind.
        def never(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "run_sweep", never)
        monkeypatch.chdir(tmp_path)  # where the default --csv would go
        reports = tmp_path / "reports"
        reports.mkdir()
        good_json, good_csv = str(reports / "r.json"), str(reports / "r.csv")
        for argv in (["--json", str(tmp_path)],
                     ["--json", str(tmp_path), "--csv", good_csv],
                     ["--json", good_json, "--csv", str(tmp_path)],
                     ["--json", good_json, "--csv", str(reports / "missing" / "r.csv")]):
            code, out, err = run(capsys, "sweep", "--config", str(config_path), *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage error: [Errno 21] Is a directory"
                                  if str(tmp_path) in argv else "usage error: [Errno 2] No such file"), err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "reports"]
            assert list(reports.iterdir()) == []
        # a report that was there before keeps its bytes
        (reports / "r.json").write_text("earlier report")
        code, _, _ = run(capsys, "sweep", "--config", str(config_path), "--json", good_json, "--csv", str(tmp_path))
        assert code == 2
        assert [p.name for p in reports.iterdir()] == ["r.json"]
        assert (reports / "r.json").read_text() == "earlier report"

    def test_a_failed_sweep_leaves_no_report_file(self, capsys, tmp_path, config_path, monkeypatch):
        def fails(cfg):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(harness, "run_sweep", fails)
        code, out, err = run(capsys, "sweep", "--config", str(config_path), "--json", str(tmp_path / "r.json"),
                             "--csv", str(tmp_path / "r.csv"))
        assert (code, out, err) == (1, "", "numerical failure: no convergence\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("text, message", [
        ('{"theorems": ["II1"]', "sweep config is not valid JSON: Expecting ',' delimiter"),
        ('{"theorems": ["II1"]}', "sweep config lacks the key 'families'"),
        ('{"theorems": ["II1"], "families": [{"family": "pow", "params": ["two"]}]}',
         "malformed sweep config: params must hold numbers, got ['two']"),
        ('{"theorems": ["II1"], "families": [{"family": "pow", "params": ["1", "2", "0"]}]}',
         "malformed sweep config: params must hold numbers, got ['1', '2', '0']"),
        ('{"theorems": ["II1"], "families": [{"family": 7, "params": [1, 2, 0]}]}',
         "malformed sweep config: family must be one of ('pow', 'spiece', 'recip', 'affine', 'exp'), got 7"),
        ('{"theorems": ["II1"], "families": [], "a_values": [1.0], "ratios": [NaN], "s_grid": [1.0], '
         '"m_grid": [1.0], "q_grid": [1.0]}', "interval ratios must be finite and exceed 1, got nan"),
        ('{"theorems": ["II1"], "families": [], "a_values": [1.0], "ratios": [2.0], "s_grid": [1.0], '
         '"m_grid": [1.0], "q_grid": [1.0], "grid": 48.9}', "malformed sweep config: grid must be an integer, got 48.9"),
        ('{"theorems": "II1", "families": [], "a_values": [1.0], "ratios": [2.0], "s_grid": [1.0], '
         '"m_grid": [1.0], "q_grid": [1.0]}', "malformed sweep config: theorems must be a list, got 'II1'"),
    ], ids=["invalid-json", "missing-key", "non-numeric", "numeric-string-params", "integer-family", "nan-ratio",
            "fractional-grid", "string-theorems"])
    def test_malformed_config_is_a_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run(capsys, "sweep", "--config", str(path), "--json", str(tmp_path / "r.json"),
                             "--csv", str(tmp_path / "r.csv"))
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {message}")
        assert not (tmp_path / "r.json").exists()

    def test_tolerance_not_met_becomes_evaluation_error(self, capsys, tmp_path, monkeypatch):
        # The real integrator under a tolerance no depth-1 bisection can meet:
        # every harmonic mean raises ToleranceNotMetError inside the sweep.
        real = quadrature.integrate

        def unreachable(f, lo, hi, spec=quadrature.DEFAULT_QUADSPEC):
            return real(f, lo, hi, quadrature.QuadSpec(1e-300, 1e-300, 1, spec.split_points))

        # a lone mean integrates through the name bounds imports
        for module in (quadrature, bounds):
            monkeypatch.setattr(module, "integrate", unreachable)
        # An interval no other test uses, so no cached mean hides the failure.
        cfg = {"theorems": ["II1"], "families": [{"family": "pow", "params": [1.0, 2.0, 0.0]}],
               "a_values": [1.37], "ratios": [2.3], "s_grid": [1.0], "m_grid": [1.0], "q_grid": [1.0],
               "grid": 24, "seed": 5}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(cfg))
        jout = tmp_path / "r.json"
        code, out, _ = run(capsys, "sweep", "--config", str(config_path),
                           "--json", str(jout), "--csv", str(tmp_path / "r.csv"))
        assert code == 1
        findings = json.loads(jout.read_text())["findings"]
        assert findings and all(f["kind"] == "EvaluationError" for f in findings)
        assert all(f["description"].startswith("ToleranceNotMetError: tolerance not met") for f in findings)


class TestSearchCommand:
    def test_no_counterexample(self, capsys):
        code, out, _ = run(capsys, "search", "--theorem", "II1", "--budget", "50", "--seed", "3")
        assert code == 0
        assert "no counterexample" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "search", "--theorem", "II2", "--budget", "20", "--seed", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["finding"] is None


class TestReductionsCommand:
    def test_text_output_exit_zero(self, capsys):
        code, out, _ = run(capsys, "reductions", "--a", "1", "--b", "2",
                           "--s-grid", "0.5", "1.0", "--q-grid", "2.0")
        assert code == 0  # printed-form findings document the source; oracle chain holds
        assert "oracle chain: OK" in out
        assert "lambda3" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "reductions", "--a", "1", "--b", "2",
                           "--s-grid", "0.5", "--q-grid", "2.0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["findings"]
        assert all(f["payload"]["level"] == "printed" for f in doc["findings"])

    def test_non_finite_q_grid_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "reductions", "--a", "1", "--b", "2", "--s-grid", "0.5", "--q-grid", "nan")
        assert (code, out) == (2, "")
        assert err == "usage error: rho coefficients require a finite r >= 1, got nan\n"
