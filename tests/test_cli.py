import json

import pytest

from hhkit import quadrature
from hhkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_theorem_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "nope", "--family", "pow", "--a", "1", "--b", "2"])
        assert exc.value.code == 2


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

    def test_missing_config_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_tolerance_not_met_becomes_evaluation_error(self, capsys, tmp_path, monkeypatch):
        # The real integrator under a tolerance no depth-1 bisection can meet:
        # every harmonic mean raises ToleranceNotMetError inside the sweep.
        real = quadrature.integrate

        def unreachable(f, lo, hi, spec=quadrature.DEFAULT_QUADSPEC):
            return real(f, lo, hi, quadrature.QuadSpec(1e-300, 1e-300, 1, spec.split_points))

        monkeypatch.setattr(quadrature, "integrate", unreachable)
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
