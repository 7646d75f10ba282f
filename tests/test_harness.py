import hashlib
import json

import pytest

from hhkit import bounds, harness
from hhkit.bounds import Interval
from hhkit.errors import DomainError, ParameterError
from hhkit.harness import (
    SweepConfig,
    _instance_plan,
    build_adjudication_report,
    check_reductions,
    default_sweep_config,
    make_function,
    render_report_csv,
    render_report_json,
    run_sweep,
    search_counterexample,
    write_report_csv,
    write_report_json,
)

AFFINE_ONLY = ({"family": "affine", "params": (1.0, 0.0)},)


def single_instance_config(**overrides) -> SweepConfig:
    base = dict(
        theorems=("II1",),
        families=({"family": "pow", "params": (1.0, 2.0, 0.0)},),
        a_values=(1.0,),
        ratios=(2.0,),
        s_grid=(1.0,),
        m_grid=(1.0,),
        q_grid=(1.0,),
        grid=32,
        seed=1,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_roundtrip_through_json(self):
        cfg = default_sweep_config()
        again = SweepConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ParameterError):
            single_instance_config(theorems=("XYZ",))
        with pytest.raises(ParameterError):
            single_instance_config(ratios=(0.9,))
        with pytest.raises(ParameterError):
            single_instance_config(m_grid=(0.0,))

    def test_bad_family_rejected_at_parse_time(self):
        with pytest.raises(DomainError):
            single_instance_config(families=({"family": "cosine", "params": ()},))
        with pytest.raises(DomainError):
            single_instance_config(families=({"family": "pow", "params": (1.0,)},))

    def test_make_function_window_covers_combined_points(self):
        f = make_function({"family": "pow", "params": (1.0, 2.0, 0.0)}, 0.5, Interval(1.0, 2.0))
        assert f.domain_lo < 0.5 and f.domain_hi > 4.0


class TestFSAtSZero:
    def test_sweep_over_s_zero_has_no_findings(self):
        # FS1/FS2 are stated for s in (0, 1]; s = 0 points are not planned,
        # the same way I1 at s != 1 is not.
        cfg = single_instance_config(theorems=("FS1", "FS2"), s_grid=(0.0, 1.0), q_grid=(1.0, 2.0), grid=16)
        res = run_sweep(cfg)
        assert res.findings == []
        assert [(r.theorem, r.params.s, r.params.q) for r in res.records] == [
            ("FS1", 1.0, 1.0), ("FS1", 1.0, 2.0), ("FS2", 1.0, 2.0)]
        assert all(item[3] != 0.0 for item in _instance_plan(cfg))


class TestRunSweep:
    def test_single_instance_margin(self):
        res = run_sweep(single_instance_config())
        assert len(res.records) == 1
        assert res.records[0].margin == pytest.approx(0.5, abs=1e-10)
        assert res.summary["violations"] == 0

    def test_empty_theorem_list(self):
        res = run_sweep(single_instance_config(theorems=()))
        assert res.records == [] and res.findings == [] and res.skipped == []

    def test_classical_and_harmonic_double_inequality_tags(self):
        res = run_sweep(single_instance_config(theorems=("HH", "HarmHH")))
        assert [r.theorem for r in res.records] == ["HH", "HarmHH"]
        assert all(r.satisfied for r in res.records)

    def test_uncertifiable_instances_are_skipped_not_failed(self):
        # |f'|^q = const fails the m < 1 check at t = 0, so II2 skips it
        cfg = single_instance_config(theorems=("II2",), families=AFFINE_ONLY, m_grid=(0.5,))
        res = run_sweep(cfg)
        assert res.records == []
        assert len(res.skipped) == 1
        assert "reason" in res.skipped[0]
        assert res.findings == []

    def test_small_mixed_sweep_all_satisfied(self):
        cfg = single_instance_config(
            theorems=("HarmHH", "II1", "I1", "FS1", "II2", "II3", "II4"),
            families=(
                {"family": "pow", "params": (1.0, 2.0, 0.0)},
                {"family": "pow", "params": (1.0, 3.0, 0.0)},
            ),
            s_grid=(0.5, 1.0),
            m_grid=(0.8, 1.0),
            q_grid=(1.0, 2.0),
        )
        res = run_sweep(cfg)
        assert res.summary["violations"] == 0
        assert all(r.satisfied for r in res.records)
        assert res.summary["worst_margin"] > 0.0


class TestReportRendering:
    def test_json_deterministic_and_schema_versioned(self, tmp_path):
        res = run_sweep(single_instance_config())
        text = render_report_json(res)
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["records"][0]["margin"] == pytest.approx(0.5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(res, str(p1))
        write_report_json(res, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_layout(self, tmp_path):
        res = run_sweep(single_instance_config())
        text = render_report_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "theorem,a,b,s,m,q,family,lhs,rhs,margin,satisfied"
        assert lines[1].startswith("II1,1,2,1,1,")
        assert lines[1].endswith("true")
        path = tmp_path / "r.csv"
        write_report_csv(res, str(path))
        assert path.read_text() == text

    def test_fifteen_digit_float_contract(self):
        res = run_sweep(single_instance_config())
        doc = render_report_json(res)
        for token in doc.replace(",", " ").split():
            token = token.strip('"[]{}')
            if token.replace(".", "").replace("-", "").replace("e", "").isdigit() and "." in token:
                mantissa = token.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
                assert len(mantissa) <= 15


# Pinned before the shared-mesh grid check landed; a change to these bytes is
# a behaviour change and must be declared as one.
PINNED_SWEEP = SweepConfig(
    theorems=("HH", "HarmHH", "II1", "I1", "I2", "FS1", "FS2", "II2", "II3", "II4"),
    families=({"family": "pow", "params": (1.0, 1.5, 0.0)}, {"family": "pow", "params": (1.0, 2.0, 0.0)}),
    a_values=(1.0,),
    ratios=(2.0, 5.0),
    s_grid=(0.5, 1.0),
    m_grid=(0.8, 1.0),
    q_grid=(1.0, 2.0),
    grid=24,
    seed=7,
)
PINNED_JSON_SHA256 = "bcc95b3b337ebf02db74d511dfc60522878944d06a4540a5dedb841315e696f2"
PINNED_CSV_SHA256 = "8cb63ceb10a1d75b65775f66dbc33f41e84652498116934a4accc45e9308599b"


class TestPinnedReports:
    def test_small_sweep_report_digests(self, tmp_path):
        res = run_sweep(PINNED_SWEEP)
        # exponent 1.5 fails some gradient certifications, exponent 2 passes all
        assert (res.summary["instances_evaluated"], res.summary["instances_skipped"]) == (132, 8)
        json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        write_report_json(res, str(json_path))
        write_report_csv(res, str(csv_path))
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == PINNED_JSON_SHA256
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == PINNED_CSV_SHA256

    def test_written_json_equals_rendered(self, tmp_path):
        res = run_sweep(single_instance_config(theorems=("II1", "II2"), q_grid=(1.0, 2.0)))
        path = tmp_path / "r.json"
        write_report_json(res, str(path))
        assert path.read_bytes() == render_report_json(res).encode("utf-8")


class TestDeterminism:
    def test_same_config_same_bytes(self):
        cfg = single_instance_config(
            theorems=("II1", "II2"),
            s_grid=(0.5, 1.0),
            m_grid=(0.8, 1.0),
            q_grid=(1.0, 2.0),
        )
        a = render_report_json(run_sweep(cfg))
        b = render_report_json(run_sweep(cfg))
        assert a == b
        assert render_report_csv(run_sweep(cfg)) == render_report_csv(run_sweep(cfg))


class TestProgress:
    def test_called_once_per_instance_in_plan_order(self, monkeypatch):
        # pow exponent 1.5 at m = 0.8 fails some gradient certifications
        # (skips), and II1 at s = 0.5 is made to raise (EvaluationErrors), so
        # every outcome of an instance reports its progress
        cfg = single_instance_config(
            theorems=("II1", "II2"),
            families=({"family": "pow", "params": (1.0, 1.5, 0.0)},),
            s_grid=(0.5, 1.0),
            m_grid=(0.8, 1.0),
            q_grid=(1.0, 2.0),
        )
        real_verify = bounds.verify_theorem

        def verify(theorem, f, params, *args, **kwargs):
            if theorem == "II1" and params.s == 0.5:
                raise ValueError("injected")
            return real_verify(theorem, f, params, *args, **kwargs)

        monkeypatch.setattr(bounds, "verify_theorem", verify)
        calls = []
        res = run_sweep(cfg, progress=lambda done, total: calls.append((done, total)))
        errors = sum(f.kind == "EvaluationError" for f in res.findings)
        n = len(res.records) + len(res.skipped) + errors
        assert len(res.records) and len(res.skipped) and errors
        assert n == len(_instance_plan(cfg))
        assert calls == [(i, n) for i in range(1, n + 1)]


class TestSearchCounterexample:
    def test_budget_validation(self):
        with pytest.raises(ParameterError):
            search_counterexample("II1", 0, seed=1)

    def test_certified_search_finds_nothing(self):
        # the theorem holds on its hypothesis class; absence is the expected outcome
        assert search_counterexample("II1", budget=10_000, seed=3) is None

    def test_fixed_seed_reproducible(self):
        kwargs = dict(
            families=AFFINE_ONLY,
            s_range=(1.0, 1.0),
            m_range=(0.1, 0.2),
            q_range=(1.0, 1.0),
            a_range=(1.0, 1.0),
            ratio_range=(2.0, 2.0),
            enforce_certification=False,
        )
        a = search_counterexample("II2", budget=40, seed=7, **kwargs)
        b = search_counterexample("II2", budget=40, seed=7, **kwargs)
        assert a == b

    def test_injected_uncertified_violation_detected(self):
        # |f'|^q = 1 is not harmonically (1,m)-convex for small m, and the II2
        # bound genuinely fails there; with the gate disabled the detector
        # must flag it.
        finding = search_counterexample(
            "II2",
            budget=40,
            seed=7,
            families=AFFINE_ONLY,
            s_range=(1.0, 1.0),
            m_range=(0.1, 0.2),
            q_range=(1.0, 1.0),
            a_range=(1.0, 1.0),
            ratio_range=(2.0, 2.0),
            enforce_certification=False,
        )
        assert finding is not None
        assert finding.kind == "BoundViolation"
        assert finding.severity > 1e-4
        assert finding.payload["worst_record"]["margin"] < -1e-4
        # the shrink walks m toward the violation boundary
        boundary_m = finding.payload["boundary_parameters"]["m"]
        assert boundary_m > finding.payload["worst_parameters"]["m"]
        assert abs(finding.payload["boundary_record"]["margin"]) < 1e-4

    def test_same_instances_with_certification_return_none(self):
        finding = search_counterexample(
            "II2",
            budget=40,
            seed=7,
            families=AFFINE_ONLY,
            s_range=(1.0, 1.0),
            m_range=(0.1, 0.2),
            q_range=(1.0, 1.0),
            a_range=(1.0, 1.0),
            ratio_range=(2.0, 2.0),
            enforce_certification=True,
        )
        assert finding is None

    def test_finding_is_reproducible_from_payload(self):
        from hhkit.bounds import Interval as Iv
        from hhkit.bounds import verify_bound
        from hhkit.functions import SMParams

        finding = search_counterexample(
            "II2",
            budget=40,
            seed=7,
            families=AFFINE_ONLY,
            s_range=(1.0, 1.0),
            m_range=(0.1, 0.2),
            q_range=(1.0, 1.0),
            a_range=(1.0, 1.0),
            ratio_range=(2.0, 2.0),
            enforce_certification=False,
        )
        rec = finding.payload["worst_record"]
        iv = Iv(rec["a"], rec["b"])
        f = make_function({"family": "affine", "params": (1.0, 0.0)}, rec["m"], iv)
        again = verify_bound(
            "II2", f, SMParams(rec["s"], rec["m"], rec["q"]), iv, enforce_certification=False
        )
        assert again.margin == pytest.approx(rec["margin"], rel=1e-12)


class TestShrink:
    """The shrink bisects ``ratio`` and the parameters the theorem takes, 20
    trials each, and leaves the other drawn values, and those already at
    their anchor, as they are."""

    @pytest.mark.parametrize("theorem, trials", [
        ("II1", 60), ("HH", 20), ("II2", 80), ("I1", 40), ("I2", 40), ("FS1", 60), ("FS2", 60),
    ])
    def test_trials_per_theorem(self, theorem, trials, monkeypatch):
        calls = []
        real = harness._search_instance

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "_search_instance", counted)
        # the point as a search draws it: the values a row fixes sit at their
        # anchors, where bisecting 1 toward 1 would only repeat the point
        row = bounds.THEOREMS[theorem]
        point = {"a": 1.0, "ratio": 2.0, "s": 0.5, "m": 0.5, "q": 2.0}
        if row.unit_sm:
            point["s"] = 1.0
        if row.unit_sm or row.unit_m:
            point["m"] = 1.0
        boundary = harness._shrink(theorem, AFFINE_ONLY[0], point, 24, False)
        assert len(calls) == trials
        for name in "smq":
            if name not in row.takes or point[name] == 1.0:
                assert boundary[name] == point[name]

    def test_ii1_boundary_keeps_the_drawn_q(self):
        finding = search_counterexample(
            "II1", budget=6, seed=11, families=({"family": "pow", "params": (1.0, 0.5, 0.0)},),
            m_range=(0.1, 0.6), enforce_certification=False,
        )
        assert finding is not None
        assert finding.payload["boundary_parameters"]["q"] == finding.payload["worst_parameters"]["q"]


BUILDERS = ("coeff_lambda", "coeff_mu", "coeff_C", "coeff_rho", "coeff_nu")


@pytest.fixture
def builder_calls(monkeypatch):
    """Every call of a printed coefficient builder, as (name, args).  The table's
    companions look their builder up in ``bounds`` when called."""
    calls = []
    for name in BUILDERS:
        def counted(*args, _name=name, _real=getattr(bounds, name)):
            calls.append((_name, args))
            return _real(*args)
        monkeypatch.setattr(bounds, name, counted)
    return calls


class TestSearchCompanion:
    """Search draws and shrink trials compute their verdict only; the printed
    companion set is built for the two records a finding reports."""

    @pytest.mark.parametrize("theorem", ["II2", "II3", "II4"])
    def test_certified_search_builds_no_companion(self, theorem, builder_calls, monkeypatch):
        evaluated = []
        real_verify = bounds.verify_bound

        def verify(*args, **kwargs):
            rec = real_verify(*args, **kwargs)
            evaluated.append(rec)
            return rec

        monkeypatch.setattr(bounds, "verify_bound", verify)
        assert search_counterexample(theorem, budget=20, seed=5) is None
        assert evaluated  # certified draws ran to a verdict
        assert builder_calls == []

    def test_finding_builds_companions_for_its_two_records(self, builder_calls):
        finding = search_counterexample(
            "II2",
            budget=40,
            seed=7,
            families=AFFINE_ONLY,
            s_range=(1.0, 1.0),
            m_range=(0.1, 0.2),
            q_range=(1.0, 1.0),
            a_range=(1.0, 1.0),
            ratio_range=(2.0, 2.0),
            enforce_certification=False,
        )
        expected = []
        for key in ("worst_parameters", "boundary_parameters"):
            p = finding.payload[key]
            expected.append(("coeff_rho", (p["s"], p["q"], Interval(p["a"], p["a"] * p["ratio"]))))
        assert builder_calls == expected
        for key in ("worst_record", "boundary_record"):
            assert finding.payload[key]["diagnostics"][-1].startswith("printed_Rho_max_abs_dev=")


@pytest.fixture(scope="module")
def reduction_findings():
    return check_reductions(Interval(1.0, 2.0))


class TestCheckReductions:
    @pytest.fixture
    def findings(self, reduction_findings):
        return reduction_findings

    def test_no_oracle_level_mismatches(self, findings):
        assert [f for f in findings if f.payload.get("level") == "oracle"] == []

    def test_lambda3_deviation_reported(self, findings):
        rows = [f for f in findings if f.payload.get("label") == "lambda3"]
        assert len(rows) == 1
        assert rows[0].kind == "ClosedFormDeviation"
        assert rows[0].severity == pytest.approx(1.4133964278766016, rel=1e-9)

    def test_mu_hypergeometric_swap_reported(self, findings):
        swapped = [
            f
            for f in findings
            if f.payload.get("label", "").startswith("mu") and "swapped" in f.description
        ]
        assert len(swapped) == 6  # both labels at q in {1.5, 2, 3}

    def test_printed_c2_c3_deviations_reported(self, findings):
        labels = {f.payload.get("label") for f in findings if f.payload.get("set") == "C"}
        assert labels == {"C2", "C3"}

    def test_rho2_proof_form_deviation_reported(self, findings):
        rows = [f for f in findings if f.payload.get("label") == "rho2_proof"]
        assert len(rows) == 12  # every (s, q) combination
        assert all(f.severity > 1e-3 for f in rows)

    def test_rho1_and_nu_never_flagged(self, findings):
        labels = {f.payload.get("label") for f in findings}
        assert "rho1" not in labels
        assert "rho2_statement" not in labels
        assert "nu1" not in labels and "nu2" not in labels
        assert "lambda1" not in labels and "lambda2" not in labels and "C1" not in labels

    def test_remark_identities_documented(self, findings):
        remark = [f for f in findings if f.kind == "ReductionMismatch"]
        assert all(f.payload.get("level") == "printed" for f in remark)
        assert any("C2(1,a,b) = lambda2" in f.description for f in remark)
        assert any("mu hypergeometric labels are swapped" in f.description for f in remark)


class TestAdjudicationReport:
    def test_deterministic(self):
        a = build_adjudication_report()
        b = build_adjudication_report()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_structure(self):
        report = build_adjudication_report(intervals=(Interval(1.0, 2.0),))
        assert report["schema_version"] == 1
        assert report["coefficient_tables"][0]["a"] == 1.0
        names = {s["name"] for s in report["coefficient_tables"][0]["sets"]}
        assert names == {"Lambda", "Mu", "C", "Rho", "Nu"}
        assert all("deviations" in s for s in report["coefficient_tables"][0]["sets"])
        assert len(report["findings"]) > 0
