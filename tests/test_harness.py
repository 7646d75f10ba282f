import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhkit import bounds, harness, quadrature, specfun
from hhkit.bounds import Interval
from hhkit.errors import DomainError, ParameterError, ToleranceNotMetError
from hhkit.functions import SMParams
from hhkit.harness import (
    SweepConfig,
    _instance_plan,
    build_adjudication_report,
    check_reductions,
    default_sweep_config,
    make_function,
    render_json,
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

    @pytest.mark.parametrize("field, value", [
        ("ratios", float("nan")), ("ratios", float("inf")),
        ("a_values", float("nan")), ("a_values", float("inf")),
        ("q_grid", float("nan")), ("q_grid", float("inf")),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            single_instance_config(**{field: (value,)})

    @pytest.mark.parametrize("text, message", [
        ('{"theorems": ["II1"]', "sweep config is not valid JSON"),
        (b'{"theorems": ["\xff"]}', "sweep config is not valid JSON: 'utf-8' codec"),
        ("[1, 2]", "malformed sweep config"),
    ], ids=["truncated", "not-utf8", "not-an-object"])
    def test_malformed_json_is_a_parameter_error(self, text, message):
        with pytest.raises(ParameterError, match=message):
            SweepConfig.from_json(text)

    @pytest.mark.parametrize("change, message", [
        ({"ratios": None}, "sweep config lacks the key 'ratios'"),
        ({"families": [{"family": "pow"}]}, "sweep config lacks the key 'params'"),
        ({"a_values": ["one"]}, r"malformed sweep config: a_values must hold numbers, got \['one'\]"),
        ({"a_values": ["1.5"]}, r"malformed sweep config: a_values must hold numbers, got \['1.5'\]"),
        ({"families": [{"family": "pow", "params": ["1", "2", "0"]}]},
         r"malformed sweep config: params must hold numbers, got \['1', '2', '0'\]"),
        ({"families": [{"family": 7, "params": [1, 2, 0]}]}, "malformed sweep config: family must be one of .*, got 7$"),
        ({"families": [{"family": "cosine", "params": []}]},
         "malformed sweep config: family must be one of .*, got 'cosine'$"),
        ({"grid": "dense"}, "malformed sweep config"),
        ({"grid": float("inf")}, "malformed sweep config: cannot convert float infinity to integer"),
        ({"q_grid": 2.0}, "malformed sweep config"),
        ({"grid": 48.9}, "malformed sweep config: grid must be an integer, got 48.9"),
        ({"seed": True}, "malformed sweep config: seed must be an integer, got True"),
        ({"theorems": "II1"}, "malformed sweep config: theorems must be a list, got 'II1'"),
        ({"families": [{"family": "pow", "params": "123"}]}, "malformed sweep config: params must be a list"),
        ({"s_grid": [True]}, "malformed sweep config: s_grid must hold numbers"),
    ], ids=["missing-ratios", "missing-params", "non-numeric-a", "numeric-string-a", "numeric-string-params",
            "integer-family", "unknown-family", "text-grid", "infinite-grid", "scalar-q-grid",
            "fractional-grid", "boolean-seed", "string-theorems", "string-params", "boolean-s"])
    def test_malformed_fields_are_parameter_errors(self, change, message):
        data = single_instance_config().to_dict()
        data.update(change)
        data = {k: v for k, v in data.items() if v is not None}
        with pytest.raises(ParameterError, match=message):
            SweepConfig.from_dict(data)

    def test_integral_numbers_are_integers(self):
        data = {**single_instance_config().to_dict(), "grid": 32.0, "seed": 1.0}
        cfg = SweepConfig.from_dict(data)
        assert (cfg.grid, cfg.seed) == (32, 1)
        assert type(cfg.grid) is int and cfg == single_instance_config()

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

    def test_each_function_and_parameter_point_is_built_once(self, monkeypatch):
        # 2 families x 2 intervals x 2 m values; HarmHH (m = None) shares m = 1
        cfg = single_instance_config(
            theorems=("HarmHH", "II1", "II2"), families=AFFINE_ONLY + ({"family": "pow", "params": (1.0, 2.0, 0.0)},),
            ratios=(2.0, 3.0), s_grid=(0.5, 1.0), m_grid=(0.8, 1.0), q_grid=(1.0, 2.0), grid=16)
        built = []
        monkeypatch.setattr(harness, "make_function", lambda *args: built.append(args) or make_function(*args))
        res = run_sweep(cfg)
        assert len(built) == len(set((fam["params"], m, iv) for fam, m, iv in built)) == 8
        points = {id(r.params): (r.params.s, r.params.m, r.params.q) for r in res.records if r.theorem != "HarmHH"}
        assert len(points) == len(set(points.values())) == 2 * 2 * 2

    def test_records_keep_the_sign_of_a_zero_s(self):
        cfg = single_instance_config(theorems=("II1", "II2"), s_grid=(0.0, -0.0, 1.0), m_grid=(0.8, 1.0),
                                     q_grid=(1.0, 2.0), grid=16)
        res = run_sweep(cfg)
        assert not res.skipped and not res.findings
        signs = [(math.copysign(1.0, r.params.s), r.params.m, r.params.q) for r in res.records]
        assert signs == [(math.copysign(1.0, s), m, 1.0 if q is None else q)
                         for _, _, _, s, m, q in _instance_plan(cfg)]


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
# a behaviour change and must be declared as one.  The JSON was re-pinned when
# homogeneous targets moved to the border mesh: the cert_worst_margin of
# passing s = m = 1 certifications, rounding noise, moved, and again when
# homogeneous targets came to be certified once per reduced problem (passing
# certifications report its worst margin, scaled).
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
PINNED_JSON_SHA256 = "bfb2dc4cc98f0378f0e8de96544b1f07200c72a3ce7dddf5a0cc8e291883f6d7"
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


def _quantize_reference(obj):
    """Reference for the JSON writer: a copy of ``obj`` with every float
    rounded to 15 significant digits by value, for ``json.dumps`` to print."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(format(float(obj), ".15g"))
    if isinstance(obj, dict):
        return {k: _quantize_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize_reference(v) for v in obj]
    return obj


def _render_json_reference(doc: dict) -> str:
    return json.dumps(_quantize_reference({"schema_version": 1, **doc}), indent=2, sort_keys=True) + "\n"


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5, 1e-4, 1e15,
                123456789012345678.0, 0.1 + 0.2, float("nan"), float("inf"), float("-inf"))
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(), st.floats(width=32),
                    st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()).map(np.float64))
_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)

# Values a report repeats: zeros of both signs, NaN, and np.float64 twins of
# plain floats, which compare (and hash) equal and must keep their own text.
_REPEATED_FLOATS = st.sampled_from((0.0, -0.0, math.nan, np.float64("nan"), 0.5, np.float64(0.5),
                                    np.float64(-0.0), np.float64(0.0), 0.1 + 0.2, -1e300, math.inf))
# Keys with % in them must not reach a dict layout's % format unescaped.
_SHARED_KEYS = ("a", "b", "%s", "100%", "zé", "")


class _Obj:
    def __init__(self, value):
        self.value = value

    def to_dict(self):
        return self.value


def _as_dicts(obj):
    """``obj`` with every ``to_dict`` object replaced by its dict."""
    if isinstance(obj, _Obj):
        return _as_dicts(obj.to_dict())
    if isinstance(obj, dict):
        return {k: _as_dicts(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_dicts(v) for v in obj]
    return obj


@st.composite
def _shared_layout_docs(draw):
    """Lists of dicts over one key set, each dict in an insertion order of its
    own, nested at several depths, with repeated floats at the leaves."""
    keys = draw(st.lists(st.sampled_from(_SHARED_KEYS), min_size=1, unique=True))

    def layouts(children):
        return st.permutations(keys).flatmap(
            lambda order: st.tuples(*[children] * len(order)).map(lambda values: dict(zip(order, values))))

    values = st.recursive(
        st.one_of(_REPEATED_FLOATS, _SCALARS),
        lambda children: st.one_of(layouts(children), layouts(children).map(_Obj),
                                   st.lists(layouts(children), max_size=3), st.lists(children, max_size=3)),
        max_leaves=30,
    )
    return draw(st.lists(values, min_size=1, max_size=4))


_SHARED_LAYOUT_DOCS = _shared_layout_docs()


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_TEXT, _VALUES, max_size=5))
    def test_equals_json_dumps_of_the_rounded_document(self, doc):
        assert render_json(doc) == _render_json_reference(doc)

    def test_edge_values(self):
        doc = {"floats": list(_EDGE_FLOATS), "np": [np.float64(v) for v in _EDGE_FLOATS],
               "flags": (True, False, None, 0, 1, -(2**70)), "empty": [[], (), {}],
               "text": ["caf\u00e9", "\u0000\u001f\t\n\"\\", "\U0001d11e", ""], "\u00fc": {"": {}}}
        assert render_json(doc) == _render_json_reference(doc)

    @settings(max_examples=200, deadline=None)
    @given(_SHARED_LAYOUT_DOCS)
    @example([[{"a": -0.0, "b": 0.0}, {"b": -0.0, "a": 0.0}]])
    @example([[math.nan, np.float64("nan"), 0.5, np.float64(0.5), np.float64(-0.0), 0.0, -0.0]])
    def test_repeated_floats_and_layouts_equal_json_dumps(self, records):
        # the writer keeps each float's text and each dict layout for the
        # whole document, so later values must not take an earlier one's text
        doc = {"records": records, "summary": records[-1]}
        assert render_json(doc) == _render_json_reference(_as_dicts(doc))

    def test_unsupported_value_raises_type_error(self):
        with pytest.raises(TypeError):
            render_json({"x": {1, 2}})
        with pytest.raises(TypeError):
            render_json({"x": [{"a": 1.0}, {"a": {1, 2}}]})


class TestCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(_REPEATED_FLOATS, _SCALARS), max_size=5), max_size=8))
    def test_equals_csv_writer_rows_of_fifteen_digit_texts(self, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("x", "y"))
        writer.writerows([harness._fmt15(v) for v in row] for row in rows)
        assert harness.render_csv(("x", "y"), rows) == buf.getvalue()


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


def _stub_record(point, margin):
    """The record bounds builds for a margin of ``margin`` (lhs 0), so its
    verdict is the record's own rule."""
    iv = Interval(point["a"], point["a"] * point["ratio"])
    params = SMParams(point["s"], point["m"], point["q"])
    return bounds._record("II1", iv, params, "pow(1,2,0)", 0.0, margin, ())


def _stub_case_record(case, margin):
    """``_stub_record`` of a search case (``harness._search_case``)."""
    _, params, iv = case
    return bounds._record("II1", iv, params, "pow(1,2,0)", 0.0, margin, ())


class TestSearchReadsTheRecordVerdict:
    """The sweep, the search and the shrink all take a record's verdict from
    ``rec.satisfied``; a NaN margin is a violation in each of them."""

    def test_nan_margin_is_not_satisfied(self):
        point = {"a": 1.0, "ratio": 2.0, "s": 1.0, "m": 1.0, "q": 1.0}
        assert not _stub_record(point, math.nan).satisfied
        assert _stub_record(point, -0.5 * bounds.TOL_ACCEPT).satisfied

    def test_sweep_counts_a_nan_margin_as_a_violation(self, monkeypatch):
        def stub(theorem, f, params, iv, **kwargs):
            return _stub_record({"a": iv.a, "ratio": iv.b / iv.a, "s": 1.0, "m": 1.0, "q": 1.0}, math.nan)

        monkeypatch.setattr(bounds, "verify_theorem", stub)
        res = run_sweep(single_instance_config())
        assert [f.kind for f in res.findings] == ["BoundViolation"]
        assert res.summary["violations"] == 1
        # a NaN margin has no magnitude: severity 0, as for an EvaluationError
        assert res.findings[0].severity == 0.0
        assert math.isnan(res.summary["worst_margin"])

    @pytest.mark.parametrize("margins", [(math.nan, 1.0), (1.0, math.nan), (-2.0, math.nan, 0.5)])
    def test_summary_worst_margin_is_nan_in_any_order(self, margins):
        point = {"a": 1.0, "ratio": 2.0, "s": 1.0, "m": 1.0, "q": 1.0}
        records = [_stub_record(point, margin) for margin in margins]
        res = harness.SweepResult(single_instance_config(), records, [], [])
        assert math.isnan(res.summary["worst_margin"])

    def test_search_reports_a_nan_margin_and_ranks_it_worst(self, monkeypatch):
        # NaN above s = 0.6, a finite violation -s below it
        def stub(theorem, case, grid, enforce, companion=False):
            s = case[1].s
            return _stub_case_record(case, math.nan if s > 0.6 else -s)

        monkeypatch.setattr(harness, "_search_instance", stub)
        # seed 0 draws s = 0.44 first and s = 0.92 second
        finding = search_counterexample("II1", budget=20, seed=0)
        assert finding is not None
        assert math.isnan(finding.payload["worst_record"]["margin"])
        assert finding.payload["worst_parameters"]["s"] > 0.6
        assert finding.severity == 0.0

    def test_shrink_stops_on_the_record_verdict(self, monkeypatch):
        # every margin is -1, but the record passes for m > 0.75: the shrink
        # must follow the verdict, not re-derive one from the margin
        def stub(theorem, case, grid, enforce, companion=False):
            rec = _stub_case_record(case, -1.0)
            return dataclasses.replace(rec, satisfied=case[1].m > 0.75)

        monkeypatch.setattr(harness, "_search_instance", stub)
        point = {"a": 1.0, "ratio": 1.05, "s": 1.0, "m": 0.5, "q": 1.0}
        boundary = harness._shrink("II1", AFFINE_ONLY[0], point, 24, True)
        assert 0.75 - 1e-6 < boundary["m"] <= 0.75


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


def _value_caches():
    """Every cache a 2F1 term, a kernel or a coefficient set is kept in."""
    return (quadrature._kernel_K_cached, bounds._f21_cached,
            *(getattr(bounds, row.builder) for row in bounds.PRINTED_SETS.values()))


@pytest.fixture
def cold_value_caches():
    for cache in _value_caches():
        cache.cache_clear()
    yield
    for cache in _value_caches():
        cache.cache_clear()


class TestBatchedAdjudication:
    """One interval's 2F1 terms and kernels are integrated in one batch."""

    S_GRID, Q_GRID = (0.25, 0.5, 0.75, 1.0), (1.5, 2.0, 3.0)

    def test_one_batch_and_no_single_integral(self, monkeypatch, cold_value_caches):
        singles, batches = [], []
        integrate, integrate_many = quadrature.integrate, quadrature.integrate_many

        def single(*args, **kwargs):
            singles.append(args)
            return integrate(*args, **kwargs)

        def many(jobs):
            batches.append([job[0] for job in jobs])
            return integrate_many(jobs)

        for module in (quadrature, specfun, bounds):
            monkeypatch.setattr(module, "integrate", single)
        monkeypatch.setattr(bounds, "integrate_many", many)
        build_adjudication_report(intervals=(Interval(1.3, 4.1),))
        assert singles == []
        assert len(batches) == 1
        # 115 2F1 terms of two halves each, 63 kernels and 14 substituted kernels
        families = [family.__name__ for family in batches[0]]
        assert (families.count("_euler_integrand"), families.count("_kernel_integrand")) == (230, 77)

    def test_planning_caches_nothing(self, cold_value_caches):
        iv = Interval(0.9, 6.5)

        def sizes_before_check() -> list[int]:
            sizes = [cache.cache_info().currsize for cache in _value_caches()]
            harness._check_reductions(iv, self.S_GRID, self.Q_GRID)
            return sizes

        # the sizes the served run of the body reads, after the plan
        assert bounds.batched(sizes_before_check) == [0] * 7
        batched = bounds.coeff_rho(0.5, 2.0, iv), bounds.coeff_mu(3.0, iv)
        assert bounds.coeff_rho.cache_info().currsize > 0
        for cache in _value_caches():
            cache.cache_clear()
        assert (bounds.coeff_rho(0.5, 2.0, iv), bounds.coeff_mu(3.0, iv)) == batched

    @pytest.mark.parametrize("lookup, direct", [
        (lambda: bounds._kernel("W9", 0.5, 1.0, 1.0, 2.0), lambda: quadrature.kernel_K("W9", 0.5, 1.0, 1.0, 2.0)),
        (lambda: bounds._kernel("W1", 1.5, 1.0, 1.0, 2.0), lambda: quadrature.kernel_K("W1", 1.5, 1.0, 1.0, 2.0)),
        (lambda: bounds._kernel("N2", 0.5, 0.5, 1.0, 2.0), lambda: quadrature.kernel_K("N2", 0.5, 0.5, 1.0, 2.0)),
        (lambda: bounds._kernel("W2", 0.5, math.nan, 1.0, 2.0),
         lambda: quadrature.kernel_K("W2", 0.5, math.nan, 1.0, 2.0)),
        (lambda: bounds._kernel("N1", 0.5, 1.0, 2.0, 1.0), lambda: quadrature.kernel_K("N1", 0.5, 1.0, 2.0, 1.0)),
        (lambda: bounds._substituted_kernel("W1", -0.5, 1.0, 1.0, 2.0),
         lambda: quadrature.kernel_K("W1", -0.5, 1.0, 1.0, 2.0)),
        (lambda: bounds._f21(2.0, 0.0, 1.0, 0.5), lambda: bounds._f21(2.0, 0.0, 1.0, 0.5)),
        (lambda: bounds._f21(2.0, 3.0, 2.0, 0.5), lambda: bounds._f21(2.0, 3.0, 2.0, 0.5)),
        (lambda: bounds._f21(2.0, 1.0, 2.0, 1.0), lambda: bounds._f21(2.0, 1.0, 2.0, 1.0)),
        (lambda: bounds._f21(2.0, 1.0, 2.0, -0.1), lambda: bounds._f21(2.0, 1.0, 2.0, -0.1)),
    ])
    def test_plan_lookups_make_every_check(self, lookup, direct):
        with pytest.raises(DomainError) as unbatched:
            direct()
        with pytest.raises(DomainError) as planned:
            bounds.batched(lookup)
        assert str(planned.value) == str(unbatched.value)
        assert bounds._BATCH.get() is None

    @pytest.mark.parametrize("s_grid, q_grid", [(S_GRID, Q_GRID), ((0.5,), (0.5,))],
                             ids=["grid", "plan-error"])
    def test_the_first_failing_lookup_escapes(self, s_grid, q_grid, monkeypatch, cold_value_caches):
        # under a cap of 12 intervals 61 of the interval's 307 integrals fail,
        # the first at job 4: the error that escapes the batch is the one the
        # lookups meet one by one.  On the second grid the rho set at q = 0.5
        # raises a ParameterError, after a kernel before it has failed.
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 12)
        iv = Interval(1.3, 4.1)
        with pytest.raises(ToleranceNotMetError) as batched:
            check_reductions(iv, s_grid, q_grid)
        for cache in _value_caches():
            cache.cache_clear()
        with pytest.raises(ToleranceNotMetError) as alone:
            harness._check_reductions(iv, s_grid, q_grid)
        assert (str(batched.value), batched.value.estimate, batched.value.error_bound) == \
            (str(alone.value), alone.value.estimate, alone.value.error_bound)

    def test_builder_errors_surface_as_before(self):
        with pytest.raises(DomainError, match="kernel exponent s must lie in"):
            check_reductions(Interval(1.0, 2.0), s_grid=(1.5,))
        with pytest.raises(ParameterError, match="rho coefficients require"):
            check_reductions(Interval(1.0, 2.0), s_grid=(0.5,), q_grid=(0.5,))
        assert bounds._BATCH.get() is None


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
