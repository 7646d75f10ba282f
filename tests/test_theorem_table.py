"""The theorem table in ``bounds`` against its consumers: the sweep plan, the
verifiers, the search draws and the dispatcher."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhkit import bounds
from hhkit.bounds import THEOREMS, Interval, verify_bound, verify_hh_double, verify_II1, verify_theorem
from hhkit.errors import ParameterError
from hhkit.functions import FunctionSpec, SMParams
from hhkit.harness import SweepConfig, _instance_plan, run_sweep, search_counterexample

IV12 = Interval(1.0, 2.0)
SQUARE = {"family": "pow", "params": (1.0, 2.0, 0.0)}
# A grid with the edge values every constraint of the table acts on.
S_GRID, M_GRID, Q_GRID = (0.0, 0.5, 1.0), (0.5, 1.0), (1.0, 2.0)


def edge_config(theorems) -> SweepConfig:
    return SweepConfig(theorems=tuple(theorems), families=(SQUARE,), a_values=(1.0,), ratios=(2.0,),
                       s_grid=S_GRID, m_grid=M_GRID, q_grid=Q_GRID, grid=16, seed=1)


def square(m: float = 1.0) -> FunctionSpec:
    return FunctionSpec.power(1.0, 2.0, 0.0, m * 0.999, 2.0 / m * 1.001)


class TestPlanMatchesVerifiers:
    def test_planned_counts_follow_the_statements(self):
        # written out from the statements, not from the table
        expected = {"HH": 1, "HarmHH": 1, "II1": 6, "I1": 2, "I2": 1, "FS1": 4, "FS2": 2,
                    "II2": 12, "II3": 12, "II4": 6}
        plan = _instance_plan(edge_config(THEOREMS))
        counts = {t: sum(1 for item in plan if item[0] == t) for t in THEOREMS}
        assert counts == expected

    @pytest.mark.parametrize("theorem", bounds.GRADIENT_THEOREMS)
    def test_plan_keeps_exactly_the_points_the_verifier_accepts(self, theorem):
        planned = {item[3:] for item in _instance_plan(edge_config([theorem]))}
        for s, m, q in itertools.product(S_GRID, M_GRID, Q_GRID):
            try:
                verify_bound(theorem, square(m), SMParams(s, m, q), IV12, grid=16, enforce_certification=False)
                accepted = True
            except ParameterError as exc:
                assert str(exc) == THEOREMS[theorem].reject(s, m, q)
                accepted = False
            assert ((s, m, q) in planned) == accepted, (s, m, q)

    def test_mean_bound_and_double_inequalities_drop_nothing(self):
        plan = _instance_plan(edge_config(("HH", "HarmHH", "II1")))
        assert [item[3:] for item in plan if item[0] == "II1"] == [
            (s, m, None) for s in S_GRID for m in M_GRID]
        assert [item[3:] for item in plan if item[0] != "II1"] == [(None, None, None)] * 2


class TestDispatcher:
    def test_routes_to_the_named_verifier(self):
        f, params = square(0.8), SMParams(0.5, 0.8, 2.0)
        assert verify_theorem("HH", f, None, IV12) == verify_hh_double(f, IV12, harmonic=False)
        assert verify_theorem("HarmHH", f, None, IV12) == verify_hh_double(f, IV12)
        assert verify_theorem("II1", f, params, IV12) == verify_II1(f, params, IV12)
        assert verify_theorem("II4", f, params, IV12) == verify_bound("II4", f, params, IV12)

    def test_unknown_tag(self):
        with pytest.raises(ParameterError, match=r"unknown theorem 'Lemma'; one of \('HH', 'HarmHH', 'II1', "):
            verify_theorem("Lemma", square(), SMParams(1.0, 1.0), IV12)
        with pytest.raises(ParameterError, match="unknown gradient theorem 'II1'"):
            verify_bound("II1", square(), SMParams(1.0, 1.0), IV12)

    def test_unhashable_tag_is_a_parameter_error(self):
        with pytest.raises(ParameterError):
            SweepConfig.from_dict({**edge_config(()).to_dict(), "theorems": [["II1"]]})


class TestPrintedExponents:
    def test_only_the_printed_2q_row_switches(self):
        params = SMParams(1.0, 1.0, 2.0)
        for theorem in ("I1", "FS1"):
            assert verify_bound(theorem, square(), params, IV12, use_printed_exponents=True) == \
                verify_bound(theorem, square(), params, IV12)
        literal = verify_bound("II3", square(), params, IV12, use_printed_exponents=True)
        assert "literal printed exponents (2q) in use" in literal.diagnostics


class TestSearchDraws:
    @pytest.mark.parametrize("theorem", ["I1", "I2", "FS1", "FS2", "II4"])
    def test_draws_respect_the_row(self, theorem, monkeypatch):
        seen = []

        def record(tag, f, params, iv, grid, enforce_certification, companion):
            seen.append((params, companion))
            return None

        monkeypatch.setattr(bounds, "verify_theorem", record)
        search_counterexample(theorem, budget=20, seed=2, q_range=(0.5, 3.0))
        row = THEOREMS[theorem]
        assert len(seen) == 20
        assert all(row.reject(p.s, p.m, p.q) is None for p, _ in seen)
        # a draw needs only its verdict, never the printed companion set
        assert all(companion is False for _, companion in seen)


def inside_statement(row):
    """(s, m, q, interval) draws over the search ranges, s and q with their
    endpoints, restricted to the values the row's statement fixes."""
    s = st.just(1.0) if row.unit_sm else st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    m = st.just(1.0) if row.unit_sm or row.unit_m else st.floats(0.0, 1.0, exclude_min=True)
    q = st.one_of(st.just(1.0), st.floats(1.0, 3.0))
    iv = st.builds(lambda a, ratio: Interval(a, a * ratio), st.floats(0.5, 3.0), st.floats(1.1, 10.0))
    return st.tuples(s, m, q, iv)


class TestCompanionAcceptsTheStatement:
    """Search draws skip the printed companion set; that cannot change which
    draws are skipped only if the companion raises nothing inside the
    statement ``reject`` accepts."""

    @pytest.mark.parametrize("theorem", bounds.GRADIENT_THEOREMS)
    def test_companion_raises_nothing_where_reject_accepts(self, theorem):
        row = THEOREMS[theorem]

        @settings(max_examples=25, deadline=None)
        @given(inside_statement(row))
        def check(point):
            s, m, q, iv = point
            assume(row.reject(s, m, q) is None)
            row.companion(s, q, iv)

        check()
