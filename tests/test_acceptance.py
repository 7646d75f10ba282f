"""Acceptance suite: each criterion runs at its stated tolerance and prints one
pass/fail line (visible with ``pytest -s``).  The default sweep is shared by
the criteria that consume it and re-run from scratch for the determinism check.
"""

import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from hhkit.bounds import Interval, kernel_oracle_identities, lemma_residual
from hhkit.functions import FunctionSpec, SMParams, check_prop1_implication, compose_g, eval_fn
from hhkit.harness import (
    build_adjudication_report,
    default_sweep_config,
    render_report_csv,
    render_report_json,
    run_sweep,
    write_report_csv,
    write_report_json,
)
from hhkit.specfun import Hyp2F1Args, hyp2f1_euler, hyp2f1_series

GRADIENT_SET = ("II2", "II3", "II4")
REDUCTION_SET = ("I1", "I2", "FS1", "FS2")


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def default_sweep():
    cfg = default_sweep_config()
    start = time.perf_counter()
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


def test_criterion_1_specfun_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.55, 4.0)
        args = Hyp2F1Args(
            a_param=rng.uniform(0.5, 8.0),
            b_param=b,
            c_param=b + rng.uniform(0.55, 3.0),
            z=rng.uniform(0.0, 0.9),
        )
        series = hyp2f1_series(args)
        euler = hyp2f1_euler(args)
        worst = max(worst, abs(euler - series) / abs(series))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"euler vs series on 200 tuples: worst rel dev {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_lemma_identity():
    start = time.perf_counter()
    families = (
        FunctionSpec.reciprocal(0.05, 50.0),
        FunctionSpec.affine(1.0, 0.0, 0.05, 50.0),
        FunctionSpec.power(1.0, 2.0, 0.0, 0.05, 50.0),
        FunctionSpec.power(1.0, 3.0, 0.0, 0.05, 50.0),
        FunctionSpec.exponential(0.5, 0.05, 50.0),
    )
    rng = np.random.default_rng(42)
    worst = 0.0
    for f in families:
        for _ in range(20):
            a = rng.uniform(0.6, 1.6)
            iv = Interval(a, a * rng.uniform(1.1, 10.0))
            worst = max(worst, lemma_residual(f, iv))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst <= 1e-9 and elapsed < 10.0,
        f"5 families x 20 intervals: worst residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_theorem_ii1_default_grid(default_sweep):
    _, result, _ = default_sweep
    ii1 = [r for r in result.records if r.theorem == "II1"]
    worst = min(r.margin for r in ii1)
    violations = [f for f in result.findings if f.kind == "BoundViolation"]
    _report(
        3,
        len(ii1) >= 500 and worst >= -1e-9 and not violations,
        f"II1: {len(ii1)} certified instances, worst margin {worst:.3e} (tol -1e-9), "
        f"{len(violations)} violations",
    )


def test_criterion_4_gradient_theorems_default_grid(default_sweep):
    cfg, result, elapsed = default_sweep
    assert set(GRADIENT_SET) <= set(cfg.theorems) and set(REDUCTION_SET) <= set(cfg.theorems)
    assert set(cfg.s_grid) == {0.25, 0.5, 0.75, 1.0}
    assert set(cfg.m_grid) == {0.5, 0.8, 1.0}
    assert set(cfg.q_grid) == {1.0, 1.5, 2.0, 3.0}
    main = [r for r in result.records if r.theorem in GRADIENT_SET]
    reductions = [r for r in result.records if r.theorem in REDUCTION_SET]
    worst = min(r.margin for r in main + reductions)
    _report(
        4,
        len(main) >= 1000 and worst >= -1e-9 and elapsed < 120.0,
        f"II2/II3/II4: {len(main)} instances (+{len(reductions)} reduction-theorem instances), "
        f"worst margin {worst:.3e} (tol -1e-9), sweep {elapsed:.1f}s (< 120s)",
    )


def test_criterion_5_oracle_reduction_identities():
    worst = 0.0
    worst_name = ""
    for iv in (Interval(1.0, 2.0), Interval(1.0, 5.0), Interval(2.0, 3.0), Interval(1.5, 9.0)):
        for name, lhs, rhs in kernel_oracle_identities(iv):
            dev = abs(lhs - rhs)
            if dev > worst:
                worst, worst_name = dev, f"{name} on [{iv.a}, {iv.b}]"
    _report(
        5,
        worst <= 1e-9,
        f"oracle reduction chain across 4 intervals: worst |dev| {worst:.3e} ({worst_name}, tol 1e-9)",
    )


def test_criterion_6_adjudication_report():
    report_a = build_adjudication_report()
    report_b = build_adjudication_report()
    deterministic = json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)

    agreement_ok = True
    for table in report_a["coefficient_tables"]:
        for cs in table["sets"]:
            printed = cs["printed"]
            oracle = cs["oracle"]
            devs = cs["deviations"]
            if cs["name"] == "Lambda":
                agreement_ok &= devs[0] <= 1e-8 and devs[1] <= 1e-8
            elif cs["name"] == "C":
                agreement_ok &= devs[0] <= 1e-8
            elif cs["name"] == "Rho":
                agreement_ok &= devs[0] <= 1e-8
            elif cs["name"] == "Nu":
                agreement_ok &= max(devs) <= 1e-8
            elif cs["name"] == "Mu":
                agreement_ok &= devs[0] <= 1e-8 and devs[1] <= 1e-8
                # hypergeometric forms agree with the oracle set; the printed
                # pairing is adjudicated (swap itemized in the findings)
                for v in printed[2:]:
                    agreement_ok &= min(abs(v - o) for o in oracle[:2]) <= 1e-8

    flagged = {f["payload"].get("label") for f in report_a["findings"]}
    itemized_ok = {"lambda3", "C2", "C3", "rho2_proof"} <= flagged
    magnitudes_ok = all(f["severity"] > 0.0 for f in report_a["findings"])
    swap_itemized = any("swapped" in f["description"] for f in report_a["findings"])
    _report(
        6,
        deterministic and agreement_ok and itemized_ok and magnitudes_ok and swap_itemized,
        f"report deterministic={deterministic}, agreement set (lambda1, lambda2, C1, rho1, nu, mu) "
        f"within 1e-8: {agreement_ok}, deviations itemized with magnitudes: "
        f"{sorted(x for x in flagged if x)}",
    )


def test_criterion_7_proposition_and_composition():
    rng = np.random.default_rng(1234)
    prop_ok = 0
    for i in range(100):
        m = 1.0 if i % 2 == 0 else rng.uniform(0.5, 1.0)
        # a positive shift breaks the (s,m)-convexity antecedent for m < 1
        # (shift > m*shift at t = 0), which would make the implication vacuous
        shift = rng.uniform(0.0, 1.0) if m == 1.0 else 0.0
        f = FunctionSpec.power(rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0), shift, 0.05, 60.0)
        params = SMParams(rng.uniform(0.1, 1.0), m)
        report = check_prop1_implication(f, params, grid=24, window=(1.0, 5.0))
        prop_ok += report.passed and report.witness is not None
    comp_worst = 0.0
    for _ in range(100):
        f = FunctionSpec.power(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 3.0), rng.uniform(0.0, 1.0), 1e-3, 1e3)
        a = rng.uniform(0.5, 2.0)
        b = a * rng.uniform(1.5, 5.0)
        m = rng.uniform(0.6, 1.0)
        if not a < m * b:
            continue
        g = compose_g(f, a, b, m)
        t = rng.uniform(0.0, 1.0)
        lhs = g(t * a + m * (1.0 - t) * b)
        rhs = eval_fn(f, m * a * b / (m * b * t + (1.0 - t) * a))
        comp_worst = max(comp_worst, abs(lhs - rhs))
    _report(
        7,
        prop_ok == 100 and comp_worst <= 1e-12,
        f"PP1 grid assertion: {prop_ok}/100 samples pass; composition identity worst dev "
        f"{comp_worst:.3e} (tol 1e-12)",
    )


def test_criterion_8_sweep_determinism(default_sweep):
    cfg, first, _ = default_sweep
    second = run_sweep(cfg)
    json_same = render_report_json(first) == render_report_json(second)
    csv_same = render_report_csv(first) == render_report_csv(second)
    _report(
        8,
        json_same and csv_same,
        f"two default-sweep runs byte-identical: json={json_same}, csv={csv_same}",
    )


# The default sweep's report bytes, as written since kernels are integrated
# in their log variable.  A change to them is a behaviour change and must be
# declared as one.
DEFAULT_JSON_SHA256 = "197e295eda18e1c45ff7263022ca866f21ea8ddb836f1de6e5106c7529f8b051"
DEFAULT_CSV_SHA256 = "e67940a98539177f12cc8e677a8ca16caff7fc60492d759d161047729dec1e2e"


def test_default_sweep_report_digests(default_sweep, tmp_path):
    _, result, _ = default_sweep
    json_path, csv_path = tmp_path / "sweep_report.json", tmp_path / "sweep_report.csv"
    write_report_json(result, str(json_path))
    write_report_csv(result, str(csv_path))
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == DEFAULT_JSON_SHA256
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == DEFAULT_CSV_SHA256


def test_default_sweep_json_report_is_streamed(default_sweep, tmp_path):
    # Encoding all 8,568 records at once peaks at ~11 MiB; streaming them one
    # at a time stays well under 1 MiB.
    _, result, _ = default_sweep
    tracemalloc.start()
    try:
        write_report_json(result, str(tmp_path / "sweep_report.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, f"traced peak {peak / 2**20:.2f} MiB while writing the JSON report"
