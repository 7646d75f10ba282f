"""Tests of the benchmark's own code.  They carry no timing gates and stay out
of the repository's test suite (the file name does not match ``test_*.py``):

    python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import spans
import worker
import workloads
from spans import Span, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_of_nested_spans():
    # cli.main [0,10] > integrate [1,4], hyp2f1 [5,9] > panel [6,7]
    tid = 1
    got = summarize([
        Span(0, "cli.main", tid, 0.0, 10.0, None, True),
        Span(1, "quadrature.integrate", tid, 1.0, 4.0, 0, True),
        Span(2, "specfun.hyp2f1_euler", tid, 5.0, 9.0, 0, True),
        Span(3, "quadrature.panel", tid, 6.0, 7.0, 2, True),
    ], Counter())
    assert got["cli.main.self_s"] == pytest.approx(3.0)
    assert got["quadrature.integrate.self_s"] == pytest.approx(3.0)
    assert got["specfun.hyp2f1_euler.self_s"] == pytest.approx(3.0)
    assert got["specfun.hyp2f1_euler.total_s"] == pytest.approx(4.0)
    assert got["quadrature.panel.self_s"] == pytest.approx(1.0)
    # Inclusive shares: the panel inside the 2F1 counts for both layers.
    assert got["quadrature.share"] == pytest.approx(0.4)
    assert got["specfun.share"] == pytest.approx(0.4)
    assert got["cli.share"] == pytest.approx(1.0)
    assert got["functions.share"] == 0.0
    assert got["quadrature.panels_per_integrate"] == pytest.approx(1.0)


def test_self_time_with_children_on_two_threads():
    # run_sweep [0,10] on thread 1 fans out to overlapping verifies on
    # threads 2 and 3; the parent's self time is what their union leaves.
    got = summarize([
        Span(0, "harness.run_sweep", 1, 0.0, 10.0, None, True, cpu=16.0),
        Span(1, "bounds.verify", 2, 1.0, 6.0, 0, True),
        Span(2, "bounds.verify", 3, 4.0, 9.0, 0, True),
        Span(3, "functions.grid_check", 2, 2.0, 3.0, 1, True),
    ], Counter())
    assert got["harness.run_sweep.self_s"] == pytest.approx(2.0)
    assert got["bounds.verify.self_s"] == pytest.approx(4.0 + 5.0)
    assert got["bounds.verify.total_s"] == pytest.approx(10.0)
    assert got["functions.grid_check.self_s"] == pytest.approx(1.0)
    assert got["functions.share"] == pytest.approx(1.0 / 12.0)
    assert got["harness.sweep.cpu_util"] == pytest.approx(1.6)


def test_tracer_keeps_a_stack_per_thread():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)), cpu_clock=lambda: 0.0)
    both_open = threading.Barrier(2, timeout=10)

    def verify():
        both_open.wait()  # both threads hold an open span from here on
        return tracer.call("functions.grid_check", lambda: None)

    def fan_out():
        threads = [threading.Thread(target=tracer.call, args=("bounds.verify", verify)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.call("harness.run_sweep", fan_out)
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["harness.run_sweep"]
    verifies = {s.idx: s for s in by_name["bounds.verify"]}
    assert len(verifies) == 2 and all(s.parent == root.idx for s in verifies.values())
    assert len({s.tid for s in verifies.values()}) == 2
    for check in by_name["functions.grid_check"]:
        assert verifies[check.parent].tid == check.tid


def test_tracer_counts_exceptions_and_reraises():
    tracer = Tracer()

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tracer.call("quadrature.integrate", boom)
    assert tracer.counters["quadrature.integrate.raised.ZeroDivisionError"] == 1
    assert tracer.spans[0].ok is False


def _hooked_attributes() -> dict:
    return {(m, a): getattr(importlib.import_module(f"hhkit.{m}"), a) for m, a, *_ in spans.HOOKS}


def _stray_wrappers() -> list[str]:
    stray = []
    for m in ("specfun", "quadrature", "functions", "bounds", "harness", "cli"):
        module = importlib.import_module(f"hhkit.{m}")
        stray += [f"{m}.{k}" for k, v in vars(module).items() if hasattr(v, "traced_span")]
    return stray


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    worker.import_hhkit(ROOT)
    before = _hooked_attributes()
    rep = worker.run_rep(ROOT, "adjudicate-grid", 3, tmp_path, "traced", small=True)
    assert rep["layers"]["cli.main.calls"] == 2
    assert rep["layers"]["specfun.hyp2f1_euler.calls"] > 0
    after = _hooked_attributes()
    assert all(after[key] is before[key] for key in before)
    assert _stray_wrappers() == []


def test_wrappers_are_removed_when_the_run_raises():
    worker.import_hhkit(ROOT)
    before = _hooked_attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert _stray_wrappers()
            raise RuntimeError
    after = _hooked_attributes()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("mode", ["plain", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_of_each_workload_passes_its_checks(workload, mode, tmp_path):
    rep = worker.run_rep(ROOT, workload, 5, tmp_path, mode, small=True)
    assert rep["items"] > 0
    assert rep["failed"] == 0
    assert rep["run_s"] > 0.0
    if workload == "sweep-default":
        assert set(rep["digests"]) == {"json_sha256", "csv_sha256"}
    if mode == "traced":
        assert rep["layers"]["cli.main.calls"] == len(workloads.build(workload, 5, tmp_path, small=True))
    else:
        assert 0.0 <= rep["caches"]["metrics"]["quadrature.kernel_K.hit_ratio"] <= 1.0


def test_inputs_depend_only_on_the_seed(tmp_path):
    worker.import_hhkit(ROOT)
    for workload in ("search-random", "adjudicate-grid"):
        argvs = [[c.argv for c in workloads.build(workload, seed, tmp_path)] for seed in (1, 1, 2)]
        assert argvs[0] == argvs[1] != argvs[2]


def test_checks_count_failed_items(tmp_path):
    worker.import_hhkit(ROOT)
    (search, *_) = workloads.build("search-random", 1, tmp_path)
    assert search.check(0, json.dumps({"finding": None})) == 0
    assert search.check(1, json.dumps({"finding": {"kind": "BoundViolation"}})) == search.items
    assert search.check(0, "not json") == search.items

    (interval, *_) = workloads.build("adjudicate-grid", 1, tmp_path)
    printed = {"kind": "ReductionMismatch", "payload": {"level": "printed"}}
    oracle = {"kind": "ReductionMismatch", "payload": {"level": "oracle"}}
    assert interval.check(0, json.dumps({"findings": [printed]})) == 0
    assert interval.check(0, json.dumps({"findings": [printed, oracle]})) == 1
    assert interval.check(2, json.dumps({"findings": []})) == 1

    (sweep,) = workloads.build("sweep-default", 1, tmp_path)
    evaluated, skipped = workloads.DEFAULT_SWEEP_COUNTS
    summary = {"instances_evaluated": evaluated - 1, "instances_skipped": skipped + 1,
               "violations": 0, "findings": 0}
    assert sweep.check(0, json.dumps({"summary": summary})) == sweep.items == 9720


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "search-random", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
