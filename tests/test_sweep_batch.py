"""A sweep runs inside one quadrature batch, planned from its companion sets.

``run_sweep`` makes one ``bounds.batched(body, plan=...)`` call.  Its plan
builds each distinct printed companion set of the sweep's gradient instances
once, and its body is the sweep's instance loop (``harness._evaluate``).  The
sets' oracles are the kernels ``verify_bound`` looks up, so the batch serves
the sweep's 2F1 terms and kernels, and the harmonic means integrate one by
one.  One kernel can miss the plan: II3's k0 = K_W1(0, 1) is an oracle only
of the I1 and FS1 sets and of the rho set at s = 0, so on an interval with
none of those it integrates alone.  The batch serves each key whose jobs all
finished.  Any other key, and every key of a batch that raised, integrates
alone where the body looks it up and meets its own error there.  These tests
pin that rule, and that a sweep reports what its loop reports without the
batch.
"""

import pytest

from hhkit import bounds, harness, quadrature
from hhkit.errors import ToleranceNotMetError
from hhkit.harness import SweepConfig, _instance_plan, default_sweep_config, run_sweep

from conftest import clear_value_caches

ALL_ROWS = ("HH", "HarmHH", "II1", "I1", "I2", "FS1", "FS2", "II2", "II3", "II4")
POWERS = ({"family": "pow", "params": (1.0, 2.0, 0.0)}, {"family": "pow", "params": (1.0, 3.0, 0.0)})


def small_config(**overrides) -> SweepConfig:
    base = dict(theorems=ALL_ROWS, families=POWERS, a_values=(1.0,), ratios=(1.5, 5.0),
                s_grid=(0.5, 1.0), m_grid=(0.8, 1.0), q_grid=(1.0, 1.5, 3.0), grid=24)
    base.update(overrides)
    return SweepConfig(**base)


@pytest.fixture
def lone(monkeypatch):
    """The integrals each run makes outside a batch: the lone means (through
    ``bounds.integrate``), kernels and 2F1 terms, and the job count of each
    ``integrate_many`` call."""
    seen = {"means": [], "kernels": 0, "2F1": 0, "batches": []}
    integrate, kernel_K = bounds.integrate, bounds.kernel_K
    hyp2f1_euler, integrate_many = bounds.hyp2f1_euler, bounds.integrate_many

    def mean(f, *args, **kwargs):
        seen["means"].append(f)
        return integrate(f, *args, **kwargs)

    def kernel(*args):
        seen["kernels"] += 1
        return kernel_K(*args)

    def term(*args):
        seen["2F1"] += 1
        return hyp2f1_euler(*args)

    def many(jobs):
        seen["batches"].append(len(jobs))
        return integrate_many(jobs)

    monkeypatch.setattr(bounds, "integrate", mean)
    monkeypatch.setattr(bounds, "kernel_K", kernel)
    monkeypatch.setattr(bounds, "hyp2f1_euler", term)
    monkeypatch.setattr(bounds, "integrate_many", many)
    return seen


def unbatched(cfg: SweepConfig) -> harness.SweepResult:
    """The sweep's instance loop without the batch, on cold caches."""
    clear_value_caches()
    return harness._evaluate(cfg, _instance_plan(cfg), None)


def assert_same_sweep(res: harness.SweepResult, ref: harness.SweepResult) -> None:
    assert res.records == ref.records
    assert res.skipped == ref.skipped
    assert res.findings == ref.findings


class TestSeparatePlan:
    """``batched(body, plan)``: the plan names the lookups, the body is
    served each key whose jobs all finished, and a batch that raises serves
    nothing, as without a plan."""

    FAILING = ("W1", 0.5, 3.0, 1.0, 2.0)  # fails under a cap of 5 intervals
    PASSING = ("W1", 1.0, 1.0, 1.0, 2.0)  # the batch finishes it under that cap
    CAP = 5

    def test_the_body_runs_once_and_is_served_the_planned_values(self, lone, cold):
        runs = []

        def body():
            runs.append(bounds._planning())
            return bounds._kernel(*self.PASSING), bounds._f21(2.0, 1.0, 3.0, 0.5)

        served = bounds.batched(body, plan=body)
        assert runs == [True, False]
        assert lone["batches"] == [3] and lone["kernels"] == lone["2F1"] == 0
        runs.clear()
        served_by_plan = bounds.batched(body, plan=lambda: bounds._kernel(*self.PASSING))
        assert runs == [False]
        assert lone["batches"] == [3, 1] and (lone["kernels"], lone["2F1"]) == (0, 1)
        clear_value_caches()
        assert served == served_by_plan == body()

    def test_a_failing_planned_job_the_body_never_looks_up_is_not_raised(self, monkeypatch, lone, cold):
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", self.CAP)
        with pytest.raises(ToleranceNotMetError):
            quadrature.kernel_K(*self.FAILING)

        def plan():
            bounds._kernel(*self.FAILING)
            bounds._kernel(*self.PASSING)

        value = bounds.batched(lambda: bounds._kernel(*self.PASSING), plan=plan)
        assert value == quadrature.kernel_K(*self.PASSING)
        # the failing job left the batch, and the passing kernel was served
        assert lone["batches"] == [2] and lone["kernels"] == 0
        assert bounds._BATCH.get() is None

    def test_a_failing_lookup_of_the_body_raises_its_own_error(self, monkeypatch, cold):
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", self.CAP)
        with pytest.raises(ToleranceNotMetError) as alone:
            quadrature.kernel_K(*self.FAILING)
        clear_value_caches()
        with pytest.raises(ToleranceNotMetError) as served:
            bounds.batched(lambda: bounds._kernel(*self.FAILING), plan=lambda: bounds._kernel(*self.FAILING))
        assert (str(served.value), served.value.estimate) == (str(alone.value), alone.value.estimate)

    def test_a_plan_error_is_suppressed(self, lone, cold):
        def plan():
            bounds._kernel(*self.PASSING)
            raise RuntimeError("the plan breaks")

        assert bounds.batched(lambda: bounds._kernel(*self.PASSING), plan=plan) == \
            quadrature.kernel_K(*self.PASSING)
        assert lone["batches"] == [1] and lone["kernels"] == 0

    @pytest.mark.parametrize("separate", [True, False], ids=["plan", "no-plan"])
    def test_the_planned_jobs_are_dropped_once_served(self, separate):
        def body():
            bounds._kernel(*self.PASSING)
            batch = bounds._BATCH.get()
            return len(batch.planned), batch.served and len(batch.served)

        assert bounds.batched(body, plan=body if separate else None) == (0, 1)


class TestSweepFailures:
    """A batch failure, or jobs that leave the batch, under the sweep's plan
    leave its records, skips and findings as the loop without the batch
    reports them."""

    def test_a_raising_batch_serves_nothing(self, monkeypatch, lone, cold):
        cfg = small_config()

        def failing(jobs):
            lone["batches"].append(len(jobs))
            raise ToleranceNotMetError("injected", 0.0, 1.0)

        monkeypatch.setattr(bounds, "integrate_many", failing)
        res = run_sweep(cfg)
        assert len(lone["batches"]) == 1 and lone["batches"][0] > 0
        assert lone["kernels"] > 0 and lone["2F1"] > 0
        assert res.records and not res.findings
        assert_same_sweep(res, unbatched(cfg))

    def test_failing_kernels_are_the_loops_evaluation_errors_in_order(self, monkeypatch, lone, cold):
        # under a cap of 6 intervals, 22 of the 212 instances fail.  The
        # batch serves every 2F1 term, and every kernel but those that may
        # reach the cap in their rows: the instances look those up 273 times
        # alone, the failing kernels among them, and the means integrate
        # alone as ever
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 6)
        cfg = small_config()
        res = run_sweep(cfg)
        assert (lone["kernels"], lone["2F1"], len(lone["means"])) == (273, 0, 12)
        errors = [f for f in res.findings if f.kind == "EvaluationError"]
        assert len(errors) == 22 and len(res.records) == 190
        assert all(f.description.startswith("ToleranceNotMetError: ") for f in errors)
        assert_same_sweep(res, unbatched(cfg))


class TestWhatThePlanServes:
    """Records equal the loop's without the batch, and on these configs the
    plan serves every kernel and 2F1 term the sweep looks up."""

    @pytest.mark.parametrize("overrides", [
        dict(families=({"family": "exp", "params": (0.5,)}, {"family": "exp", "params": (-1.3,)})),
        dict(s_grid=(0.0, 0.5, 1.0)),
        dict(q_grid=(1.0,)),
        dict(),
    ], ids=["exp", "s-zero", "q-one", "powers"])
    def test_records_equal_the_loops_and_no_kernel_runs_alone(self, overrides, lone, cold):
        cfg = small_config(**overrides)
        res = run_sweep(cfg)
        assert res.records
        assert len(lone["batches"]) == 1 and lone["batches"][0] > 0
        assert lone["kernels"] == lone["2F1"] == 0
        assert_same_sweep(res, unbatched(cfg))

    def test_rows_without_a_companion_make_no_batch_work(self, lone, cold):
        cfg = small_config(theorems=("HH", "HarmHH", "II1"))
        res = run_sweep(cfg)
        assert len(res.records) == len(_instance_plan(cfg))
        assert sum(lone["batches"]) == 0
        assert lone["kernels"] == lone["2F1"] == 0
        assert_same_sweep(res, unbatched(cfg))


@pytest.mark.slow
def test_the_default_sweep_integrates_only_its_harmonic_means_alone(lone, cold):
    # 6 families x 9 intervals x 3 m values; the 513 kernels and 362 2F1
    # terms (724 Euler halves) are the batch's 1,237 jobs
    res = run_sweep(default_sweep_config())
    assert (len(res.records), len(res.skipped), len(res.findings)) == (8568, 1152, 0)
    harmonic = {family for (_, is_harmonic), family in bounds._MEAN_FAMILIES.items() if is_harmonic}
    assert len(lone["means"]) == 162
    assert all(f.func in harmonic for f in lone["means"])
    assert lone["kernels"] == lone["2F1"] == 0
    assert lone["batches"] == [1237]
