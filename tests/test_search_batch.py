"""A search budget runs as one quadrature batch.

``search_counterexample`` takes every draw from its RNG first, runs the draws
through one ``bounds.batched`` call, once as the plan and once served, and
ranks them in the served run; the means and kernels of every draw are
integrated in one ``integrate_many`` call.  These tests pin what that must
not change: every record a search evaluates and the finding it returns
(digests pinned before the batch), the error that escapes when an integral
fails, and the bits of every family row's mean, alone or in a batch.
"""

import hashlib
import json

import pytest

from hhkit import bounds, harness, quadrature
from hhkit.bounds import Interval
from hhkit.errors import DomainError, ToleranceNotMetError
from hhkit.functions import FAMILY_ROWS, FunctionSpec, SMParams, eval_fn
from hhkit.harness import search_counterexample
from hhkit.quadrature import QuadSpec, harmonic_mean_integral, integrate

from conftest import clear_value_caches


def search_digest(theorem: str, seed: int, enforce: bool, monkeypatch) -> str:
    """sha256 of the finding of a budget-300 search and of every record the
    search evaluates outside a plan (each draw, shrink trial and reported
    record, or the error that dropped it), in order."""
    seen = []
    real = bounds.verify_theorem

    def record(*args, **kwargs):
        try:
            rec = real(*args, **kwargs)
        except Exception as exc:
            if not bounds._planning():
                seen.append(f"{type(exc).__name__}: {exc}")
            raise
        if not bounds._planning():
            seen.append(rec.to_dict())
        return rec

    monkeypatch.setattr(bounds, "verify_theorem", record)
    finding = search_counterexample(theorem, 300, seed, enforce_certification=enforce)
    doc = {"finding": None if finding is None else finding.to_dict(), "records": seen}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# Pinned before the search ran its draws as one batch, and re-pinned where a
# kernel value moved in its last bits when kernels came to be integrated in
# their log variable: (theorem, seed, certification enforced).
SEARCH_DIGESTS = {
    ("HH", 7, True): "604b56bb126f74884f1d8e16bdb7b09769b76674499108983b63172ae250bc73",
    ("HH", 7, False): "604b56bb126f74884f1d8e16bdb7b09769b76674499108983b63172ae250bc73",
    ("HH", 8, True): "117485090803bdeca9f0aa2370df8eb11d62f691afbf09122646edff44743503",
    ("HH", 8, False): "117485090803bdeca9f0aa2370df8eb11d62f691afbf09122646edff44743503",
    ("HarmHH", 7, True): "9cf1ac4c47f4529342d7c603206eeecd56a4dd5d2f9e258689c1e6f4f0bff9cd",
    ("HarmHH", 7, False): "9cf1ac4c47f4529342d7c603206eeecd56a4dd5d2f9e258689c1e6f4f0bff9cd",
    ("HarmHH", 8, True): "d5fd428973e4a6dd9da1b900f9f89f5f04c96181119042ad381ff9f97c65d58f",
    ("HarmHH", 8, False): "d5fd428973e4a6dd9da1b900f9f89f5f04c96181119042ad381ff9f97c65d58f",
    ("II1", 7, True): "c033b04fc5541b267ecae7904495cab9416d8c4d7ea469e4cc078a86f75c56d6",
    ("II1", 7, False): "d84356b4e3044338cf8b347eb15c21f99d463a50e43e134336763c580c49a410",
    ("II1", 8, True): "1a006c4e923ccb7b0cfb8eb26788cf796ab5d2c7199f8c9e3351af377e8f0f08",
    ("II1", 8, False): "19bb840444967bcf7bb24b44cb46702e3b4de19b6e74411992addaef542e2898",
    ("I1", 7, True): "e607bdfa96127ad8115667718fbde06400ca509ca8fa66f58bfe094dee53790a",
    ("I1", 7, False): "0042dd4a7aafbc505a6c6c38fdfdb1f1e189b94ff23df5a8dd917d7ed6c3fa02",
    ("I1", 8, True): "7031e86c9f965278ac55380ed1ff54191e859bf39eccb97ce1765cd718680938",
    ("I1", 8, False): "b877eb3994330d76fe7375cc4c679aac6312ac19ba3276596d521fb1377b540c",
    ("I2", 7, True): "185eb92bf8779583b7551e6a30d5b6c9077475bef15f2131d2046913dc383988",
    ("I2", 7, False): "c13cfad4fc1c5f36d308470bdc273a156a21c4a4587bf3978afaa65c728b27db",
    ("I2", 8, True): "6dbcadffd59572f8b9ed27b150621f45923df6bd615037a847db7b30fc13eb45",
    ("I2", 8, False): "009817fe3d46cb5db37a9fc822d76ff922c5fd7c91384a2c433b0e216e08cec4",
    ("FS1", 7, True): "f05ff1411ec37a0b3a1fe1226bc959ff26fd1595979f7589054f46b58a7b8040",
    ("FS1", 7, False): "72b13ba94d2db066d5efb9650554d30fd94f40f9a33350b57d918857a1a679ba",
    ("FS1", 8, True): "3ddc24d5e5a4407b123221dcbbef50709d80e07e44a2b9e107ce09871fa500a1",
    ("FS1", 8, False): "b1c223af9beda7603d03d691e682c7ab1a66ca2cc52732a593ee44186a749b55",
    ("FS2", 7, True): "bc7bdd340f3411a2283c3bf782faad5d185fcff36cc18a57d97b792fd82c3fae",
    ("FS2", 7, False): "0140818e3f293533cbc7bb6299a41dbe5e2303924eb33c245dd2ec2746479d0c",
    ("FS2", 8, True): "ccf30f4efaef74d8ebc31129c02a61a0ab0f6c0845c3446dbb00fb95b40d36e7",
    ("FS2", 8, False): "7bab0933dc9d941406f501ed7c53da21ccc262396c05fa2fcf1c7912b7254290",
    ("II2", 7, True): "ea8261a71f8cbcb2b9e14d0ef28e18900be6219bf02682355011be64b413879d",
    ("II2", 7, False): "2bb3e0cce03c6f5d843ecf358c6543aac6a09b56e38f19c742e5d78bc7c4f571",
    ("II2", 8, True): "ed553dcc8f27bd5a9be470e329f43c85d4d4a0f3537ebcb7fe5e100b31660d35",
    ("II2", 8, False): "0aef7764984aa4d6c9f6391e59af49407076e891aab7794ee94446e280a2a905",
    ("II3", 7, True): "6596781044c3e5ec88731178af87125139c1a403b99e593d85892f8e35ad0a2f",
    ("II3", 7, False): "dbc06f836055115f29e66062c5a5b80a5a8afef5a83ab84f5d644a64ea9fa4b9",
    ("II3", 8, True): "704fce7b79c0f3d7646d83ad1ee5bc6b1681277d540655dca431426587934204",
    ("II3", 8, False): "adaefcdb2160305aa5134103752094db0ed188c754c38091e5a402a329d9a687",
    ("II4", 7, True): "661b701b4ff57634a50a66f521a36e89e43e4b729bf3915faefd8cd598c19b0e",
    ("II4", 7, False): "b8db465d2053ead32fd849db5b0329d67db9d2e4de03080ed7d27ca5053b80a3",
    ("II4", 8, True): "e7fee77d8f82afc2daea0ce61c13123200ae950f8badca67aa4223968f2a2ae7",
    ("II4", 8, False): "0802f0d0a19d536b0b755f6ac1efd74a994cd45790182f88c6439341b00d1e87",
}

# The Tier-1 cut: every tag once, with and without certification, and two findings.
TIER1_CASES = [("HH", 7, True), ("HarmHH", 7, False), ("II1", 7, True), ("I1", 7, False), ("I2", 7, True),
               ("FS1", 7, False), ("FS2", 7, True), ("II2", 7, False), ("II3", 8, False), ("II4", 7, True)]


@pytest.mark.parametrize("case", TIER1_CASES, ids=lambda c: "-".join(map(str, c)))
def test_search_digest(case, monkeypatch):
    assert search_digest(*case, monkeypatch) == SEARCH_DIGESTS[case]


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(SEARCH_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_search_digest_every_case(case, monkeypatch):
    assert search_digest(*case, monkeypatch) == SEARCH_DIGESTS[case]


# A quadrature spec under which the means of some II1 draws of seed 3 fail:
# draws 1 and 3 of the first twelve, one by one.
FAILING_SPEC = QuadSpec(abs_tol=1e-9, rel_tol=1e-9, max_depth=1)
# The error the search raised before its draws ran as one batch.
FIRST_FAILURE = ("tolerance not met on [0.5329199788871853, 4.558317626166596]: "
                 "estimate 3.1143560449063115 with error bound 4.334887276729614e-09")


class TestFailureOrder:
    """A batch that raises serves nothing, so the draws run again alone, in
    draw order: the error that escapes is the one the draws meet one by one."""

    def test_the_earlier_of_two_failing_draws_escapes(self, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_QUADSPEC", FAILING_SPEC)
        draws = []
        single = harness._search_instance

        def planned(*args):
            if bounds._planning():
                draws.append(args)
            return single(*args)

        monkeypatch.setattr(harness, "_search_instance", planned)
        with pytest.raises(ToleranceNotMetError) as batched:
            search_counterexample("II1", 12, seed=3, enforce_certification=False)
        assert str(batched.value) == FIRST_FAILURE
        failures = []
        for i, args in enumerate(draws):
            try:
                single(*args)
            except ToleranceNotMetError as exc:
                failures.append((i, exc))
        assert len(draws) == 12
        assert [i for i, _ in failures] == [1, 3]
        first = failures[0][1]
        assert (str(first), first.estimate, first.error_bound) == \
            (str(batched.value), batched.value.estimate, batched.value.error_bound)

    @pytest.mark.parametrize("spec, escapes", [(FAILING_SPEC, ToleranceNotMetError), (None, RuntimeError)])
    def test_a_later_draw_error_waits_for_the_integrals_before_it(self, spec, escapes, monkeypatch):
        if spec is not None:
            monkeypatch.setattr(bounds, "DEFAULT_QUADSPEC", spec)
        calls = {True: 0, False: 0}
        single = harness._search_instance

        def third_draw_breaks(*args):
            planning = bounds._planning()
            calls[planning] += 1
            if calls[planning] == 3:
                raise RuntimeError("draw 2 breaks")
            return single(*args)

        batches = []
        integrate_many = bounds.integrate_many
        monkeypatch.setattr(harness, "_search_instance", third_draw_breaks)
        monkeypatch.setattr(bounds, "integrate_many", lambda jobs: batches.append(len(jobs)) or integrate_many(jobs))
        with pytest.raises(escapes):
            search_counterexample("II1", 12, seed=3, enforce_certification=False)
        # the plan ends at the draw that raises: the batch holds the means of
        # draws 0 and 1
        assert batches == [2]


# A budget of II2 draws on which the bound fails, with the gate disabled
# (tests/test_harness.py), and the defaults, on which it holds.
VIOLATED_II2 = dict(families=({"family": "affine", "params": (1.0, 0.0)},), s_range=(1.0, 1.0),
                    m_range=(0.1, 0.2), q_range=(1.0, 1.0), a_range=(1.0, 1.0), ratio_range=(2.0, 2.0),
                    enforce_certification=False)


class TestRaisingBatch:
    """A batch that raises serves nothing: the draws then run alone, and the
    search returns what it returns without the batch."""

    @pytest.mark.parametrize("kwargs, found", [(VIOLATED_II2, True), ({}, False)], ids=["finding", "none"])
    def test_the_search_returns_its_unbatched_result(self, kwargs, found, monkeypatch):
        batches = []

        def raising(jobs):
            batches.append(len(jobs))
            raise ToleranceNotMetError("injected", 0.0, 1.0)

        clear_value_caches()
        with monkeypatch.context() as patched:
            patched.setattr(bounds, "integrate_many", raising)
            served = search_counterexample("II2", 40, seed=7, **kwargs)
        assert len(batches) == 1 and batches[0] > 0
        with monkeypatch.context() as patched:
            patched.setattr(bounds, "batched", lambda body, plan=None: body())
            alone = search_counterexample("II2", 40, seed=7, **kwargs)
        assert (served is not None) == found
        assert served == alone


def mean_cases() -> list[FunctionSpec]:
    """A member of every family row; the powers take numpy's fast exponents
    (0.5, 2 and -1, which ``_pow`` must restore) and others."""
    lo, hi = 0.25, 12.0
    cases = [FunctionSpec.power(1.5, e, shift, lo, hi)
             for e in (0.5, 2.0, -1.0, 1.5, 3.0, 0.0, 1.0) for shift in (0.0, -0.25)]
    cases += [FunctionSpec.spiece(2.0, 1.5, c0, e, lo, hi) for e in (0.5, 2.0, -1.0, 0.75) for c0 in (0.0, 0.5)]
    cases += [FunctionSpec.reciprocal(lo, hi), FunctionSpec.affine(2.0, -1.0, lo, hi),
              FunctionSpec.exponential(0.5, lo, hi)]
    assert {f.family for f in cases} == set(FAMILY_ROWS)
    return cases


INTERVALS = (Interval(1.0, 2.0), Interval(0.5, 10.0), Interval(2.0, 3.0))


@pytest.mark.parametrize("batch", [True, False], ids=["batched", "alone"])
def test_each_rows_batch_mean_is_its_single_mean_bit_for_bit(batch, monkeypatch):
    # a mean integrates one job, alone or in a batch
    cases = [(f, iv) for f in mean_cases() for iv in INTERVALS]

    def lookups() -> list[float]:
        # each harmonic mean, and each plain mean as verify_hh_double looks it up
        return [value for f, iv in cases for value in (
            bounds._mean(f, iv.a, iv.b),
            bounds._lookup("plain", (f, iv.a, iv.b), bounds._plain_plan, bounds._plain_mean))]

    batches = []
    integrate_many = bounds.integrate_many

    def many(jobs):
        batches.append(len(jobs))
        return integrate_many(jobs)

    def single(*args, **kwargs):
        raise AssertionError("a batched mean was integrated alone")

    monkeypatch.setattr(bounds, "integrate_many", many)
    bounds._cached_mean.cache_clear()
    if batch:
        with monkeypatch.context() as patched:
            for module in (quadrature, bounds):
                patched.setattr(module, "integrate", single)
            served = bounds.batched(lookups)
        assert batches == [2 * len(cases)]
    else:
        served = lookups()
        assert batches == []
    expected = []
    for f, iv in cases:
        expected.append(harmonic_mean_integral(f, iv.a, iv.b))
        expected.append(integrate(lambda x, f=f: eval_fn(f, x), iv.a, iv.b) / (iv.b - iv.a))
    assert [v.hex() for v in served] == [v.hex() for v in expected]


def test_a_lone_mean_checks_the_domain_as_a_batch_does():
    # f is defined on [1, 1.5] only: the mean on [1, 2] fails at b, before
    # any node is evaluated
    f = FunctionSpec.power(1.0, 2.0, 0.0, 1.0, 1.5)
    message = r"^argument range \[2\.0, 2\.0\] leaves the domain \[1\.0, 1\.5\] of pow\(1,2,0\)$"
    with pytest.raises(DomainError, match=message):
        bounds.verify_II1(f, SMParams(1.0, 1.0), Interval(1.0, 2.0), enforce_certification=False)
    with pytest.raises(DomainError, match=message):
        bounds.batched(lambda: bounds.verify_II1(f, SMParams(1.0, 1.0), Interval(1.0, 2.0),
                                                 enforce_certification=False))


@pytest.mark.parametrize("harmonic", [True, False], ids=["harmonic", "plain"])
def test_both_means_integrate_with_the_spec_of_the_call(harmonic, monkeypatch):
    # a patched bounds.DEFAULT_QUADSPEC reaches the plain mean too, not only
    # the harmonic one
    spec = QuadSpec(max_depth=3)
    seen = []
    real = bounds.integrate

    def record(f, lo, hi, spec=quadrature.DEFAULT_QUADSPEC):
        seen.append(spec)
        return real(f, lo, hi, spec)

    monkeypatch.setattr(bounds, "DEFAULT_QUADSPEC", spec)
    monkeypatch.setattr(bounds, "integrate", record)
    bounds._cached_mean.cache_clear()
    f = FunctionSpec.power(1.0, 2.0, 0.0, 0.5, 4.0)
    bounds.verify_hh_double(f, Interval(1.0, 2.0), harmonic=harmonic)
    assert seen == [spec]
