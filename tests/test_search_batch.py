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


# Pinned before the search ran its draws as one batch: (theorem, seed, certification enforced).
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
    ("I1", 7, True): "4256568c2cc9ac709cba69e884ee28d6e5063dce2d09fccbae4ed0f0ba25f8a9",
    ("I1", 7, False): "049efe42979dc1fc6f9beb207759af7de0732499f64644af02e689a107dcc45b",
    ("I1", 8, True): "5216744160b46a9d6ab7579902b46971becd4179e68785fa7309305c640fc312",
    ("I1", 8, False): "5c31fa4281570194e45bab579a686c03a6d5c963f4951d1b5c393025a1bbcd90",
    ("I2", 7, True): "2b8005ee8d3f50aa0e73781cff7c05d13434e70cd0b1caee0a84eeebc4c63c70",
    ("I2", 7, False): "687f9fa9b69143b698d4b3b8127d3862672993ec2a11f7396ed3106ceeace9a5",
    ("I2", 8, True): "7cd0ab1dbaaa19a0e195ed42b5819eecaa7c0c6157f6503f2fc6e5c2cdafe8f0",
    ("I2", 8, False): "a0a79f619cb6b028dde5f84a5eb9734d530fb4958ac92fcf5dea256880da2c7b",
    ("FS1", 7, True): "764e23657695373729c60be67ac448d8f29c77a84a17a39b202c814713b8533f",
    ("FS1", 7, False): "953445a1c18b302c10c81c4871dd8de71636582f7772e740b53764731a0df3e8",
    ("FS1", 8, True): "067c07cc0dafa3083d50080b5ab7b067bc8e2b89d0bdfdf10e1de58716d9c7cf",
    ("FS1", 8, False): "deededd0d86f1364cfedf84d1d70c84b408beeac8fb6f9a058931d65efb18d5c",
    ("FS2", 7, True): "7ec0b3dcad63b270e824d18de6c78462ed017015d5a4e8264c5410590f890896",
    ("FS2", 7, False): "ff55e38a1cd9d9a0264ccae9b083d32e74e04294476f379af43ac9a8f5f00d3c",
    ("FS2", 8, True): "5d9124e3f36b5d54a2f8b11968fc18b808a7196c36ed4b1d24015b27080419bf",
    ("FS2", 8, False): "e8f741984ccc9dff65e864d933ec879554a62f828f6613cd4ed5ffac52a4e8d4",
    ("II2", 7, True): "103b660422d5ae8bfec96839e47e5248ac763f18a188e40f9773a6c373028bb0",
    ("II2", 7, False): "59866a37258d75e28fef791e4f6e9bbee885c2f1782b96b6f2fda81f712e9f1b",
    ("II2", 8, True): "fab9f50c22fa606bc0307d40df46dc21077b0e9ba49c46790d9cf044b517de53",
    ("II2", 8, False): "b8935feee3d68d86145fbfe7d9fbb660f88513c513f3f4a9833c1e9a4a2b8d58",
    ("II3", 7, True): "29e165a4492ad75a0dbf6d8db5d31f04cb463a4d9f34c073299a90f1a58271f1",
    ("II3", 7, False): "6b67a0d7bc31e75c6db6bd1907c62de97cc4bfc271d3b491bee46221e3a64ac0",
    ("II3", 8, True): "47c087b65cfa6440f9e03bcfcb87be95bbdf95feaec16fcb3c2d739c87a05725",
    ("II3", 8, False): "08e12bd06b6457d90f40d34a3373b7e88831d08c8b0f2c06889cb3f6d3e91d37",
    ("II4", 7, True): "5ca4a5c5972bcf4cf8e70bd0b2aaa1b27f41d02ac9857939053bd5568071cdeb",
    ("II4", 7, False): "5dd8dcaebc9dd0d8b2d1e67f26a98aabe02ae0d457cb802185593e9375dafd35",
    ("II4", 8, True): "dcc7d3716394093ae36b60ecf6d269fef19d6822ea54a28df1adc61cb65c5c6e",
    ("II4", 8, False): "18df6c5a9a1d7c24eeb0082d04099634fe8857fa19e05f37f84764ea71ef287e",
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

        bounds.clear_certification_cache()
        quadrature._kernel_K_cached.cache_clear()
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
