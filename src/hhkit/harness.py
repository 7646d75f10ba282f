"""Batch verification sweeps, counterexample search, and reduction adjudication.

Sweeps enumerate (theorem, family, interval, s, m, q) combinations in a fixed
nested order, certify each instance once (cached), and collect findings without
aborting.  Reports are written with a stable field order and 15-significant-
digit float formatting, so identical configurations produce byte-identical
JSON/CSV files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import bounds
from .bounds import (
    CoefficientSet,
    Interval,
    VerificationRecord,
    coeff_C,
    coeff_lambda,
    coeff_mu,
    coeff_nu,
    coeff_rho,
    kernel_oracle_identities,
)
from .errors import CertificationError, DomainError, ParameterError
from .functions import FAMILIES, FunctionSpec, SMParams, check_grid

__all__ = [
    "SCHEMA_VERSION",
    "SweepConfig",
    "Finding",
    "SweepResult",
    "default_sweep_config",
    "make_function",
    "run_sweep",
    "search_counterexample",
    "check_reductions",
    "build_adjudication_report",
    "write_report_json",
    "write_report_csv",
    "render_json",
    "render_csv",
    "render_report_json",
    "render_report_csv",
]

SCHEMA_VERSION = 1

# Domain cushion around the certification window [m*a, b/m]; combined points
# touch the window edges exactly, so the declared domain must extend past them.
_DOMAIN_PAD = 1e-6


@dataclass(frozen=True)
class Finding:
    """One adjudicated anomaly: a bound violation, a printed-form deviation,
    a reduction mismatch, or an aggregated per-instance error."""

    kind: str
    severity: float
    description: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "description": self.description,
            "payload": self.payload,
        }


# Readers of one sweep-config field each; a TypeError or ValueError becomes a
# ParameterError in ``SweepConfig.from_dict``.
def _items(container: dict, key: str):
    """A list field; TypeError for anything else (a string would be split)."""
    value = container[key]
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list, got {value!r}")
    return value


def _reals(container: dict, key: str) -> tuple[float, ...]:
    """A list of numbers as floats; TypeError for anything but an int or a float."""
    values = _items(container, key)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise TypeError(f"{key} must hold numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _family(fam: dict) -> str:
    """A family name; TypeError for anything but the name of a table row."""
    if not isinstance(fam["family"], str) or fam["family"] not in FAMILIES:
        raise TypeError(f"family must be one of {FAMILIES}, got {fam['family']!r}")
    return fam["family"]


def _integer(value, key: str) -> int:
    """An integer field; TypeError for anything that would lose its value as
    an int (a fraction, a boolean, text)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepConfig:
    theorems: tuple[str, ...]
    families: tuple[dict, ...]
    a_values: tuple[float, ...]
    ratios: tuple[float, ...]
    s_grid: tuple[float, ...]
    m_grid: tuple[float, ...]
    q_grid: tuple[float, ...]
    grid: int = 48
    seed: int = 0

    def __post_init__(self) -> None:
        for t in self.theorems:
            bounds.theorem_row(t)
        for v in self.ratios:
            if not 1.0 < v < math.inf:
                raise ParameterError(f"interval ratios must be finite and exceed 1, got {v}")
        for v in self.a_values:
            if not 0.0 < v < math.inf:
                raise ParameterError(f"a values must be finite and positive, got {v}")
        for s in self.s_grid:
            if not 0.0 <= s <= 1.0:
                raise ParameterError(f"s grid values must lie in [0, 1], got {s}")
        for m in self.m_grid:
            if not 0.0 < m <= 1.0:
                raise ParameterError(f"m grid values must lie in (0, 1], got {m}")
        for q in self.q_grid:
            if not 1.0 <= q < math.inf:
                raise ParameterError(f"q grid values must be finite and >= 1, got {q}")
        check_grid(self.grid)
        for fam in self.families:
            # instantiating on a probe interval surfaces bad names/arity at
            # config-parse time instead of mid-sweep
            make_function(fam, 1.0, Interval(1.0, 2.0))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """The config of a JSON document; ParameterError for a missing key or
        a value of the wrong type: a list field that is not a list, a
        boolean or text where a number belongs, a family that is not the
        name of a family row, or a grid or seed that is not an integer."""
        try:
            fields = dict(
                theorems=tuple(_items(data, "theorems")),
                families=tuple(
                    {"family": _family(fam), "params": _reals(fam, "params")}
                    for fam in _items(data, "families")
                ),
                a_values=_reals(data, "a_values"),
                ratios=_reals(data, "ratios"),
                s_grid=_reals(data, "s_grid"),
                m_grid=_reals(data, "m_grid"),
                q_grid=_reals(data, "q_grid"),
                grid=_integer(data.get("grid", 48), "grid"),
                seed=_integer(data.get("seed", 0), "seed"),
            )
        except KeyError as exc:
            raise ParameterError(f"sweep config lacks the key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed sweep config: {exc}") from exc
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str | bytes) -> "SweepConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise ParameterError(f"sweep config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def default_sweep_config() -> SweepConfig:
    """The shipped default grid: every theorem over power families.

    Powers with exponent >= 2 keep |f'|^q harmonically (s,m)-convex for every
    (s, m, q) in the grid; exponents 1 and 1.5 exercise the certification gate
    (their gradient instances are only partially certifiable and are skipped
    where the check fails).
    """
    return SweepConfig(
        theorems=("HarmHH", "II1", "I1", "I2", "FS1", "FS2", "II2", "II3", "II4"),
        families=(
            {"family": "pow", "params": (1.0, 1.0, 0.0)},
            {"family": "pow", "params": (1.0, 1.5, 0.0)},
            {"family": "pow", "params": (1.0, 2.0, 0.0)},
            {"family": "pow", "params": (2.0, 2.0, 0.0)},
            {"family": "pow", "params": (1.0, 2.5, 0.0)},
            {"family": "pow", "params": (1.0, 3.0, 0.0)},
        ),
        a_values=(1.0, 1.5, 2.0),
        ratios=(1.5, 2.0, 5.0),
        s_grid=(0.25, 0.5, 0.75, 1.0),
        m_grid=(0.5, 0.8, 1.0),
        q_grid=(1.0, 1.5, 2.0, 3.0),
        grid=48,
        seed=20260810,
    )


def make_function(descriptor: dict, m: float, iv: Interval) -> FunctionSpec:
    """Instantiate a family descriptor with a domain covering [m*a, b/m]."""
    lo = m * iv.a * (1.0 - _DOMAIN_PAD)
    hi = iv.b / m * (1.0 + _DOMAIN_PAD)
    return FunctionSpec(descriptor["family"], tuple(float(p) for p in descriptor["params"]), lo, hi)


def _rank(margin: float) -> float:
    """A margin as ranked: NaN, a violation by the record's verdict, ranks worst."""
    return -math.inf if math.isnan(margin) else margin


def _severity(margin: float) -> float:
    """How far a violation's margin falls below 0; 0 for NaN, which has no magnitude."""
    return 0.0 if math.isnan(margin) else abs(min(margin, 0.0))


@dataclass
class SweepResult:
    config: SweepConfig
    records: list[VerificationRecord]
    skipped: list[dict]
    findings: list[Finding]

    @property
    def summary(self) -> dict:
        margins = [r.margin for r in self.records]
        return {
            "instances_evaluated": len(self.records),
            "instances_skipped": len(self.skipped),
            "violations": sum(1 for f in self.findings if f.kind == "BoundViolation"),
            "findings": len(self.findings),
            "worst_margin": min(margins, key=_rank) if margins else None,
            "mean_margin": (sum(margins) / len(margins)) if margins else None,
        }


def _instance_plan(cfg: SweepConfig) -> list[tuple]:
    """Deterministic enumeration: theorem -> family -> a -> ratio -> s -> m -> q,
    keeping the (s, m, q) points inside each theorem's statement."""
    plan: list[tuple] = []
    for theorem in cfg.theorems:
        row = bounds.THEOREMS[theorem]
        points = [(None, None, None)] if not row.takes else [
            (s, m, q)
            for s in cfg.s_grid
            for m in cfg.m_grid
            for q in (cfg.q_grid if "q" in row.takes else (None,))
            if row.reject(s, m, q) is None
        ]
        for fam in cfg.families:
            for a in cfg.a_values:
                for ratio in cfg.ratios:
                    iv = Interval(a, a * ratio)
                    plan.extend((theorem, fam, iv, s, m, q) for s, m, q in points)
    return plan


def _descriptor(instance: tuple, **outcome: str) -> dict:
    """The report entry of a skipped or failed plan instance."""
    theorem, fam, iv, s, m, q = instance
    return {"theorem": theorem, "family": fam["family"], "params": list(fam["params"]),
            "a": iv.a, "b": iv.b, "s": s, "m": m, "q": q, **outcome}


def _companion_sets(plan: list[tuple]) -> Callable[[], None]:
    """A ``bounds.batched`` plan for the sweep ``plan``: it builds each
    distinct printed companion set of its gradient instances once.  The
    sets' oracles are the kernels ``verify_bound`` looks up, so the batch
    serves the sweep's kernels and 2F1 terms; the means are left to
    integrate one by one.  II3's k0 = K_W1(0, 1) is an oracle only of the
    I1 and FS1 sets and of the rho set at s = 0: on an interval with none
    of those it integrates alone."""
    sets = dict.fromkeys((bounds.THEOREMS[theorem].companion, s, q, iv)
                         for theorem, _, iv, s, _, q in plan if theorem in bounds.GRADIENT_THEOREMS)

    def build() -> None:
        for companion, s, q, iv in sets:
            companion(s, q, iv)

    return build


def run_sweep(cfg: SweepConfig, progress: Optional[Callable[[int, int], None]] = None) -> SweepResult:
    """Evaluate every combination in ``cfg`` in plan order; certification
    failures become skips, margin violations and per-instance errors become
    findings.

    The instances run inside one ``bounds.batched`` call whose plan is the
    sweep's distinct companion sets, so their 2F1 terms and kernels are
    integrated in one batch.  A lookup the batch does not serve integrates
    alone, and each failing instance is a finding of its own, as in the
    loop without the batch."""
    plan = _instance_plan(cfg)
    return bounds.batched(lambda: _evaluate(cfg, plan, progress), plan=_companion_sets(plan))


def _evaluate(cfg: SweepConfig, plan: list[tuple], progress: Optional[Callable[[int, int], None]]) -> SweepResult:
    """The instances of ``plan``, one by one, as ``run_sweep`` reports them."""
    records: list[VerificationRecord] = []
    skipped: list[dict] = []
    findings: list[Finding] = []
    # Each function recurs for every theorem and (s, q), and each parameter
    # point for every function: both are built once.  A family dict is keyed
    # by its identity, which cfg keeps alive for the whole sweep.
    specs: dict[tuple, FunctionSpec] = {}
    points: dict[tuple, SMParams] = {}

    for idx, instance in enumerate(plan):
        theorem, fam, iv, s, m, q = instance
        try:
            key = (id(fam), 1.0 if m is None else m, iv)
            f = specs.get(key)
            if f is None:
                f = specs[key] = make_function(fam, *key[1:])
            params = None
            if s is not None:
                # the sign of s is in the key, so that s = -0.0 keeps its own params
                key = (s, math.copysign(1.0, s), m, 1.0 if q is None else q)
                params = points.get(key)
                if params is None:
                    params = points[key] = SMParams(s, m, key[3])
            rec = bounds.verify_theorem(theorem, f, params, iv, grid=cfg.grid)
        except CertificationError as exc:
            skipped.append(_descriptor(instance, reason=str(exc)))
        except Exception as exc:  # aggregated, never aborts the sweep
            error = f"{type(exc).__name__}: {exc}"
            # Severity carries no magnitude for aggregated errors; 0 keeps the
            # report strict JSON (no Infinity literals).
            findings.append(Finding(kind="EvaluationError", severity=0.0, description=error,
                                    payload=_descriptor(instance, error=error)))
        else:
            records.append(rec)
            if not rec.satisfied:
                findings.append(
                    Finding(
                        kind="BoundViolation",
                        severity=_severity(rec.margin),
                        description=(
                            f"{rec.theorem} violated by {rec.family} on "
                            f"[{rec.interval.a}, {rec.interval.b}] (margin {rec.margin:.6e})"
                        ),
                        payload=rec.to_dict(),
                    )
                )
        if progress:
            progress(idx + 1, len(plan))
    return SweepResult(config=cfg, records=records, skipped=skipped, findings=findings)


# ---------------------------------------------------------------------------
# Randomized counterexample search with witness shrinking.
# ---------------------------------------------------------------------------

_SEARCH_FAMILIES = (
    {"family": "pow", "params": (1.0, 1.0, 0.0)},
    {"family": "pow", "params": (1.0, 1.5, 0.0)},
    {"family": "pow", "params": (1.0, 2.0, 0.0)},
    {"family": "pow", "params": (1.0, 3.0, 0.0)},
    {"family": "pow", "params": (0.5, 2.5, 0.0)},
)

_SHRINK_STEPS = 20


def _search_case(fam: dict, point: dict) -> tuple[FunctionSpec, SMParams, Interval]:
    """The function, parameters and interval of one search point."""
    iv = Interval(point["a"], point["a"] * point["ratio"])
    return make_function(fam, point["m"], iv), SMParams(point["s"], point["m"], point["q"]), iv


def _search_instance(theorem: str, case: tuple[FunctionSpec, SMParams, Interval], grid: int,
                     enforce_certification: bool, companion: bool = False) -> Optional[VerificationRecord]:
    """One search instance (a ``_search_case``), or None when it lies outside
    the hypothesis class.

    Draws and shrink trials need only the margin, so the printed companion set
    is built (``companion=True``) only for the records a finding reports.
    """
    f, params, iv = case
    try:
        return bounds.verify_theorem(theorem, f, params, iv, grid=grid,
                                     enforce_certification=enforce_certification, companion=companion)
    except (CertificationError, ParameterError, DomainError):
        return None


def _shrink(theorem: str, fam: dict, point: dict, grid: int, enforce: bool) -> dict:
    """Bisect ``ratio`` and each parameter the theorem takes toward its safe
    anchor while the violation persists.

    Anchors: m -> 1, s -> 1, q -> 1 (or just above for q>1 theorems), ratio -> 1+.
    20 steps per parameter localize the violation boundary to ~1e-6 of range.
    Parameters the theorem does not take keep their drawn values, and so does
    one already at its anchor (s = m = 1 for I1/I2, m = 1 for FS1/FS2): every
    trial would repeat the current point.
    """
    row = bounds.THEOREMS[theorem]
    anchors = {"m": 1.0, "s": 1.0, "q": 1.5 if row.q_above_one else 1.0, "ratio": 1.05}
    current = dict(point)
    for name, anchor in anchors.items():
        if (name != "ratio" and name not in row.takes) or current[name] == anchor:
            continue
        lo_bad = current[name]
        hi_good = anchor
        for _ in range(_SHRINK_STEPS):
            trial = 0.5 * (lo_bad + hi_good)
            candidate = dict(current)
            candidate[name] = trial
            rec = _search_instance(theorem, _search_case(fam, candidate), grid, enforce)
            if rec is not None and not rec.satisfied:
                lo_bad = trial
            else:
                hi_good = trial
        current[name] = lo_bad
    return current


def search_counterexample(
    theorem: str,
    budget: int,
    seed: int,
    families: Sequence[dict] = _SEARCH_FAMILIES,
    s_range: tuple[float, float] = (0.25, 1.0),
    m_range: tuple[float, float] = (0.5, 1.0),
    q_range: tuple[float, float] = (1.0, 3.0),
    a_range: tuple[float, float] = (0.5, 3.0),
    ratio_range: tuple[float, float] = (1.1, 10.0),
    grid: int = 24,
    enforce_certification: bool = True,
) -> Optional[Finding]:
    """Randomized falsification: draw instances, certify, evaluate, and return
    the worst violating instance (shrunk toward the violation boundary), or
    None when the budget is exhausted without a violation.

    ``enforce_certification=False`` exists for detector sanity tests: it
    evaluates instances whose convexity gate fails, which is the only way to
    manufacture a violation of a true theorem.
    """
    if budget < 1:
        raise ParameterError(f"search budget must be >= 1, got {budget}")
    row = bounds.theorem_row(theorem)
    rng = random.Random(seed)
    draws: list[tuple[dict, dict, tuple]] = []
    for _ in range(budget):
        fam = families[rng.randrange(len(families))]
        point = {
            "a": rng.uniform(*a_range),
            "ratio": rng.uniform(*ratio_range),
            "s": rng.uniform(*s_range),
            "m": rng.uniform(*m_range),
            "q": rng.uniform(*q_range) if row.q_above_one else max(1.0, rng.uniform(*q_range)),
        }
        if row.unit_sm:
            point["s"] = 1.0
        if row.unit_sm or row.unit_m:
            point["m"] = 1.0
        if row.q_above_one and point["q"] <= 1.0:
            point["q"] = 1.0 + 0.5 * (q_range[1] - 1.0)
        # built once, for the plan and the served run of the batch
        draws.append((fam, point, _search_case(fam, point)))

    def worst_draw() -> Optional[tuple[float, dict, dict, tuple]]:
        worst = None
        for fam, point, case in draws:
            rec = _search_instance(theorem, case, grid, enforce_certification)
            if rec is None:
                continue
            rank = _rank(rec.margin)
            if not rec.satisfied and (worst is None or rank < worst[0]):
                worst = (rank, dict(fam), point, case)
        return worst

    # The draws are independent, so every integral of the budget runs in one
    # batch: the draws run once as its plan (certifying for real, into the
    # caches), then served, where they are ranked.
    worst = bounds.batched(worst_draw)
    if worst is None:
        return None
    _, fam, point, case = worst
    worst_rec = _search_instance(theorem, case, grid, enforce_certification, companion=True)
    boundary = _shrink(theorem, fam, point, grid, enforce_certification)
    boundary_rec = _search_instance(theorem, _search_case(fam, boundary), grid, enforce_certification,
                                    companion=True)
    if boundary_rec is None or boundary_rec.satisfied:
        boundary, boundary_rec = point, worst_rec
    return Finding(
        kind="BoundViolation",
        severity=_severity(worst_rec.margin),
        description=(
            f"{theorem} violated by {worst_rec.family} at a={point['a']!r}, "
            f"b={point['a'] * point['ratio']!r}, s={point['s']!r}, m={point['m']!r}, "
            f"q={point['q']!r} (margin {worst_rec.margin:.6e}; boundary witness at "
            f"m={boundary['m']!r}, s={boundary['s']!r})"
        ),
        payload={
            "worst_record": worst_rec.to_dict(),
            "worst_parameters": point,
            "boundary_record": boundary_rec.to_dict(),
            "boundary_parameters": boundary,
            "certification_enforced": enforce_certification,
        },
    )


# ---------------------------------------------------------------------------
# Reduction-identity adjudication.
# ---------------------------------------------------------------------------

_PRINTED_AGREEMENT_TOL = 1e-8
_ORACLE_CHAIN_TOL = 1e-9


def _printed_sets(iv: Interval, s_grid: Sequence[float], q_grid: Sequence[float]):
    """Yield (grid parameters, set) for every printed coefficient set on ``iv``,
    in report order: Lambda; Mu for q > 1; C for s > 0; Rho for every (s, q);
    Nu for q > 1."""
    yield {}, coeff_lambda(iv)
    for q in q_grid:
        if q > 1.0:
            yield {"q": q}, coeff_mu(q, iv)
    for s in s_grid:
        if s > 0.0:
            yield {"s": s}, coeff_C(s, iv)
        for q in q_grid:
            yield {"s": s, "q": q}, coeff_rho(s, q, iv)
            if q > 1.0:
                yield {"s": s, "q": q}, coeff_nu(s, q, iv)


def check_reductions(
    iv: Interval,
    s_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    q_grid: Sequence[float] = (1.5, 2.0, 3.0),
) -> list[Finding]:
    """Oracle-level reduction chain plus printed-form adjudication on one interval.

    Oracle identities (independent quadrature formulations, tolerance 1e-9)
    produce ReductionMismatch findings when violated -- none are expected.
    Printed forms deviating from their oracle by more than 1e-8 produce
    ClosedFormDeviation findings: these document the source material.

    Every 2F1 term and kernel of the interval is integrated in one batch,
    through ``bounds.batched``, which raises what the checks would raise one
    lookup at a time.
    """
    return bounds.batched(lambda: _check_reductions(iv, s_grid, q_grid))


def _check_reductions(iv: Interval, s_grid: Sequence[float], q_grid: Sequence[float]) -> list[Finding]:
    findings: list[Finding] = []

    for name, lhs, rhs in kernel_oracle_identities(iv, tuple(s_grid), tuple(q for q in q_grid if q > 1.0)):
        dev = abs(lhs - rhs)
        if dev > _ORACLE_CHAIN_TOL:
            findings.append(Finding(
                kind="ReductionMismatch",
                severity=dev,
                description=f"oracle reduction {name} failed on [{iv.a}, {iv.b}] (|dev|={dev:.3e})",
                payload={"level": "oracle", "identity": name, "a": iv.a, "b": iv.b, "lhs": lhs, "rhs": rhs},
            ))

    def printed_findings(cs: CoefficientSet, context: dict) -> None:
        for label, value, oracle in zip(cs.labels, cs.values, cs.oracle_values):
            dev = abs(value - oracle)
            if dev > _PRINTED_AGREEMENT_TOL:
                best = min(abs(value - o) for o in set(cs.oracle_values))
                note = "" if best > _PRINTED_AGREEMENT_TOL else " (matches a different oracle of the same set: printed pairing swapped)"
                findings.append(Finding(
                    kind="ClosedFormDeviation",
                    severity=dev,
                    description=f"printed {cs.name}.{label} deviates from its defining integral by {dev:.6e}{note}",
                    payload={"level": "printed", **context, "label": label, "printed": value,
                             "oracle": oracle, "best_match_dev": best},
                ))

    for grid_params, cs in _printed_sets(iv, s_grid, q_grid):
        printed_findings(cs, {"set": cs.name, **grid_params, "a": iv.a, "b": iv.b})

    # Remark-level cross-identities: the source asserts C(1) = lambda and the
    # s = 1 hypergeometric mu forms; compare the printed values directly.
    lam = coeff_lambda(iv)
    c1 = coeff_C(1.0, iv)
    for idx, (lam_label, c_label) in enumerate((("lambda1", "C1"), ("lambda2", "C2"), ("lambda3", "C3"))):
        dev = abs(lam.values[idx] - c1.values[idx])
        if dev > _PRINTED_AGREEMENT_TOL:
            findings.append(Finding(
                kind="ReductionMismatch",
                severity=dev,
                description=(
                    f"remark identity {c_label}(1,a,b) = {lam_label} fails for the printed forms "
                    f"(|dev|={dev:.6e}); the oracle-level identity holds"
                ),
                payload={"level": "printed", "a": iv.a, "b": iv.b,
                         "printed_lambda": lam.values[idx], "printed_C_at_1": c1.values[idx]},
            ))
    for q in q_grid:
        if not q > 1.0:
            continue
        mu = coeff_mu(q, iv)
        nu1 = coeff_nu(1.0, q, iv)
        for mu_hyp_label, mu_hyp, nu_label, nu_val in (
            ("mu1_hypergeometric", mu.values[2], "nu1", nu1.values[0]),
            ("mu2_hypergeometric", mu.values[3], "nu2", nu1.values[1]),
        ):
            dev = abs(mu_hyp - nu_val)
            if dev > _PRINTED_AGREEMENT_TOL:
                findings.append(Finding(
                    kind="ReductionMismatch",
                    severity=dev,
                    description=(
                        f"remark pairing {mu_hyp_label} disagrees with {nu_label}(1,q) by {dev:.6e} "
                        f"at q={q}: the printed mu hypergeometric labels are swapped"
                    ),
                    payload={"level": "printed", "q": q, "a": iv.a, "b": iv.b,
                             mu_hyp_label: mu_hyp, nu_label: nu_val},
                ))
    return findings


def build_adjudication_report(
    intervals: Sequence[Interval] = (Interval(1.0, 2.0), Interval(1.0, 5.0), Interval(2.0, 3.0)),
    s_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    q_grid: Sequence[float] = (1.5, 2.0, 3.0),
) -> dict:
    """Deterministic closed-form adjudication document (criterion: the printed
    coefficient audit).  Contents describe the source formulas, not this
    implementation."""
    coefficient_tables = []
    findings: list[Finding] = []
    for iv in intervals:
        # check_reductions builds every set of the interval, so the table reads cached sets
        findings.extend(check_reductions(iv, s_grid, q_grid))
        sets = [{**cs.to_dict(), **grid_params} for grid_params, cs in _printed_sets(iv, s_grid, q_grid)]
        coefficient_tables.append({"a": iv.a, "b": iv.b, "sets": sets})
    return {
        "schema_version": SCHEMA_VERSION,
        "intervals": [{"a": iv.a, "b": iv.b} for iv in intervals],
        "s_grid": list(s_grid),
        "q_grid": list(q_grid),
        "printed_agreement_tol": _PRINTED_AGREEMENT_TOL,
        "oracle_chain_tol": _ORACLE_CHAIN_TOL,
        "coefficient_tables": coefficient_tables,
        "findings": [f.to_dict() for f in findings],
    }


# ---------------------------------------------------------------------------
# Deterministic report serialization (15 significant digits everywhere).
# ---------------------------------------------------------------------------


def _fmt15(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _float_texts(form: Callable[[float], str]) -> Callable[[float], str]:
    """``form``, keeping the text of each float it has formed.  A sweep's
    report repeats a few distinct values many times (the default one's JSON
    holds 77,797 floats, 11,443 distinct).  Zeros and NaN are formed each
    time: 0.0 and -0.0 are one key with two texts, and NaN never finds its
    key."""
    texts: dict[float, str] = {}

    def text(value: float) -> str:
        known = texts.get(value)
        if known is None:
            known = form(value)
            if value and value == value:
                texts[value] = known
        return known

    return text


def _json_float(value: float) -> str:
    value = float(format(value, ".15g"))
    if value - value == 0.0:  # finite
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"


def _json_writer() -> Callable[[object, str], str]:
    """A writer for one document: ``write(value, indent)`` is the JSON text of
    ``value`` on a line indented by ``indent``, as ``json.dumps(...,
    indent=2, sort_keys=True)`` writes it with every float rounded to 15
    significant digits.  Dict keys must be str; an object with a
    ``to_dict()`` method is written as that dict.

    The writer keeps what repeats within the document: each float's text, and
    each dict layout (its keys sorted into one ``%`` format) per key tuple
    and indent.  Scalars are filled by their exact type; anything else
    (``np.float64``, a ``to_dict`` object) takes the ``isinstance`` rules."""
    number = _float_texts(_json_float)
    layouts: dict[tuple, tuple[str, list[str]]] = {}

    def mapping(value: dict, indent: str) -> str:
        if not value:
            return "{}"
        inner = indent + "  "
        key = (tuple(value), indent)
        layout = layouts.get(key)
        if layout is None:
            names = sorted(value)
            fields = ",\n".join(inner + _quote(name).replace("%", "%%") + ": %s" for name in names)
            layout = layouts[key] = ("{\n" + fields + "\n" + indent + "}", names)
        return layout[0] % tuple([write(value[name], inner) for name in layout[1]])

    def sequence(value, indent: str) -> str:
        if not value:
            return "[]"
        inner = indent + "  "
        items = (",\n" + inner).join([write(item, inner) for item in value])
        return "[\n" + inner + items + "\n" + indent + "]"

    def write(value, indent: str) -> str:
        kind = type(value)
        if kind is float:
            return number(value)
        if kind is str:
            return _quote(value)
        if kind is dict:
            return mapping(value, indent)
        if kind is list or kind is tuple:
            return sequence(value, indent)
        if value is None:
            return "null"
        if kind is bool:
            return "true" if value else "false"
        if kind is int:
            return int.__repr__(value)
        if isinstance(value, float):
            return number(value)
        if isinstance(value, str):
            return _quote(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, (list, tuple)):
            return sequence(value, indent)
        if isinstance(value, dict):
            return mapping(value, indent)
        if hasattr(value, "to_dict"):
            return write(value.to_dict(), indent)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return write


def _json_chunks(doc: dict) -> Iterator[str]:
    """``doc`` stamped with the schema version, as JSON text with a final
    newline: one chunk per element of each top-level list, so a long list of
    records is written, and turned into dicts, one element at a time."""
    write = _json_writer()
    head = "{\n  "
    for key, value in sorted({"schema_version": SCHEMA_VERSION, **doc}.items()):
        text = head + _quote(key) + ": "
        head = ",\n  "
        if isinstance(value, (list, tuple)) and value:
            item_head = text + "[\n    "
            for item in value:
                yield item_head + write(item, "    ")
                item_head = ",\n    "
            yield "\n  ]"
        else:
            yield text + write(value, "  ")
    yield "\n}\n"


def render_json(doc: dict) -> str:
    """The JSON form of every hhkit document: ``schema_version`` added, floats
    at 15 significant digits, keys sorted, two-space indent."""
    return "".join(_json_chunks(doc))


def _write_csv(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    number = _float_texts(lambda value: format(value, ".15g"))
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([number(v) if type(v) is float else _fmt15(v) for v in row] for row in rows)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV form of every hhkit table: one header line, then each row's
    values at 15 significant digits (None as an empty field)."""
    buf = io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


def _report_doc(result: SweepResult) -> dict:
    """The sweep report; the writer turns the config, each record and each
    finding into a dict only when it reaches it."""
    return {
        "config": result.config,
        "summary": result.summary,
        "records": result.records,
        "skipped": result.skipped,
        "findings": result.findings,
    }


def render_report_json(result: SweepResult) -> str:
    return render_json(_report_doc(result))


CSV_FIELDS = ("theorem", "a", "b", "s", "m", "q", "family", "lhs", "rhs", "margin", "satisfied")


def _report_rows(result: SweepResult) -> Iterator[list]:
    """Each record's ``CSV_FIELDS``, read off the record as its ``to_dict``
    reads them."""
    for rec in result.records:
        p = rec.params
        yield [rec.theorem, rec.interval.a, rec.interval.b, *((p.s, p.m, p.q) if p else (None, None, None)),
               rec.family, rec.lhs, rec.rhs, rec.margin, rec.satisfied]


def render_report_csv(result: SweepResult) -> str:
    return render_csv(CSV_FIELDS, _report_rows(result))


def write_report_json(result: SweepResult, path: str) -> None:
    """Stream the report to ``path``, record by record; the bytes equal
    ``render_report_json``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(_report_doc(result)))


def write_report_csv(result: SweepResult, path: str) -> None:
    """Stream the CSV report to ``path``, row by row; the bytes equal
    ``render_report_csv``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_csv(fh, CSV_FIELDS, _report_rows(result))
