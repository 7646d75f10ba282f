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
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import bounds
from .bounds import (
    TOL_ACCEPT,
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
from .functions import FunctionSpec, SMParams

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
            if v <= 1.0:
                raise ParameterError(f"interval ratios must exceed 1, got {v}")
        for v in self.a_values:
            if v <= 0.0:
                raise ParameterError(f"a values must be positive, got {v}")
        for s in self.s_grid:
            if not 0.0 <= s <= 1.0:
                raise ParameterError(f"s grid values must lie in [0, 1], got {s}")
        for m in self.m_grid:
            if not 0.0 < m <= 1.0:
                raise ParameterError(f"m grid values must lie in (0, 1], got {m}")
        for q in self.q_grid:
            if q < 1.0:
                raise ParameterError(f"q grid values must be >= 1, got {q}")
        if self.grid < 8:
            raise ParameterError(f"certification grid density must be >= 8, got {self.grid}")
        for fam in self.families:
            # instantiating on a probe interval surfaces bad names/arity at
            # config-parse time instead of mid-sweep
            make_function(fam, 1.0, Interval(1.0, 2.0))

    def to_dict(self) -> dict:
        return {
            "theorems": list(self.theorems),
            "families": [dict(d) for d in self.families],
            "a_values": list(self.a_values),
            "ratios": list(self.ratios),
            "s_grid": list(self.s_grid),
            "m_grid": list(self.m_grid),
            "q_grid": list(self.q_grid),
            "grid": self.grid,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        return cls(
            theorems=tuple(data["theorems"]),
            families=tuple(
                {"family": str(fam["family"]), "params": tuple(float(p) for p in fam["params"])}
                for fam in data["families"]
            ),
            a_values=tuple(float(v) for v in data["a_values"]),
            ratios=tuple(float(v) for v in data["ratios"]),
            s_grid=tuple(float(v) for v in data["s_grid"]),
            m_grid=tuple(float(v) for v in data["m_grid"]),
            q_grid=tuple(float(v) for v in data["q_grid"]),
            grid=int(data.get("grid", 48)),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(json.loads(text))


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
            "worst_margin": min(margins) if margins else None,
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


def run_sweep(cfg: SweepConfig, progress: Optional[Callable[[int, int], None]] = None) -> SweepResult:
    """Evaluate every combination in ``cfg`` in plan order; certification
    failures become skips, margin violations and per-instance errors become
    findings."""
    plan = _instance_plan(cfg)
    records: list[VerificationRecord] = []
    skipped: list[dict] = []
    findings: list[Finding] = []
    for idx, (theorem, fam, iv, s, m, q) in enumerate(plan):
        descriptor = {"theorem": theorem, "family": fam["family"], "params": list(fam["params"]),
                      "a": iv.a, "b": iv.b, "s": s, "m": m, "q": q}
        try:
            f = make_function(fam, 1.0 if m is None else m, iv)
            params = None if s is None else SMParams(s, m, 1.0 if q is None else q)
            rec = bounds.verify_theorem(theorem, f, params, iv, grid=cfg.grid)
        except CertificationError as exc:
            descriptor["reason"] = str(exc)
            skipped.append(descriptor)
        except Exception as exc:  # aggregated, never aborts the sweep
            descriptor["error"] = f"{type(exc).__name__}: {exc}"
            # Severity carries no magnitude for aggregated errors; 0 keeps the
            # report strict JSON (no Infinity literals).
            findings.append(Finding(kind="EvaluationError", severity=0.0,
                                    description=descriptor["error"], payload=descriptor))
        else:
            records.append(rec)
            if not rec.satisfied:
                findings.append(
                    Finding(
                        kind="BoundViolation",
                        severity=abs(min(rec.margin, 0.0)),
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


def _search_instance(theorem: str, fam: dict, point: dict, grid: int,
                     enforce_certification: bool, companion: bool = False) -> Optional[VerificationRecord]:
    """One search instance, or None when it lies outside the hypothesis class.

    Draws and shrink trials need only the margin, so the printed companion set
    is built (``companion=True``) only for the records a finding reports.
    """
    iv = Interval(point["a"], point["a"] * point["ratio"])
    params = SMParams(point["s"], point["m"], point["q"])
    f = make_function(fam, point["m"], iv)
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
            rec = _search_instance(theorem, fam, candidate, grid, enforce)
            if rec is not None and rec.margin < -TOL_ACCEPT:
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
    worst: Optional[tuple[float, dict, dict]] = None
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
        rec = _search_instance(theorem, fam, point, grid, enforce_certification)
        if rec is None:
            continue
        if rec.margin < -TOL_ACCEPT and (worst is None or rec.margin < worst[0]):
            worst = (rec.margin, dict(fam), point)
    if worst is None:
        return None
    margin, fam, point = worst
    worst_rec = _search_instance(theorem, fam, point, grid, enforce_certification, companion=True)
    boundary = _shrink(theorem, fam, point, grid, enforce_certification)
    boundary_rec = _search_instance(theorem, fam, boundary, grid, enforce_certification, companion=True)
    if boundary_rec is None or boundary_rec.margin >= -TOL_ACCEPT:
        boundary, boundary_rec = point, worst_rec
    return Finding(
        kind="BoundViolation",
        severity=abs(worst_rec.margin),
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
    """
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
        sets = [{**cs.to_dict(), **grid_params} for grid_params, cs in _printed_sets(iv, s_grid, q_grid)]
        coefficient_tables.append({"a": iv.a, "b": iv.b, "sets": sets})
        findings.extend(check_reductions(iv, s_grid, q_grid))
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


def _quantize(obj):
    """Round floats to 15 significant digits (by value, so json prints them so)."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(format(float(obj), ".15g"))
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _fmt15(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _report_doc(result: SweepResult) -> dict:
    return _quantize({
        "schema_version": SCHEMA_VERSION,
        "config": result.config.to_dict(),
        "summary": result.summary,
        "records": [r.to_dict() for r in result.records],
        "skipped": result.skipped,
        "findings": [f.to_dict() for f in result.findings],
    })


def render_report_json(result: SweepResult) -> str:
    return json.dumps(_report_doc(result), indent=2, sort_keys=True) + "\n"


CSV_FIELDS = ("theorem", "a", "b", "s", "m", "q", "family", "lhs", "rhs", "margin", "satisfied")


def render_report_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in result.records:
        row = r.to_dict()
        writer.writerow([_fmt15(row[k]) for k in CSV_FIELDS])
    return buf.getvalue()


def write_report_json(result: SweepResult, path: str) -> None:
    """Stream the report to ``path``; the bytes equal ``render_report_json``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_report_doc(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report_csv(result))
