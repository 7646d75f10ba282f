"""The benchmark's workloads: inputs drawn from the seed, and verdict checks.

Each workload is a list of ``hhkit`` command lines run in-process through
``hhkit.cli.main``.  The seed only shapes the inputs; the program receives
plain command-line arguments, exactly as a user would type them.

* ``sweep-default`` -- the shipped default sweep (9,720 planned instances).
  Certification dominates and the caches are hot.  It is the named
  end-to-end sweep, so its config is fixed and ignores the seed.
* ``search-random`` -- ``hhkit search`` for II1..II4 with seeds drawn from
  the benchmark seed.  Every draw has fresh continuous parameters, so the
  caches almost never hit: the cold-cache counterpart of the sweep.
* ``adjudicate-grid`` -- ``hhkit reductions`` over 25 random intervals.
  2F1 and kernel quadrature dominate and no certification runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep-default", "search-random", "adjudicate-grid")

SWEEP_THREADS = 2
SEARCH_THEOREMS = ("II1", "II2", "II3", "II4")
SEARCH_BUDGET = 500
ADJUDICATE_INTERVALS = 25
# The ranges `hhkit search` draws from, so both random workloads cover the
# same intervals.
A_RANGE = (0.5, 3.0)
RATIO_RANGE = (1.1, 10.0)

# Summary of the shipped default sweep: every planned instance is either
# evaluated or skipped by its certification gate.
DEFAULT_SWEEP_COUNTS = (8568, 1152)
# A 68-instance cut of the default config for smoke tests; it keeps the
# certification-failure path (exponent 1.5) next to an always-certified one.
SMALL_SWEEP = {"families": [{"family": "pow", "params": [1.0, 1.5, 0.0]},
                            {"family": "pow", "params": [1.0, 2.0, 0.0]}],
               "a_values": [1.0], "ratios": [2.0], "s_grid": [0.5, 1.0],
               "m_grid": [0.8, 1.0], "q_grid": [1.0, 2.0]}
SMALL_SWEEP_COUNTS = (64, 4)


@dataclass
class Call:
    """One ``hhkit`` invocation: its argv, how many items it attempts, a
    check mapping (exit code, stdout) to the number of failed items, and the
    sha256 of the reports it wrote, filled in by a passing check."""

    argv: list[str]
    items: int
    check: Callable[[int, str], int]
    digests: dict = field(default_factory=dict)


def build(workload: str, seed: int, work: Path, small: bool = False) -> list[Call]:
    """The calls of one repetition of ``workload``; the same seed gives the same calls."""
    if workload == "sweep-default":
        return _sweep(work, small)
    if workload == "search-random":
        return _search(seed, small)
    if workload == "adjudicate-grid":
        return _adjudicate(seed, small)
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _sweep(work: Path, small: bool) -> list[Call]:
    from hhkit.harness import default_sweep_config

    cfg = default_sweep_config().to_dict()
    expect = DEFAULT_SWEEP_COUNTS
    if small:
        cfg.update(SMALL_SWEEP)
        expect = SMALL_SWEEP_COUNTS
    config = work / "sweep_config.json"
    config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    reports = (work / "sweep_report.json", work / "sweep_report.csv")
    planned = sum(expect)
    digests: dict = {}

    def check(code: int, stdout: str) -> int:
        doc = _parse(stdout)
        summary = doc.get("summary") if isinstance(doc, dict) else None
        if code != 0 or not isinstance(summary, dict):
            return planned
        counts = (summary.get("instances_evaluated"), summary.get("instances_skipped"))
        if counts != expect or summary.get("violations") != 0 or summary.get("findings") != 0:
            return planned
        # The digests are for information only: they let a later change show
        # byte-identical reports.
        for path in reports:
            digests[f"{path.suffix[1:]}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return 0

    argv = ["sweep", "--config", str(config), "--json", str(reports[0]),
            "--csv", str(reports[1]), "--format", "json"]
    return [Call(argv, planned, check, digests)]


def _search(seed: int, small: bool) -> list[Call]:
    rng = random.Random(f"search-random:{seed}")
    budget = 5 if small else SEARCH_BUDGET

    def check(code: int, stdout: str) -> int:
        doc = _parse(stdout)
        ok = code == 0 and isinstance(doc, dict) and "finding" in doc and doc["finding"] is None
        return 0 if ok else budget

    return [Call(["search", "--theorem", theorem, "--budget", str(budget),
                  "--seed", str(rng.randrange(1, 2**31)), "--format", "json"], budget, check)
            for theorem in SEARCH_THEOREMS]


def _adjudicate(seed: int, small: bool) -> list[Call]:
    rng = random.Random(f"adjudicate-grid:{seed}")

    def check(code: int, stdout: str) -> int:
        doc = _parse(stdout)
        if code != 0 or not isinstance(doc, dict) or not isinstance(doc.get("findings"), list):
            return 1
        oracle = [f for f in doc["findings"]
                  if f.get("kind") == "ReductionMismatch" and f.get("payload", {}).get("level") == "oracle"]
        return 1 if oracle else 0

    calls = []
    for _ in range(2 if small else ADJUDICATE_INTERVALS):
        a = rng.uniform(*A_RANGE)
        b = a * rng.uniform(*RATIO_RANGE)
        calls.append(Call(["reductions", "--a", repr(a), "--b", repr(b), "--format", "json"], 1, check))
    return calls
