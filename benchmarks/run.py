"""hhkit benchmark: time hhkit's CLI workloads end to end, or layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from anywhere inside a checkout; hhkit is imported from its ``src``.  Every
repetition starts a fresh interpreter, because every real ``hhkit`` call
starts with empty caches.  A run first starts a few interpreters that only set
up, to time set-up, then repeats the workload until ``--seconds`` have passed
and reports medians over the repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics:
span metrics from the traced ones, cache metrics from the untraced ones, and
the tracing overhead as their difference in ``run_s``.  ``--workload all``
runs every workload in turn.  ``--out FILE`` appends the result, with the
machine facts, to a JSON-lines file.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (items whose verdict check failed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Every run must end within 180 s; a worker still running past this is killed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a failed verdict)."""


def machine_facts() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": importlib.metadata.version("numpy"),
        "HHKIT_THREADS": workloads.SWEEP_THREADS,
        "platform": platform.platform(),
        "commit": commit,
    }


def spawn(workload: str, seed: int, work: Path, mode: str, deadline: float) -> dict:
    """Run one worker interpreter and return its repetition record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--mode", mode]
    env = dict(os.environ, HHKIT_THREADS=str(workloads.SWEEP_THREADS))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} repetition overran the run's deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    rep = json.loads(lines[-1])
    # perf_counter is the machine-wide monotonic clock, so the worker's reading
    # and ours share an origin.
    rep["setup_s"] = rep["t_ready"] - t0
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[list[float], list[dict]]:
    """Set-up samples and repetition records of one run."""
    deadline = time.perf_counter() + DEADLINE_S
    # The first interpreter in a fresh checkout also compiles hhkit's bytecode.
    spawn(workload, seed, work, "setup", deadline)
    start = time.perf_counter()
    setups = [spawn(workload, seed, work, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    modes = itertools.cycle(("plain", "traced")) if trace else itertools.repeat("plain")
    reps: list[dict] = []
    while not reps or time.perf_counter() - start < seconds or (trace and len(reps) < 2):
        reps.append(spawn(workload, seed, work, next(modes), deadline))
    return setups + [r["setup_s"] for r in reps], reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def samples(setups: list[float], reps: list[dict], names: list[str]) -> dict[str, list[float]]:
    """Per-metric sample lists; one sample per repetition (or set-up)."""
    plain = [r for r in reps if "caches" in r]
    traced = [r for r in reps if "layers" in r]
    found: dict[str, list[float]] = {
        "setup_s": setups,
        "run_s": [r["run_s"] for r in plain],
        "items_per_s": [r["items"] / r["run_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for r in plain:
        for name, value in r["caches"]["metrics"].items():
            found.setdefault(name, []).append(value)
    for r in traced:
        for name, value in r["layers"].items():
            found.setdefault(name, []).append(value)
    if traced:
        overhead = statistics.median(r["run_s"] for r in traced) - statistics.median(found["run_s"])
        found["trace.overhead_s"] = [overhead]
    missing = [n for n in names if not found.get(n)]
    if missing:
        raise BenchError(f"no samples for metric(s) {', '.join(missing)}")
    return {n: found[n] for n in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, work: Path) -> dict:
    setups, reps = measure(workload, seed, seconds, trace, work)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    series = samples(setups, reps, [m["name"] for m in declared])
    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median(series[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    digests: list[dict] = []
    for r in reps:
        if r.get("digests") and r["digests"] not in digests:
            digests.append(r["digests"])
    summary = {m["name"]: dict(zip(("median", "q1", "q3"), quartiles(series[m["name"]])),
                               n=len(series[m["name"]]), unit=m["unit"]) for m in declared}
    plain = [r for r in reps if "caches" in r]
    print(f"== {workload}  seed={seed}  trace={int(trace)}  repetitions={len(reps)}  "
          f"attempted={attempted}  failed={failed}  failed_frac={failed / attempted:.6g}")
    print(f"   {'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, row in summary.items():
        print(f"   {name:<44} {row['median']:>14.6g} {row['q1']:>14.6g} {row['q3']:>14.6g} {row['n']:>4}  {row['unit']}")
    for digest in digests:
        print(f"   report digests: {json.dumps(digest, sort_keys=True)}")
    return {"result": result, "summary": summary, "failed_frac": failed / attempted,
            "report_digests": digests,
            "caches": plain[0]["caches"]["raw"] if plain else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append the results to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hhkit" / "cli.py").is_file():
        print(f"benchmark: no hhkit sources under {ROOT / 'src'}; run it inside a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, work)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if args.out:
        with args.out.open("a", encoding="utf-8") as fh:
            for name, outcome in outcomes.items():
                fh.write(json.dumps({"workload": name, "seed": args.seed, "seconds": args.seconds,
                                     "trace": args.trace, "machine": facts, **outcome}, sort_keys=True) + "\n")
    results = {name: outcome["result"] for name, outcome in outcomes.items()}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
