"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 benchmarks/worker.py --root DIR --workload NAME --seed N --work DIR --mode MODE

Imports hhkit from DIR/src, builds the workload's inputs from the seed and
prints one JSON object as its last line of output.  ``t_ready`` is the
monotonic clock, which every process on the machine shares, read when set-up
ends, so the parent can time set-up from the moment it started this
interpreter.  Modes:

* ``setup``  -- stop after set-up (import plus input generation);
* ``plain``  -- run the calls untraced, then snapshot the hhkit caches;
* ``traced`` -- run the calls with span hooks installed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

MODES = ("setup", "plain", "traced")

# lru_caches read with cache_info() after an untraced repetition, by group.
CACHES = {
    "quadrature.kernel_K": ("quadrature", ("_kernel_K_cached",)),
    "bounds.certify": ("bounds", ("certify_function", "certify_gradient", "certify_plain")),
    "bounds.coeff": ("bounds", ("coeff_lambda", "coeff_mu", "coeff_C", "coeff_rho", "coeff_nu")),
    "bounds.mean": ("bounds", ("_cached_mean",)),
}


def import_hhkit(root: Path):
    """Import hhkit and its CLI from ``root/src`` and refuse any other copy.

    The CLI is imported here, before any tracing, because it binds functions
    of ``bounds`` and ``specfun`` by name when it is first imported.
    """
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hhkit
    import hhkit.cli  # noqa: F401

    if Path(hhkit.__file__).resolve().parent != src / "hhkit":
        raise ImportError(f"hhkit was imported from {hhkit.__file__}, not from {src}")
    return hhkit


def run_calls(calls: list[workloads.Call], tracer: Tracer | None = None) -> dict:
    """Run each call through ``hhkit.cli.main``; time only the calls themselves."""
    from hhkit import cli

    run_s = cpu_s = 0.0
    failed = 0
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call("cli.main", cli.main, (call.argv,)) if tracer else cli.main(call.argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception:  # a call that raises fails all of its items
            code = None
            traceback.print_exc()
        run_s += time.perf_counter() - t0
        cpu_s += time.process_time() - cpu0
        bad = call.items if code is None else call.check(code, out.getvalue())
        if bad:
            sys.stderr.write(f"check failed: hhkit {' '.join(call.argv)} (exit {code})\n{err.getvalue()}")
        failed += bad
    digests: dict = {}
    for call in calls:
        digests.update(call.digests)
    return {"run_s": run_s, "cpu_s": cpu_s, "items": sum(c.items for c in calls), "failed": failed,
            "digests": digests}


def cache_snapshot() -> dict:
    """(hits, misses, currsize) of every benchmarked cache, and the derived metrics."""
    raw: dict[str, list[int]] = {}
    metrics: dict[str, float] = {}
    bounds_entries = 0
    for group, (module_name, functions) in CACHES.items():
        module = importlib.import_module(f"hhkit.{module_name}")
        hits = misses = 0
        for fn in functions:
            info = getattr(module, fn).cache_info()
            raw[f"{module_name}.{fn}"] = [info.hits, info.misses, info.currsize]
            hits += info.hits
            misses += info.misses
            if module_name == "bounds":
                bounds_entries += info.currsize
        metrics[f"{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["bounds.cache_entries"] = bounds_entries
    return {"raw": raw, "metrics": metrics}


def run_rep(root: Path, workload: str, seed: int, work: Path, mode: str, small: bool = False) -> dict:
    """One repetition in this interpreter; ``small`` shrinks the inputs for smoke tests."""
    import_hhkit(root)
    calls = workloads.build(workload, seed, work, small)
    rep: dict = {"t_ready": time.perf_counter()}
    if mode == "traced":
        tracer = Tracer()
        with tracer:
            rep.update(run_calls(calls, tracer))
        rep["layers"] = tracer.summary()
    elif mode == "plain":
        rep.update(run_calls(calls))
        rep["caches"] = cache_snapshot()
    # ru_maxrss is in KiB on Linux.
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=MODES)
    args = parser.parse_args(argv)
    rep = run_rep(args.root, args.workload, args.seed, args.work, args.mode)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
