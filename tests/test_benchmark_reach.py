"""The names the benchmark reaches in hhkit still exist, and its small cut runs.

``benchmarks/spans.py`` hooks functions at module attributes (``HOOKS``) and
``benchmarks/worker.py`` reads ``cache_info()`` of cached functions
(``CACHES``).  A renamed or moved function would otherwise surface only when
the benchmark itself runs.  One small repetition of each workload, untraced
and traced, must pass the workload's own checks.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import worker  # noqa: E402
from spans import HOOKS  # noqa: E402
from worker import CACHES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("module, attribute", sorted({(h[0], h[1]) for h in HOOKS}))
def test_every_hook_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"hhkit.{module}"), attribute))


@pytest.mark.parametrize("module, function", sorted({(m, fn) for m, fns in CACHES.values() for fn in fns}))
def test_every_cache_has_cache_info(module, function):
    getattr(importlib.import_module(f"hhkit.{module}"), function).cache_info()


@pytest.mark.parametrize("mode", ["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_cut_of_each_workload_runs(workload, mode, tmp_path):
    rep = worker.run_rep(ROOT, workload, 5, tmp_path, mode, small=True)
    assert rep["items"] > 0 and rep["failed"] == 0
    assert ("layers" in rep) == (mode == "traced")
