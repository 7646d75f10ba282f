"""The names the benchmark reaches in hhkit still exist.

``benchmarks/spans.py`` hooks functions at module attributes (``HOOKS``) and
``benchmarks/worker.py`` reads ``cache_info()`` of cached functions
(``CACHES``).  A renamed or moved function would otherwise surface only when
the benchmark itself runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from spans import HOOKS  # noqa: E402
from worker import CACHES  # noqa: E402


@pytest.mark.parametrize("module, attribute", sorted({(h[0], h[1]) for h in HOOKS}))
def test_every_hook_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"hhkit.{module}"), attribute))


@pytest.mark.parametrize("module, function", sorted({(m, fn) for m, fns in CACHES.values() for fn in fns}))
def test_every_cache_has_cache_info(module, function):
    getattr(importlib.import_module(f"hhkit.{module}"), function).cache_info()
