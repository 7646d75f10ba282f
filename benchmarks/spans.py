"""In-memory span tracing for the benchmark's traced repetitions.

A traced repetition replaces functions at the module attributes where hhkit's
callers look them up (``bounds.kernel_K``, ``specfun.integrate``, ...) with
wrappers that record one span per call: name, thread, start, end, parent and
whether the call returned.  Spans stay in memory and are summarised when the
repetition ends.  hhkit's source is not changed, and ``Tracer.uninstall``
puts every original back.

A span's parent is the innermost open span on its own thread.  The first span
on a pool thread has nothing open on its thread, so it takes the innermost
span open on the thread that created the tracer (``harness.run_sweep`` while
the sweep fans out); otherwise the pool's work would hang off nothing.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

LAYERS = ("specfun", "quadrature", "functions", "bounds", "harness", "cli")


class Span(NamedTuple):
    idx: int  # allocation order; a parent is allocated before its children
    name: str  # "<layer>.<function>"
    tid: int
    start: float
    end: float
    parent: Optional[int]
    ok: bool  # returned rather than raised
    cpu: float = 0.0  # process CPU seconds, only for hooks that ask for it


def _grid_points(report, counters: Counter) -> None:
    counters["functions.grid_check.points"] += report.samples


def _certified(report, counters: Counter) -> None:
    counters["bounds.certify.passed"] += int(report.passed)


def _report_bytes(text: str, counters: Counter) -> None:
    counters["harness.render_report.bytes"] += len(text.encode("utf-8"))


def _sweep_instances(result, counters: Counter) -> None:
    errors = sum(1 for f in result.findings if f.kind == "EvaluationError")
    counters["harness.instances.evaluated"] += len(result.records)
    counters["harness.instances.skipped"] += len(result.skipped)
    counters["harness.instances.planned"] += len(result.records) + len(result.skipped) + errors


_COEFFS = ("coeff_lambda", "coeff_mu", "coeff_C", "coeff_rho", "coeff_nu")

# (hhkit module, attribute, span name, counter taken from the result, record CPU time).
# A function imported by name into several modules is hooked in each module
# that calls it, because each caller looks it up in its own namespace.
HOOKS: tuple[tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("specfun", "beta", "specfun.beta", None, False),
    ("bounds", "beta", "specfun.beta", None, False),
    ("bounds", "hyp2f1_euler", "specfun.hyp2f1_euler", None, False),
    ("quadrature", "integrate", "quadrature.integrate", None, False),
    ("specfun", "integrate", "quadrature.integrate", None, False),
    ("bounds", "integrate", "quadrature.integrate", None, False),
    # The one private hook: a GK15 panel is the quadrature's unit of work.
    ("quadrature", "_gk15", "quadrature.panel", None, False),
    ("bounds", "kernel_K", "quadrature.kernel_K", None, False),
    ("bounds", "check_harmonic_sm_convex", "functions.grid_check", _grid_points, False),
    ("bounds", "check_sm_convex", "functions.grid_check", _grid_points, False),
    ("functions", "harmonic_combine", "functions.harmonic_combine", None, False),
    *(("bounds", fn, "bounds.verify", None, False) for fn in ("verify_bound", "verify_II1", "verify_hh_double")),
    *(("bounds", fn, "bounds.certify", _certified, False)
      for fn in ("certify_function", "certify_gradient", "certify_plain")),
    *((module, fn, "bounds.coeff", None, False) for module in ("bounds", "harness") for fn in _COEFFS),
    ("harness", "run_sweep", "harness.run_sweep", _sweep_instances, True),
    ("harness", "search_counterexample", "harness.search_counterexample", None, False),
    ("harness", "build_adjudication_report", "harness.build_adjudication_report", None, False),
    ("harness", "render_report_json", "harness.render_report", _report_bytes, False),
    ("harness", "render_report_csv", "harness.render_report", _report_bytes, False),
)

# Every span name a summary reports, hooked or opened by the benchmark itself.
SPAN_NAMES = tuple(dict.fromkeys([h[2] for h in HOOKS] + ["cli.main"]))


class Tracer:
    """Records spans of calls made through ``call`` or through installed hooks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _parent(self, tid: int, stack: list[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        if tid == self._home:
            return None
        try:
            return self._stacks[self._home][-1]
        except (KeyError, IndexError):
            return None

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: Optional[dict] = None,
             on_result: Optional[Callable] = None, cpu: bool = False):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = self._parent(tid, stack)
        idx = next(self._ids)
        stack.append(idx)
        cpu0 = self.cpu_clock() if cpu else 0.0
        start = self.clock()
        ok = False
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
        except BaseException as exc:
            with self._lock:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            end = self.clock()
            used = self.cpu_clock() - cpu0 if cpu else 0.0
            stack.pop()
            self.spans.append(Span(idx, name, tid, start, end, parent, ok, used))
        if on_result is not None:
            with self._lock:
                on_result(result, self.counters)
        return result

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable], cpu: bool) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result, cpu)

        traced.traced_span = name
        return traced

    def install(self) -> None:
        """Replace every hooked attribute with a recording wrapper."""
        try:
            for module_name, attr, name, on_result, cpu in HOOKS:
                module = importlib.import_module(f"hhkit.{module_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, on_result, cpu))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original the tracer replaced, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        return summarize(self.spans, self.counters)


def _covered(parent: Span, kids: list[Span]) -> float:
    """Length of the parent's interval covered by the union of its children's."""
    total = 0.0
    reach = parent.start
    for kid in sorted(kids, key=attrgetter("start")):
        lo = max(kid.start, reach)
        hi = min(kid.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Self time is a span's duration minus the part of it its children cover.
    ``<layer>.share`` is inclusive: the self time of every span at or below a
    span of that layer, over the self time of all spans, so nested layers
    (quadrature inside specfun) both count the shared time.  Names that were
    never called report 0, so every workload reports the same metrics.
    """
    names = list(dict.fromkeys([*SPAN_NAMES, *(s.name for s in spans)]))
    bit = {name: 1 << i for i, name in enumerate(names)}
    layer_bits = {layer: sum(b for n, b in bit.items() if n.split(".")[0] == layer) for layer in LAYERS}
    search_bit = bit["harness.search_counterexample"]

    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    calls = Counter()
    total = defaultdict(float)
    self_total = defaultdict(float)
    cpu = defaultdict(float)
    inclusive = defaultdict(float)
    all_self = 0.0
    verify_in_search = [0, 0]  # ok, all
    seen: dict[int, int] = {}  # idx -> bits of the names at or above the span
    for s in sorted(spans, key=attrgetter("idx")):
        own = s.end - s.start
        self_s = own - _covered(s, children.get(s.idx, []))
        mask = bit[s.name] | seen.get(s.parent, 0)
        seen[s.idx] = mask
        calls[s.name] += 1
        total[s.name] += own
        self_total[s.name] += self_s
        cpu[s.name] += s.cpu
        all_self += self_s
        for layer, bits in layer_bits.items():
            if mask & bits:
                inclusive[layer] += self_s
        if s.name == "bounds.verify" and mask & search_bit:
            verify_in_search[0] += s.ok
            verify_in_search[1] += 1

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_total[name]
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(inclusive[layer], all_self)
    panels = calls["quadrature.panel"]
    points = counters["functions.grid_check.points"]
    out.update({
        "quadrature.panels": panels,
        "quadrature.panels_per_integrate": _ratio(panels, calls["quadrature.integrate"]),
        "quadrature.panel.mean_us": _ratio(total["quadrature.panel"], panels) * 1e6,
        "quadrature.tolerance_not_met": counters["quadrature.integrate.raised.ToleranceNotMetError"],
        "functions.grid_check.points": points,
        "functions.grid_check.points_per_s": _ratio(points, total["functions.grid_check"]),
        "bounds.certify.pass_ratio": _ratio(counters["bounds.certify.passed"], calls["bounds.certify"]),
        "harness.render_report.bytes": counters["harness.render_report.bytes"],
        "harness.instances.planned": counters["harness.instances.planned"],
        "harness.instances.evaluated": counters["harness.instances.evaluated"],
        "harness.instances.skipped": counters["harness.instances.skipped"],
        "harness.search.evaluated_ratio": _ratio(*verify_in_search),
        "harness.sweep.cpu_util": _ratio(cpu["harness.run_sweep"], total["harness.run_sweep"]),
    })
    return out
