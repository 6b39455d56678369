"""Outside-in tracing of the ``oneway`` package.

``instrument`` replaces every module binding of each traced function with a
wrapper that records a span (name, start, end, parent, thread). Bindings are
found by object identity across all loaded ``oneway`` modules, so names that
``multi_offer`` and ``analytics`` import from ``single_offer``, or that
``bilateral`` imports from scipy, are covered too. No file of the package is
changed; the originals are restored when the context exits.

Spans stay in memory and are reduced to per-layer numbers after a pass. A
span's self time is its duration minus the part of its interval covered by
its children, whichever threads they ran on.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Functions wrapped in each module, named in spans as "<module>.<function>".
TRACED = {
    "io": ("load_game", "load_schedule_file", "load_bilateral", "write_report"),
    "game": ("best_response_B", "social_welfare", "optimal_welfare"),
    "equilibrium": ("nash_outcome", "poa_metrics", "poa_report_rows"),
    "single_offer": (
        "optimal_offer",
        "simplified_offer",
        "evaluate_offer",
        "outside_option",
        "delta_a",
        "delta_b",
        "gamma_candidates",
        "acceptance_prob",
        "bayes_poa_bound",
    ),
    "multi_offer": ("optimize_schedule", "expected_utility_B", "expected_outcome", "simulate_schedule"),
    "bilateral": ("refinement_sweep", "feasibility_lp", "min_subsidy", "certificate_is_valid"),
    "analytics": ("mc_single_offer",),
    "streams": ("stream",),
}

# Work done at the boundary to collect statistics (LP sizes) runs inside a
# span of this name, so it is charged neither to the caller's self time nor
# to any layer.
PROBE = "trace.probe"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = None


class Tracer:
    """Collects spans; one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """Innermost open span of this thread, else the span it inherited."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def begin(self, name: str) -> Span:
        span = Span(name, self.clock(), self.current(), threading.get_ident())
        self._stack().append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    @contextlib.contextmanager
    def inherit(self, parent: Span | None):
        """Make ``parent`` the parent of this thread's outermost spans."""
        old = getattr(self._local, "root", None)
        self._local.root = parent
        try:
            yield
        finally:
            self._local.root = old

    def wrap(self, name: str, fn, probe=None):
        """Wrapper recording a span per call. ``probe(args, kwargs, result)``
        returns attributes for the span; it runs after the span has ended,
        inside a PROBE span."""

        def traced(*args, **kwargs):
            s = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            if probe is not None:
                with self.span(PROBE):
                    s.attrs = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by id): duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[id(s)] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s, and the span attributes summed."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[id(s)]
        for k, v in (s.attrs or {}).items():
            row["attrs"][k] = row["attrs"].get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# Probes: statistics recorded at a layer boundary.
# ---------------------------------------------------------------------------


def _lp_probe(args, kwargs, res):
    """Size of the constraint matrix handed to HiGHS, and what it did."""
    A = kwargs.get("A_ub")
    if A is None:
        A = kwargs.get("A_eq")
    A = np.asarray(A)
    rows, cols = A.shape
    return {
        "rows": rows,
        "cols": cols,
        "nnz": int(np.count_nonzero(A)),
        "dense_bytes": rows * cols * 8,
        "nit": int(getattr(res, "nit", 0) or 0),
        "failed": int(res.status != 0),
    }


def _samples_probe(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, _res: {"samples": int(sig.bind(*args, **kwargs).arguments["samples"])}


def _certificate_probe(_args, _kwargs, ok):
    return {"ok": int(bool(ok))}


def _write_probe_wrapper(tracer: Tracer, fn):
    """write_report with the report's size in bytes (all reports are ASCII)."""

    def traced(fh, *args, **kwargs):
        s = tracer.begin("io.write_report")
        try:
            before = fh.tell()
            fn(fh, *args, **kwargs)
            after = fh.tell()
        finally:
            tracer.end(s)
        s.attrs = {"bytes": after - before}

    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every binding of the traced functions in the loaded ``oneway``
    modules for the duration of the context."""
    import oneway.bilateral as bilateral

    modules = {n: m for n, m in sys.modules.items() if n == "oneway" or n.startswith("oneway.")}
    probes = {
        "bilateral.certificate_is_valid": _certificate_probe,
        "multi_offer.simulate_schedule": _samples_probe(modules["oneway.multi_offer"].simulate_schedule),
        "analytics.mc_single_offer": _samples_probe(modules["oneway.analytics"].mc_single_offer),
    }
    replacement: dict[int, object] = {}
    for short, names in TRACED.items():
        mod = modules[f"oneway.{short}"]
        for fname in names:
            fn = getattr(mod, fname)
            name = f"{short}.{fname}"
            if name == "io.write_report":
                replacement[id(fn)] = _write_probe_wrapper(tracer, fn)
            else:
                replacement[id(fn)] = tracer.wrap(name, fn, probes.get(name))

    class TracedPool(ThreadPoolExecutor):
        """The sweep's pool: one span for its lifetime, one per task."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.begin("bilateral.pool")
            self._span.attrs = {"workers": self._max_workers}

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task():
                with tracer.inherit(parent), tracer.span("bilateral.pool_task"):
                    return fn(*args, **kwargs)

            return super().submit(task)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span.end is None:
                    tracer.end(self._span)

    saved: list[tuple[object, str, object]] = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replacement:
                saved.append((mod, attr, value))
                setattr(mod, attr, replacement[id(value)])
    for attr, value in (
        ("linprog", tracer.wrap("bilateral.linprog", bilateral.linprog, _lp_probe)),
        ("ThreadPoolExecutor", TracedPool),
    ):
        saved.append((bilateral, attr, getattr(bilateral, attr)))
        setattr(bilateral, attr, value)
    try:
        yield tracer
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
