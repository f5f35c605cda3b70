"""Per-layer spans, recorded from outside the package.

The tracer replaces public functions at their module attributes.  The CLI
reaches every layer through module attributes (``arith.build_tables``,
``laplace.laplace_d2``, ...), and calls inside a module resolve module
globals, so wrapping the attribute also catches ``residual_scan_p ->
laplace_p2`` and ``fit_a1 -> laplace_d2``.  ``correlate`` imports
``g_closed`` by name, so that one is wrapped at ``correlate.g_closed``.

Spans stay in memory and are folded into metrics when a pass ends.  Memory
peaks per span come from tracemalloc, which also tracks numpy buffers; the
caller starts tracemalloc only for the pass whose peaks it reports.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute) pairs wrapped in traced passes; span name "module.attribute".
TARGETS = [
    ("arith", "build_tables"),
    ("lattice", "step_profile"),
    ("lattice", "pointwise_report"),
    ("laplace", "series_constant"),
    ("laplace", "laplace_d2"),
    ("laplace", "laplace_p2"),
    ("laplace", "fit_a1"),
    ("correlate", "corr_grid"),
    ("correlate", "g_closed"),
    ("special", "gauss_sum_sq"),
    ("special", "truncated_p"),
    ("special", "hardy_partial"),
    ("cli", "write_csv"),
]
MIB = 2**20
_COUNTED = {"arith.build_tables", "laplace.laplace_d2", "correlate.corr_grid", "cli.write_csv"}


@dataclass
class Span:
    name: str
    start: float
    base: int                 # tracemalloc bytes at entry
    peak: int                 # tracemalloc high-water mark while open
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory         # read tracemalloc peaks (the caller started it)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._d2_seen: set = set()   # laplace_d2 keys computed in the current command

    def _enter(self, name: str) -> Span:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, peak)
            tracemalloc.reset_peak()
        span = Span(name, 0.0, base=current, peak=current)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.end - span.start
            parent.peak = max(parent.peak, span.peak)

    @contextlib.contextmanager
    def command(self):
        """Root span around one CLI call."""
        self._d2_seen = set()
        span = self._enter("cli")
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counted = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counted:
                self._count(name, span, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _count(self, name: str, span: Span, bound, result) -> None:
        bound.apply_defaults()
        a = bound.arguments
        if name == "arith.build_tables":
            span.counts["entries"] = result.limit
            span.counts["bytes_per_entry"] = (
                result.r.nbytes + result.d.nbytes + result.sigma.nbytes) / (result.limit + 1)
        elif name == "laplace.laplace_d2":
            key = (a["profile"].limit, float(a["T"]), float(a["rel_tol"]))
            span.counts["repeat"] = key in self._d2_seen
            self._d2_seen.add(key)
        elif name == "correlate.corr_grid":
            span.counts["records"] = len(result)
        elif name == "cli.write_csv":
            span.counts["bytes"] = os.path.getsize(a["path"])


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every TARGETS attribute for the duration of the block."""
    originals = []
    try:
        for mod_name, attr in TARGETS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            originals.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(f"{mod_name}.{attr}", original))
        yield tracer
    finally:
        for mod, attr, original in reversed(originals):
            setattr(mod, attr, original)


def _spans(tracer: Tracer, name: str) -> list[Span]:
    return [s for s in tracer.spans if s.name == name]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Fold one traced pass's spans into the per-layer metrics."""
    def self_s(name):
        return sum(s.self_s for s in _spans(tracer, name))

    def calls(name):
        return len(_spans(tracer, name))

    def peak_mib(name):
        return max(((s.peak - s.base) / MIB for s in _spans(tracer, name)), default=0.0)

    def total(name, key):   # a call that raised has no counts
        return sum(s.counts.get(key, 0) for s in _spans(tracer, name))

    builds = _spans(tracer, "arith.build_tables")
    d2 = _spans(tracer, "laplace.laplace_d2")
    m = {f"{mod}.{attr}.self_s": (self_s(f"{mod}.{attr}"), "s") for mod, attr in TARGETS}
    m.update({
        "cli.self_s": (self_s("cli"), "s"),
        "arith.entries_sieved": (total("arith.build_tables", "entries"), "count"),
        "arith.table_bytes_per_entry": (
            max((s.counts.get("bytes_per_entry", 0.0) for s in builds), default=0.0), "B/entry"),
        "arith.build_tables.peak_alloc_mib": (peak_mib("arith.build_tables"), "MiB"),
        "lattice.pointwise_report.peak_alloc_mib": (peak_mib("lattice.pointwise_report"), "MiB"),
        "laplace.laplace_d2.calls": (calls("laplace.laplace_d2"), "count"),
        "laplace.laplace_d2.repeat_frac": (
            sum(s.counts.get("repeat", False) for s in d2) / len(d2) if d2 else 0.0, "fraction"),
        "correlate.records": (total("correlate.corr_grid", "records"), "count"),
        "special.gauss_sum_sq.calls": (calls("special.gauss_sum_sq"), "count"),
        "cli.csv_bytes": (total("cli.write_csv", "bytes"), "B"),
    })
    return m
