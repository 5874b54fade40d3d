"""In-memory span tracer that wraps ambuplan's layer boundaries from outside.

The program itself is not instrumented. Instead, ``patched`` swaps the
module-level names through which one layer calls the next (for example
``ambuplan.engine.branch_bound.core_solve``) for timing wrappers, and puts
the originals back on exit. Spans stay in memory until the run ends.

A span records its name, the model it belongs to ("alloc" or "transfer",
inherited from the enclosing span when not given), its parent, start and end
in nanoseconds, and a few counts read from the wrapped call's result.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field

MODELS = ("alloc", "transfer")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    model: str | None
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Records nested spans; single-threaded, like the code it wraps."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []

    def start(self, name: str, model: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if model is None and parent is not None:
            model = parent.model
        span = Span(len(self.spans), parent.sid if parent else None, name,
                    model, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, model: str | None = None):
        s = self.start(name, model)
        try:
            yield s
        finally:
            self.end(s)


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager call."""

    def span(self, name: str, model: str | None = None):
        return contextlib.nullcontext(None)


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def _build_attrs(result) -> dict:
    lp, _ = result
    return {"vars": lp.num_vars, "rows": lp.num_rows}


def _nodes_attrs(result) -> dict:
    return {"nodes": result.nodes}


def _iter_attrs(result) -> dict:
    return {"iterations": result.iterations}


# (module, attribute, span name, model, attrs read from the result)
BOUNDARIES = [
    ("ambuplan.allocation", "validate_instance", "core.validate", "alloc", None),
    ("ambuplan.allocation", "build_allocation_program", "model.build", "alloc",
     _build_attrs),
    ("ambuplan.allocation", "solve_milp", "bb.solve_milp", "alloc", _nodes_attrs),
    ("ambuplan.allocation", "evaluate_allocation", "core.evaluate", "alloc", None),
    ("ambuplan.transfer", "validate_instance", "core.validate", "transfer", None),
    ("ambuplan.transfer", "build_transfer_program", "model.build", "transfer",
     _build_attrs),
    ("ambuplan.transfer", "solve_milp", "bb.solve_milp", "transfer", _nodes_attrs),
    ("ambuplan.transfer", "evaluate_transfer", "core.evaluate", "transfer", None),
    ("ambuplan.engine.branch_bound", "build_standard_form", "simplex.stdform",
     None, None),
    ("ambuplan.engine.branch_bound", "core_solve", "simplex.core_solve", None,
     _iter_attrs),
    ("ambuplan.engine.simplex", "splu", "kernel.lu_factor", None, None),
    ("ambuplan.cli", "solve_allocation", "model.solve", "alloc", None),
    ("ambuplan.cli", "solve_transfer", "model.solve", "transfer", None),
    ("ambuplan.cli", "generate", "generator.generate", None, None),
    ("ambuplan.cli", "load_instance", "cli.load", None, None),
    ("ambuplan.cli", "write_text_atomic", "cli.write", None, None),
    ("ambuplan.cli", "render_report_text", "cli.render", None, None),
    ("ambuplan.cli", "render_report_csv", "cli.render", None, None),
]


class _TimedLU:
    """Proxy for a SuperLU object whose ``solve`` calls become kernel spans."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        s = self._tracer.start("kernel.lu_solve")
        try:
            return self._lu.solve(rhs, trans)
        finally:
            self._tracer.end(s)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _wrap(fn, tracer: Tracer, name: str, model: str | None, attrs, proxy_lu: bool):
    def wrapper(*args, **kwargs):
        s = tracer.start(name, model)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(s)
        if attrs is not None:
            s.attrs.update(attrs(result))
        return _TimedLU(result, tracer) if proxy_lu else result
    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every boundary name that exists; record the missing ones.

    A boundary whose module or attribute is gone is listed in
    ``tracer.absent`` so that the metrics built on it are reported absent
    instead of the run failing.
    """
    restore = []
    try:
        for mod_name, attr, name, model, attrs in BOUNDARIES:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                tracer.absent.append(f"{mod_name}.{attr}")
                continue
            restore.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, tracer, name, model, attrs,
                                        proxy_lu=(name == "kernel.lu_factor")))
        yield tracer
    finally:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)


def absent_span_names(tracer: Tracer) -> set[str]:
    """Span names at least one of whose boundaries could not be wrapped."""
    missing = set(tracer.absent)
    names = {name for mod, attr, name, _, _ in BOUNDARIES
             if f"{mod}.{attr}" in missing}
    if "kernel.lu_factor" in names:
        names.add("kernel.lu_solve")
    return names


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Parent/child index over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = [(c.start, c.end) for c in self.children.get(span.sid, ())]
        return (span.end - span.start - covered_ns(kids, span.start, span.end)) / 1e9

    def descendants(self, span: Span):
        todo = list(self.children.get(span.sid, ()))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children.get(s.sid, ()))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def median(values: list[float]) -> float:
    """Median, or 0 without samples: a layer the workload never entered, or
    a call that never succeeded (the run then reports failures)."""
    return float(statistics.median(values)) if values else 0.0


# per-solve figures: metric stem -> function(tree, solve span, its subtree)
def _solve_figures(tree: SpanTree, solve: Span, sub: list[Span]) -> dict:
    def named(name):
        return [s for s in sub if s.name == name]
    cores = named("simplex.core_solve")
    milps = named("bb.solve_milp")
    builds = named("model.build")
    factors = named("kernel.lu_factor")
    lu_solves = named("kernel.lu_solve")
    return {
        "simplex.solve_s": sum(s.seconds for s in cores),
        "simplex.self_s": sum(tree.self_seconds(s) for s in cores),
        "simplex.stdform_s": sum(s.seconds for s in named("simplex.stdform")),
        "simplex.iterations": sum(s.attrs.get("iterations", 0) for s in cores),
        "simplex.refactorizations": len(factors),
        "kernel.lu_factor_s": sum(s.seconds for s in factors),
        "kernel.lu_solve_s": sum(s.seconds for s in lu_solves),
        "kernel.lu_solve_calls": len(lu_solves),
        "bb.self_s": sum(tree.self_seconds(s) for s in milps),
        "bb.nodes": sum(s.attrs.get("nodes", 0) for s in milps),
        "model.build_s": sum(s.seconds for s in builds),
        "model.self_s": tree.self_seconds(solve),
        "model.vars": sum(s.attrs.get("vars", 0) for s in builds),
        "model.rows": sum(s.attrs.get("rows", 0) for s in builds),
    }


# metric stem -> span names it is computed from
_SOLVE_SOURCES = {
    "simplex.solve_s": ("simplex.core_solve",),
    "simplex.self_s": ("simplex.core_solve", "kernel.lu_factor"),
    "simplex.stdform_s": ("simplex.stdform",),
    "simplex.iterations": ("simplex.core_solve",),
    "simplex.refactorizations": ("kernel.lu_factor",),
    "kernel.lu_factor_s": ("kernel.lu_factor",),
    "kernel.lu_solve_s": ("kernel.lu_solve",),
    "kernel.lu_solve_calls": ("kernel.lu_solve",),
    "bb.self_s": ("bb.solve_milp", "simplex.core_solve", "simplex.stdform"),
    "bb.nodes": ("bb.solve_milp",),
    "model.build_s": ("model.build",),
    "model.self_s": ("model.build", "bb.solve_milp", "core.validate",
                     "core.evaluate"),
    "model.vars": ("model.build",),
    "model.rows": ("model.build",),
}
_COUNT_STEMS = {"simplex.iterations", "simplex.refactorizations",
                "kernel.lu_solve_calls", "bb.nodes", "model.vars", "model.rows"}

# per-case totals: metric -> span name summed inside each "case" span
_CASE_LAYERS = {
    "core.validate_s": "core.validate",
    "core.evaluate_s": "core.evaluate",
    "oracle.brute_force_s": "oracle.brute_force",
    "cli.load_s": "cli.load",
    "cli.write_s": "cli.write",
    "cli.render_s": "cli.render",
}

# per-call medians of spans the benchmark records around its own calls
_CALL_LAYERS = {
    "generator.generate_s": ("generator.generate", None),
    "cli.startup_s": ("cli.startup", None),
    "cli.generate_s": ("cli.cmd.generate", None),
    "cli.solve_s": ("cli.cmd.solve", None),
    "cli.report_s": ("cli.cmd.report", None),
    "ref.highs_s.alloc": ("ref.highs", "alloc"),
    "ref.highs_s.transfer": ("ref.highs", "transfer"),
}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict, list[str]]:
    """Per-layer figures from one traced run.

    Returns (values, sample counts, absent metric names). Per-model figures
    are medians over ``model.solve`` spans, per-case figures medians over
    ``case`` spans, and per-call figures medians over the calls themselves.
    A layer that a workload never enters reads 0 with 0 samples.
    """
    tree = SpanTree(tracer.spans)
    missing = absent_span_names(tracer)
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    absent: list[str] = []

    for model in MODELS:
        solves = [s for s in tree.named("model.solve") if s.model == model]
        figures = [_solve_figures(tree, s, list(tree.descendants(s))) for s in solves]
        for stem, sources in _SOLVE_SOURCES.items():
            name = f"{stem}.{model}"
            if missing.intersection(sources):
                absent.append(name)
                continue
            vals = [f[stem] for f in figures]
            values[name] = median(vals)
            if stem in _COUNT_STEMS:
                values[name] = int(round(values[name]))
            counts[name] = len(vals)

    cases = tree.named("case")
    for name, span_name in _CASE_LAYERS.items():
        if span_name in missing:
            absent.append(name)
            continue
        per_case = [sum(d.seconds for d in tree.descendants(c) if d.name == span_name)
                    for c in cases]
        entered = any(v > 0 for v in per_case)
        values[name] = median(per_case) if entered else 0.0
        counts[name] = len(per_case) if entered else 0

    for name, (span_name, model) in _CALL_LAYERS.items():
        if span_name in missing:
            absent.append(name)
            continue
        vals = [s.seconds for s in tree.named(span_name)
                if model is None or s.model == model]
        values[name] = median(vals)
        counts[name] = len(vals)
    return values, counts, absent
