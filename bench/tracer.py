"""Span tracing for the benchmark's traced run.

The program is not instrumented.  While a ``Tracer`` is active it replaces
module-level functions of ``boxmem`` with wrappers; the package calls these
functions through its module globals, so the wrappers see every call.  Each
call becomes one span (name, start, end, parent) kept in memory, and with
memory tracking on, ``tracemalloc`` gives the peak allocated inside it.
"""

import inspect
import math
import time
import tracemalloc
from dataclasses import dataclass, field

from boxmem import analysis, ensemble, lightshift, pipeline, render

# (module, attribute, span name).  A function imported into several modules
# is patched in each module that calls it, under one span name.
PATCH_POINTS = [
    (pipeline, "run_scenario", "pipeline.run"),
    (pipeline, "curve_to_csv", "pipeline.csv"),
    (pipeline, "sample_thermal_ensemble", "ensemble.sample"),
    (lightshift, "sample_thermal_ensemble", "ensemble.sample"),
    (pipeline, "propagate", "ensemble.propagate"),
    (lightshift, "propagate", "ensemble.propagate"),
    (ensemble, "transverse_force", "geometry.force"),
    (ensemble, "axial_force", "geometry.force"),
    (lightshift, "potential_at", "geometry.potential"),
    (pipeline, "assign_excitation", "spinwave.excite"),
    (pipeline, "density_estimate", "spinwave.kde"),
    (pipeline, "mode_overlap", "spinwave.overlap"),
    (pipeline, "efficiency_total", "spinwave.compose"),
    (lightshift, "simulate_coherence", "lightshift.coherence"),
    (lightshift, "calibrate_wall_width", "lightshift.calibrate"),
    (analysis, "find_extrema", "analysis.extrema"),
    (analysis, "fit_exponential", "analysis.fit"),
    (render, "render_svg", "render.svg"),
]

MB = 1e6

# span name -> the per-layer metric that reports its self time
SELF_TIME = {
    "ensemble.propagate": "ensemble.propagate_s",
    "ensemble.sample": "ensemble.sample_s",
    "geometry.force": "geometry.force_s",
    "geometry.potential": "geometry.potential_s",
    "spinwave.kde": "spinwave.kde_s",
    "spinwave.overlap": "spinwave.overlap_s",
    "spinwave.excite": "spinwave.excite_s",
    "spinwave.compose": "spinwave.compose_s",
    "lightshift.coherence": "lightshift.coherence_s",
    "lightshift.calibrate": "lightshift.calibrate_self_s",
    "pipeline.run": "pipeline.run_self_s",
    "pipeline.csv": "pipeline.csv_s",
    "analysis.extrema": "analysis.extrema_s",
    "analysis.fit": "analysis.fit_s",
    "render.svg": "render.svg_s",
}

PEAK_METRICS = ("ensemble.propagate_peak_mb", "spinwave.kde_peak_mb",
                "pipeline.run_peak_mb")

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "ensemble.propagate_s": "s",
    "ensemble.propagate_calls": "count",
    "ensemble.atom_steps": "count",
    "ensemble.atom_steps_per_s": "1/s",
    "ensemble.propagate_peak_mb": "MB",
    "ensemble.sample_s": "s",
    "geometry.force_s": "s",
    "geometry.force_calls": "count",
    "geometry.potential_s": "s",
    "spinwave.kde_s": "s",
    "spinwave.kde_calls": "count",
    "spinwave.kde_points": "count",
    "spinwave.overlap_s": "s",
    "spinwave.excite_s": "s",
    "spinwave.compose_s": "s",
    "spinwave.kde_peak_mb": "MB",
    "lightshift.coherence_s": "s",
    "lightshift.coherence_calls": "count",
    "lightshift.calibrate_evals": "count",
    "lightshift.calibrate_self_s": "s",
    "pipeline.run_self_s": "s",
    "pipeline.run_peak_mb": "MB",
    "pipeline.csv_s": "s",
    "analysis.extrema_s": "s",
    "analysis.fit_s": "s",
    "render.svg_s": "s",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    child_s: float = 0.0          # time covered by direct children
    peak_bytes: int = 0           # tracemalloc peak above the entry level
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _propagate_counts(bound):
    ens = bound.arguments["ensemble"]
    interval = bound.arguments["t_end"] - bound.arguments["t_start"]
    alive = int(ens.alive.sum())
    # nominal sub-step count; the 1e-9 guards against 0.4e-3 / 2e-5 = 20.000000000000004
    steps = math.ceil(interval / bound.arguments["dt"] - 1e-9) if interval > 0 else 0
    return {"atom_steps": alive * steps, "atom_ms": alive * interval * 1e3}


def _kde_counts(bound):
    return {"points": len(bound.arguments["positions_xy"])}


COUNTERS = {"ensemble.propagate": _propagate_counts, "spinwave.kde": _kde_counts}


class Tracer:
    """Context manager that records one span per wrapped call.

    ``track_memory`` runs ``tracemalloc`` for the peak-memory metrics; it
    slows allocation-heavy code, so it is only used in the traced run.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._stack: list[list] = []   # [span, entry level, running peak]
        self._saved = []

    def __enter__(self):
        if self.track_memory:
            tracemalloc.start()
        for module, attr, name in PATCH_POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        if self.track_memory:
            tracemalloc.stop()
        return False

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            counts = {}
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound)
            span = self._open(name, counts)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name, counts) -> Span:
        parent = self._stack[-1][0].id if self._stack else None
        base = 0
        if self.track_memory:
            base, peak = tracemalloc.get_traced_memory()
            self._raise_outer_peak(peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), name, parent, time.perf_counter(),
                    counts=counts)
        self.spans.append(span)
        self._stack.append([span, base, base])
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        _, base, running = self._stack.pop()
        if self.track_memory:
            top = max(running, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = top - base
            self._raise_outer_peak(top)
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _raise_outer_peak(self, level):
        # a child resets the tracemalloc peak, so it hands its own peak up
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], level)

    def records(self, origin: float, iteration: int) -> list[dict]:
        """The spans as JSON records, times relative to ``origin``."""
        return [{"iteration": iteration, "id": s.id, "name": s.name,
                 "parent": s.parent, "start": s.start - origin,
                 "end": s.end - origin, "peak_bytes": s.peak_bytes}
                for s in self.spans]

    def atom_ms(self) -> float:
        """Simulated atom-milliseconds: sum of alive atoms x interval."""
        return sum(s.counts.get("atom_ms", 0.0) for s in self.spans)


def _has_ancestor(spans, span, name) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer numbers for one traced iteration of ``wall_s`` seconds.

    Self times are span durations minus the time their children cover, so
    the self times plus ``unattributed_s`` add up to ``wall_s``.
    """
    def select(name):
        return [s for s in spans if s.name == name]

    def peak_mb(name):
        return max((s.peak_bytes for s in select(name)), default=0) / MB

    out = {metric: math.fsum(s.self_s for s in select(name))
           for name, metric in SELF_TIME.items()}
    prop = select("ensemble.propagate")
    atom_steps = sum(s.counts["atom_steps"] for s in prop)
    prop_total = sum(s.duration for s in prop)    # with the forces it calls
    kde = select("spinwave.kde")
    coherence = select("lightshift.coherence")
    out.update({
        "ensemble.propagate_calls": len(prop),
        "ensemble.atom_steps": atom_steps,
        "ensemble.atom_steps_per_s": atom_steps / prop_total if prop_total > 0 else 0.0,
        "ensemble.propagate_peak_mb": peak_mb("ensemble.propagate"),
        "geometry.force_calls": len(select("geometry.force")),
        "spinwave.kde_calls": len(kde),
        "spinwave.kde_points": sum(s.counts["points"] for s in kde),
        "spinwave.kde_peak_mb": peak_mb("spinwave.kde"),
        "lightshift.coherence_calls": len(coherence),
        "lightshift.calibrate_evals": sum(
            _has_ancestor(spans, s, "lightshift.calibrate") for s in coherence),
        "pipeline.run_peak_mb": peak_mb("pipeline.run"),
        "trace.wall_s": wall_s,
        "unattributed_s": wall_s - sum(s.duration for s in spans if s.parent is None),
    })
    return out


def attribution_gap(metrics: dict) -> float:
    """|sum of self times + unattributed_s - wall| for one iteration."""
    total = sum(metrics[m] for m in SELF_TIME.values()) + metrics["unattributed_s"]
    return abs(total - metrics["trace.wall_s"])
