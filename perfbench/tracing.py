"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps dualvt's functions at the module attribute where the
caller looks them up.  The package imports with ``from .x import y``, so
``dualvt.fusion.lss_pool`` is wrapped rather than only
``dualvt.lift_stream.lss_pool``.  Wraps are installed only while one
unit of work (an op or a set-up) runs, so untraced work calls the plain
functions.

Each span records its name, start, end, parent span and unit id, plus
counts taken at the same boundary (entries scattered, bytes read,
FLOPs).  Spans stay in memory until the run ends.  All wrapped calls
happen on the caller's thread: the threaded scatter splits its work
below the wrapped function.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name); one row per lookup site.
WRAP_SITES = (
    ("dualvt.height_stream", "weighted_scatter", "scatter.ht"),
    ("dualvt.lift_stream", "weighted_scatter", "scatter.lss"),
    ("dualvt.height_stream", "stack_camera_tensors", "tables.stack"),
    ("dualvt.lift_stream", "stack_camera_tensors", "tables.stack"),
    ("dualvt.fusion", "ht_transform_fast", "height_stream.transform"),
    ("dualvt.fusion", "lss_pool", "lift_stream.pool"),
    ("dualvt.fusion", "caf_fuse", "fusion.caf"),
    ("dualvt.fusion", "bev_probability", "fusion.prob"),
    ("dualvt.fusion", "assemble_final", "fusion.assemble"),
    ("dualvt.fusion", "conv2d", "nnops.conv2d"),
    ("dualvt.cli", "precompute_ht_table", "height_stream.precompute"),
    ("dualvt.cli", "precompute_lss_table", "lift_stream.precompute"),
    ("dualvt.cli", "write_table", "tables.write"),
    ("dualvt.cli", "read_table", "tables.read"),
    ("dualvt.tables", "read_table", "tables.read"),
    ("dualvt.synth", "tensor_read", "tensors.read"),
    ("dualvt.cli", "tensor_write", "tensors.write"),
    ("dualvt.cli", "summarize_outputs", "report.summarize"),
)

MB = 1e6


@dataclass
class Span:
    name: str
    unit: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    pending: tuple | None = None  # arrays to count from once the unit ends

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _count_scatter(span, args, result):
    feats, depth_w, mask_w, cells, feat_idx, depth_idx = args[:6]
    n = int(cells.shape[0])
    span.counts["entries"] = n
    # float32 feature gather plus its float64 product, per entry and channel
    span.counts["gather_mb"] = n * feats.shape[0] * 12 / MB
    # entries with nonzero depth x mask weight are counted after the unit ends
    span.pending = (depth_w, mask_w, feat_idx, depth_idx)


def _count_conv(span, args, result):
    x, w = args[:2]
    c_out, c_in, kh, kw = w.kernel.shape
    span.counts["kind"] = f"{kh}x{kw}"
    span.counts["gflop"] = 2 * c_out * c_in * kh * kw * x.shape[1] * x.shape[2] / 1e9


def _count_file_arg(index):
    def count(span, args, result):
        span.counts["mb"] = os.path.getsize(args[index]) / MB
    return count


def _count_result_bytes(span, args, result):
    span.counts["mb"] = result.nbytes / MB


def _count_arg_bytes(span, args, result):
    span.counts["mb"] = np.asarray(args[0]).nbytes / MB


COUNTERS = {
    "scatter.ht": _count_scatter,
    "scatter.lss": _count_scatter,
    "nnops.conv2d": _count_conv,
    "tables.write": _count_file_arg(1),
    "tables.read": _count_file_arg(0),
    "tensors.read": _count_result_bytes,
    "tensors.write": _count_arg_bytes,
}


class Tracer:
    """Collects spans per unit of work; a no-op outside `unit`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit_ms: dict[str, float] = {}
        self._stack: list[int] = []
        self._unit: str | None = None

    @contextmanager
    def unit(self, unit_id: str):
        """Trace one op or set-up; wraps are in place only inside."""
        saved = self._install()
        self._unit = unit_id
        first = len(self.spans)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.unit_ms[unit_id] = (time.perf_counter() - t0) * 1e3
            self._unit = None
            for module, attr, fn in saved:
                setattr(module, attr, fn)
        _settle_pending(self.spans[first:])

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        if self._unit is None:
            yield
            return
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, unit=self._unit, parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def _install(self):
        saved = []
        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return saved

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                count(s, args, result)
            return result

        return traced

    def to_json(self) -> list:
        return [
            {
                "name": s.name, "unit": s.unit, "parent": s.parent,
                "start": s.start, "end": s.end,
                "counts": s.counts,
            }
            for s in self.spans
        ]


def _settle_pending(spans) -> None:
    for s in spans:
        if s.pending is not None:
            depth_w, mask_w, feat_idx, depth_idx = s.pending
            s.counts["useful"] = int(
                np.count_nonzero((depth_w[depth_idx] != 0) & (mask_w[feat_idx] != 0))
            )
            s.pending = None


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    return [s.ms - c for s, c in zip(spans, child_ms)]


def _unit_totals(spans: list[Span]) -> dict:
    """Per unit, per span name: summed self time, calls and counts."""
    totals: dict = {}
    for s, own in zip(spans, self_ms(spans)):
        t = totals.setdefault(s.unit, {}).setdefault(s.name, {"self_ms": 0.0, "calls": 0})
        t["self_ms"] += own
        t["calls"] += 1
        for key, value in s.counts.items():
            if key == "kind":
                t[f"self_ms.{value}"] = t.get(f"self_ms.{value}", 0.0) + own
            else:
                t[key] = t.get(key, 0) + value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(t: dict, key: str) -> float:
    return sum(v.get(key, 0) for v in t.values())


# name -> (unit, span names it reads, value from those spans' totals in one unit)
LAYER_METRICS = {
    "scatter.ht.ms": ("ms", ("scatter.ht",), lambda t: _sum(t, "self_ms")),
    "scatter.lss.ms": ("ms", ("scatter.lss",), lambda t: _sum(t, "self_ms")),
    "scatter.ht.entries": ("count", ("scatter.ht",), lambda t: _sum(t, "entries")),
    "scatter.lss.entries": ("count", ("scatter.lss",), lambda t: _sum(t, "entries")),
    "scatter.ht.useful": ("count", ("scatter.ht",), lambda t: _sum(t, "useful")),
    "scatter.lss.useful": ("count", ("scatter.lss",), lambda t: _sum(t, "useful")),
    "scatter.ht.useful_ratio": (
        "ratio", ("scatter.ht",), lambda t: _ratio(_sum(t, "useful"), _sum(t, "entries"))),
    "scatter.lss.useful_ratio": (
        "ratio", ("scatter.lss",), lambda t: _ratio(_sum(t, "useful"), _sum(t, "entries"))),
    "scatter.gather_mb": ("MB", ("scatter.ht", "scatter.lss"), lambda t: _sum(t, "gather_mb")),
    "height_stream.transform.ms": (
        "ms", ("height_stream.transform",), lambda t: _sum(t, "self_ms")),
    "lift_stream.pool.ms": ("ms", ("lift_stream.pool",), lambda t: _sum(t, "self_ms")),
    "tables.stack.ms": ("ms", ("tables.stack",), lambda t: _sum(t, "self_ms")),
    "height_stream.precompute.ms": (
        "ms", ("height_stream.precompute",), lambda t: _sum(t, "self_ms")),
    "lift_stream.precompute.ms": (
        "ms", ("lift_stream.precompute",), lambda t: _sum(t, "self_ms")),
    "tables.write.ms": ("ms", ("tables.write",), lambda t: _sum(t, "self_ms")),
    "tables.read.ms": ("ms", ("tables.read",), lambda t: _sum(t, "self_ms")),
    "tables.mb": ("MB", ("tables.write",), lambda t: _sum(t, "mb")),
    "fusion.caf.ms": ("ms", ("fusion.caf",), lambda t: _sum(t, "self_ms")),
    "fusion.prob.ms": ("ms", ("fusion.prob",), lambda t: _sum(t, "self_ms")),
    "fusion.assemble.ms": ("ms", ("fusion.assemble",), lambda t: _sum(t, "self_ms")),
    "nnops.conv2d.ms": ("ms", ("nnops.conv2d",), lambda t: _sum(t, "self_ms")),
    "nnops.conv2d.3x3.ms": ("ms", ("nnops.conv2d",), lambda t: _sum(t, "self_ms.3x3")),
    "nnops.conv2d.1x1.ms": ("ms", ("nnops.conv2d",), lambda t: _sum(t, "self_ms.1x1")),
    "nnops.conv2d.calls": ("count", ("nnops.conv2d",), lambda t: _sum(t, "calls")),
    "nnops.conv2d.gflop": ("GFLOP", ("nnops.conv2d",), lambda t: _sum(t, "gflop")),
    "nnops.conv2d.gflop_per_s": (
        "GFLOP/s", ("nnops.conv2d",),
        lambda t: _ratio(_sum(t, "gflop"), _sum(t, "self_ms") / 1e3)),
    "tensors.read.ms": ("ms", ("tensors.read",), lambda t: _sum(t, "self_ms")),
    "tensors.read.mb": ("MB", ("tensors.read",), lambda t: _sum(t, "mb")),
    "tensors.write.ms": ("ms", ("tensors.write",), lambda t: _sum(t, "self_ms")),
    "tensors.write.mb": ("MB", ("tensors.write",), lambda t: _sum(t, "mb")),
    "cli.precompute.ms": ("ms", ("cli.precompute",), lambda t: _sum(t, "self_ms")),
    "cli.transform.ms": ("ms", ("cli.transform",), lambda t: _sum(t, "self_ms")),
    "report.summarize.ms": ("ms", ("report.summarize",), lambda t: _sum(t, "self_ms")),
}


def layer_metrics(tracer: Tracer, op_units: list[str], setup_units: list[str]) -> dict:
    """Median per unit of each layer metric.

    A layer that ran in any traced op is reported per op; a layer that ran
    only while setting up (table build on the stream workloads) is
    reported per set-up; a layer that never ran reads 0.
    """
    totals = _unit_totals(tracer.spans)
    out = {}
    for name, (unit, span_names, value) in LAYER_METRICS.items():
        values = []
        for units in (op_units, setup_units):
            picked = [
                {n: totals[u][n] for n in span_names if n in totals.get(u, {})}
                for u in units
            ]
            values = [value(t) for t in picked if t]
            if values:
                break
        out[name] = (float(statistics.median(values)) if values else 0.0, unit)
    return out


def top_span_coverage(tracer: Tracer, units: list[str]) -> float:
    """Median share of a unit's wall time covered by its top-level spans."""
    top = {u: 0.0 for u in units}
    for s in tracer.spans:
        if s.parent is None and s.unit in top:
            top[s.unit] += s.ms
    return float(statistics.median(top[u] / tracer.unit_ms[u] for u in units))
