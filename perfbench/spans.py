"""Span recorder for the benchmark's traced runs.

Spans are recorded only here, by wrapping the public functions of each
``volterra`` module at the names their callers look up (``from .x import y``
binds ``y`` in the caller's module, so that binding is the one replaced).
Nothing in ``src/`` is changed; :func:`instrumented` restores every original
on exit.

A span holds its name, start, end, parent and group.  Parents are tracked per
thread, so report rows computed in the report's thread pool start their own
trees; every span inherits the group (operation id, or operation id plus
report row) of its parent.  Spans stay in memory until :func:`write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "info")

    def __init__(self, name, start, parent, group):
        self.name, self.start, self.end = name, start, None
        self.parent, self.group, self.info = parent, group, None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.group = None  # group of spans opened with no parent on their thread
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, group=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None:
            group = self.spans[parent].group if parent is not None else self.group
        with self._lock:
            index = len(self.spans)
            span = Span(name, time.perf_counter(), parent, group)
            self.spans.append(span)
        stack.append(index)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def add(self, counter: str, n) -> None:
        with self._lock:
            self.counts[counter] += int(n)

    def span_wrapper(self, fn, name, after=None, group=None):
        """``fn`` inside a span; ``after(rec, span, args, kwargs, result)`` runs on return."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, group(self, *args, **kwargs) if group else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, kwargs, result)
            return result
        return wrapper

    def count_wrapper(self, fn, after):
        """``fn`` with a counter hook and no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, None, args, kwargs, result)
            return result
        return wrapper


# -- counter hooks -----------------------------------------------------------

def _engine_build(rec, span, args, kwargs, result):
    # tg_/sg_boundedness(g, pair, cfg=None, engine=None) builds an engine when none is passed
    engine = kwargs["engine"] if "engine" in kwargs else (args[3] if len(args) > 3 else None)
    if engine is None:
        rec.add("criteria.engine_builds", 1)


def _profile_build(rec, span, args, kwargs, result):
    rec.add("criteria.profile_builds", 1)


def _clamped(rec, span, args, kwargs, result):
    rec.add("spaces.clamped_samples", result.clamped_samples)


def _horner(rec, span, args, kwargs, result):
    coeffs, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    rec.add("series.horner_madds", len(coeffs) * np.size(z))


def _density_points(rec, span, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    rec.add("sector.density_points", np.size(z))


def _pool_workers(rec, span, args, kwargs, result):
    from volterra.report import ReportConfig
    cfg = args[0] if args else kwargs.get("cfg")
    span.info = (cfg or ReportConfig()).resolve_workers()


def _row_group(rec, row, *args, **kwargs):
    return f"{rec.group}/{row.symbol}/{row.operator.value}/{row.alpha:g}/{row.beta:g}"


def _targets():
    """``(owner, attribute, span name or None, hook, group)`` for every wrapped binding."""
    from volterra import (cli, criteria, estimation, operators, quadrature, report,
                          sector, series, spaces)
    from volterra.symbols import SymbolSpec
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "build_report", "report.build_report", _pool_workers, None),
        (cli, "to_json", "report.to_json", None, None),
        (report, "_row_result", "report.row", None, _row_group),
        (report, "classify", "criteria.classify", None, None),
        (report, "build_battery", "estimation.build_battery", None, None),
        (report, "lower_bound_details", "estimation.lower_bound", None, None),
        (report, "tg_min_upper_bound", "estimation.upper_bound", None, None),
        (report, "compactness_probe", "estimation.probe", None, None),
        (criteria, "classify", "criteria.classify", None, None),
        (criteria, "tg_boundedness", "criteria.ladder", _engine_build, None),
        (criteria, "sg_boundedness", "criteria.ladder", _engine_build, None),
        (estimation, "tg_boundedness", "criteria.ladder", _engine_build, None),
        (criteria, "tg_tail_compactness", "criteria.tail", None, None),
        (criteria, "tg_pointwise", "criteria.pointwise_sup", None, None),
        (criteria, "sg_pointwise", "criteria.pointwise_sup", None, None),
        (criteria, "pointwise_compactness", "criteria.pointwise_vanishing", None, None),
        (criteria, "_pointwise_profile", None, _profile_build, None),
        (criteria, "gauss_legendre", "quadrature.gauss_legendre", None, None),
        (quadrature, "gauss_legendre", "quadrature.gauss_legendre", None, None),
        (criteria, "weighted_sup_details", "spaces.interior_sweep", _clamped, None),
        (spaces, "weighted_sup_details", None, _clamped, None),
        (estimation, "weighted_sup_norm", "spaces.series_norm", None, None),
        (series, "evaluate_polynomial", "series.evaluate_polynomial", _horner, None),
        (operators, "cauchy_product", "series.cauchy_product", None, None),
        (estimation, "apply_operator", "operators.apply_operator", None, None),
        (SymbolSpec, "taylor", "symbols.taylor", None, None),
        (sector, "estimate_density_bound", "sector.estimate_density_bound", None, None),
        (sector, "build_sector_map", "sector.build_sector_map", None, None),
        (sector, "sector_sample", "sector.sector_sample", None, None),
        (sector, "density_ratio", "sector.density_ratio", _density_points, None),
    ]


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Replace every target binding by its wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, hook, group in _targets():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            wrapped = (rec.span_wrapper(fn, name, hook, group) if name is not None
                       else rec.count_wrapper(fn, hook))
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- per-layer metrics ---------------------------------------------------------

# (metric name, better direction); suffix ".s" is inclusive seconds of the span
# named by the prefix, ".self_s" excludes child spans, ".calls" counts spans,
# any other name is a counter or a ratio computed below.  Values are per
# operation, except the two ratios.
LAYER_METRICS = (
    ("cli.main.self_s", "lower"),
    ("report.to_json.s", "lower"),
    ("report.build_report.self_s", "lower"),
    ("report.pool_busy_ratio", "higher"),
    ("criteria.classify.s", "lower"),
    ("criteria.classify.self_s", "lower"),
    ("criteria.ladder.s", "lower"),
    ("criteria.ladder.calls", "lower"),
    ("criteria.engine_builds", "lower"),
    ("criteria.tail.s", "lower"),
    ("criteria.pointwise_sup.self_s", "lower"),
    ("criteria.pointwise_vanishing.s", "lower"),
    ("criteria.profile_builds", "lower"),
    ("quadrature.gauss_legendre.s", "lower"),
    ("quadrature.gauss_legendre.calls", "lower"),
    ("spaces.interior_sweep.s", "lower"),
    ("spaces.interior_sweep.calls", "lower"),
    ("spaces.series_norm.s", "lower"),
    ("spaces.series_norm.calls", "lower"),
    ("spaces.clamped_samples", "lower"),
    ("series.evaluate_polynomial.s", "lower"),
    ("series.evaluate_polynomial.calls", "lower"),
    ("series.horner_madds", "lower"),
    ("series.cauchy_product.s", "lower"),
    ("operators.apply_operator.s", "lower"),
    ("operators.apply_operator.calls", "lower"),
    ("symbols.taylor.s", "lower"),
    ("symbols.taylor.calls", "lower"),
    ("estimation.build_battery.s", "lower"),
    ("estimation.lower_bound.s", "lower"),
    ("estimation.upper_bound.s", "lower"),
    ("estimation.probe.s", "lower"),
    ("sector.build_sector_map.s", "lower"),
    ("sector.sector_sample.s", "lower"),
    ("sector.density_ratio.s", "lower"),
    ("sector.density_points", "lower"),
    ("trace.overhead_ratio", "lower"),
)


def metric_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith((".s", ".self_s")) else "count"


# counts must repeat exactly across traced runs with the same seed
COUNT_METRICS = tuple(name for name, _ in LAYER_METRICS if metric_unit(name) == "count")


def span_totals(spans):
    """Inclusive seconds, self seconds and call count per span name."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    incl, own, calls = Counter(), Counter(), Counter()
    for i, span in enumerate(spans):
        incl[span.name] += span.seconds
        own[span.name] += span.seconds - child[i]
        calls[span.name] += 1
    return incl, own, calls


def pool_busy_ratio(spans) -> float:
    """Row busy time over (report wall time x workers), on the pooled reports.

    Falls back to every report when none ran with more than one worker;
    0 when no report ran.
    """
    reports = [s for s in spans if s.name == "report.build_report"]
    pooled = [s for s in reports if s.info and s.info > 1] or reports
    if not pooled:
        return 0.0
    groups = {s.group for s in pooled}
    busy = sum(s.seconds for s in spans
               if s.name == "report.row" and s.group.split("/", 1)[0] in groups)
    return busy / sum(s.seconds * (s.info or 1) for s in pooled)


def layer_metrics(rec: Recorder, n_ops: int, overhead_ratio: float) -> dict:
    incl, own, calls = span_totals(rec.spans)
    out = {}
    for name, _ in LAYER_METRICS:
        if name == "report.pool_busy_ratio":
            value = pool_busy_ratio(rec.spans)
        elif name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name.endswith(".self_s"):
            value = own[name[:-len(".self_s")]] / n_ops
        elif name.endswith(".s"):
            value = incl[name[:-len(".s")]] / n_ops
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]] / n_ops
        else:
            value = rec.counts[name] / n_ops
        out[name] = {"value": value, "unit": metric_unit(name)}
    return out


def write_spans(rec: Recorder, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = rec.spans[0].start if rec.spans else 0.0
    with open(path, "w") as fh:
        for i, s in enumerate(rec.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent, "group": s.group,
                                 "start": s.start - t0, "end": s.end - t0}) + "\n")
