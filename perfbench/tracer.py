"""Out-of-process span tracer for the evmcontrol benchmark.

The program has no spans of its own, so this module records them from the
outside: it replaces each traced public function with a wrapper at every
name the package looks it up by.  ``pipeline`` imports ``forest_fit``,
``nested_cv``, ``read_triads_csv`` and others by name, so patching only the
defining module would miss those calls; :meth:`Tracer.install` rebinds every
module-level alias of the function object in every ``evmcontrol`` module.
Methods (``DensityModel.evaluate``, ``TriadDataset.write_csv``) are patched
on their class, and the model cache's ``pickle`` calls through a proxy bound
to ``pipeline.pickle``.

Spans (id, parent id, name, phase, start, end, attributes) stay in memory
and are written as JSON lines by :meth:`Tracer.write_jsonl`.
:func:`layer_metrics` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    phase: str  # "setup:<i>" or "op:<i>"
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Each target: (module, attribute, span name, attributes read off the call as
# f(args, kwargs, result)).  Counts come from array shapes and returned models.
FUNCTION_TARGETS = (
    ("evmcontrol.simulate", "run_ensemble", "simulate.run_ensemble",
     lambda a, k, r: {"runs": int(_arg(a, k, 1, "n_runs"))}),
    ("evmcontrol.simulate", "read_triads_csv", "simulate.read_triads_csv", None),
    ("evmcontrol.density", "scv_bandwidth", "density.scv_bandwidth", None),
    ("evmcontrol.density", "kde_fit", "density.kde_fit", None),
    ("evmcontrol.model_selection", "nested_cv", "model_selection.nested_cv",
     lambda a, k, r: {"family": r.family}),
    ("evmcontrol.gam", "backfit_gam", "gam.backfit_gam",
     lambda a, k, r: {"cycles": r.n_cycles}),
    ("evmcontrol.gam", "gam_predict", "gam.gam_predict", None),
    ("evmcontrol.gam", "anova_compare", "gam.anova_compare", None),
    ("evmcontrol.forest", "forest_fit", "forest.forest_fit",
     lambda a, k, r: {"trees": len(r.trees), "nodes": sum(len(t.feature) for t in r.trees)}),
    ("evmcontrol.forest", "forest_predict", "forest.forest_predict", None),
    ("evmcontrol.svm", "svm_fit", "svm.svm_fit",
     lambda a, k, r: {"support_vectors": len(r.alphas)}),
    ("evmcontrol.svm", "svm_predict", "svm.svm_predict", None),
    ("evmcontrol.classify", "qda_fit", "classify.qda_fit", None),
    ("evmcontrol.classify", "decision_boundary", "classify.decision_boundary", None),
    ("evmcontrol.geometry", "marching_squares", "geometry.marching_squares", None),
    ("evmcontrol.geometry", "convex_hull", "geometry.convex_hull", None),
    ("evmcontrol.geometry", "points_in_hull", "geometry.points_in_hull", None),
    ("evmcontrol.charts", "render_control_chart", "charts.render_control_chart", None),
    ("evmcontrol.charts", "cmd_chart", "charts.cmd_chart",
     lambda a, k, r: {"svg_bytes": _file_bytes(r)}),
    ("evmcontrol.pipeline", "cmd_analyze", "pipeline.cmd_analyze", None),
    ("evmcontrol.pipeline", "cmd_simulate", "pipeline.cmd_simulate", None),
)

METHOD_TARGETS = (
    ("evmcontrol.density", "DensityModel", "evaluate", "density.evaluate",
     lambda a, k, r: {"kernel_pairs": len(np.atleast_2d(_arg(a, k, 1, "queries")))
                      * len(a[0].points)}),
    ("evmcontrol.simulate", "TriadDataset", "write_csv", "simulate.write_csv",
     lambda a, k, r: {"csv_bytes": _file_bytes(_arg(a, k, 1, "path"))}),
)

CACHE_TARGETS = (
    ("load", "pipeline.model_cache.load",
     lambda a, k, r: {"bytes": _file_bytes(getattr(a[0], "name", None))}),
    ("dumps", "pipeline.model_cache.dump", lambda a, k, r: {"bytes": len(r)}),
)

FIT_SPANS = ("gam.backfit_gam", "forest.forest_fit", "svm.svm_fit", "classify.qda_fit")
FAMILIES = ("qda", "forest", "svm", "gam_splines", "gam_loess")

# Count attributes summed into a metric: span attribute -> metric name.
COUNT_METRICS = {
    "cycles": "gam.backfit_cycles",
    "trees": "forest.trees",
    "nodes": "forest.nodes",
    "support_vectors": "svm.support_vectors",
    "kernel_pairs": "density.kernel_pairs",
    "svg_bytes": "charts.svg_bytes",
    "runs": "simulate.runs",
    "csv_bytes": "simulate.csv_bytes",
    "bytes": "pipeline.model_cache.bytes",
}


def _self_metric(span_name: str) -> str:
    # the cache spans are sub-steps of pipeline, named <step>_s
    if span_name.startswith("pipeline.model_cache."):
        return f"{span_name}_s"
    return f"{span_name}.s"


# Every per-layer metric: (name, unit, better).
PER_LAYER = (
    [(_self_metric(name), "s", "lower") for _, _, name, _ in FUNCTION_TARGETS]
    + [(_self_metric(t[3]), "s", "lower") for t in METHOD_TARGETS]
    + [(_self_metric(name), "s", "lower") for _, name, _ in CACHE_TARGETS]
    + [(metric, "B" if metric.endswith("bytes") else "count", "lower")
       for metric in COUNT_METRICS.values()]
    + [("gam.backfit_gam.calls", "count", "lower")]
    + [(f"model_selection.fits.{fam}", "count", "lower") for fam in FAMILIES]
    + [("model_selection.kept_fit_share", "ratio", "higher"),
       ("pipeline.model_cache.hit_share", "ratio", "higher"),
       ("trace.op_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.covered_share", "ratio", "higher")]
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup:0"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._fitted: dict[int, weakref.ref] = {}

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, self.phase, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            if name in FIT_SPANS:
                self._fitted[span.id] = weakref.ref(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at each name the package binds it to."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "evmcontrol" or n.startswith("evmcontrol.")]
        for module_name, attr, name, measure in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, measure)
            for module in package:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapper)
        for module_name, cls_name, attr, name, measure in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, attr, self.wrap(name, getattr(cls, attr), measure))
        proxy = SimpleNamespace(**{attr: self.wrap(name, getattr(pickle, attr), measure)
                                   for attr, name, measure in CACHE_TARGETS})
        self._set(importlib.import_module("evmcontrol.pipeline"), "pickle", proxy)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def mark_kept(self, models) -> None:
        """Flag this phase's fit spans whose model reached the report."""
        keep = {id(m) for m in models}
        for span_id, ref in self._fitted.items():
            span = self.spans[span_id]
            model = ref()
            if span.phase == self.phase and model is not None and id(model) in keep:
                span.attrs["kept"] = True

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def covered_share(spans: list[Span], phase_prefix: str, wall: float) -> float:
    """Self time of the non-top-level spans of some phases, as a share of ``wall``.

    The self time of a top-level span (``pipeline.cmd_analyze``,
    ``charts.cmd_chart``) is the work no layer span below it covers, so it
    is left out.
    """
    selfs = self_times(spans)
    return sum(selfs[s.id] for s in spans
               if s.phase.startswith(phase_prefix) and s.parent is not None) / wall


def _nested_cv_family(span: Span, by_id: dict[int, Span]) -> str | None:
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor.name == "model_selection.nested_cv":
            return ancestor.attrs.get("family")
        parent = ancestor.parent
    return None


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds and counts for one set-up plus one operation.

    Spans recorded during set-up are divided by the number of set-ups and
    spans recorded during timed operations by the number of operations, so
    each value is what one set-up plus one operation cost in that layer.
    ``pipeline.model_cache.hit_share`` counts the analyses of operations only.
    The ``trace.*`` metrics are filled in by the caller.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    phases = {s.phase for s in spans}
    n_setup = max(1, sum(p.startswith("setup") for p in phases))
    n_ops = max(1, sum(p.startswith("op") for p in phases))

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    fits = kept = analyses = hits = 0
    for span in spans:
        w = 1.0 / (n_setup if span.phase.startswith("setup") else n_ops)
        out[_self_metric(span.name)] += selfs[span.id] * w
        for key, metric in COUNT_METRICS.items():
            if key in span.attrs:
                out[metric] += span.attrs[key] * w
        if span.name == "gam.backfit_gam":
            out["gam.backfit_gam.calls"] += w
        elif span.phase.startswith("op") and span.name == "pipeline.cmd_analyze":
            analyses += 1
        elif (span.phase.startswith("op") and span.name == "pipeline.model_cache.load"
              and not span.attrs.get("error")):
            hits += 1
        if span.name in FIT_SPANS:
            fits += 1
            kept += bool(span.attrs.get("kept"))
            family = _nested_cv_family(span, by_id)
            if family is not None:
                out[f"model_selection.fits.{family}"] += w
    out["pipeline.model_cache.hit_share"] = hits / analyses if analyses else 0.0
    out["model_selection.kept_fit_share"] = kept / fits if fits else 0.0
    return out
