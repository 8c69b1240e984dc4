"""Static SVG control charts from an analysis document.

The control chart stacks two panels on a shared time axis, in the style of
the classical earned-value graph:

* cost panel -- planned value curve, EV and AC markers at the actual time,
  the expected-variability box of the pivot cloud, anomaly contours,
  percentile rectangles, the over-cost decision boundary, and the
  annotations p(Anomaly), p(OC) and expected over-cost;
* time panel -- planned value curve with the current EV level, planned
  versus expected finish, the time variability range, the delay decision
  boundary (often empty), and the annotations p(Anomaly), p(D) and
  expected delay.

Boundary polylines are drawn with low opacity outside the convex hull of
the simulated cloud: the models are untrustworthy there.  Rendering is
plain SVG text; the JSON twin written next to the chart carries the exact
report numbers so downstream tooling never parses the drawing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import points_in_hull

PANEL_W, PANEL_H, MARGIN, GAP = 860, 330, 64, 56


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Scale:
    """Data (x, y) to pixel coordinates, y inverted; values may be arrays."""

    def __init__(self, x_range, y_range, top: float):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.top = top

    def x(self, v):
        span = self.x1 - self.x0 or 1.0
        return MARGIN + (v - self.x0) / span * PANEL_W

    def y(self, v):
        span = self.y1 - self.y0 or 1.0
        return self.top + PANEL_H - (v - self.y0) / span * PANEL_H


def _polyline(scale: _Scale, points, cls: str) -> str:
    """A polyline through data ``points`` ((k, 2), as an array or nested
    lists), mapped through ``scale`` for the whole array at once."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) < 2:
        return ""
    pixels = zip(scale.x(points[:, 0]).tolist(), scale.y(points[:, 1]).tolist())
    coords = " ".join(map("%.2f,%.2f".__mod__, pixels))
    return f'<polyline class="{cls}" points="{coords}" />'


def _text(x: float, y: float, s: str, cls: str = "annotation") -> str:
    return f'<text class="{cls}" x="{x:.1f}" y="{y:.1f}">{_esc(s)}</text>'


def _circle(x: float, y: float, r: float, cls: str) -> str:
    return f'<circle class="{cls}" cx="{x:.2f}" cy="{y:.2f}" r="{r}"/>'


def _rect(x0, y0, x1, y1, cls: str) -> str:
    x, y = min(x0, x1), min(y0, y1)
    w, h = abs(x1 - x0), abs(y1 - y0)
    return f'<rect class="{cls}" x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}"/>'


_STYLE = """
  svg { font-family: sans-serif; }
  .axis { stroke: #222; stroke-width: 1; }
  .axis-label, .tick-label { font-size: 12px; fill: #222; }
  .panel-title { font-size: 15px; fill: #111; font-weight: bold; }
  .pv-curve { fill: none; stroke: #1f4e9c; stroke-width: 2; }
  .ev-level-line { stroke: #1f4e9c; stroke-width: 1; stroke-dasharray: 5 4; }
  .marker-ev { fill: #0a8a0a; stroke: #fff; }
  .marker-ac { fill: #c0392b; stroke: #fff; }
  .marker-label { font-size: 12px; fill: #222; }
  .variability-band { fill: #f2a93b; fill-opacity: 0.25; stroke: #f2a93b; }
  .contour { fill: none; stroke: #7b52ab; stroke-width: 1.2; }
  .contour-95 { stroke-dasharray: 2 2; }
  .decision-boundary { fill: none; stroke: #111; stroke-width: 1.6; }
  .decision-boundary.untrusted { stroke-opacity: 0.15; }
  .percentile-rectangle { fill: none; stroke: #2e8b57; stroke-width: 1.2; stroke-dasharray: 6 3; }
  .plan-line { stroke: #666; stroke-width: 1; stroke-dasharray: 4 3; }
  .forecast-line { stroke: #c0392b; stroke-width: 1.4; stroke-dasharray: 7 3; }
  .annotation { font-size: 13px; fill: #111; }
"""


def _split_by_hull(polyline: np.ndarray, hull: np.ndarray):
    """Break a polyline into (segment, trusted) runs by hull membership."""
    if len(hull) == 0:
        return [(polyline, True)]
    inside = points_in_hull(polyline, np.asarray(hull))
    runs = []
    start = 0
    for i in range(1, len(polyline)):
        if inside[i] != inside[start]:
            runs.append((polyline[start : i + 1], bool(inside[start])))
            start = i
    runs.append((polyline[start:], bool(inside[start])))
    return runs


def _panel_axes(scale: _Scale, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<line class="axis" x1="{MARGIN}" y1="{scale.top + PANEL_H}" '
        f'x2="{MARGIN + PANEL_W}" y2="{scale.top + PANEL_H}"/>',
        f'<line class="axis" x1="{MARGIN}" y1="{scale.top}" x2="{MARGIN}" y2="{scale.top + PANEL_H}"/>',
        _text(MARGIN, scale.top - 10, title, "panel-title"),
        _text(MARGIN + PANEL_W - 40, scale.top + PANEL_H + 32, x_label, "axis-label"),
        _text(8, scale.top + 14, y_label, "axis-label"),
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = scale.x0 + frac * (scale.x1 - scale.x0)
        parts.append(_text(scale.x(xv) - 8, scale.top + PANEL_H + 16, f"{xv:.3g}", "tick-label"))
        yv = scale.y0 + frac * (scale.y1 - scale.y0)
        parts.append(_text(10, scale.y(yv) + 4, f"{yv:.4g}", "tick-label"))
    return parts


def render_control_chart(document: dict) -> str:
    report = document["report"]
    chart = document["chart"]
    pv = np.asarray(chart["pv"], dtype=float)
    hull = np.asarray(chart.get("hull", []), dtype=float)
    at, ac, ev = report["at"], report["ac"], report["ev"]
    bac, pd_ = report["bac"], report["pd"]
    band_t = chart["band"]["t"]
    band_c = chart["band"]["c"]

    t_max = max(pd_, at, band_t[1], report["expected_final_duration"]) * 1.08 + 1e-9
    c_max = max(bac, ac, band_c[1]) * 1.1 + 1e-9

    top1 = MARGIN
    cost = _Scale((0.0, t_max), (0.0, c_max), top1)
    parts: list[str] = []
    parts += _panel_axes(cost, "Cost control", "time", "cost")
    parts.append(_polyline(cost, pv, "pv-curve"))
    parts.append(_rect(cost.x(band_t[0]), cost.y(band_c[0]),
                       cost.x(band_t[1]), cost.y(band_c[1]), "variability-band"))
    parts.append(_text(cost.x(band_t[1]) + 6, cost.y(band_c[1]), "expected variability"))
    for level, polys in chart.get("contours", {}).items():
        cls = "contour contour-95" if level == "0.95" else "contour"
        for poly in polys:
            parts.append(_polyline(cost, poly, cls))
    for level, rect in chart.get("rectangles", {}).items():
        parts.append(_rect(cost.x(rect["t_lo"]), cost.y(rect["c_lo"]),
                           cost.x(rect["t_hi"]), cost.y(rect["c_hi"]),
                           "percentile-rectangle"))
    for poly in chart.get("boundaries", {}).get("over_budget", []):
        for run, trusted in _split_by_hull(np.asarray(poly, dtype=float), hull):
            cls = "decision-boundary" if trusted else "decision-boundary untrusted"
            parts.append(_polyline(cost, run, cls))
    parts.append(_circle(cost.x(at), cost.y(ev), 5, "marker-ev"))
    parts.append(_text(cost.x(at) + 8, cost.y(ev) + 4, "EV", "marker-label"))
    parts.append(_circle(cost.x(at), cost.y(ac), 5, "marker-ac"))
    parts.append(_text(cost.x(at) + 8, cost.y(ac) - 6, "AC", "marker-label"))
    ann_x = MARGIN + 12
    parts.append(_text(ann_x, top1 + 22, f"p(Anomaly) = {report['p_anomaly']:.3f}"))
    parts.append(_text(ann_x, top1 + 42, f"p(OC) = {report['p_overcost']:.3f}"))
    parts.append(_text(ann_x, top1 + 62, f"expected over-cost = {report['expected_overcost']:+.4g}"))

    top2 = MARGIN + PANEL_H + GAP + 30
    time = _Scale((0.0, t_max), (0.0, c_max), top2)
    parts += _panel_axes(time, "Time control", "time", "cost")
    parts.append(_polyline(time, pv, "pv-curve"))
    parts.append(
        f'<line class="ev-level-line" x1="{time.x(0):.2f}" y1="{time.y(ev):.2f}" '
        f'x2="{time.x(t_max):.2f}" y2="{time.y(ev):.2f}"/>'
    )
    parts.append(
        f'<line class="plan-line" x1="{time.x(pd_):.2f}" y1="{time.y(0):.2f}" '
        f'x2="{time.x(pd_):.2f}" y2="{time.y(c_max):.2f}"/>'
    )
    parts.append(_text(time.x(pd_) + 4, top2 + 16, "planned finish", "marker-label"))
    efd = report["expected_final_duration"]
    parts.append(
        f'<line class="forecast-line" x1="{time.x(efd):.2f}" y1="{time.y(0):.2f}" '
        f'x2="{time.x(efd):.2f}" y2="{time.y(c_max):.2f}"/>'
    )
    parts.append(_text(time.x(efd) + 4, top2 + 34, "expected finish", "marker-label"))
    band_h = 0.035 * c_max
    parts.append(_rect(time.x(band_t[0]), time.y(ev - band_h),
                       time.x(band_t[1]), time.y(ev + band_h), "variability-band"))
    parts.append(_text(time.x(band_t[1]) + 6, time.y(ev) + 4, "expected variability"))
    for poly in chart.get("boundaries", {}).get("late", []):
        for run, trusted in _split_by_hull(np.asarray(poly, dtype=float), hull):
            cls = "decision-boundary" if trusted else "decision-boundary untrusted"
            parts.append(_polyline(time, run, cls))
    parts.append(_circle(time.x(at), time.y(ev), 5, "marker-ev"))
    parts.append(_text(time.x(at) + 8, time.y(ev) - 6, "EV", "marker-label"))
    ann_x = MARGIN + 12
    parts.append(_text(ann_x, top2 + 22, f"p(Anomaly) = {report['p_anomaly']:.3f}"))
    parts.append(_text(ann_x, top2 + 42, f"p(D) = {report['p_delay']:.3f}"))
    parts.append(_text(ann_x, top2 + 62, f"expected delay = {report['expected_delay']:+.4g}"))

    width = MARGIN * 2 + PANEL_W
    height = top2 + PANEL_H + MARGIN
    body = "\n".join(p for p in parts if p)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<style>{_STYLE}</style>\n{body}\n</svg>\n'
    )


def cmd_chart(report_path: str | Path, out_path: str | Path) -> Path:
    """Render the control chart SVG plus its JSON twin, a copy of the report."""
    raw = Path(report_path).read_bytes()
    svg = render_control_chart(json.loads(raw))
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg)
    out.with_suffix(".json").write_bytes(raw)
    return out
