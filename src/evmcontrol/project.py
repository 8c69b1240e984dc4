"""Stochastic project model: activities, precedence network, baseline.

A project is a set of activities with normally distributed durations and a
deterministic cost rate per time unit, tied together by finish-to-start
precedence edges (an activity-on-node DAG).  The deterministic baseline
schedules every activity at its mean duration as early as possible and
accrues cost uniformly while an activity runs; the cumulative planned value
curve (PV) is therefore piecewise linear.  ``BAC`` is the final PV and
``PD`` the baseline finish time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ProjectFormatError, ValidationError


@dataclass(frozen=True)
class Activity:
    id: str
    mean_duration: float
    variance: float
    cost_rate: float

    @property
    def budget(self) -> float:
        return self.mean_duration * self.cost_rate


@dataclass(frozen=True)
class ProjectSpec:
    """Validated project: activities, DAG edges and derived baseline totals.

    Immutable after construction; build through :func:`make_project` or
    :func:`load_project`, which validate and populate the derived fields.
    """

    activities: tuple[Activity, ...]
    edges: tuple[tuple[str, str], ...]
    bac: float = field(default=0.0, compare=False)
    pd: float = field(default=0.0, compare=False)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.activities)

    def sorted_ids(self) -> tuple[str, ...]:
        """Canonical activity order (lexicographic); sampling uses this."""
        return tuple(sorted(self.ids))

    def predecessors(self) -> dict[str, tuple[str, ...]]:
        preds: dict[str, list[str]] = {a.id: [] for a in self.activities}
        for u, v in self.edges:
            preds[v].append(u)
        return {k: tuple(v) for k, v in preds.items()}

    def topological_order(self) -> tuple[str, ...]:
        return _topological_order(self.ids, self.edges)

    def fingerprint(self) -> str:
        """Content hash of the canonical form; used for cache/manifest keys."""
        canon = {
            "activities": [
                [a.id, a.mean_duration, a.variance, a.cost_rate]
                for a in sorted(self.activities, key=lambda a: a.id)
            ],
            "edges": sorted(map(list, self.edges)),
        }
        blob = json.dumps(canon, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _topological_order(ids: Sequence[str], edges: Sequence[tuple[str, str]]) -> tuple[str, ...]:
    """Kahn's algorithm; raises ValidationError naming a cycle member."""
    indeg = {i: 0 for i in ids}
    succ: dict[str, list[str]] = {i: [] for i in ids}
    for u, v in edges:
        indeg[v] += 1
        succ[u].append(v)
    ready = sorted(i for i in ids if indeg[i] == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        newly = []
        for v in succ[node]:
            indeg[v] -= 1
            if indeg[v] == 0:
                newly.append(v)
        ready = sorted(ready + newly)
    if len(order) != len(ids):
        stuck = sorted(i for i in ids if indeg[i] > 0)
        raise ValidationError(f"cycle among activities: {', '.join(stuck)}")
    return tuple(order)


def make_project(activities: Iterable[Activity], edges: Iterable[tuple[str, str]]) -> ProjectSpec:
    """Validate and build a ProjectSpec with derived BAC and PD."""
    acts = tuple(activities)
    edge_list = tuple((str(u), str(v)) for u, v in edges)
    if not acts:
        raise ValidationError("project has no activities")
    seen: set[str] = set()
    for a in acts:
        if a.id in seen:
            raise ValidationError(f"duplicate activity id: {a.id}")
        seen.add(a.id)
        if not np.isfinite(a.mean_duration) or a.mean_duration <= 0:
            raise ValidationError(f"activity {a.id}: mean_duration must be > 0")
        if not np.isfinite(a.variance) or a.variance < 0:
            raise ValidationError(f"activity {a.id}: variance must be >= 0")
        if not np.isfinite(a.cost_rate) or a.cost_rate < 0:
            raise ValidationError(f"activity {a.id}: cost_rate must be >= 0")
    edge_seen: set[tuple[str, str]] = set()
    for u, v in edge_list:
        if u not in seen:
            raise ValidationError(f"edge references unknown activity: {u}")
        if v not in seen:
            raise ValidationError(f"edge references unknown activity: {v}")
        if u == v:
            raise ValidationError(f"self-loop on activity: {u}")
        if (u, v) in edge_seen:
            raise ValidationError(f"duplicate edge: {u} -> {v}")
        edge_seen.add((u, v))
    _topological_order([a.id for a in acts], edge_list)

    spec = ProjectSpec(activities=acts, edges=edge_list)
    means = {a.id: a.mean_duration for a in acts}
    schedule = earliest_start_schedule(spec, means)
    pd_ = max(fin for _, fin in schedule.values())
    bac = sum(a.budget for a in acts)
    return ProjectSpec(activities=acts, edges=edge_list, bac=bac, pd=pd_)


def project_from_dict(doc: Mapping) -> ProjectSpec:
    """Build a project from the JSON document structure."""
    try:
        raw_acts = doc["activities"]
        raw_edges = doc.get("edges", [])
        acts = [
            Activity(
                id=str(a["id"]),
                mean_duration=float(a["mean_duration"]),
                variance=float(a["variance"]),
                cost_rate=float(a["cost_rate"]),
            )
            for a in raw_acts
        ]
        edges = [(str(e[0]), str(e[1])) for e in raw_edges]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ProjectFormatError(f"malformed project document: {exc}") from exc
    return make_project(acts, edges)


def load_project(path: str | Path) -> ProjectSpec:
    """Read and validate a project JSON file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProjectFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, Mapping):
        raise ProjectFormatError(f"{path}: top level must be an object")
    return project_from_dict(doc)


def earliest_start_schedule(
    spec: ProjectSpec, durations: Mapping[str, float]
) -> dict[str, tuple[float, float]]:
    """Forward pass: start = max predecessor finish (0 for sources).

    ``durations`` must cover every activity and be strictly positive.
    The result does not depend on declaration order of activities or edges.
    """
    missing = [i for i in spec.ids if i not in durations]
    if missing:
        raise ValidationError(f"missing duration for activity: {missing[0]}")
    preds = spec.predecessors()
    finish: dict[str, float] = {}
    schedule: dict[str, tuple[float, float]] = {}
    for node in spec.topological_order():
        d = float(durations[node])
        if d <= 0:
            raise ValidationError(f"activity {node}: duration must be > 0")
        start = max((finish[p] for p in preds[node]), default=0.0)
        finish[node] = start + d
        schedule[node] = (start, start + d)
    return schedule


@dataclass(frozen=True)
class PVCurve:
    """Piecewise-linear cumulative planned value from (0, 0) to (PD, BAC)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValidationError("PV breakpoints must be parallel 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("PV breakpoint times must be strictly increasing")
        if np.any(np.diff(v) < 0) or v[0] != 0:
            raise ValidationError("PV values must start at 0 and never decrease")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def value(self, t) -> np.ndarray | float:
        """PV(t); clamped to 0 before the start and BAC after the finish."""
        out = np.interp(np.asarray(t, dtype=float), self.times, self.values)
        return float(out) if np.ndim(t) == 0 else out


def baseline_pv(spec: ProjectSpec) -> PVCurve:
    """PV curve of the mean-duration earliest-start schedule.

    Each activity accrues ``cost_rate`` per time unit while running, so the
    cumulative curve is linear between activity start/finish events.
    """
    means = {a.id: a.mean_duration for a in spec.activities}
    schedule = earliest_start_schedule(spec, means)
    events = {0.0}
    for s, f in schedule.values():
        events.add(s)
        events.add(f)
    times = np.array(sorted(events), dtype=float)
    values = np.zeros_like(times)
    for a in spec.activities:
        s, f = schedule[a.id]
        accrued = np.clip(times - s, 0.0, f - s) * a.cost_rate
        values += accrued
    return PVCurve(times=times, values=values)


@dataclass(frozen=True)
class EvmStatus:
    """An observed project status and its derived earned-value measures."""

    at: float
    ac: float
    ev: float
    sv: float
    cv: float
    x: float


def evm_status(spec: ProjectSpec, at: float, ac: float, ev: float) -> EvmStatus:
    """Derive SV = EV - PV(AT), CV = EV - AC and the completion fraction x."""
    if at < 0:
        raise ValidationError("actual time must be >= 0")
    if ac < 0:
        raise ValidationError("actual cost must be >= 0")
    if not 0 <= ev <= spec.bac:
        raise ValidationError(f"earned value must lie in [0, BAC={spec.bac}]")
    pv = baseline_pv(spec).value(at)
    return EvmStatus(
        at=float(at),
        ac=float(ac),
        ev=float(ev),
        sv=float(ev - pv),
        cv=float(ev - ac),
        x=float(ev / spec.bac),
    )


def case_study_project() -> ProjectSpec:
    """The eight-activity reference project bundled as ``case_study.json``.

    Serial/parallel network: A1->A4->A7, A2->A5, A3->A6->A8.  Totals:
    BAC = 24613, PD = 13.
    """
    rows = [
        ("A1", 2, 0.15, 755),
        ("A2", 4, 0.83, 1750),
        ("A3", 7, 1.35, 93),
        ("A4", 3, 0.56, 916),
        ("A5", 6, 1.72, 34),
        ("A6", 4, 0.28, 1250),
        ("A7", 8, 2.82, 875),
        ("A8", 2, 0.14, 250),
    ]
    acts = [Activity(i, float(m), float(v), float(r)) for i, m, v, r in rows]
    edges = [("A1", "A4"), ("A4", "A7"), ("A2", "A5"), ("A3", "A6"), ("A6", "A8")]
    return make_project(acts, edges)
