import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol.errors import ProjectFormatError, ValidationError
from evmcontrol.project import (
    Activity,
    baseline_pv,
    case_study_project,
    earliest_start_schedule,
    evm_status,
    load_project,
    make_project,
)
from scalar_reference import project_finish

# cumulative PV of the bundled case study at integer times 1..13
CASE_STUDY_PV = [2598, 5196, 7955, 10714, 11757, 12759, 13761,
                 15920, 18079, 20238, 22363, 23488, 24613]


def test_case_study_totals(case_study):
    assert case_study.bac == 24613
    assert case_study.pd == 13


def test_case_study_file_matches_builder(tmp_path):
    spec = load_project("case_study.json")
    assert spec.fingerprint() == case_study_project().fingerprint()
    assert spec.bac == 24613
    assert spec.pd == 13


def test_single_activity_project():
    spec = make_project([Activity("A", 1.0, 0.0, 5.0)], [])
    assert spec.bac == 5
    assert spec.pd == 1


def test_cycle_rejected():
    acts = [Activity("A", 1, 0, 1), Activity("B", 1, 0, 1)]
    with pytest.raises(ValidationError, match="cycle"):
        make_project(acts, [("A", "B"), ("B", "A")])


@pytest.mark.parametrize(
    "acts,edges,msg",
    [
        ([Activity("A", -1, 0, 1)], [], "mean_duration"),
        ([Activity("A", 1, -0.5, 1)], [], "variance"),
        ([Activity("A", 1, 0, -2)], [], "cost_rate"),
        ([Activity("A", 1, 0, 1), Activity("A", 2, 0, 1)], [], "duplicate activity"),
        ([Activity("A", 1, 0, 1)], [("A", "B")], "unknown activity"),
        ([Activity("A", 1, 0, 1)], [("A", "A")], "self-loop"),
        ([Activity("A", 1, 0, 1), Activity("B", 1, 0, 1)],
         [("A", "B"), ("A", "B")], "duplicate edge"),
    ],
)
def test_validation_errors(acts, edges, msg):
    with pytest.raises(ValidationError, match=msg):
        make_project(acts, edges)


def test_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProjectFormatError):
        load_project(bad)
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"activities": [{"id": "A"}]}))
    with pytest.raises(ProjectFormatError):
        load_project(missing_field)


def test_case_study_schedule_spans(case_study):
    means = {a.id: a.mean_duration for a in case_study.activities}
    sched = earliest_start_schedule(case_study, means)
    assert sched["A1"] == (0, 2)
    assert sched["A2"] == (0, 4)
    assert sched["A3"] == (0, 7)
    assert sched["A4"] == (2, 5)
    assert sched["A5"] == (4, 10)
    assert sched["A6"] == (7, 11)
    assert sched["A7"] == (5, 13)
    assert sched["A8"] == (11, 13)
    assert project_finish(sched) == 13


def test_two_node_chain_schedule():
    spec = make_project([Activity("A", 2, 0, 1), Activity("B", 3, 0, 1)], [("A", "B")])
    sched = earliest_start_schedule(spec, {"A": 2, "B": 3})
    assert sched == {"A": (0, 2), "B": (2, 5)}


def test_parallel_schedule():
    spec = make_project([Activity("A", 4, 0, 1), Activity("B", 7, 0, 1)], [])
    sched = earliest_start_schedule(spec, {"A": 4, "B": 7})
    assert project_finish(sched) == 7


def test_missing_duration(case_study):
    with pytest.raises(ValidationError, match="missing duration"):
        earliest_start_schedule(case_study, {"A1": 1.0})


def test_baseline_pv_case_study(case_study):
    pv = baseline_pv(case_study)
    assert pv.value(0) == 0
    for t, expected in enumerate(CASE_STUDY_PV, start=1):
        assert pv.value(t) == expected  # integer arithmetic, no tolerance
    assert pv.value(5.5) == 11757 + 0.5 * (12759 - 11757) == 12258


def test_pv_clamps_outside_range(case_study):
    pv = baseline_pv(case_study)
    assert pv.value(-1) == 0
    assert pv.value(99) == 24613


def test_evm_status_on_plan(case_study):
    s = evm_status(case_study, at=4, ac=10714, ev=10714)
    assert s.sv == 0
    assert s.cv == 0
    assert s.x == pytest.approx(10714 / 24613, abs=1e-12)


def test_evm_status_zero():
    spec = make_project([Activity("A", 1, 0, 5)], [])
    s = evm_status(spec, 0, 0, 0)
    assert (s.sv, s.cv, s.x) == (0, 0, 0)


def test_evm_status_cost_variance(case_study):
    s = evm_status(case_study, at=4, ac=12000, ev=10714)
    assert s.cv == -1286


def test_evm_status_errors(case_study):
    with pytest.raises(ValidationError):
        evm_status(case_study, at=-1, ac=0, ev=0)
    with pytest.raises(ValidationError):
        evm_status(case_study, at=1, ac=0, ev=30000)


# -- properties -------------------------------------------------------------


@st.composite
def random_dag_project(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    means = draw(st.lists(st.floats(0.5, 10), min_size=n, max_size=n))
    rates = draw(st.lists(st.floats(0, 100), min_size=n, max_size=n))
    acts = [Activity(f"T{i}", means[i], 0.0, rates[i]) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):  # i < j keeps it acyclic
            if draw(st.booleans()):
                edges.append((f"T{i}", f"T{j}"))
    return make_project(acts, edges)


@settings(max_examples=40, deadline=None)
@given(random_dag_project())
def test_pv_curve_shape(spec):
    pv = baseline_pv(spec)
    assert pv.values[0] == 0
    assert np.all(np.diff(pv.values) >= -1e-9)
    assert pv.value(spec.pd) == pytest.approx(spec.bac, rel=1e-12)
    assert spec.bac == pytest.approx(sum(a.budget for a in spec.activities), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(random_dag_project(), st.integers(0, 6), st.floats(0.1, 5))
def test_schedule_monotone_in_duration(spec, pick, bump):
    means = {a.id: a.mean_duration for a in spec.activities}
    base = project_finish(earliest_start_schedule(spec, means))
    target = spec.ids[pick % len(spec.ids)]
    means[target] += bump
    assert project_finish(earliest_start_schedule(spec, means)) >= base - 1e-12


@settings(max_examples=30, deadline=None)
@given(random_dag_project(), st.randoms(use_true_random=False))
def test_schedule_order_invariance(spec, rnd):
    means = {a.id: a.mean_duration for a in spec.activities}
    base = earliest_start_schedule(spec, means)
    acts = list(spec.activities)
    edges = list(spec.edges)
    rnd.shuffle(acts)
    rnd.shuffle(edges)
    shuffled = make_project(acts, edges)
    assert earliest_start_schedule(shuffled, means) == base
    assert shuffled.fingerprint() == spec.fingerprint()
