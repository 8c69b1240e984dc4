import json

import numpy as np

from evmcontrol.charts import _split_by_hull, cmd_chart, render_control_chart
from evmcontrol.geometry import convex_hull


def minimal_document():
    report = {
        "ev_level": 0.5, "at": 5.5, "ac": 12300.0, "ev": 12306.5,
        "sv": 0.0, "cv": 6.5, "x": 0.5, "bac": 24613.0, "pd": 13.0,
        "p_anomaly": 0.12, "p_overcost": 0.48, "p_delay": 0.76,
        "expected_final_cost": 24700.0, "expected_overcost": 87.0,
        "expected_final_duration": 13.4, "expected_delay": 0.4,
        "overcost_model": {"chosen_family": "svm"},
        "delay_model": {"chosen_family": "qda"},
        "cost_model": {"chosen_family": "gam_splines"},
        "duration_model": {"chosen_family": "gam_splines"},
        "status_in_trusted_region": True,
        "cost_extrapolated": False, "duration_extrapolated": False,
        "band_t": [4.2, 7.1], "band_c": [11200.0, 13600.0],
    }
    chart = {
        "pv": [[0, 0], [5, 11757], [13, 24613]],
        "status": {"t": 5.5, "c": 12300.0, "ev": 12306.5},
        "contour_levels": [0.5, 0.75, 0.95],
        "contours": {"0.5": [[[5.0, 12000.0], [6.0, 12500.0]]], "0.75": [], "0.95": []},
        "boundaries": {"over_budget": [[[4.0, 12306.5], [7.0, 12306.5]]], "late": []},
        "rectangles": {"0.95": {"t_lo": 4.0, "t_hi": 7.0, "c_lo": 11000.0, "c_hi": 14000.0}},
        "hull": [[4.0, 11000.0], [7.0, 11000.0], [7.0, 14000.0], [4.0, 14000.0]],
        "band": {"t": [4.2, 7.1], "c": [11200.0, 13600.0]},
    }
    return {"config": {"seed": 0}, "report": report, "chart": chart}


def test_chart_contains_required_annotations():
    svg = render_control_chart(minimal_document())
    assert svg.count("p(Anomaly)") == 2
    assert svg.count("p(OC)") == 1
    assert svg.count("p(D)") == 1
    assert svg.count("expected over-cost") == 1
    assert svg.count("expected delay") == 1
    assert svg.count("expected variability") >= 2
    assert svg.count('class="pv-curve"') == 2  # both panels share the PV curve
    assert 'class="marker-ev"' in svg
    assert 'class="marker-ac"' in svg
    assert "decision-boundary" in svg
    assert "percentile-rectangle" in svg
    assert svg.startswith("<svg")


def test_chart_cmd_writes_svg_and_twin(tmp_path):
    doc = minimal_document()
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc))
    out = cmd_chart(report_path, tmp_path / "chart.svg")
    assert out.exists()
    twin = json.loads((tmp_path / "chart.json").read_text())
    assert twin == doc  # field-for-field identical values
    assert (tmp_path / "chart.json").read_bytes() == report_path.read_bytes()


def test_split_by_hull_marks_untrusted_runs():
    hull = convex_hull(np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float))
    poly = np.array([[-5.0, 5.0], [5.0, 5.0], [15.0, 5.0]])
    runs = _split_by_hull(poly, hull)
    flags = [trusted for _, trusted in runs]
    assert flags == [False, True, False]
    total = sum(len(seg) for seg, _ in runs)
    assert total >= len(poly)  # shared break points are duplicated across runs
