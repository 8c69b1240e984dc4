import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_report_diff_names_changed_paths(tmp_path, capsys):
    a = {"report": {"p": 0.5, "ok": True, "tag": "x"},
         "chart": {"contours": {"0.5": [[[1.0, 2.0], [3.0, 4.0]]], "0.95": [[[0.0, 0.0]]]}}}
    b = json.loads(json.dumps(a))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert report_diff.main([str(pa), str(pb)]) == 0
    assert capsys.readouterr().out.strip() == "identical"

    b["chart"]["contours"]["0.5"][0][1][0] = 3.25
    b["chart"]["contours"]["0.95"].append([[1.0, 1.0]])
    b["report"]["tag"] = "y"
    b["report"]["extra"] = 1
    pb.write_text(json.dumps(b))
    assert report_diff.main([str(pa), str(pb)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'chart.contours["0.5"][*][*][*]: 1 of 4 numbers differ, max |diff| 0.25',
        'chart.contours["0.95"]: lengths differ (1 vs 2)',
        "report.extra: only in B",
        "report.tag: values differ",
    ]
