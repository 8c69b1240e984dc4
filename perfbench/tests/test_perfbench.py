"""Tests of the benchmark itself: tiny runs, span arithmetic, failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import worker  # noqa: E402
from tracer import PER_LAYER, Span, Tracer, covered_share, layer_metrics, self_times  # noqa: E402

SEED = 5  # the seed of tests/test_pipeline.py::small_config
TINY_LEARNERS = dict(
    train_subsample=150,
    knot_grid=({"a": 2, "b": 2}, {"a": 4, "b": 4}),
    span_grid=({"a": 1.0, "b": 1.0}, {"a": 0.5, "b": 0.5}),
    cv_forest_ntree=5, final_forest_ntree=10,
    kde_fit_cap=500, kde_reference_cap=500, scv_subsample=200,
    density_grid_resolution=30, grid_resolution=20,
)
TINY = {
    "cold_check": dict(runs=2000, **TINY_LEARNERS),
    "warm_check": dict(runs=2000, ev_levels=(0.5,), **TINY_LEARNERS),
}


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_tiny_run_reports_every_metric(name, tmp_path):
    result = worker.run(name, SEED, 0.5, trace=False, sizes=TINY[name], out_root=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > worker.WORKLOADS[name].setup_reps
    assert set(result["metrics"]) == {metric for metric, _ in worker.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    result = worker.run(name, SEED, 0.5, trace=True, sizes=TINY[name], out_root=tmp_path)
    assert result["correct"], result
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == {metric for metric, _, _ in PER_LAYER}
    assert 0 < metrics["trace.covered_share"] < 1.0  # 0.99 at full size, see README
    assert 0 < metrics["model_selection.kept_fit_share"] < 0.05
    assert (tmp_path / f"{name}-seed{SEED}-trace1" / "trace.jsonl").stat().st_size > 0
    if name == "warm_check":
        assert metrics["pipeline.model_cache.hit_share"] == 1.0
        assert metrics["charts.svg_bytes"] > 0
    if name == "cold_check":
        assert metrics["model_selection.fits.forest"] == 2 * (2 * 25 + 5)


def test_wrong_reference_digest_is_a_failed_op(tmp_path):
    reference = {"setup": {"csv_sha256": {"0.5": "0" * 64}}}
    result = worker.run("cold_check", SEED, 0.5, trace=False, sizes=TINY["cold_check"],
                        reference=reference, out_root=tmp_path)
    assert not result["correct"]
    assert result["failed"] == worker.ColdCheck.setup_reps < result["attempted"]


def test_cold_ops_repeat_their_sub_seed(tmp_path):
    workload = worker.ColdCheck(SEED, tmp_path, TINY["cold_check"])
    assert not workload.setup(0).problems
    first, other, repeat = (workload.op(i) for i in (0, 1, worker.ColdCheck.op_seeds))
    assert not (first.problems or other.problems or repeat.problems)
    assert repeat.identity == first.identity != other.identity


def span(id, parent, start, end, name="x", phase="op:0", **attrs):
    return Span(id, parent, name, phase, start, end, attrs)


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 5.0, 9.0),
        span(3, 2, 6.0, 7.0),
        span(4, 2, 6.5, 8.0),  # overlaps its sibling: the union counts once
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5})


def test_covered_share_leaves_out_top_level_self_time():
    spans = [
        span(0, None, 0.0, 10.0, "pipeline.cmd_analyze"),
        span(1, 0, 1.0, 7.0, "model_selection.nested_cv"),
        span(2, 1, 2.0, 6.0, "forest.forest_fit"),
        span(3, None, 11.0, 12.0, "charts.cmd_chart"),
        span(4, None, 0.0, 5.0, "simulate.run_ensemble", "setup:0"),
    ]
    assert covered_share(spans, "op", 12.0) == pytest.approx(6.0 / 12.0)


def test_layer_metrics_weigh_setups_and_ops_separately():
    spans = [
        span(0, None, 0.0, 4.0, "pipeline.cmd_analyze", "setup:0"),
        span(1, 0, 1.0, 3.0, "gam.backfit_gam", "setup:0", cycles=7),
        span(2, None, 10.0, 11.0, "pipeline.cmd_analyze", "op:0"),
        span(3, 2, 10.2, 10.6, "gam.backfit_gam", "op:0", cycles=3),
        span(4, None, 20.0, 23.0, "pipeline.cmd_analyze", "op:1"),
        span(5, 4, 20.0, 21.0, "pipeline.model_cache.load", "op:1", bytes=100),
    ]
    m = layer_metrics(spans)
    assert m["gam.backfit_gam.s"] == pytest.approx(2.0 + 0.4 / 2)
    assert m["gam.backfit_gam.calls"] == pytest.approx(1.5)
    assert m["gam.backfit_cycles"] == pytest.approx(7 + 3 / 2)
    assert m["pipeline.cmd_analyze.s"] == pytest.approx(2.0 + (0.6 + 2.0) / 2)
    assert m["pipeline.model_cache.load_s"] == pytest.approx(0.5)
    assert m["pipeline.model_cache.bytes"] == pytest.approx(50)
    assert m["pipeline.model_cache.hit_share"] == pytest.approx(0.5)


def test_tracer_patches_names_imported_elsewhere():
    from evmcontrol import forest, pipeline

    original = forest.forest_fit
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.forest_fit is not original
        assert pipeline.forest_fit.__wrapped__ is original
        assert forest.forest_fit is pipeline.forest_fit
    finally:
        tracer.uninstall()
    assert pipeline.forest_fit is original and forest.forest_fit is original


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(worker.END_TO_END)
