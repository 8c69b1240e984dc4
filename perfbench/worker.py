"""Runs one benchmark workload in this process and prints its result.

``run.py`` starts this file in a fresh process per workload.  This file sets
the BLAS thread count to 1 in its own environment before numpy loads.  The
workload runs timed operations in a closed loop with one caller until they
have taken ``--seconds``, and sets up ``setup_reps`` times (``setup_s`` is
their median): once before the first operation, the other times spread over
the run.  Only calls into evmcontrol are timed; every set-up and operation
is then checked for correctness, and a failed check or an exception counts
as one failed operation instead of aborting the run.

With ``--trace 1`` the workload sets up once under the tracer, then runs
each operation twice, untraced and traced, alternating which goes first.
Their outputs must match, the wall-time difference is the tracing overhead,
and the traced spans give the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment and every sample, goes to ``result.json`` (and the
spans to ``trace.jsonl``) under ``.perfbench-out/`` in the checkout.

    python3 perfbench/worker.py --workload warm_check --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --record-reference   # rewrite reference.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # a single-threaded baseline
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import evmcontrol  # noqa: E402
from evmcontrol import charts, pipeline  # noqa: E402
from evmcontrol.project import load_project  # noqa: E402
from tracer import PER_LAYER, Tracer, covered_share, layer_metrics  # noqa: E402

PROJECT = ROOT / "case_study.json"
OUT_ROOT = ROOT / ".perfbench-out"
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0
PIVOT = 0.5

# Learner grids and tree counts of tests/test_pipeline.py::small_config, on a
# smaller training subsample.
SMALL_LEARNERS = dict(
    train_subsample=150,
    knot_grid=({"a": 2, "b": 2}, {"a": 4, "b": 4}),
    span_grid=({"a": 1.0, "b": 1.0}, {"a": 0.5, "b": 0.5}),
    cv_forest_ntree=25,
    final_forest_ntree=80,
)

# RunConfig overrides per workload.  cold_check shrinks the density caps so
# that nested CV dominates; warm_check keeps the default KDE caps and density
# grid, which set the work of a cache hit.  Its SCV subsample, which only
# set-up uses, is halved: that takes about 11 s off a warm run, which buys
# the longer runs that steady op_s within the benchmark's time limit.
# Operations last seconds, not tens of seconds, so a run has several.
SIZES = {
    "cold_check": dict(runs=20000, kde_fit_cap=2000, kde_reference_cap=2000,
                       scv_subsample=500, density_grid_resolution=60, **SMALL_LEARNERS),
    "warm_check": dict(runs=20000, ev_levels=(PIVOT,), scv_subsample=1000, **SMALL_LEARNERS),
}

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Step:
    """Outcome of one set-up or operation: its timed wall and its checks."""

    wall: float
    problems: list[str] = field(default_factory=list)
    identity: dict = field(default_factory=dict)  # what must repeat exactly
    models: tuple = ()  # fitted models that reached the report
    completed: bool = True  # False when the step raised


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def csv_digests(out_dir: Path, manifest: dict) -> dict:
    return {level: sha256(out_dir / name) for level, name in sorted(manifest["files"].items())}


def selection_fingerprint(document: dict) -> dict:
    """Chosen family and params per target, as the report states them."""
    report = document["report"]
    return {
        target: [report[key].get("chosen_family"), report[key].get("chosen_params")]
        for target, key in (("over_budget", "overcost_model"), ("late", "delay_model"),
                            ("final_cost", "cost_model"), ("final_duration", "duration_model"))
    }


def report_problems(document: dict, bac: float, pd: float) -> list[str]:
    """Invariants every report must satisfy."""
    report = document["report"]
    problems = [f"{key}={report[key]!r} outside [0, 1]"
                for key in ("p_anomaly", "p_overcost", "p_delay")
                if not 0.0 <= report[key] <= 1.0]
    if report["expected_overcost"] != report["expected_final_cost"] - bac:
        problems.append("expected_overcost != expected_final_cost - bac")
    if report["expected_delay"] != report["expected_final_duration"] - pd:
        problems.append("expected_delay != expected_final_duration - pd")
    return problems


def mismatch(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label} differs: got {got!r}, expected {want!r}"]


def read_cloud(csv_path: Path) -> np.ndarray:
    """(t, c) columns of a triad CSV, read without going through evmcontrol."""
    return np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)


def typical_status(cloud: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    t, c = cloud[rng.integers(len(cloud))]
    return float(t), float(c)


def anomalous_status(cloud: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """A status 4-6 standard deviations late and over cost."""
    mean, sd = cloud.mean(axis=0), cloud.std(axis=0)
    t, c = mean + rng.uniform(4.0, 6.0, size=2) * sd
    return float(t), float(c)


def report_models(result: pipeline.AnalysisResult) -> tuple:
    """The fitted models that reached an analysis's report."""
    art = result.artifacts
    models = tuple(a.model for a in art.classifiers.values() if a.model is not None)
    return models + tuple(a.model for a in art.regressors.values())


class Workload:
    """Set-up and one operation of a workload; subclasses fill in both."""

    name = ""
    setup_reps: int  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, work: Path, sizes: dict | None = None,
                 reference: dict | None = None) -> None:
        self.seed = seed
        self.work = work
        self.sizes = dict(SIZES[self.name] if sizes is None else sizes)
        self.reference = reference  # recorded outputs, checked when given
        self.spec = load_project(PROJECT)
        self.first: dict = {}  # identities of the first set-up / op, for repeats

    def config(self, out_dir: Path) -> pipeline.RunConfig:
        return pipeline.RunConfig(project=str(PROJECT), seed=self.seed,
                                  out_dir=str(out_dir), **self.sizes)

    def repeat_problems(self, kind: str, identity: dict) -> list[str]:
        """Identical inputs must give identical outputs, and match the record."""
        problems = []
        first = self.first.setdefault(kind, identity)
        for key, value in identity.items():
            problems += mismatch(f"{kind} {key} (vs first {kind})", value, first.get(key))
            if self.reference is not None and key in self.reference.get(kind, {}):
                problems += mismatch(f"{kind} {key} (vs reference)", value,
                                     self.reference[kind][key])
        return problems

    def setup(self, rep: int) -> Step:
        raise NotImplementedError

    def op(self, index: int) -> Step:
        raise NotImplementedError


class ColdCheck(Workload):
    """analyze with an empty model cache, on triads a manifest made in set-up.

    How long nested CV takes depends on the analysis seed (it sets the
    training subsample and the folds, hence support vectors, tree sizes,
    backfitting cycles and the family whose final model is fitted): one
    seed's check can take 15% longer than another's on the same host.
    Operation ``i`` therefore analyses with ``RunConfig.seed = seed *
    op_seeds + i % op_seeds`` and its own status, so ``op_s``, the median
    over a run, mixes ``op_seeds`` draws of that work instead of following
    one seed.  An operation that repeats a sub-seed must repeat its report
    byte for byte.
    """

    name = "cold_check"
    setup_reps = 5  # each set-up lasts about a second
    op_seeds = 4  # a 40-s run has 6-9 operations, so every run repeats some

    def setup(self, rep: int) -> Step:
        data = fresh_dir(self.work / f"data{rep}")
        start = time.perf_counter()
        manifest = pipeline.cmd_simulate(self.config(data), self.spec)
        wall = time.perf_counter() - start
        cloud = read_cloud(data / manifest["files"][f"{PIVOT:.9g}"])
        if rep > 0:
            shutil.rmtree(self.work / f"data{rep - 1}")
        self.data, self.cloud = data, cloud
        identity = {"csv_sha256": csv_digests(data, manifest)}
        return Step(wall, self.repeat_problems("setup", identity), identity)

    def op(self, index: int) -> Step:
        slot = index % self.op_seeds
        out = fresh_dir(self.work / "op")
        at, ac = typical_status(self.cloud, np.random.default_rng([self.seed, slot]))
        config = replace(self.config(out), seed=self.seed * self.op_seeds + slot)
        start = time.perf_counter()
        result = pipeline.cmd_analyze(config, at=at, ac=ac, ev=PIVOT * self.spec.bac,
                                      data_dir=str(self.data), spec=self.spec)
        wall = time.perf_counter() - start
        document = json.loads((out / "report.json").read_text())
        identity = {"fingerprint": selection_fingerprint(document),
                    "report_sha256": sha256(out / "report.json")}
        problems = report_problems(document, self.spec.bac, self.spec.pd)
        problems += self.repeat_problems(f"op{slot}", identity)
        return Step(wall, problems, identity, report_models(result))


class WarmCheck(Workload):
    """analyze + chart at a pivot whose model cache set-up filled."""

    name = "warm_check"
    setup_reps = 2  # each set-up is a cold analyze at default density caps

    def setup(self, rep: int) -> Step:
        out = fresh_dir(self.work / f"warm{rep}")
        start = time.perf_counter()
        manifest = pipeline.cmd_simulate(self.config(out), self.spec)
        wall = time.perf_counter() - start
        cloud = read_cloud(out / manifest["files"][f"{PIVOT:.9g}"])
        rng = np.random.default_rng([self.seed, 10**6])
        self.statuses = [typical_status(cloud, rng)]  # the set-up status, re-checked warm
        start = time.perf_counter()
        result = pipeline.cmd_analyze(self.config(out), *self.statuses[0],
                                      ev=PIVOT * self.spec.bac, data_dir=str(out), spec=self.spec)
        wall += time.perf_counter() - start
        if rep > 0:
            shutil.rmtree(self.work / f"warm{rep - 1}")
        self.out = out
        self.cold_report = (out / "report.json").read_bytes()
        self.statuses += [typical_status(cloud, rng), anomalous_status(cloud, rng)]
        document = json.loads(self.cold_report)
        identity = {"csv_sha256": csv_digests(out, manifest),
                    "fingerprint": selection_fingerprint(document)}
        problems = report_problems(document, self.spec.bac, self.spec.pd)
        problems += self.repeat_problems("setup", identity)
        return Step(wall, problems, identity, report_models(result))

    def op(self, index: int) -> Step:
        status = self.statuses[index % len(self.statuses)]
        report_path, chart_path = self.out / "report.json", self.out / "chart" / "control.svg"
        cache_before = tree_bytes(self.out / "cache")
        start = time.perf_counter()
        pipeline.cmd_analyze(self.config(self.out), *status, ev=PIVOT * self.spec.bac,
                             data_dir=str(self.out), spec=self.spec)
        charts.cmd_chart(report_path, chart_path)
        wall = time.perf_counter() - start
        raw = report_path.read_bytes()
        problems = report_problems(json.loads(raw), self.spec.bac, self.spec.pd)
        if index % len(self.statuses) == 0 and raw != self.cold_report:
            problems.append("warm report of the set-up status differs from the cold one")
        cache_growth = tree_bytes(self.out / "cache") - cache_before
        if cache_growth:
            problems.append(f"model cache missed: {cache_growth} bytes written")
        identity = {"report_sha256": hashlib.sha256(raw).hexdigest(),
                    "svg_sha256": sha256(chart_path)}
        return Step(wall, problems, identity)


WORKLOADS = {cls.name: cls for cls in (ColdCheck, WarmCheck)}


def environment() -> dict:
    """What the numbers depend on: machine, interpreter, libraries, threads."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


@dataclass
class Outcome:
    setups: list[Step] = field(default_factory=list)
    ops: list[Step] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.setups) + len(self.ops)

    @property
    def failed(self) -> int:
        return sum(bool(step.problems) for step in self.setups + self.ops)


def guarded(fn, *args) -> Step:
    """Run one set-up or operation; an exception becomes a failed step.

    Garbage left by the previous step is collected first, outside the timed
    region, so that a collection it triggers is not charged to this step.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception:  # the loop must keep running and count the failure
        return Step(time.perf_counter() - start, [traceback.format_exc()], completed=False)


def log_problems(outcome: Outcome, label: str, step: Step) -> None:
    for problem in step.problems:
        outcome.errors.append(f"{label}: {problem}")
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def under_tracer(tracer: Tracer, phase: str, fn, *args) -> Step:
    """``guarded(fn, *args)`` with the tracer installed; fit spans get kept flags."""
    tracer.phase = phase
    tracer.install()
    try:
        step = guarded(fn, *args)
    finally:
        tracer.uninstall()
    tracer.mark_kept(step.models)
    step.models = ()
    return step


def traced_op(workload: Workload, index: int, tracer: Tracer) -> tuple[Step, Step]:
    """Operation ``index`` run traced and untraced, alternating which goes first."""
    if index % 2:
        step = under_tracer(tracer, f"op:{index}", workload.op, index)
        return step, guarded(workload.op, index)
    plain = guarded(workload.op, index)
    return under_tracer(tracer, f"op:{index}", workload.op, index), plain


def run_setup(workload: Workload, outcome: Outcome, tracer: Tracer | None) -> Step:
    rep = len(outcome.setups)
    if tracer:
        step = under_tracer(tracer, f"setup:{rep}", workload.setup, rep)
    else:
        step = guarded(workload.setup, rep)
    step.models = ()
    log_problems(outcome, f"setup {rep}", step)
    outcome.setups.append(step)
    return step


def run_workload(workload: Workload, seconds: float, tracer: Tracer | None) -> Outcome:
    """Set up, then run operations until they have taken ``seconds``.

    Host speed can change by 1.7x from one few-second stretch to the next, so
    the set-ups after the first are spread over the run: one after each
    operation, and the rest after the last.  Set-ups and operations then meet
    the same changes.
    """
    outcome = Outcome()
    reps = 1 if tracer else workload.setup_reps
    if not run_setup(workload, outcome, tracer).completed:
        return outcome
    busy, index = 0.0, 0
    while busy < seconds:
        if tracer:
            step, plain = traced_op(workload, index, tracer)
            step.problems += plain.problems
            step.problems += mismatch("traced output", step.identity, plain.identity)
            outcome.overheads.append(step.wall - plain.wall)
            busy += plain.wall
        else:
            step = guarded(workload.op, index)
        log_problems(outcome, f"op {index}", step)
        step.models = ()
        outcome.ops.append(step)
        busy += step.wall
        index += 1
        if len(outcome.setups) < reps:
            run_setup(workload, outcome, tracer)
    while len(outcome.setups) < reps:
        run_setup(workload, outcome, tracer)
    return outcome


def end_to_end_metrics(outcome: Outcome) -> dict:
    return {
        "setup_s": statistics.median(s.wall for s in outcome.setups),
        "op_s": statistics.median(s.wall for s in outcome.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_metrics(outcome: Outcome, tracer: Tracer) -> dict:
    metrics = layer_metrics(tracer.spans)
    metrics["trace.op_s"] = statistics.median(s.wall for s in outcome.ops)
    metrics["trace.overhead_s"] = statistics.median(outcome.overheads)
    metrics["trace.covered_share"] = covered_share(
        tracer.spans, "op", sum(s.wall for s in outcome.ops))
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        reference: dict | None = None, out_root: Path = OUT_ROOT) -> dict:
    """Run one workload and return the contract's result object."""
    work = fresh_dir(out_root / f"{name}-seed{seed}-trace{int(trace)}")
    workload = WORKLOADS[name](seed, work / "data", sizes, reference)
    tracer = Tracer() if trace else None
    outcome = run_workload(workload, seconds, tracer)
    if not outcome.ops:
        raise SystemExit(f"{name}: the first set-up raised; no operation ran")
    if tracer:
        metrics = trace_metrics(outcome, tracer)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        tracer.write_jsonl(work / "trace.jsonl")
    else:
        metrics = end_to_end_metrics(outcome)
        units = dict(END_TO_END)
    shutil.rmtree(work / "data", ignore_errors=True)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "config": workload.sizes,
        "setup_walls": [s.wall for s in outcome.setups],
        "op_walls": [s.wall for s in outcome.ops],
        "trace_overheads": outcome.overheads,
        "identities": [s.identity for s in outcome.setups + outcome.ops],
        "errors": outcome.errors,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str))
    return result


def load_reference(name: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(name)


def record_reference() -> None:
    """Write the outputs of one set-up and of each cold sub-seed at the reference seed.

    Report and chart digests are left out: they change with the last bit of
    any number in the report, so a run checks them against its own repeats.
    """
    recorded = {"seed": REFERENCE_SEED}
    for name, cls in WORKLOADS.items():
        work = fresh_dir(OUT_ROOT / f"reference-{name}")
        workload = cls(REFERENCE_SEED, work)
        entry = {"setup": dict(workload.setup(0).identity)}
        for index in range(getattr(cls, "op_seeds", 0)):
            entry[f"op{index}"] = {"fingerprint": workload.op(index).identity["fingerprint"]}
        recorded[name] = entry
        shutil.rmtree(work)
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not Path(evmcontrol.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"evmcontrol imported from {evmcontrol.__file__}, not this checkout")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 reference=load_reference(args.workload, args.seed))
    print("environment: " + json.dumps(environment()))
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} failed_op_share = {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
