"""Tests of the benchmark itself (not of stringlab).

Run from the repository root:

    python3 -m pytest -q perfbench/tests

The module fixture runs every workload once untraced and once traced
(about a minute on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    saved = bench.WORK
    bench.WORK = work
    try:
        yield {w: bench.run(w, seed=5, seconds=1, trace=True) for w in workloads.WORKLOADS}
    finally:
        bench.WORK = saved


def _csvs(outs):
    return {(out.name, p.name): p.read_bytes() for out in outs for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_writes_identical_csvs(traced_runs, workload):
    res = traced_runs[workload]
    assert res["correct"], res["errors"]
    plain = _csvs(res["reps"][False][0]["outs"])
    traced = _csvs(res["reps"][True][0]["outs"])
    assert plain and plain == traced


def test_every_wrapped_layer_is_called(traced_runs):
    called = set()
    for res in traced_runs.values():
        layers = res["reps"][True][0]["trace"]["layers"]
        called |= {name for name, st in layers.items() if st["calls"] > 0}
    assert {name for name, _, _ in tracer.TARGETS} <= called


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_experiment_time(traced_runs, workload):
    rep = traced_runs[workload]["reps"][True][0]
    assert rep["trace"]["self_sum_s"] == pytest.approx(rep["experiment_s"], rel=0.03)


def test_tracker_runs_only_in_the_sweep(traced_runs):
    def on_step_calls(w):
        layers = traced_runs[w]["reps"][True][0]["trace"]["layers"]
        return layers.get("energy.EnergyTracker.on_step", {}).get("calls", 0)

    assert on_step_calls("hierarchy_sweep") > 0
    assert on_step_calls("blowup_refine") == 0
    assert on_step_calls("identity_suite") == 0


def test_install_patches_every_binding_site():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import stringlab.cli, tracer\n"
        "from stringlab import energy, evolve, stencils\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "assert evolve.deriv1 is energy.deriv1 is stencils.deriv1\n"
        "assert hasattr(stencils.deriv1, '__wrapped__')\n"
        "assert stringlab.cli.run_evolution is evolve.run_evolution\n"
        "assert stringlab.run_evolution is evolve.run_evolution\n"
        "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_self_time_subtracts_child_coverage():
    t = tracer.Tracer()
    t.name_id("outer")
    t.name_id("inner")
    # outer [0, 10] with children [1, 3] and [4, 8]; inner nested in inner
    t.span_name[:] = [0, 1, 1, 1]
    t.span_parent[:] = [-1, 0, 0, 2]
    t.span_nested[:] = [False, False, False, True]
    t.span_start[:] = [0.0, 1.0, 4.0, 5.0]
    t.span_end[:] = [10.0, 3.0, 8.0, 6.0]
    s = t.summary(since=0.0)
    assert s["layers"]["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert s["layers"]["inner"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    assert s["self_sum_s"] == 10.0


def test_sweep_check_rejects_a_wrong_slope(tmp_path):
    (tmp_path / "hierarchy.csv").write_text(
        "slope_E2,slope_Eb2,eb2_variation,M2,C1_bar,C1\n2.5,0,0.05,40,0.3,0.01\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.check("hierarchy_sweep", [(tmp_path, "")])


def test_identity_check_rejects_a_failed_identity(tmp_path):
    verify = tmp_path / "v"
    verify.mkdir()
    (verify / "identities.csv").write_text("identity,level,dx,residual,order\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.check("identity_suite",
                        [(verify, "verify: divergence_TL: FAIL\n"), (tmp_path, "")])


def test_verify_seeds_follow_the_workload_seed():
    assert workloads.verify_seeds(3) == workloads.verify_seeds(3)
    assert workloads.verify_seeds(3) != workloads.verify_seeds(4)
    assert workloads.calls("blowup_refine", 3) == workloads.calls("blowup_refine", 4)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_result_line_format():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "identity_suite",
                          "--seed", "2", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {name for name, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blowup_refine",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
