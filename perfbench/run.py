"""stringlab benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload hierarchy_sweep --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh child interpreter (``child.py``), one at a
time, against the package source in ``src/``.  A repetition fails on an
unexpected exit code, a crash, or a failed output check.  Repetitions start
while the next one is expected to finish inside ``--seconds``; at least one
always runs.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Every
repetition's CSV outputs must be byte-identical, traced or not.

The last line of stdout is the JSON result; the lines before it show each
metric with its unit and sample count, and the environment.  Work files go
to ``.perfbench_out/<workload>/`` and are replaced by the next run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

END_TO_END = (("experiment_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# (metric, unit, layer, stat) read from the traced repetitions' summaries;
# stat "count" reads a boundary count instead of a span statistic.
LAYER_STATS = (
    ("evolve.run_evolution.total_s", "s", "evolve.run_evolution", "total_s"),
    ("evolve.step.calls", "count", "evolve.step", "calls"),
    ("evolve.step.self_s", "s", "evolve.step", "self_s"),
    ("evolve.max_speed.total_s", "s", "evolve.max_speed", "total_s"),
    ("evolve.trace_characteristics.total_s", "s", "evolve.trace_characteristics", "total_s"),
    ("evolve.trace_characteristics.self_s", "s", "evolve.trace_characteristics", "self_s"),
    ("evolve.point_steps", "count", "evolve.point_steps", "count"),
    ("evolve.history_mb", "MB", "evolve.history_mb", "count"),
    ("stencils.deriv1.calls", "count", "stencils.deriv1", "calls"),
    ("stencils.deriv1.total_s", "s", "stencils.deriv1", "total_s"),
    ("stencils.deriv1.mb", "MB", "stencils.deriv1.mb", "count"),
    ("stencils.ko_dissipation.calls", "count", "stencils.ko_dissipation", "calls"),
    ("stencils.ko_dissipation.total_s", "s", "stencils.ko_dissipation", "total_s"),
    ("stencils.ko_dissipation.mb", "MB", "stencils.ko_dissipation.mb", "count"),
    ("stencils.cubic_interp.calls", "count", "stencils.cubic_interp", "calls"),
    ("stencils.cubic_interp.total_s", "s", "stencils.cubic_interp", "total_s"),
    ("energy.EnergyTracker.on_step.calls", "count", "energy.EnergyTracker.on_step", "calls"),
    ("energy.EnergyTracker.on_step.self_s", "s", "energy.EnergyTracker.on_step", "self_s"),
    ("energy.EnergyTracker.on_step.total_s", "s", "energy.EnergyTracker.on_step", "total_s"),
    ("energy.null_rows.calls", "count", "energy.null_rows", "calls"),
    ("energy.null_rows.total_s", "s", "energy.null_rows", "total_s"),
    ("energy.build_tower.total_s", "s", "energy.build_tower", "total_s"),
    ("energy.energy_orders.total_s", "s", "energy.energy_orders", "total_s"),
    ("identities.divergence_identity_study.total_s", "s",
     "identities.divergence_identity_study", "total_s"),
    ("identities.deformation_check.total_s", "s", "identities.deformation_check", "total_s"),
    ("identities.equivalence_ratios.total_s", "s", "identities.equivalence_ratios", "total_s"),
    ("identities.energy_balance_study.total_s", "s", "identities.energy_balance_study", "total_s"),
    ("identities.BalanceAccumulator.on_step.self_s", "s",
     "identities.BalanceAccumulator.on_step", "self_s"),
    ("identities.BalanceAccumulator.finalize.total_s", "s",
     "identities.BalanceAccumulator.finalize", "total_s"),
    ("initialdata.criterion_for_family.total_s", "s",
     "initialdata.criterion_for_family", "total_s"),
    ("initialdata.higher_order_traces.calls", "count", "initialdata.higher_order_traces", "calls"),
    ("initialdata.higher_order_traces.total_s", "s", "initialdata.higher_order_traces", "total_s"),
    ("manufactured.d.calls", "count", "manufactured.d", "calls"),
    ("manufactured.d.total_s", "s", "manufactured.d", "total_s"),
    ("nullgeom.weight_a.calls", "count", "nullgeom.weight_a", "calls"),
    ("nullgeom.weight_a.total_s", "s", "nullgeom.weight_a", "total_s"),
    ("profiles.profile_derivative.calls", "count", "profiles.profile_derivative", "calls"),
    ("profiles.profile_derivative.total_s", "s", "profiles.profile_derivative", "total_s"),
    ("config.parse_config.total_s", "s", "config.parse_config", "total_s"),
    ("cli.cmd_sweep.self_s", "s", "cli.cmd_sweep", "self_s"),
    ("cli.cmd_blowup.self_s", "s", "cli.cmd_blowup", "self_s"),
    ("cli.cmd_verify.self_s", "s", "cli.cmd_verify", "self_s"),
    ("cli.cmd_tracecheck.self_s", "s", "cli.cmd_tracecheck", "self_s"),
)

# Derived per-layer metrics, computed in layer_metrics().
DERIVED = (
    ("energy.null_rows.levels_per_step", "ratio"),
    ("trace.experiment_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_coverage", "ratio"),
    ("trace.spans", "count"),
    ("check.fail_frac", "ratio"),
    ("check.max_rel_drift", "ratio"),
)

PER_LAYER = tuple((m, u) for m, u, _, _ in LAYER_STATS) + DERIVED


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(rep_dir: Path, calls, trace: bool, run_calls: bool = True) -> dict:
    """Run one child to completion; returns its result, or raises BenchError
    when the child exits non-zero or writes no result.  With run_calls
    false the child only parses the configs, to measure set-up."""
    rep_dir.mkdir(parents=True)
    call_specs = []
    for i, (mode, cfg_text) in enumerate(calls):
        cfg = rep_dir / f"{i}_{mode}.cfg"
        cfg.write_text(cfg_text)
        call_specs.append({"mode": mode, "config": str(cfg), "out": str(rep_dir / f"{i}_{mode}")})
    spec_path = rep_dir / "spec.json"
    result_path = rep_dir / "result.json"
    spec = {"src": str(SRC), "trace": trace, "calls": call_specs, "run_calls": run_calls,
            "result": str(result_path)}
    with open(rep_dir / "stderr.txt", "w") as err:
        spec["t_spawn"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s ({rep_dir})") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not result_path.exists():
        tail = (rep_dir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"child exited with code {rc} ({rep_dir}):\n{tail}")
    result = json.loads(result_path.read_text())
    result["outs"] = [Path(c["out"]) for c in call_specs]
    return result


def csv_digest(outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        for path in sorted(out.glob("*.csv")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def evaluate(workload: str, result: dict) -> tuple[bool, dict, str]:
    """Exit codes and output checks of one repetition."""
    for call, out in zip(result["calls"], result["outs"]):
        if call["rc"] != 0:
            return False, {}, f"{out.name} exited with code {call['rc']}"
    try:
        nums = workloads.check(workload, [(out, c["stdout"]) for out, c
                                          in zip(result["outs"], result["calls"])])
    except (workloads.CheckFailed, OSError, LookupError, ValueError,
            ZeroDivisionError) as exc:
        return False, {}, f"check failed: {exc}"
    return True, nums, ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the repository at ROOT, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "stringlab" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'stringlab'}")
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    calls = workloads.calls(workload, seed)

    # Untimed warm-up: compiles bytecode and fills the file cache, which an
    # installed package has already paid for.
    warm = spawn(run_dir / "warmup", calls, False, False)
    env = {"workload": workload, "seed": seed, "trace": int(trace),
           "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
           "source_sha256": source_digest(), **warm["versions"],
           "fixture": "seeded" if workload == "identity_suite" else "fixed"}

    kinds = (False, True) if trace else (False,)
    reps = {k: [] for k in kinds}
    walls = {k: [] for k in kinds}
    attempted = failed = 0
    errors, drifts, digests = [], [], set()
    deadline = time.monotonic() + seconds
    for n in itertools.count():
        kind = kinds[n % len(kinds)]
        if n >= len(kinds) and time.monotonic() + max(walls[kind]) > deadline:
            break
        t0 = time.monotonic()
        attempted += 1
        result = None
        try:
            result = spawn(run_dir / f"rep{n}", calls, kind)
            ok, nums, why = evaluate(workload, result)
        except BenchError as exc:
            ok, why = False, str(exc)
        walls[kind].append(time.monotonic() - t0)
        if result is not None:
            digests.add(csv_digest(result["outs"]))
        if ok:
            reps[kind].append(result)
            drifts.append(workloads.max_rel_drift(workload, nums))
        else:
            failed += 1
            errors.append(why)
    if not all(reps.values()):
        raise BenchError("no repetition of some kind succeeded:\n" + "\n".join(errors))

    setups = [r["setup_s"] for r in reps[False]]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(run_dir / f"setup{len(setups)}", calls, False, False)["setup_s"])

    deterministic = len(digests) <= 1
    if not deterministic:
        errors.append(f"CSV outputs differ between repetitions ({len(digests)} variants)")
    return {"env": env, "reps": reps, "setups": setups, "attempted": attempted,
            "failed": failed, "errors": errors, "drift": max(drifts),
            "correct": failed == 0 and deterministic}


def end_to_end_metrics(res: dict) -> dict:
    untraced = res["reps"][False]
    samples = {
        "experiment_s": [r["experiment_s"] for r in untraced],
        "setup_s": res["setups"],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    return {name: (samples[name], unit) for name, unit in END_TO_END}


def layer_metrics(res: dict) -> dict:
    traced = res["reps"][True]
    untraced = res["reps"][False]

    def stat(summary, layer, key):
        if key == "count":
            return summary["counts"].get(layer, 0.0)
        return summary["layers"].get(layer, {}).get(key, 0)

    out = {}
    for name, unit, layer, key in LAYER_STATS:
        out[name] = ([stat(r["trace"], layer, key) for r in traced], unit)
    levels = [stat(r["trace"], "energy.null_rows.levels_in_on_step", "count") for r in traced]
    steps = [stat(r["trace"], "energy.EnergyTracker.on_step", "calls") for r in traced]
    traced_s = [r["experiment_s"] for r in traced]
    derived = {
        "energy.null_rows.levels_per_step": [lv / st if st else 0.0
                                             for lv, st in zip(levels, steps)],
        "trace.experiment_s": traced_s,
        "trace.overhead_s": [statistics.median(traced_s)
                             - statistics.median([r["experiment_s"] for r in untraced])],
        "trace.self_coverage": [r["trace"]["self_sum_s"] / r["experiment_s"] for r in traced],
        "trace.spans": [r["trace"]["spans"] for r in traced],
        "check.fail_frac": [res["failed"] / res["attempted"]],
        "check.max_rel_drift": [res["drift"]],
    }
    for name, unit in DERIVED:
        out[name] = (derived[name], unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = layer_metrics(res) if args.trace else end_to_end_metrics(res)
    print(f"perfbench {args.workload}: " + json.dumps(res["env"]))
    for err in res["errors"]:
        print(f"error: {err}")
    for name, (values, unit) in metrics.items():
        lo, hi = quartiles(values)
        print(f"{name:48s} {statistics.median(values):14.6g} {unit:6s} n={len(values)} "
              f"q1={lo:.6g} q3={hi:.6g}")
    if not args.trace:
        print(f"{'fail_frac':48s} {res['failed'] / res['attempted']:14.6g} ratio  "
              f"({res['failed']}/{res['attempted']} repetitions failed)")
        print(f"{'check.max_rel_drift':48s} {res['drift']:14.6g} ratio")
    (WORK / args.workload / "run.json").write_text(json.dumps(
        {"env": res["env"], "errors": res["errors"],
         "metrics": {k: {"values": v, "unit": u} for k, (v, u) in metrics.items()},
         "layers": [r["trace"]["layers"] for r in res["reps"].get(True, [])]}, indent=1))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": statistics.median(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
