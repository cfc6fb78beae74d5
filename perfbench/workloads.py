"""The three benchmark workloads: the stringlab CLI calls one repetition
makes, and the checks its outputs must pass.

Each workload is a list of ``(mode, config text)`` calls plus a check that
reads the CSVs and captured stdout of those calls.  ``hierarchy_sweep`` and
``blowup_refine`` are fixed fixtures (the seed does not change them);
``identity_suite`` draws its ``verify`` seeds from the workload seed.
"""

from __future__ import annotations

import csv
import math
import random
import re
from pathlib import Path

# Coarse level of acceptance criterion A3: three equal-size members, each
# driving the EnergyTracker callback on every step.
HIERARCHY_SWEEP = """\
mode = sweep
x0 = -64
dx = 0.125
n = 1025
t_end = 50
report_every = 50
deltas = 0.1, 0.05, 0.025
"""

# Acceptance criterion A5: three refinement levels of one large grid, the
# finest with stored history for characteristic tracing; no tracker.
BLOWUP_REFINE = """\
mode = blowup
x0 = -28
dx = 0.03125
n = 1793
t_end = 12
delta = 1
f_kind = gaussian
f_amplitude = 2.4
f_center = 4
f_width = 1
fb_kind = gaussian
fb_amplitude = 2.4
fb_center = -4
fb_width = 1
"""

# Coarse level of acceptance criterion A7.
TRACECHECK = """\
mode = tracecheck
x0 = -16
dx = 0.1
n = 321
t_end = 1
N = 4
"""

VERIFY_SEEDS_PER_REP = 3

# Outputs of the unmodified package on these inputs.  The drift from them is
# a diagnostic (check.max_rel_drift), never a pass/fail gate.
STORED = {
    "hierarchy_sweep": {
        "slope_E2": 2.0079977297833032,
        "eb2_variation": 0.052024266684751908,
        "C1_bar": 0.32318212759929227,
    },
    "blowup_refine": {
        "t_blowup_0": 3.9375000000000222,
        "t_blowup_1": 3.9187500000000388,
        "t_blowup_2": 3.9124999999999113,
        "min_separation": 0.089403477588626504,
    },
    "identity_suite": {
        "tracecheck_order": 2.044090308512032,
        "den_min": 4.0,
        "energy_balance_plus_order": 2.031184286664951,
        "energy_balance_minus_order": 2.0125152349694018,
    },
}


def verify_seeds(seed: int) -> list[int]:
    """Distinct verify seeds drawn from the workload seed."""
    return random.Random(seed).sample(range(100_000), VERIFY_SEEDS_PER_REP)


def calls(workload: str, seed: int) -> list[tuple[str, str]]:
    if workload == "hierarchy_sweep":
        return [("sweep", HIERARCHY_SWEEP)]
    if workload == "blowup_refine":
        return [("blowup", BLOWUP_REFINE)]
    if workload == "identity_suite":
        out = [("verify", f"mode = verify\nseed = {s}\n") for s in verify_seeds(seed)]
        return out + [("tracecheck", TRACECHECK)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("hierarchy_sweep", "blowup_refine", "identity_suite")


class CheckFailed(Exception):
    pass


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _check_sweep(results):
    (out, _), = results
    fit = _rows(out / "hierarchy.csv")[0]
    nums = {k: float(fit[k]) for k in ("slope_E2", "eb2_variation", "C1_bar")}
    _require(abs(nums["slope_E2"] - 2.0) <= 0.1, f"slope_E2 {nums['slope_E2']} not in 2 +- 0.1")
    _require(nums["eb2_variation"] <= 0.10, f"Eb2 variation {nums['eb2_variation']} > 10%")
    _require(nums["C1_bar"] > 0, f"C1_bar {nums['C1_bar']} not positive")
    return nums


def _check_blowup(results):
    (out, _), = results
    times = [float(r["t_blowup"]) for r in _rows(out / "blowup.csv")]
    _require(len(times) == 3 and all(math.isfinite(t) for t in times),
             f"expected 3 detected blow-up times, got {times}")
    d0, d1 = abs(times[1] - times[0]), abs(times[2] - times[1])
    _require(2.0 * d1 <= d0, f"blow-up time differences do not shrink 2x: {d0} -> {d1}")
    summary = _rows(out / "blowup_summary.csv")[0]
    sep, sep0 = float(summary["min_separation"]), float(summary["initial_separation"])
    _require(sep <= 0.2 * sep0, f"plus-family separation {sep} > 0.2 x {sep0}")
    nums = {f"t_blowup_{i}": t for i, t in enumerate(times)}
    nums["min_separation"] = sep
    return nums


_VERIFY_LINE = re.compile(r"^verify: (\S+): (pass|FAIL)$", re.M)
_DEN_MIN = re.compile(r"induction denominator min ([0-9.eE+-]+)")


def _check_identities(results):
    nums = {}
    *verifies, (tc_out, tc_stdout) = results
    for out, stdout in verifies:
        states = _VERIFY_LINE.findall(stdout)
        _require(bool(states), "verify printed no identity lines")
        failed = [name for name, state in states if state != "pass"]
        _require(not failed, f"identities failed: {failed}")
        for row in _rows(out / "identities.csv"):
            if row["identity"].startswith("energy_balance") and row["order"]:
                nums[f"{row['identity']}_order"] = float(row["order"])
    worst = {}
    for row in _rows(tc_out / "tracecheck.csv"):
        lvl = int(row["level"])
        worst[lvl] = max(worst.get(lvl, 0.0), float(row["discrepancy"]))
    order = math.log2(worst[0] / worst[1])
    _require(order >= 1.5, f"tracecheck order {order} < 1.5")
    match = _DEN_MIN.search(tc_stdout)
    _require(match is not None, "tracecheck printed no induction denominator")
    den_min = float(match.group(1))
    _require(den_min >= 4.0, f"induction denominator {den_min} < 4")
    nums["tracecheck_order"] = order
    nums["den_min"] = den_min
    return nums


_CHECKS = {"hierarchy_sweep": _check_sweep, "blowup_refine": _check_blowup,
           "identity_suite": _check_identities}


def check(workload: str, results) -> dict:
    """Check one repetition.  results holds (out dir, captured stdout) per
    call, in call order.  Returns the checked numbers; raises CheckFailed
    (or OSError, LookupError, ValueError or ZeroDivisionError on missing or
    malformed output)."""
    return _CHECKS[workload](results)


def max_rel_drift(workload: str, nums: dict) -> float:
    stored = STORED[workload]
    return max(abs(nums[k] - v) / abs(v) for k, v in stored.items())
