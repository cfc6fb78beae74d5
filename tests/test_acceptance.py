"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not calibrated elsewhere.

A3's coarse level, A5 and A7 read the CLI calls on their fixtures that the
fixture pins of test_golden.py hash (conftest.fixture_run): each is made
once per session, and the tests assert on what its study call returned.
"""

import time

import numpy as np
import pytest
from conftest import fixture_config, refined

from stringlab import (DataFamily, Grid1D, ProfileSpec, check_kong_tsuji, criterion_for_family,
                       exact_travelling, higher_order_traces, run_evolution)
from stringlab.config import ExperimentConfig
from stringlab.energy import fit_hierarchy, tracked_run as _single_run, tracked_sweep
from stringlab.evolve import richardson_time
from stringlab.identities import (deformation_check, divergence_identity_study,
                                  energy_balance_study)
from stringlab.manufactured import random_mixture

GAUSS2 = ProfileSpec("gaussian", 1.0, 0.0, 2.0)


def _report(n, name, ok, detail):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print("\n" + line)
    assert ok, line


def test_a1_travelling_wave_exactness():
    t0 = time.time()
    fam = DataFamily(gamma=0.5, delta=0.0, f=GAUSS2, fb=GAUSS2)
    X, T = 24.0, 10.0
    errs = []
    speeds = []
    for n in (512, 1024, 2048):
        grid = Grid1D(-X, 2 * X / (n - 1), n)
        res = run_evolution(fam, grid, t_end=T)
        assert res.status == "completed"
        speeds.append(res.max_speed_seen)
        errs.append(float(np.max(np.abs(res.state.phi - exact_travelling(fam, T, grid.x)))))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    wall = time.time() - t0
    ok = bool(np.all(orders >= 3.5) and errs[-1] <= 1e-7 and wall <= 60.0
              and max(speeds) <= 1.0 + 1e-12)
    _report(1, "travelling-wave exactness", ok,
            f"errors {', '.join(f'{e:.3e}' for e in errs)}; orders "
            f"{', '.join(f'{o:.2f}' for o in orders)}; finest {errs[-1]:.3e} <= 1e-7; "
            f"{wall:.1f}s")


def test_a2_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    div_orders = []
    for side in ("TL", "TLb"):
        study = divergence_identity_study(phi, varphi, side=side)
        div_orders.append(min(study.orders))

    # the default family: gamma = 0.5, delta = 0.1, width-2 unit gaussians
    bal_orders = [min(study.orders) for study in
                  energy_balance_study(ExperimentConfig(), (("TL", -1.0), ("TLb", 1.0)),
                                       Grid1D(-24.0, 0.125, 385), t_end=4.0)]

    worst, worst_trace = deformation_check(seed=2024)
    wall = time.time() - t0
    ok = bool(np.all(np.array(div_orders) >= 1.5) and np.all(np.array(bal_orders) >= 1.5)
              and worst <= 1e-10 and worst_trace <= 1e-13 and wall <= 120.0)
    _report(2, "identity suite", ok,
            f"smallest divergence orders {div_orders[0]:.2f}/{div_orders[1]:.2f}; "
            f"smallest balance orders {bal_orders[0]:.2f}/{bal_orders[1]:.2f}; "
            f"deformation {worst:.2e} <= 1e-10; trace {worst_trace:.2e} <= 1e-13; "
            f"{wall:.1f}s")


@pytest.fixture(scope="module")
def hierarchy_fits(fixture_run):
    fits = []
    # fine (dx = 0.0625, n = 2049) and coarse (dx = 0.125, n = 1025) on
    # [-64, 64]; the coarse sweep is the sweep CLI call on the fixture
    fine = tracked_sweep(refined(fixture_config("a3_sweep")))
    for members, _ in (fine, fixture_run("a3_sweep").study):
        monitors = []
        # the three deltas step in lockstep as one ensemble
        for res, _, mon in members:
            assert res.status == "completed"
            assert res.max_speed_seen <= 1.0 + 1e-12
            monitors.append(mon)
        fits.append(fit_hierarchy(monitors))
    return fits


def test_a3_hierarchy_scaling(hierarchy_fits):
    t0 = time.time()
    fine, coarse = hierarchy_fits
    c1_ratio = fine.c1_bar / coarse.c1_bar
    ok = bool(abs(fine.slope_e2 - 2.0) <= 0.1
              and fine.eb2_variation <= 0.10
              and fine.c1_bar > 0 and coarse.c1_bar > 0
              and 0.5 <= c1_ratio <= 2.0)
    _report(3, "hierarchy scaling", ok,
            f"slope(E2) {fine.slope_e2:.3f} in 2 +- 0.1; Eb2 variation "
            f"{fine.eb2_variation:.2%} <= 10%; C1 {fine.c1_bar:.3e} vs "
            f"{coarse.c1_bar:.3e} (ratio {c1_ratio:.2f} in [0.5, 2])")


def test_a4_global_existence_regime():
    t0 = time.time()
    X, T = 114.0, 100.0
    dx = 0.1
    cfg = ExperimentConfig(x0=-X, dx=dx, n=int(round(2 * X / dx)) + 1, t_end=T,
                           delta=0.05, report_every=50)
    res, reports, mon, _ = _single_run(cfg)
    wall = time.time() - t0
    margins_ok = all(r.agmon_l_margin > 0 and r.agmon_lb_margin > 0 for r in reports)
    ok = bool(res.status == "completed" and mon.min_g >= 0.5 and margins_ok
              and mon.c_l <= 2.0 and mon.c_lb <= 2.0
              and res.max_speed_seen <= 1.0 + 1e-12 and wall <= 300.0)
    _report(4, "global-existence regime", ok,
            f"{res.status} to T={T:g}; min_g={mon.min_g:.3f} >= 0.5; weighted sup "
            f"ratios c_L={mon.c_l:.3f}, c_Lb={mon.c_lb:.3f} <= 2 with fitted "
            f"M2={mon.m2:.3e}; sup-bound margins positive at every output; {wall:.0f}s")


def test_a5_blowup_regime(fixture_run):
    t0 = time.time()
    x = np.linspace(-20, 20, 2001)
    crit = criterion_for_family(fixture_config("a5_blowup").family(), x)
    assert not crit.passed

    # the blowup CLI call on the fixture: dx = 1/32, 1/64 and 1/128 on
    # [-28, 28], and 17 plus-family seeds on [-6, 6] traced on the finest
    run = fixture_run("a5_blowup")
    study = run.study
    assert all(lev.reason is not None for lev in study.levels)
    t_blowups = [lev.t_blowup for lev in study.levels]
    diffs = np.abs(np.diff(t_blowups))
    min_sep, sep0 = study.min_sep, study.initial_sep
    assert sep0 == 0.75
    wall = time.time() - t0 + run.wall
    ok = bool(diffs[1] * 2.0 <= diffs[0] and min_sep <= 0.2 * sep0 and wall <= 300.0)
    _report(5, "blow-up regime", ok,
            f"criterion violated (margin {crit.order_margin:.3f}); detected times "
            f"{', '.join(f'{tb:.5f}' for tb in t_blowups)} -> t* = "
            f"{richardson_time(t_blowups):.5f}; diffs shrink {diffs[0]:.4f} -> "
            f"{diffs[1]:.4f} (>= 2x); plus-family separation {sep0:.3f} -> "
            f"{min_sep:.3e}; {wall:.0f}s")


def test_a6_criterion_oracle():
    rng = np.random.default_rng(99)
    exact = 0
    for _ in range(200):
        n = int(rng.integers(2, 60))
        lo = rng.uniform(-1, 1, n)
        hi = rng.uniform(-1, 1, n)
        rep = check_kong_tsuji(lo, hi)
        brute = min(hi[j] - lo[i] for j in range(n) for i in range(j + 1))
        exact += int(rep.order_margin == brute)
    ok = exact == 200
    _report(6, "criterion oracle", ok,
            f"prefix-max scan equals brute force on {exact}/200 random sequences")


def test_a7_trace_induction(fixture_run):
    t0 = time.time()
    # the tracecheck CLI call on the fixture: the default family on
    # [-16, 16] at dx = 0.1 and 0.05; per level, the worst relative
    # discrepancy over the rows of total order <= 3
    study = fixture_run("a7_tracecheck").study
    discrepancies = study.gate.values
    # the order-4 tables of both levels; the study keeps level 0's
    coarse = fixture_config("a7_tracecheck")
    den_mins = [study.table.den_min,
                higher_order_traces(coarse.family(), 4, refined(coarse).grid().x).den_min]
    order = float(np.log2(discrepancies[0] / discrepancies[1]))
    # other admissible families keep the denominator floor too
    for fam2 in (fixture_config("a5_blowup").family(),
                 DataFamily(0.3, 0.2, ProfileSpec("polynomial-gaussian", 0.8, 1.0, 1.5),
                            ProfileSpec("bump", 1.5, -1.0, 3.0))):
        x = np.linspace(-20, 20, 1001)
        den_mins.append(higher_order_traces(fam2, 3, x).den_min)
    wall = time.time() - t0
    ok = bool(order >= 1.5 and all(d >= 4.0 for d in den_mins))
    _report(7, "trace induction", ok,
            f"table vs solver time-differences: {discrepancies[0]:.3e} -> "
            f"{discrepancies[1]:.3e} (order {order:.2f}, dt^2 dominated); "
            f"denominator >= 4 on all tested families "
            f"(min {min(den_mins):.6f}); {wall:.0f}s")


def test_a8_causality_and_speed():
    t0 = time.time()
    fam = DataFamily(gamma=0.5, delta=0.1, f=GAUSS2, fb=GAUSS2)
    dx = 0.05
    big = Grid1D(-40.0, dx, 1601)
    small = Grid1D(-25.0, dx, 1001)
    rb = run_evolution(fam, big, t_end=5.0)
    rs = run_evolution(fam, small, t_end=5.0)
    speeds_ok = max(rb.max_speed_seen, rs.max_speed_seen) <= 1.0 + 1e-12
    mask = np.abs(small.x) <= 25.0 - 7.0
    off = int(round((small.x0 - big.x0) / dx))
    idx = np.arange(small.n)[mask] + off
    dis = max(float(np.max(np.abs(rs.state.w[mask] - rb.state.w[idx]))),
              float(np.max(np.abs(rs.state.p[mask] - rb.state.p[idx]))),
              float(np.max(np.abs(rs.state.phi[mask] - rb.state.phi[idx]))))
    wall = time.time() - t0
    ok = bool(speeds_ok and dis <= 1e-9)
    _report(8, "causality and speed bound", ok,
            f"max|lambda| - 1 = {max(rb.max_speed_seen, rs.max_speed_seen) - 1:.2e} "
            f"<= 1e-12; nested-domain interior agreement {dis:.2e} <= 1e-9; {wall:.0f}s")
