"""Command-line driver: deterministic experiment runs emitting CSV.

Modes
-----
run         criterion check, evolve to t_end, energy/monitor CSV.
            Exit 0 when no blow-up and all monitors pass, 2 on blow-up,
            1 on error or failed monitor.
sweep       one run per delta in `deltas`; emits per-delta sups and the
            fitted hierarchy slopes/constants.  Deltas with equal dt step
            in lockstep as one ensemble.
converge    3-level refinement against the exact travelling-wave solution
            (requires delta = 0).
blowup      3-level refinement of the detected blow-up time plus
            characteristic focusing, traced while the finest level runs;
            stderr names each level's blow-up time and reason.
verify      manufactured-field identity suite (divergence, deformation,
            trace, equivalence band, energy balance); exit 1 names the
            failing identity.
tracecheck  inductive t=0 trace table against tower time differences of the
            evolved solution under dt refinement.

CSV schemas (all files carry a header row; floats use repr-precision %.17g):
  energy.csv      t,k,E2,Eb2,F2_u<u0>...,Fb2_ub<ub0>...,min_g,
                  sobolev_L_margin,sobolev_Lb_margin
  criterion.csv   x,lambda_minus,lambda_plus
  criterion_summary.csv  lam_star_lo,lam_star_hi,gap_min,order_margin,passed
  monitor.csv     delta,sup_E2,sup_Eb2,sup_F2,sup_Fb2,M2,c_L,c_Lb,
                  agmon_L_margin,agmon_Lb_margin,min_g
  sweep.csv       monitor.csv schema, one row per delta
  hierarchy.csv   slope_E2,slope_Eb2,eb2_variation,M2,C1_bar,C1
  converge.csv    level,n,dx,err_inf,order
  blowup.csv      level,n,dx,t_blowup
  blowup_summary.csv  t_star,criterion_passed,min_separation,initial_separation
  identities.csv  identity,level,dx,residual,order
  tracecheck.csv  k1,k2,level,dx,dt,discrepancy,order
  fields.csv      t,x,phi,w,p   (with dump_fields = 1)

Same config and seed give byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import energy as en
from . import identities as ident
from .config import ExperimentConfig, parse_config, validate_config
from .errors import StringLabError, ValidationError
from .evolve import (CharacteristicTracer, Grid1D, exact_travelling, init_state,
                     richardson_time, run_evolution)
from .initialdata import criterion_for_family, higher_order_traces
from .manufactured import MovingGaussian, ZeroField, random_mixture

_g = "{:.17g}".format


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return _g(float(v))
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def _grid(cfg) -> Grid1D:
    return Grid1D(cfg.x0, cfg.dx, cfg.n)


def _energy_csv(path, cfg, reports):
    header = ["t", "k", "E2", "Eb2"]
    header += [f"F2_u{u0:g}" for u0 in cfg.probes_u]
    header += [f"Fb2_ub{ub0:g}" for ub0 in cfg.probes_ub]
    header += ["min_g", "sobolev_L_margin", "sobolev_Lb_margin"]
    rows = []
    for rep in reports:
        for k in range(cfg.N + 1):
            row = [rep.t, k, rep.e2[k], rep.eb2[k]]
            row += [rep.f2[i, k] for i in range(len(cfg.probes_u))]
            row += [rep.fb2[i, k] for i in range(len(cfg.probes_ub))]
            row += [rep.min_g, rep.agmon_l_margin, rep.agmon_lb_margin]
            rows.append(row)
    _write_csv(path, header, rows)


def _monitor_row(mon):
    return [mon.delta, mon.sup_e2, mon.sup_eb2, mon.sup_f2, mon.sup_fb2,
            mon.m2, mon.c_l, mon.c_lb, mon.agmon_l_margin, mon.agmon_lb_margin,
            mon.min_g]


_MONITOR_HEADER = ["delta", "sup_E2", "sup_Eb2", "sup_F2", "sup_Fb2", "M2",
                   "c_L", "c_Lb", "agmon_L_margin", "agmon_Lb_margin", "min_g"]


def _monitors_pass(cfg, mon):
    ok = mon.min_g > cfg.gmin
    # Agmon bounds are theorems up to quadrature noise
    scale = np.sqrt(max(mon.sup_eb2, mon.sup_e2, 1e-30))
    ok &= mon.agmon_l_margin > -1e-6 * scale
    ok &= mon.agmon_lb_margin > -1e-6 * scale
    # with the fitted M the weighted sups obey the embedding cap
    if cfg.delta != 0.0:
        ok &= mon.c_l <= 2.0
    ok &= mon.c_lb <= 2.0
    return bool(ok)


def cmd_run(cfg, out: Path) -> int:
    fam = cfg.family()
    grid = _grid(cfg)
    crit = criterion_for_family(fam, grid.x)
    _write_csv(out / "criterion.csv", ["x", "lambda_minus", "lambda_plus"],
               zip(grid.x, crit.lambda_minus, crit.lambda_plus))
    _write_csv(out / "criterion_summary.csv",
               ["lam_star_lo", "lam_star_hi", "gap_min", "order_margin", "passed"],
               [[crit.lam_star_lo, crit.lam_star_hi, crit.gap_min,
                 crit.order_margin, int(crit.passed)]])
    print(f"criterion: {'pass' if crit.passed else 'FAIL'} "
          f"(gap {crit.gap_min:.3e}, ordering margin {crit.order_margin:.3e})")

    tracker = en.config_tracker(cfg)
    result, reports, mon = en.tracked_run(cfg, fam, grid, tracker=tracker)
    _energy_csv(out / "energy.csv", cfg, reports)
    left = tracker.truncated_probes()
    if left:
        print("stringlab: warning: flux probe lines left the grid and stopped "
              f"accumulating: {', '.join(left)}", file=sys.stderr)
    if cfg.dump_fields:
        st0, st1 = init_state(fam, grid), result.state
        rows = [[s.t, xi, ph, wv, pv] for s in (st0, st1)
                for xi, ph, wv, pv in zip(grid.x, s.phi, s.w, s.p)]
        _write_csv(out / "fields.csv", ["t", "x", "phi", "w", "p"], rows)
    if result.status == "blowup":
        print(f"blow-up detected at t = {result.t_blowup:.6g} ({result.blowup_reason})")
        return 2
    _write_csv(out / "monitor.csv", _MONITOR_HEADER, [_monitor_row(mon)])
    ok = _monitors_pass(cfg, mon)
    print(f"run complete: t_end={cfg.t_end:g}, min_g={mon.min_g:.4f}, "
          f"max|lambda|={result.max_speed_seen:.12f}, M2={mon.m2:.4e}, "
          f"monitors {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_sweep(cfg, out: Path) -> int:
    if len(cfg.deltas) < 3:
        raise ValidationError("sweep needs at least 3 delta values")
    monitors = [mon for _, _, mon in en.tracked_sweep(cfg, _grid(cfg), cfg.deltas)]
    _write_csv(out / "sweep.csv", _MONITOR_HEADER, [_monitor_row(m) for m in monitors])
    fit = en.fit_hierarchy(monitors)
    _write_csv(out / "hierarchy.csv",
               ["slope_E2", "slope_Eb2", "eb2_variation", "M2", "C1_bar", "C1"],
               [[fit.slope_e2, fit.slope_eb2, fit.eb2_variation, fit.m2,
                 fit.c1_bar, fit.c1]])
    print(f"sweep: slope(E2)={fit.slope_e2:.3f} (expect 2), "
          f"slope(Eb2)={fit.slope_eb2:.3f} (expect 0), "
          f"Eb2 variation={fit.eb2_variation:.3%}, C1_bar={fit.c1_bar:.3e}, C1={fit.c1:.3e}")
    return 0


def cmd_converge(cfg, out: Path) -> int:
    if cfg.delta != 0.0:
        raise ValidationError("converge mode needs the travelling-wave oracle: set delta = 0")
    fam = cfg.family()
    rows = []
    errs = []
    grid = _grid(cfg)
    for level in range(3):
        res = run_evolution(fam, grid, t_end=cfg.t_end, cfl=cfg.cfl,
                            eps_ko=cfg.eps_ko, gmin=cfg.gmin)
        err = float(np.max(np.abs(res.state.phi - exact_travelling(fam, res.state.t, grid.x))))
        errs.append(err)
        order = "n/a"
        if level > 0 and errs[level] > 0 and errs[level - 1] > 0:
            order = np.log2(errs[level - 1] / errs[level])
        rows.append([level, grid.n, grid.dx, err, order])
        grid = grid.refined()
    _write_csv(out / "converge.csv", ["level", "n", "dx", "err_inf", "order"], rows)
    orders = [r[4] for r in rows[1:] if r[4] != "n/a"]
    print("converge: errors", ", ".join(f"{e:.3e}" for e in errs),
          "orders", ", ".join(f"{o:.2f}" for o in orders) if orders else "n/a")
    return 0


def cmd_blowup(cfg, out: Path) -> int:
    fam = cfg.family()
    grid = _grid(cfg)
    crit = criterion_for_family(fam, grid.x)
    print(f"criterion: {'pass' if crit.passed else 'FAIL (blow-up data)'} "
          f"(ordering margin {crit.order_margin:.3e})")
    # adjacent plus-family characteristics through the collision, traced on
    # the finest level while it runs
    half = max(abs(fam.f.center), abs(fam.fb.center)) + 2.0 * max(fam.f.width, fam.fb.width)
    seeds = np.linspace(-half, half, 17)
    tracer = CharacteristicTracer(seeds, family="plus")
    rows = []
    t_blowups = []
    for level in range(3):
        res = run_evolution(fam, grid, t_end=cfg.t_end, cfl=cfg.cfl,
                            eps_ko=cfg.eps_ko, gmin=cfg.gmin,
                            callbacks=[tracer] if level == 2 else ())
        tb = res.t_blowup if res.status == "blowup" else float("nan")
        rows.append([level, grid.n, grid.dx, tb])
        t_blowups.append(tb)
        what = (f"t_blowup = {tb:.6g}, {res.blowup_reason}" if res.status == "blowup"
                else f"no blow-up up to t_end = {cfg.t_end:g}")
        print(f"stringlab: blowup level {level}: n = {grid.n}, {what}", file=sys.stderr)
        grid = grid.refined()
    _write_csv(out / "blowup.csv", ["level", "n", "dx", "t_blowup"], rows)
    if any(np.isnan(tb) for tb in t_blowups):
        print("blowup: no blow-up detected on some level")
        return 1
    t_star = richardson_time(t_blowups)
    _, min_sep = tracer.finish()
    sep0 = float(seeds[1] - seeds[0])
    _write_csv(out / "blowup_summary.csv",
               ["t_star", "criterion_passed", "min_separation", "initial_separation"],
               [[t_star, int(crit.passed), min_sep, sep0]])
    print(f"blowup: t = {', '.join(f'{tb:.5f}' for tb in t_blowups)} -> t* = {t_star:.5f}; "
          f"plus-family separation {sep0:.3f} -> {min_sep:.2e}")
    return 0


def cmd_verify(cfg, out: Path) -> int:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = []

    # divergence identity: flat background, constant null multiplier, exact
    flat = ident.divergence_identity_study(
        ZeroField(), MovingGaussian(0.7, 0.0, 1.3, 1.0), gamma=cfg.gamma,
        side=("const", 1.0, 0.0), hs=(0.05,))
    _collect(rows, flat)
    if flat.residuals[0] > 1e-12:
        failures.append("divergence_const")

    # divergence identity: curved background, both multipliers, refinement
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    for side in ("TL", "TLb"):
        study = ident.divergence_identity_study(phi, varphi, gamma=cfg.gamma, side=side)
        _collect(rows, study)
        if study.observed_order < 1.5:
            failures.append(study.identity)

    # deformation closed forms and the trace identity
    worst, worst_trace = ident.deformation_check(seed=cfg.seed, gamma=cfg.gamma)
    rows.append(["deformation_closed_vs_direct", 0, 0.0, worst, ""])
    rows.append(["trace_identity", 0, 0.0, worst_trace, ""])
    if worst > 1e-10:
        failures.append("deformation_closed_vs_direct")
    if worst_trace > 1e-13:
        failures.append("trace_identity")

    # two-sided equivalence band of the contractions
    bands = ident.equivalence_ratios(seed=cfg.seed)
    lo = min(b[0] for b in bands.values())
    hi = max(b[1] for b in bands.values())
    rows.append(["equivalence_band_lo", 0, 0.0, lo, ""])
    rows.append(["equivalence_band_hi", 0, 0.0, hi, ""])
    if not (1.0 / 16.0 <= lo and hi <= 16.0):
        failures.append("equivalence_band")

    # discrete energy balance on both null regions
    fam = cfg.family()
    bal_grid = Grid1D(-24.0, 0.125, 385)
    for side, coord in (("TL", -1.0), ("TLb", 1.0)):
        study = ident.energy_balance_study(fam, side, coord, bal_grid, t_end=4.0,
                                           cfl=cfg.cfl, eps_ko=cfg.eps_ko)
        _collect(rows, study)
        if study.observed_order < 1.5:
            failures.append(study.identity)

    _write_csv(out / "identities.csv",
               ["identity", "level", "dx", "residual", "order"], rows)
    for name in sorted({r[0] for r in rows}):
        state = "FAIL" if name in failures else "pass"
        print(f"verify: {name}: {state}")
    if failures:
        print("verify failed:", ", ".join(sorted(set(failures))))
        return 1
    return 0


def _collect(rows, study):
    for i, (h, r) in enumerate(zip(study.levels, study.residuals)):
        order = study.orders[i - 1] if i > 0 else ""
        rows.append([study.identity, i, h, r, order])


def cmd_tracecheck(cfg, out: Path) -> int:
    if cfg.N < 2:
        raise ValidationError("tracecheck needs N >= 2")
    fam = cfg.family()
    kmax = min(cfg.N, 3)
    rows_out = []
    worst = {}
    grid = _grid(cfg)
    levels = []
    for level in range(2):
        table = higher_order_traces(fam, cfg.N, grid.x)
        if level == 0:
            table.write_csv(out / "traces.csv")
            den_min = table.den_min
        tower = en.tower_at_zero(cfg, fam, grid)
        lev = {}
        for (k1, k2), (lt, lbt) in table.rows.items():
            if k1 + k2 > kmax:
                continue
            tl, tlb = tower.rows[(k1, k2)]
            scale = max(float(np.max(np.abs(lt))), float(np.max(np.abs(lbt))), 1e-12)
            lev[(k1, k2)] = max(float(np.max(np.abs(tl - lt))),
                                float(np.max(np.abs(tlb - lbt)))) / scale
        levels.append((grid.dx, lev))
        worst[level] = max(lev.values())
        grid = grid.refined()
    for (k1, k2) in sorted(levels[0][1]):
        d0, d1 = levels[0][1][(k1, k2)], levels[1][1][(k1, k2)]
        order = np.log2(d0 / d1) if d1 > 0 else "n/a"
        for lvl, dxx, dd in ((0, levels[0][0], d0), (1, levels[1][0], d1)):
            rows_out.append([k1, k2, lvl, dxx, cfg.cfl * dxx, dd,
                             order if lvl == 1 else ""])
    _write_csv(out / "tracecheck.csv",
               ["k1", "k2", "level", "dx", "dt", "discrepancy", "order"], rows_out)
    print(f"tracecheck: max discrepancy {worst[0]:.3e} -> {worst[1]:.3e} under refinement; "
          f"induction denominator min {den_min:.6f} (>= 4)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="stringlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("run", "sweep", "converge", "blowup",
                                     "verify", "tracecheck"))
    ap.add_argument("--config", help="path to a key = value config file")
    ap.add_argument("--out", help="output directory (default: config `out`)")
    ap.add_argument("--seed", type=int, help="override the config rng seed")
    args = ap.parse_args(argv)
    try:
        if args.config:
            cfg = parse_config(Path(args.config).read_text())
        else:
            cfg = ExperimentConfig()
        over = {"mode": args.mode}
        if args.out is not None:
            over["out"] = args.out
        if args.seed is not None:
            over["seed"] = args.seed
        cfg = cfg.with_(**over)
        validate_config(cfg)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        dispatch = {"run": cmd_run, "sweep": cmd_sweep, "converge": cmd_converge,
                    "blowup": cmd_blowup, "verify": cmd_verify,
                    "tracecheck": cmd_tracecheck}
        return dispatch[cfg.mode](cfg, out)
    except StringLabError as exc:
        print(f"stringlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
