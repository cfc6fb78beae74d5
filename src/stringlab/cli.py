"""Command-line driver: deterministic experiment runs emitting CSV.

Modes
-----
run         criterion check, evolve to t_end, energy/monitor CSV.
            Exit 0 when no blow-up and all monitors pass, 2 on blow-up,
            1 on error or failed monitor.  A blow-up after a passing
            criterion exits 2 with a stderr warning that names the ordering
            margin and the stepper's min g: the grid may be under-resolved.
sweep       one run per delta in `deltas`; emits per-delta sups and the
            fitted hierarchy slopes/constants.  All deltas step in
            lockstep as one ensemble; a delta that blows up is an error
            naming it.
converge    3-level refinement against the exact travelling-wave solution
            (requires delta = 0); a level that blows up is an error;
            exit 1 unless every order >= 2.5.
blowup      3-level refinement of the detected blow-up time plus
            characteristic focusing, traced while the finest level runs;
            stderr names each level's blow-up time and reason; exit 1
            unless every level blows up.
verify      manufactured-field identity suite (divergence, deformation,
            trace, equivalence band, energy balance); stdout marks each
            identity pass or FAIL, exit 1 on any failure.  Reads only the
            profile keys, gamma, delta, cfl, eps_ko, gmin and seed; a
            balance level that blows up is an error naming it.
tracecheck  inductive t=0 trace table against tower time differences of the
            evolved solution under dt refinement; exit 1 unless order >= 1.5.

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
  traces.csv      x,k1,k2,L_trace,Lb_trace
  fields.csv      t,x,phi,w,p   (with dump_fields = 1)

An order is the log2 ratio of a level's value to the next finer level's.
The order column reads n/a where that ratio is undefined (a value is zero
or not finite), and an n/a order fails its gate.  Level 0 has no order:
converge.csv writes n/a there, identities.csv and tracecheck.csv leave the
cell empty.

Same config and seed give byte-identical CSV.

Only verify loads the identity suite (stringlab.identities, which imports
stringlab.manufactured).  The CLI registers the module in sys.modules
without running its code, so tools that look the package's modules up
there find it, and its code runs at cmd_verify's first attribute access.
The other modes compile neither file, which keeps 0.5-0.9 MiB off their
peak memory when the package runs from source without cached bytecode.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np

from . import energy as en
from .config import parse_config
from .errors import StringLabError
from .evolve import blowup_study, convergence_study, init_state
# re-exported: perfbench checks that its tracer patches this binding site
from .evolve import run_evolution  # noqa: F401
from .initialdata import criterion_for_family

_g = "{:.17g}".format


def _registered_lazily(name):
    """sys.modules[name]; when absent, a module registered there and on its
    package whose code runs at its first attribute access.  A module already
    imported is returned as it is, so that every importer shares one object."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, attr = name.rpartition(".")
        setattr(sys.modules[package], attr, module)
    return module


# only verify runs the suite (module docstring).  perfbench's tracer looks
# the module up in sys.modules; once it resolves modules by import (ROADMAP
# item 6), this can become a plain import inside cmd_verify
identities = _registered_lazily(__package__ + ".identities")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return _g(float(v))
    return "n/a" if v is None else str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def _order_text(order):
    return "n/a" if order is None else f"{order:.2f}"


def _order_verdict(record) -> int:
    """Print record's verdict line; the exit code."""
    ok = record.passed()
    print(f"{record.name}: order {_order_text(record.min_order)}: "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


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


def cmd_run(cfg, out: Path) -> int:
    fam, grid = cfg.family(), cfg.grid()
    crit = criterion_for_family(fam, grid.x)
    print(f"criterion: {'pass' if crit.passed else 'FAIL'} "
          f"(gap {crit.gap_min:.3e}, ordering margin {crit.order_margin:.3e})")

    result, reports, mon, left = en.tracked_run(cfg)
    # written after the run, so that a run that fails by name leaves no CSV
    _write_csv(out / "criterion.csv", ["x", "lambda_minus", "lambda_plus"],
               zip(grid.x, crit.lambda_minus, crit.lambda_plus))
    _write_csv(out / "criterion_summary.csv",
               ["lam_star_lo", "lam_star_hi", "gap_min", "order_margin", "passed"],
               [[crit.lam_star_lo, crit.lam_star_hi, crit.gap_min,
                 crit.order_margin, int(crit.passed)]])
    _energy_csv(out / "energy.csv", cfg, reports)
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
        if crit.passed:
            print(f"stringlab: warning: criterion pass (ordering margin {crit.order_margin:.3e}) "
                  f"but blow-up (min g {result.min_g_seen:.3e}): the grid may be under-resolved",
                  file=sys.stderr)
        return 2
    _write_csv(out / "monitor.csv", _MONITOR_HEADER, [_monitor_row(mon)])
    ok = mon.passed(cfg.gmin)
    print(f"run complete: t_end={cfg.t_end:g}, min_g={mon.min_g:.4f}, "
          f"max|lambda|={result.max_speed_seen:.12f}, M2={mon.m2:.4e}, "
          f"monitors {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_sweep(cfg, out: Path) -> int:
    monitors = [mon for _, _, mon in en.tracked_sweep(cfg)]
    fit = en.fit_hierarchy(monitors)
    _write_csv(out / "sweep.csv", _MONITOR_HEADER, [_monitor_row(m) for m in monitors])
    _write_csv(out / "hierarchy.csv",
               ["slope_E2", "slope_Eb2", "eb2_variation", "M2", "C1_bar", "C1"],
               [[fit.slope_e2, fit.slope_eb2, fit.eb2_variation, fit.m2,
                 fit.c1_bar, fit.c1]])
    print(f"sweep: slope(E2)={fit.slope_e2:.3f} (expect 2), "
          f"slope(Eb2)={fit.slope_eb2:.3f} (expect 0), "
          f"Eb2 variation={fit.eb2_variation:.3%}, C1_bar={fit.c1_bar:.3e}, C1={fit.c1:.3e}")
    return 0


def cmd_converge(cfg, out: Path) -> int:
    study = convergence_study(cfg)
    errors = study.errors
    _write_csv(out / "converge.csv", ["level", "n", "dx", "err_inf", "order"],
               [[k, lev.n, dx, err, order if k else "n/a"]
                for lev, (k, dx, err, order) in zip(study.levels, errors.rows())])
    print("converge: errors", ", ".join(f"{err:.3e}" for err in errors.values),
          "orders", ", ".join(map(_order_text, errors.orders)))
    return _order_verdict(errors)


def cmd_blowup(cfg, out: Path) -> int:
    crit = criterion_for_family(cfg.family(), cfg.grid().x)
    print(f"criterion: {'pass' if crit.passed else 'FAIL (blow-up data)'} "
          f"(ordering margin {crit.order_margin:.3e})")
    study = blowup_study(cfg)
    for k, lev in enumerate(study.levels):
        what = (f"no blow-up up to t_end = {cfg.t_end:g}" if lev.reason is None
                else f"t_blowup = {lev.t_blowup:.6g}, {lev.reason}")
        print(f"stringlab: blowup level {k}: n = {lev.n}, {what}", file=sys.stderr)
    _write_csv(out / "blowup.csv", ["level", "n", "dx", "t_blowup"],
               [[k, lev.n, lev.dx, lev.t_blowup] for k, lev in enumerate(study.levels)])
    if np.isnan(study.t_star):
        blown = [k for k, lev in enumerate(study.levels) if lev.reason]
        ran = [k for k, lev in enumerate(study.levels) if not lev.reason]
        if blown:
            print(f"blowup: levels {blown} blow up, levels {ran} do not: "
                  "the grid may be under-resolved")
        else:
            print("blowup: no blow-up detected on some level")
        return 1
    _write_csv(out / "blowup_summary.csv",
               ["t_star", "criterion_passed", "min_separation", "initial_separation"],
               [[study.t_star, int(crit.passed), study.min_sep, study.initial_sep]])
    print(f"blowup: t = {', '.join(f'{lev.t_blowup:.5f}' for lev in study.levels)} -> "
          f"t* = {study.t_star:.5f}; plus-family separation {study.initial_sep:.3f} -> "
          f"{study.min_sep:.2e}")
    return 0


def cmd_verify(cfg, out: Path) -> int:
    suite = identities.verify_suite(cfg)
    _write_csv(out / "identities.csv", ["identity", "level", "dx", "residual", "order"],
               ([rec.name, *row] for rec, _ in suite for row in rec.rows()))
    verdicts = sorted((rec.name, ok) for rec, ok in suite)
    for name, ok in verdicts:
        print(f"verify: {name}: {'pass' if ok else 'FAIL'}")
    failures = [name for name, ok in verdicts if not ok]
    if failures:
        print("verify failed:", ", ".join(failures))
        return 1
    return 0


def cmd_tracecheck(cfg, out: Path) -> int:
    study = en.trace_check_study(cfg)
    table = study.table
    _write_csv(out / "traces.csv", ["x", "k1", "k2", "L_trace", "Lb_trace"],
               ([xi, k1, k2, lv, lbv] for k1 in range(table.N + 1)
                for k2 in range(table.N + 1 - k1)
                for xi, lv, lbv in zip(table.x, *table.rows[k1, k2])))
    _write_csv(out / "tracecheck.csv",
               ["k1", "k2", "level", "dx", "dt", "discrepancy", "order"],
               ([*key, lvl, dx, cfg.cfl * dx, d, order]
                for key, rec in sorted(study.discrepancy.items())
                for lvl, dx, d, order in rec.rows()))
    gate = study.gate
    print(f"tracecheck: max discrepancy {gate.values[0]:.3e} -> {gate.values[1]:.3e} under "
          f"refinement; induction denominator min {table.den_min:.6f} (>= 4)")
    return _order_verdict(gate)


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
        over = {"mode": args.mode}
        if args.out is not None:
            over["out"] = args.out
        if args.seed is not None:
            over["seed"] = args.seed
        try:
            text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        except OSError as exc:
            raise StringLabError(f"cannot read config {args.config}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise StringLabError(f"cannot read config {args.config}: {exc}") from None
        cfg = parse_config(text, **over)
        out = Path(cfg.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StringLabError(f"cannot create output directory {out}: {exc.strerror}") from None
        dispatch = {"run": cmd_run, "sweep": cmd_sweep, "converge": cmd_converge,
                    "blowup": cmd_blowup, "verify": cmd_verify,
                    "tracecheck": cmd_tracecheck}
        return dispatch[cfg.mode](cfg, out)
    except StringLabError as exc:
        print(f"stringlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
