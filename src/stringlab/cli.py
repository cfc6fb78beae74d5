"""Command-line driver: deterministic experiment runs emitting CSV.

Modes (each cmd_* returns the Verdict that the library call in brackets
builds; main prints it and returns its exit code)
-----
run         criterion check, evolve to t_end, energy/monitor CSV.
            Exit 0 when no blow-up and all monitors pass, 2 on blow-up,
            1 on error or failed monitor.  A blow-up after a passing
            criterion exits 2 with a stderr warning that names the ordering
            margin and the stepper's min g: the grid may be under-resolved.
            [energy.run_verdict]
sweep       one run per delta in `deltas`; emits per-delta sups and the
            fitted hierarchy slopes/constants.  All deltas step in
            lockstep as one ensemble; a delta that blows up is an error
            naming it.  [energy.sweep_verdict]
converge    3-level refinement against the exact travelling-wave solution
            (requires delta = 0); a level that blows up is an error;
            exit 1 unless every order >= 2.5.  [ConvergenceStudy.verdict]
blowup      3-level refinement of the detected blow-up time plus
            characteristic focusing, traced while the finest level runs;
            stderr names each level's blow-up time and reason; exit 1
            unless every level blows up.  [BlowupStudy.verdict]
verify      manufactured-field identity suite (divergence, deformation,
            trace, equivalence band, energy balance); stdout marks each
            identity pass or FAIL, exit 1 on any failure.  Reads only the
            profile keys, gamma, delta, cfl, eps_ko, gmin and seed; a
            balance level that blows up is an error naming it.
            [identities.suite_verdict]
tracecheck  inductive t=0 trace table against tower time differences of the
            evolved solution under dt refinement; exit 1 unless order >= 1.5.
            [TraceCheckStudy.verdict]
run and sweep warn on stderr of flux probe lines that left the grid.

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
from .evolve import Verdict, blowup_study, convergence_study, init_state
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


def cmd_run(cfg, out: Path) -> Verdict:
    fam, grid = cfg.family(), cfg.grid()
    crit = criterion_for_family(fam, grid.x)
    result, reports, mon, left = en.tracked_run(cfg)
    # written after the run, so that a run that fails by name leaves no CSV
    _write_csv(out / "criterion.csv", ["x", "lambda_minus", "lambda_plus"],
               zip(grid.x, crit.lambda_minus, crit.lambda_plus))
    _write_csv(out / "criterion_summary.csv",
               ["lam_star_lo", "lam_star_hi", "gap_min", "order_margin", "passed"],
               [[crit.lam_star_lo, crit.lam_star_hi, crit.gap_min,
                 crit.order_margin, int(crit.passed)]])
    _energy_csv(out / "energy.csv", cfg, reports)
    if cfg.dump_fields:
        st0, st1 = init_state(fam, grid), result.state
        rows = [[s.t, xi, ph, wv, pv] for s in (st0, st1)
                for xi, ph, wv, pv in zip(grid.x, s.phi, s.w, s.p)]
        _write_csv(out / "fields.csv", ["t", "x", "phi", "w", "p"], rows)
    verdict = en.run_verdict(cfg, crit, result, mon, left)
    if verdict.code != 2:       # 2: a blow-up, which has no monitors
        _write_csv(out / "monitor.csv", _MONITOR_HEADER, [_monitor_row(mon)])
    return verdict


def cmd_sweep(cfg, out: Path) -> Verdict:
    members, left = en.tracked_sweep(cfg)
    monitors = [mon for _, _, mon in members]
    fit = en.fit_hierarchy(monitors)
    _write_csv(out / "sweep.csv", _MONITOR_HEADER, [_monitor_row(m) for m in monitors])
    _write_csv(out / "hierarchy.csv",
               ["slope_E2", "slope_Eb2", "eb2_variation", "M2", "C1_bar", "C1"],
               [[fit.slope_e2, fit.slope_eb2, fit.eb2_variation, fit.m2,
                 fit.c1_bar, fit.c1]])
    return en.sweep_verdict(fit, left)


def cmd_converge(cfg, out: Path) -> Verdict:
    study = convergence_study(cfg)
    errors = study.errors
    # level 0 has no order: n/a
    _write_csv(out / "converge.csv", ["level", "n", "dx", "err_inf", "order"],
               [[k, lev.n, dx, err, order] for lev, (k, dx, err, _), order
                in zip(study.levels, errors.rows(), ["n/a", *errors.orders])])
    return study.verdict()


def cmd_blowup(cfg, out: Path) -> Verdict:
    crit = criterion_for_family(cfg.family(), cfg.grid().x)
    study = blowup_study(cfg)
    _write_csv(out / "blowup.csv", ["level", "n", "dx", "t_blowup"],
               [[k, lev.n, lev.dx, lev.t_blowup] for k, lev in enumerate(study.levels)])
    verdict = study.verdict(crit, cfg.t_end)
    if verdict.code == 0:       # every level blew up: t* is defined
        _write_csv(out / "blowup_summary.csv",
                   ["t_star", "criterion_passed", "min_separation", "initial_separation"],
                   [[study.t_star, int(crit.passed), study.min_sep, study.initial_sep]])
    return verdict


def cmd_verify(cfg, out: Path) -> Verdict:
    suite = identities.verify_suite(cfg)
    _write_csv(out / "identities.csv", ["identity", "level", "dx", "residual", "order"],
               ([rec.name, *row] for rec, _ in suite for row in rec.rows()))
    return identities.suite_verdict(suite)


def cmd_tracecheck(cfg, out: Path) -> Verdict:
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
    return study.verdict()


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
        verdict = dispatch[cfg.mode](cfg, out)
    except StringLabError as exc:
        print(f"stringlab: error: {exc}", file=sys.stderr)
        return 1
    for line in verdict.lines:
        print(line)
    for note in verdict.notes:
        print(f"stringlab: {note}", file=sys.stderr)
    return verdict.code


if __name__ == "__main__":
    sys.exit(main())
