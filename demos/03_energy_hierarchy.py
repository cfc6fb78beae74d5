"""The two-tier weighted energy hierarchy under a delta sweep.

The data split into a small left-travelling seed (size delta) and an
order-one right-travelling seed.  The weighted energies inherit that split:
the Lb-side energies stay at their data size for all time while the L-side
energies scale like delta^2, and the null fluxes follow the same two tiers.
This demo sweeps delta at fixed right-travelling data and fits the scaling.
"""

from stringlab import tracked_sweep
from stringlab.config import ExperimentConfig
from stringlab.energy import fit_hierarchy

print(__doc__)

X, T = 34.0, 20.0
dx = 0.1
cfg = ExperimentConfig(x0=-X, dx=dx, n=int(round(2 * X / dx)) + 1, t_end=T,
                       report_every=40, N=4, deltas=(0.1, 0.05, 0.025))

print(f"gamma = {cfg.gamma}, N = {cfg.N}, T = {T:g}; sweeping delta:\n")
print(f"{'delta':>7} {'sup E2':>12} {'sup Eb2':>12} {'sup F2':>12} {'sup Fb2':>12} {'min g':>8}")
# the three deltas evolve in lockstep as one ensemble
members, _ = tracked_sweep(cfg)
monitors = [mon for _, _, mon in members]
for delta, mon in zip(cfg.deltas, monitors):
    print(f"{delta:>7g} {mon.sup_e2:>12.4e} {mon.sup_eb2:>12.4e} "
          f"{mon.sup_f2:>12.4e} {mon.sup_fb2:>12.4e} {mon.min_g:>8.4f}")

fit = fit_hierarchy(monitors)
print(f"""
log-log slope of sup E2 vs delta : {fit.slope_e2:+.3f}   (small tier: delta^2)
log-log slope of sup Eb2 vs delta: {fit.slope_eb2:+.3f}   (large tier: delta-independent)
Eb2 variation across the sweep   : {fit.eb2_variation:.2%}
fitted bootstrap constant M^2    : {fit.m2:.4e}
envelope shape constants         : C1_bar = {fit.c1_bar:.3e}, C1 = {fit.c1:.3e}
""")

last = monitors[0]
print(f"weighted sup ratios at delta = 0.1: sup(a^1/2 |L rows|)/(delta M) = {last.c_l:.3f}, "
      f"sup(a^1/2 |Lb rows|)/M = {last.c_lb:.3f} (both stay below 2)")
