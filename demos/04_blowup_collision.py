"""Finite-time blow-up from colliding packets, and characteristic focusing.

Two separated wave packets travelling toward each other start from healthy
timelike data but violate the ordering condition on the data-restricted
speeds: a backward speed on the left exceeds a forward speed ahead of it.
When the packets meet, the determinant g = 1 - Lphi*Lbphi crashes to zero,
the surface stops being timelike, and the evolution is halted.  The detected
time converges under grid refinement and forward characteristics focus as
the degeneration approaches.
"""

from pathlib import Path

import numpy as np

from stringlab import blowup_study, criterion_for_family, parse_config

print(__doc__)

# the colliding packets of acceptance A5 on [-28, 28]; dx = 1/32, 1/64 and
# 1/128, and the finest level traces plus-family characteristics while it
# runs, holding a few time levels instead of the whole history
cfg = parse_config((Path(__file__).resolve().parents[1] / "fixtures"
                    / "a5_blowup.cfg").read_text())
fam = cfg.family()
x = np.linspace(-20, 20, 2001)
rep = criterion_for_family(fam, x)
print(f"ordering margin of the data: {rep.order_margin:+.4f} (< 0: criterion violated)\n")

study = blowup_study(cfg)
print(f"{'dx':>9} {'t_blowup':>10} {'reason'}")
for lev in study.levels:
    print(f"{lev.dx:>9.5f} {lev.t_blowup:>10.5f} {lev.reason}")
print(f"extrapolated blow-up time: {study.t_star:.5f}\n")

print(f"plus-family characteristics seeded {study.initial_sep:.3f} apart focus down to "
      f"{study.min_sep:.3e} before detection")

# a coarse picture of the focusing: adjacent-path separation over time
ts = study.paths[0].ts
sep = np.abs(np.diff(np.stack([p.xs for p in study.paths]), axis=0)).min(axis=0)
for frac in (0.0, 0.5, 0.8, 0.95, 1.0):
    i = min(int(frac * (len(ts) - 1)), len(ts) - 1)
    bar = "#" * max(1, int(40 * sep[i] / sep[0]))
    print(f"  t = {ts[i]:6.3f}  min sep = {sep[i]:.3e}  {bar}")
