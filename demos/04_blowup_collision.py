"""Finite-time blow-up from colliding packets, and characteristic focusing.

Two separated wave packets travelling toward each other start from healthy
timelike data but violate the ordering condition on the data-restricted
speeds: a backward speed on the left exceeds a forward speed ahead of it.
When the packets meet, the determinant g = 1 - Lphi*Lbphi crashes to zero,
the surface stops being timelike, and the evolution is halted.  The detected
time converges under grid refinement and forward characteristics focus as
the degeneration approaches.
"""

import numpy as np

from stringlab import (CharacteristicTracer, Grid1D, blowup_fixture, criterion_for_family,
                       richardson_time, run_evolution)

print(__doc__)

fam = blowup_fixture(amplitude=2.4, separation=4.0, width=1.0)
x = np.linspace(-20, 20, 2001)
rep = criterion_for_family(fam, x)
print(f"ordering margin of the data: {rep.order_margin:+.4f} (< 0: criterion violated)\n")

X = 28.0
t_blowups = []
# the finest level traces plus-family characteristics while it runs,
# holding a few time levels instead of the whole history
seeds = np.linspace(-6.0, 6.0, 17)
tracer = CharacteristicTracer(seeds, family="plus")
print(f"{'dx':>9} {'t_blowup':>10} {'reason'}")
for dx in (1 / 32, 1 / 64, 1 / 128):
    grid = Grid1D(-X, dx, int(round(2 * X / dx)) + 1)
    res = run_evolution(fam, grid, t_end=12.0, callbacks=[tracer] if dx == 1 / 128 else ())
    t_blowups.append(res.t_blowup)
    print(f"{dx:>9.5f} {res.t_blowup:>10.5f} {res.blowup_reason}")
print(f"extrapolated blow-up time: {richardson_time(t_blowups):.5f}\n")

paths, min_sep = tracer.finish()
print(f"plus-family characteristics seeded {seeds[1]-seeds[0]:.3f} apart focus down to "
      f"{min_sep:.3e} before detection")

# a coarse picture of the focusing: adjacent-path separation over time
ts = paths[0].ts
sep = np.abs(np.diff(np.stack([p.xs for p in paths]), axis=0)).min(axis=0)
for frac in (0.0, 0.5, 0.8, 0.95, 1.0):
    i = min(int(frac * (len(ts) - 1)), len(ts) - 1)
    bar = "#" * max(1, int(40 * sep[i] / sep[0]))
    print(f"  t = {ts[i]:6.3f}  min sep = {sep[i]:.3e}  {bar}")
