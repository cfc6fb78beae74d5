"""Null-frame geometry and the global-existence criterion, pointwise.

The string surface y = phi(t, x) is timelike while the induced metric
determinant g = 1 - Lphi*Lbphi stays positive; the same quantity is the
hyperbolicity discriminant of the first-order evolution system.  This demo
walks the pointwise toolkit: null coordinates, characteristic speeds, the
polynomial weights, the corrected null multipliers, and finally the
data-restricted speed criterion that separates globally smooth families from
blow-up families.
"""

from pathlib import Path

import numpy as np

from stringlab import (DataFamily, ProfileSpec, causal_norm, criterion_for_family, eigenvalues,
                       metric_scalars, multiplier, parse_config, side_weight, weight_a)

print(__doc__)

# -- null frame at a point --------------------------------------------------
t, x = 2.0, 1.0
u, ub = (t - x) / 2.0, (t + x) / 2.0
print(f"event (t, x) = (2, 1): retarded u = {u}, advanced ub = {ub}")

w, p = 0.3, -0.2                      # w = dt(phi), p = dx(phi)
lphi, lbphi = w + p, w - p
g, guu, gubub, _ = metric_scalars(lphi, lbphi)
print(f"gradients (w, p) = (0.3, -0.2): Lphi = {lphi:.2f}, Lbphi = {lbphi:.2f}")
print(f"determinant g = {g:.4f};  g^uu = {guu:.4f} <= 0, g^ubub = {gubub:.4f} <= 0")

lam = eigenvalues(w, p)
print(f"characteristic speeds: lambda- = {lam[0]:+.4f}, lambda+ = {lam[1]:+.4f} (|.| <= 1)\n")

# -- weights and multipliers -------------------------------------------------
gamma = 0.5
print(f"weight a(x) = (1+x^2)^(1+gamma) at x = 0, 1, 2 (gamma = {gamma}):",
      ", ".join(f"{weight_a(s, gamma):.4f}" for s in (0.0, 1.0, 2.0)))
weight = side_weight("TL", t, x, gamma)
cl, clb = multiplier("TL", weight, lphi, lbphi)
print(f"multiplier TL at this event: cl = {cl:.4f} (weight), clb = {clb:.6f} "
      f"(weight * |Lphi|^2)")
print(f"its squared g-norm: {causal_norm('TL', weight, lphi, lbphi):+.6f} "
      f"(<= 0: non-spacelike)\n")

# -- the criterion on two families -------------------------------------------
x = np.linspace(-24, 24, 2001)
good = DataFamily(gamma=0.5, delta=0.1,
                  f=ProfileSpec("gaussian", 1.0, 0.0, 2.0),
                  fb=ProfileSpec("gaussian", 1.0, 0.0, 2.0))
# the colliding packets of acceptance A5
bad = parse_config((Path(__file__).resolve().parents[1] / "fixtures"
                    / "a5_blowup.cfg").read_text()).family()

for name, fam in (("small-delta family", good), ("colliding packets", bad)):
    rep = criterion_for_family(fam, x)
    print(f"{name}: speeds within [{rep.lam_star_lo:+.3f}, {rep.lam_star_hi:+.3f}], "
          f"gap min {rep.gap_min:+.4f}, ordering margin {rep.order_margin:+.4f} "
          f"-> {'global existence expected' if rep.passed else 'finite-time blow-up expected'}")
