"""Discrete verification of the geometric identities behind the energy method.

Three layers of checks, all on closed-form manufactured fields or short
runs:

1. the divergence identity for the current of any test function over any
   background (stencil left side vs analytic right side, refining),
2. the closed forms of the multiplier deformation contraction (must agree
   with direct contraction to roundoff; their weight-derivative cross term
   is essential away from special fields) plus the 1+1d trace identity,
3. the integrated energy balance on trapezoidal null regions along a run.
"""

import numpy as np

from stringlab import ExperimentConfig, Grid1D
from stringlab.identities import (deformation_check, divergence_identity_study,
                                  energy_balance_study, equivalence_ratios)
from stringlab.manufactured import random_mixture

print(__doc__)

rng = np.random.default_rng(7)
phi = random_mixture(rng, amp=0.25)
varphi = random_mixture(rng, amp=0.5)

print("divergence identity (residual under stencil refinement):")
for side in ("TL", "TLb"):
    st = divergence_identity_study(phi, varphi, side=side)
    pairs = ", ".join(f"h={h:g}: {r:.3e}" for h, r in zip(st.spacings, st.values))
    print(f"  side {side}: {pairs}  (smallest order {min(st.orders):.2f})")

worst, worst_trace = deformation_check(seed=7)
print(f"\ndeformation closed form vs direct contraction over 100 random fields: "
      f"max relative discrepancy {worst:.2e}")
print(f"trace of the stress tensor (vanishes in 1+1d): max relative {worst_trace:.2e}")

bands = equivalence_ratios(seed=7)
lo = min(b[0] for b in bands.values())
hi = max(b[1] for b in bands.values())
print(f"\ncontraction/comparator equivalence band over the monitored regime: "
      f"[{lo:.3f}, {hi:.3f}] (within [1/16, 16])")

print("\nintegrated energy balance on null regions (residual under refinement):")
# the default family: gamma = 0.5, delta = 0.1, width-2 unit gaussians
studies = energy_balance_study(ExperimentConfig(), (("TL", -1.0), ("TLb", 1.0)),
                               Grid1D(-24.0, 0.125, 385), t_end=4.0)
for st, side, label in zip(studies, ("TL", "TLb"), ("outgoing", "incoming")):
    pairs = ", ".join(f"{r:.3e}" for r in st.values)
    print(f"  {label} region ({side}): residuals {pairs} (smallest order {min(st.orders):.2f})")
