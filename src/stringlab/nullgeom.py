"""Null-frame geometry of the timelike string surface.

Null coordinates and derivatives::

    u  = (t - x)/2   (retarded)        L  = dt + dx = d/d(ub)
    ub = (t + x)/2   (advanced)        Lb = dt - dx = d/d(u)

The induced metric of the graph y = phi(t, x) is
g_ab = eta_ab + da(phi) db(phi) with determinant g = 1 - Lphi*Lbphi,
which is also the strict-hyperbolicity discriminant 1 + p^2 - w^2 of the
first-order system.  The null gradient of phi is (Lphi, Lbphi) = (w + p, w - p).

This module is the one home of the null-frame algebra of the energy
method: the inverse metric, the stress tensor T^a_b of a row over the
base field, the side rule of the two weighted sides, mirrored by x -> -x
(the sign s = +1 for "TL", -1 for "TLb", and the weight coordinate
(t + s x)/2), the side weights a(ub) and a(u), and the dynamically
corrected multipliers built from them.

Naming note: the time and space derivatives of phi are called w and p
everywhere in this package, so that the letter u always means the retarded
null coordinate and never the unknown.

All functions are pure, take scalars or numpy arrays, return tuples of
them, and hold no state.
"""

from __future__ import annotations

import numpy as np

from .errors import HyperbolicityLoss, TimelikeViolation

GMIN_DEFAULT = 1e-6
FIELD_CAP = 1e6           # largest |w| or |p| a state may hold


def metric_scalars(lphi, lbphi):
    """(g, g^uu, g^ubub, g^uub): determinant g = 1 - Lphi*Lbphi and the
    inverse-metric null components.

    Raises TimelikeViolation when min(g) <= GMIN_DEFAULT; callers treat that
    as a blow-up indicator.  g^uu and g^ubub are nonpositive whenever g > 0:
    the coordinate gradients Du, Dub are non-spacelike on a timelike surface.
    The cross component g^uub = -1/2 - Lphi*Lbphi/(4g) comes from inverting
    the 2x2 null-frame metric directly (checked against matrix inversion in
    the tests).
    """
    g = 1.0 - lphi * lbphi
    if np.min(g) <= GMIN_DEFAULT:
        raise TimelikeViolation(np.min(g), GMIN_DEFAULT)
    guu = -lphi * lphi / (4.0 * g)
    gubub = -lbphi * lbphi / (4.0 * g)
    guub = -0.5 - lphi * lbphi / (4.0 * g)
    return g, guu, gubub, guub


def null_stress(lphi, lbphi, row_l, row_lb):
    """(T^u_u, T^u_ub, T^ub_u, T^ub_ub): null components of the stress
    T^a_b = D^a(row) d_b(row) - 1/2 delta^a_b |D row|^2 of a row with null
    gradient (row_l, row_lb) = (L row, Lb row) over the base field's null
    gradient (lphi, lbphi).  Raises TimelikeViolation like metric_scalars.
    """
    _, guu, gubub, guub = metric_scalars(lphi, lbphi)
    gradu = guu * row_lb + guub * row_l
    gradub = guub * row_lb + gubub * row_l
    qt = gradu * row_lb + gradub * row_l
    return gradu * row_lb - 0.5 * qt, gradu * row_l, gradub * row_lb, gradub * row_l - 0.5 * qt


def eigenvalues(w, p):
    """Characteristic speeds of the first-order system.

    lam_pm = (-w p +- sqrt(1 + p^2 - w^2)) / (1 + p^2), real and distinct
    while 1 + p^2 - w^2 > 0, and confined to [-1, 1] there (the algebraic
    identity (1 + p^2 + w p)^2 - (1 + p^2 - w^2) = (1 + p^2)(p + w)^2 makes
    the speed bound exact).
    """
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    disc = 1.0 + p * p - w * w
    mdisc = np.min(disc)
    if mdisc <= 0.0:
        raise HyperbolicityLoss(mdisc)
    lam_minus = speed(w, p, disc, -1.0)
    lam_plus = speed(w, p, disc, 1.0)
    if lam_minus.ndim == 0:
        return float(lam_minus), float(lam_plus)
    return lam_minus, lam_plus


def speed(w, p, disc, sign):
    """The characteristic speed (-w p + sign sqrt(disc)) / (1 + p^2), disc =
    1 + p^2 - w^2: lam_+ for sign 1, lam_- for sign -1; disc is not checked."""
    return (-w * p + sign * np.sqrt(disc)) / (1.0 + p * p)


def weight_a(x, gamma: float):
    """Spatial weight a(x) = (1 + x^2)^(1+gamma); even, >= 1, monotone in |x|.

    The same function evaluated at u or ub gives the two multiplier weights.
    gamma must lie in (0, 1).
    """
    check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    out = (1.0 + x * x) ** (1.0 + gamma)
    return float(out) if out.ndim == 0 else out


def weight_a_prime(x, gamma: float):
    """d/dx of weight_a; satisfies a'(x)/a(x) = 2(1+gamma) x/(1+x^2) <= 1+gamma."""
    check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    out = 2.0 * (1.0 + gamma) * x * (1.0 + x * x) ** gamma
    return float(out) if out.ndim == 0 else out


def check_gamma(gamma):
    """Raises ValueError unless the weight exponent gamma lies in (0, 1)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma out of (0, 1): {gamma}")


def side_sign(side: str) -> int:
    """The sign s of a side: +1 for "TL", -1 for "TLb"."""
    if side == "TL":
        return 1
    if side == "TLb":
        return -1
    raise ValueError(f"side must be 'TL' or 'TLb', got {side!r}")


def weight_coord(s, t, x):
    """The weight coordinate (t + s x)/2 of side s, ub or u, at the events (t, x)."""
    return (np.asarray(t) + s * np.asarray(x)) / 2.0


def side_weight(side: str, t, x, gamma: float):
    """The multiplier weight of a side at the events (t, x): a(ub) for side
    "TL", a(u) for side "TLb"."""
    return weight_a(weight_coord(side_sign(side), t, x), gamma)


def multiplier(side: str, weight, lphi, lbphi):
    """(cl, clb): coefficients of the dynamically corrected null multiplier
    cl*L + clb*Lb, with weight = side_weight(side, ...).

    side "TL":  a(ub) * (L + |Lphi|^2 Lb)
    side "TLb": a(u)  * (Lb + |Lbphi|^2 L)
    """
    s = side_sign(side)
    # a pair (L part, Lb part) read with step s lists the side's own part first
    own, _ = (lphi, lbphi)[::s]
    return (weight, weight * own ** 2)[::s]


def causal_norm(side: str, weight, lphi, lbphi):
    """Squared g-norm of the multiplier; <= 0 means non-spacelike.

    With g(L, L) = |Lphi|^2, g(Lb, Lb) = |Lbphi|^2 and
    g(L, Lb) = -2 + Lphi Lbphi, both multipliers come out as weight^2 times
    the square of their corrected null gradient times the shared factor
    -3 + 2 Lphi Lbphi + |Lphi|^2 |Lbphi|^2, so they are causal exactly when
    that factor is <= 0 (it is -3 at the flat state).
    """
    cl, clb = multiplier(side, weight, lphi, lbphi)
    return cl * cl * lphi ** 2 + clb * clb * lbphi ** 2 + 2.0 * cl * clb * (lphi * lbphi - 2.0)
