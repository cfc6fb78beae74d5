"""Initial-data families, the global-existence criterion, and higher-order
data traces.

A family is built from two seed profiles f (left-travelling, scaled by the
smallness parameter delta) and fb (right-travelling, order one):

    G + F' = delta * f,     G - F' = fb,

so F' = (delta f - fb)/2 and G = (delta f + fb)/2, with data
(phi, dt phi)|_{t=0} = (F, G).  In the null frame this reads
Lphi|_0 = delta f and Lbphi|_0 = fb.

The characteristic speeds restricted to the initial surface,

    Lam_pm(x) = (-F' G +- sqrt(1 + F'^2 - G^2)) / (1 + F'^2),

decide global existence: the solution stays smooth iff both families are
uniformly separated (Lam_- < Lam_+) and no backward point outruns any
forward point ahead of it (Lam_-(x1) < Lam_+(x2) whenever x1 <= x2).

Higher-order Cauchy traces come from an exact algebraic induction on the
number of time derivatives: the null-frame form of the field equation,

    2 (2 - Lphi Lbphi) LLb(phi) + (Lbphi)^2 L^2(phi) + (Lphi)^2 Lb^2(phi) = 0,

is differentiated with exact multinomial coefficients and solved for the
newest mixed trace; the solve denominator is 4 + (Lphi - Lbphi)^2 >= 4, so
the induction never degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import nullgeom
from .errors import DataOutOfRange
from .profiles import ProfileSpec, profile_antiderivative, profile_derivative, support_radius

CRITERION_MARGIN = 1e-10


@dataclass(frozen=True)
class DataFamily:
    """One admissible data set (gamma, delta, f, fb)."""

    gamma: float = 0.5
    delta: float = 0.1
    f: ProfileSpec = field(default_factory=ProfileSpec)
    fb: ProfileSpec = field(default_factory=ProfileSpec)

    def __post_init__(self):
        nullgeom.check_gamma(self.gamma)

    # closed-form data and derivatives -------------------------------------
    def f_deriv(self, k, x):
        return profile_derivative(self.f, k, x)

    def fb_deriv(self, k, x):
        return profile_derivative(self.fb, k, x)

    def F_prime(self, x):
        return self.F_deriv(1, x)

    def G(self, x):
        return self.G_deriv(0, x)

    def F(self, x):
        """Antiderivative of F' vanishing far to the left of the support."""
        return 0.5 * (self.delta * profile_antiderivative(self.f, x)
                      - profile_antiderivative(self.fb, x))

    def F_deriv(self, j, x):
        if j < 1:
            raise ValueError("F_deriv is defined for j >= 1; use F for j = 0")
        return 0.5 * (self.delta * self.f_deriv(j - 1, x) - self.fb_deriv(j - 1, x))

    def G_deriv(self, j, x):
        return 0.5 * (self.delta * self.f_deriv(j, x) + self.fb_deriv(j, x))

    def support_radius(self):
        return max(abs(self.f.center) + support_radius(self.f),
                   abs(self.fb.center) + support_radius(self.fb))


def check_data(w, p):
    """The t = 0 fields (w, p) = (G, F') unchanged, after checking that every
    sample is finite and at most FIELD_CAP in magnitude; raises
    DataOutOfRange otherwise, before any arithmetic on them can overflow."""
    size = np.maximum(np.max(np.abs(w)), np.max(np.abs(p)))   # NaN propagates
    if not size <= nullgeom.FIELD_CAP:
        raise DataOutOfRange(f"initial data out of range: max(|G|, |F'|) = {size:.3e}, "
                             f"outside the field cap [0, {nullgeom.FIELD_CAP:g}]")
    return w, p


@dataclass(frozen=True)
class CriterionReport:
    """Sampled global-existence check with quantified margins.

    order_margin is min over x2 of Lam_+(x2) - max_{x1 <= x2} Lam_-(x1),
    computed with a single prefix-maximum scan (O(n)).  pass requires both
    the pointwise gap and the ordering margin to exceed CRITERION_MARGIN;
    sampled strict inequalities need the quantified slack.
    """

    lambda_minus: np.ndarray
    lambda_plus: np.ndarray
    lam_star_lo: float
    lam_star_hi: float
    gap_min: float
    order_margin: float
    passed: bool


def check_kong_tsuji(lam_minus, lam_plus) -> CriterionReport:
    lam_minus = np.asarray(lam_minus, dtype=float)
    lam_plus = np.asarray(lam_plus, dtype=float)
    if lam_minus.shape != lam_plus.shape or lam_minus.ndim != 1:
        raise ValueError("eigenvalue samples must be two equal-length 1d sequences")
    gap_min = float(np.min(lam_plus - lam_minus))
    prefix_max = np.maximum.accumulate(lam_minus)
    order_margin = float(np.min(lam_plus - prefix_max))
    return CriterionReport(
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        lam_star_lo=float(min(lam_minus.min(), lam_plus.min())),
        lam_star_hi=float(max(lam_minus.max(), lam_plus.max())),
        gap_min=gap_min,
        order_margin=order_margin,
        passed=bool(gap_min > CRITERION_MARGIN and order_margin > CRITERION_MARGIN),
    )


def criterion_for_family(fam: DataFamily, x) -> CriterionReport:
    lo, hi = nullgeom.eigenvalues(*check_data(fam.G(x), fam.F_prime(x)))
    return check_kong_tsuji(lo, hi)


# ---------------------------------------------------------------------------
# higher-order traces


@dataclass
class TraceTable:
    """Grid samples of L(d^k phi)|_{t=0} and Lb(d^k phi)|_{t=0}.

    rows has the derivative-tower layout (N+1, N+1, 2, n), indexed
    [k1, k2, L or Lb] by the time and space derivative counts, with zeros
    where k1 + k2 > N.  den_min records the smallest value of the induction
    denominator 4 + (Lphi - Lbphi)^2 seen on the grid (always >= 4).
    """

    x: np.ndarray
    N: int
    rows: np.ndarray
    den_min: float


def _multinomial(k, a, b):
    # exact trinomial coefficient k!/(a! b! (k-a-b)!) componentwise
    c = (k[0] - a[0] - b[0], k[1] - a[1] - b[1])
    return (comb(k[0], a[0]) * comb(k[0] - a[0], b[0])
            * comb(k[1], a[1]) * comb(k[1] - a[1], b[1])) if min(c) >= 0 else 0


def higher_order_traces(fam: DataFamily, N: int, x) -> TraceTable:
    """Exact Cauchy traces of all mixed derivatives with k1 + k2 <= N.

    Every entry is built pointwise from closed-form profile derivatives and
    the algebraic induction; no numerical differentiation enters, so the
    table is exact to roundoff.
    """
    if N < 1:
        raise ValueError("trace order N must be >= 1")
    x = np.asarray(x, dtype=float)
    M = N + 2

    # mixed-derivative traces T[(m, j)] = dt^m dx^j phi |_{t=0}
    T = {}
    for j in range(M + 1):
        T[(0, j)] = fam.F_deriv(j, x) if j >= 1 else fam.F(x)
    for j in range(M):
        T[(1, j)] = fam.G_deriv(j, x)
    check_data(T[(1, 0)], T[(0, 1)])

    def ltr(c):
        return T[(c[0] + 1, c[1])] + T[(c[0], c[1] + 1)]

    def lbtr(c):
        return T[(c[0] + 1, c[1])] - T[(c[0], c[1] + 1)]

    def llbtr(c):
        return T[(c[0] + 2, c[1])] - T[(c[0], c[1] + 2)]

    def l2tr(c):
        return T[(c[0] + 2, c[1])] + 2.0 * T[(c[0] + 1, c[1] + 1)] + T[(c[0], c[1] + 2)]

    def lb2tr(c):
        return T[(c[0] + 2, c[1])] - 2.0 * T[(c[0] + 1, c[1] + 1)] + T[(c[0], c[1] + 2)]

    lphi0 = fam.delta * fam.f_deriv(0, x)
    lbphi0 = fam.fb_deriv(0, x)
    den = 4.0 + (lphi0 - lbphi0) ** 2
    den_min = float(np.min(den))

    for m in range(2, M + 1):
        for j in range(M + 1 - m):
            k = (m - 2, j)
            # exact multinomial expansion of the null-frame equation; all
            # source rows carry strictly fewer derivatives than k itself
            src = np.zeros_like(x)
            for a1 in range(k[0] + 1):
                for a2 in range(k[1] + 1):
                    for b1 in range(k[0] + 1 - a1):
                        for b2 in range(k[1] + 1 - a2):
                            a, b = (a1, a2), (b1, b2)
                            c = (k[0] - a1 - b1, k[1] - a2 - b2)
                            if c == k:
                                continue
                            coef = _multinomial(k, a, b)
                            src -= coef * (-2.0 * ltr(a) * lbtr(b) * llbtr(c)
                                           + lbtr(a) * lbtr(b) * l2tr(c)
                                           + ltr(a) * ltr(b) * lb2tr(c))
            dx_l = T[(k[0] + 1, k[1] + 1)] + T[(k[0], k[1] + 2)]
            dx_lb = T[(k[0] + 1, k[1] + 1)] - T[(k[0], k[1] + 2)]
            llb = (src - 2.0 * lbphi0 ** 2 * dx_l + 2.0 * lphi0 ** 2 * dx_lb) / den
            T[(m, j)] = llb + T[(m - 2, j + 2)]

    rows = np.zeros((N + 1, N + 1, 2) + x.shape)
    for k1 in range(N + 1):
        for k2 in range(N + 1 - k1):
            rows[k1, k2] = ltr((k1, k2)), lbtr((k1, k2))
    return TraceTable(x=x, N=N, rows=rows, den_min=den_min)
