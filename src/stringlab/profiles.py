"""Closed-form seed profiles and their derivatives of any order.

Three families, all smooth with every derivative decaying fast enough that
the (1+|x|)^(2+2*gamma)-weighted L2 norms are finite for every derivative
order (the admissible data class):

* ``gaussian``             A * exp(-s^2)
* ``polynomial-gaussian``  A * s * exp(-s^2)
* ``bump``                 A * exp(1 - 1/(1-s^2)) on |s| < 1, else 0

with s = (x - center)/width.  Derivatives come from exact polynomial
recurrences in s (Hermite-style for the gaussian kinds, a rational-numerator
recurrence for the bump), so any order is available everywhere without
numerical differentiation.  The recurrences run on plain coefficient arrays
with the operations of ``numpy.polynomial.Polynomial`` (trimmed ``np.convolve``
products, its add/subtract and derivative paths, and Horner evaluation after
the identity domain map), so the values match it bit for bit, signed zeros
included, without importing that package.

Everything here is numpy and the standard library: the gaussian
antiderivative uses ``erf``, a port of the Cephes rational approximation
that scipy also uses, and the bump antiderivative a cumulative Simpson table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .stencils import cubic_interp

KINDS = ("gaussian", "polynomial-gaussian", "bump")

# Largest |s| at which exp(1 - 1/(1-s^2)) is distinguishable from zero.
_BUMP_EDGE = 1.0 - 1e-8


@dataclass(frozen=True)
class ProfileSpec:
    """Shape parameters of one closed-form seed profile."""

    kind: str = "gaussian"
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}: {self.kind!r}")
        if not self.width > 0:
            raise ValueError(f"width must be positive: {self.width}")


def _trim(c):
    # drop trailing zeros of either sign, keeping at least one coefficient
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if nonzero.size else c[:1]


def _mul(a, b):
    return _trim(np.convolve(_trim(np.asarray(a, dtype=float)), _trim(b)))


def _add(a, b):
    a, b = _trim(a), _trim(b)
    if a.size > b.size:
        a, b = b, a
    out = b.copy()
    out[:a.size] += a
    return _trim(out)


def _sub(a, b):
    a, b = _trim(a), _trim(b)
    if a.size > b.size:
        out = a.copy()
        out[:b.size] -= b
    else:
        out = -b
        out[:a.size] += a
    return _trim(out)


def _deriv(c):
    return np.arange(1.0, c.size) * c[1:] if c.size > 1 else c[:1] * 0


def _polyval(c, x):
    # Horner's rule on c (lowest degree first), after the identity domain
    # map 0 + 1*x, which turns -0.0 into +0.0
    x = 0.0 + 1.0 * x
    out = c[-1] + x * 0
    for ci in c[-2::-1]:
        out = ci + out * x
    return out


@lru_cache(maxsize=None)
def _gauss_poly(k: int, seed: str):
    # P_{k+1} = P_k' - 2 s P_k  applied to exp(-s^2) prefactors
    p = np.array([1.0]) if seed == "1" else np.array([0.0, 1.0])
    for _ in range(k):
        p = _sub(_deriv(p), _mul([0.0, 2.0], p))
    return partial(_polyval, p)


@lru_cache(maxsize=None)
def _bump_poly(k: int):
    # h^(k) = N_k(s) / (1-s^2)^(2k) * h, with
    # N_{k+1} = (N_k'(1-s^2) + 4k s N_k)(1-s^2) - 2 s N_k
    n = np.array([1.0])
    one_m_s2 = np.array([1.0, 0.0, -1.0])
    s = np.array([0.0, 1.0])
    for j in range(k):
        inner = _add(_mul(_deriv(n), one_m_s2), _mul(_mul([4.0 * j], s), n))
        n = _sub(_mul(inner, one_m_s2), _mul(_mul([2.0], s), n))
    return partial(_polyval, n)


def profile_derivative(h: ProfileSpec, k: int, x):
    """Exact k-th derivative of the profile, finite everywhere; k >= 0."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    x = np.asarray(x, dtype=float)
    s = (x - h.center) / h.width
    scale = h.amplitude / h.width ** k
    if h.kind == "gaussian":
        out = scale * _gauss_poly(k, "1")(s) * np.exp(-s * s)
    elif h.kind == "polynomial-gaussian":
        out = scale * _gauss_poly(k, "s")(s) * np.exp(-s * s)
    else:
        out = np.zeros_like(s)
        inside = np.abs(s) < _BUMP_EDGE
        si = s[inside]
        core = np.exp(1.0 - 1.0 / (1.0 - si * si))
        out[inside] = scale * _bump_poly(k)(si) / (1.0 - si * si) ** (2 * k) * core
    return float(out) if out.ndim == 0 else out


# Cephes ndtr.c coefficients, highest degree first: erf = x T(x^2)/U(x^2) on
# |x| <= 1, and erfc = exp(-x^2) P(x)/Q(x) on 1 < x < 8.  Cephes switches to a
# third fit for erfc at x >= 8, but there erfc < 1.2e-29, far below half an
# ulp of 1, so 1 - erfc rounds to exactly 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
           2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x, coef):
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def erf(x):
    """Error function, elementwise; bit-identical to ``scipy.special.erf``.

    A numpy port of the Cephes erf/erfc that scipy wraps, with its operation
    order kept: odd symmetry erf(x) = sign(x) (1 - erfc(|x|)) for |x| > 1, and
    exp(-x^2) taken from libm (``math.exp``), which rounds differently from
    ``np.exp`` on a few percent of arguments.  erf(+-inf) = +-1, NaN stays
    NaN and -0.0 keeps its sign.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.ones_like(a)                  # |x| >= 8, where 1 - erfc rounds to 1
    core = a <= 1.0
    ac = a[core]
    z = ac * ac
    out[core] = ac * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    tail = ~core & ~(a >= 8.0)             # NaN falls here and propagates
    at = a[tail]
    e = np.fromiter(map(math.exp, (-(at * at)).tolist()), dtype=float, count=at.size)
    out[tail] = 1.0 - e * _polevl(at, _ERFC_P) / _polevl(at, _ERFC_Q)
    out = np.copysign(out, x)
    return float(out) if out.ndim == 0 else out


# Cumulative integral of the bump core exp(1 - 1/(1-s^2)) on 8193 nodes of
# [-1, 1] (spacing 2**-12, exact in binary).  Each cell is integrated by the
# quadratic through its node pair and the other node of its Simpson pair, so
# every even node carries the composite Simpson sum.
_BUMP_NODES = 8193
_BUMP_DS = 2.0 / (_BUMP_NODES - 1)


@lru_cache(maxsize=None)
def _bump_cumulative():
    s = np.linspace(-1.0, 1.0, _BUMP_NODES)
    v = np.zeros_like(s)
    inside = np.abs(s) < _BUMP_EDGE
    v[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    f0, f1, f2 = v[:-2:2], v[1:-1:2], v[2::2]
    cells = np.empty(_BUMP_NODES - 1)
    cells[0::2] = _BUMP_DS / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    cells[1::2] = _BUMP_DS / 12.0 * (-f0 + 8.0 * f1 + 5.0 * f2)
    cum = np.concatenate(([0.0], np.cumsum(cells)))
    return cum, float(cum[-1])


def profile_antiderivative(h: ProfileSpec, x):
    """Integral of the profile from -infinity to x.

    Gaussian kinds have closed forms (``erf`` / gaussian); the bump reads a
    cached cumulative Simpson table through 4-point Lagrange interpolation
    (``stencils.cubic_interp``), accurate to ~1e-13 of its mass.
    """
    x = np.asarray(x, dtype=float)
    s = (x - h.center) / h.width
    aw = h.amplitude * h.width
    if h.kind == "gaussian":
        out = aw * 0.5 * np.sqrt(np.pi) * (erf(s) + 1.0)
    elif h.kind == "polynomial-gaussian":
        out = -0.5 * aw * np.exp(-s * s)
    else:
        cum, total = _bump_cumulative()
        inner = cubic_interp(cum, -1.0, _BUMP_DS, np.clip(s, -1.0, 1.0).ravel()).reshape(s.shape)
        out = aw * np.where(s <= -1.0, 0.0, np.where(s >= 1.0, total, inner))
    return float(out) if out.ndim == 0 else out


def support_radius(h: ProfileSpec) -> float:
    """Radius around the center beyond which the profile and its first two
    derivatives are below 1e-14 times the amplitude.  The bump is exactly
    supported on one width; a zero profile has radius 0."""
    if h.amplitude == 0.0:
        return 0.0
    if h.kind == "bump":
        return h.width
    floor = 1e-14 * abs(h.amplitude)
    s = 1.0
    while s < 60.0:
        xs = h.center + s * h.width
        vals = [abs(profile_derivative(h, k, xs)) for k in range(3)]
        vals += [abs(profile_derivative(h, k, 2 * h.center - xs)) for k in range(3)]
        if max(vals) < floor:
            return s * h.width
        s += 0.5
    return 60.0 * h.width

