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
numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy import integrate
from scipy.special import erf

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
            raise ValueError(f"unknown profile kind {self.kind!r}; choose from {KINDS}")
        if not self.width > 0:
            raise ValueError(f"profile width must be positive, got {self.width}")


@lru_cache(maxsize=None)
def _gauss_poly(k: int, seed: str) -> Polynomial:
    # P_{k+1} = P_k' - 2 s P_k  applied to exp(-s^2) prefactors
    p = Polynomial([1.0]) if seed == "1" else Polynomial([0.0, 1.0])
    two_s = Polynomial([0.0, 2.0])
    for _ in range(k):
        p = p.deriv() - two_s * p
    return p


@lru_cache(maxsize=None)
def _bump_poly(k: int) -> Polynomial:
    # h^(k) = N_k(s) / (1-s^2)^(2k) * h, with
    # N_{k+1} = (N_k'(1-s^2) + 4k s N_k)(1-s^2) - 2 s N_k
    n = Polynomial([1.0])
    one_m_s2 = Polynomial([1.0, 0.0, -1.0])
    s = Polynomial([0.0, 1.0])
    for j in range(k):
        n = (n.deriv() * one_m_s2 + 4.0 * j * s * n) * one_m_s2 - 2.0 * s * n
    return n


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


# dense cumulative integral of the bump core exp(1 - 1/(1-s^2)) on [-1, 1]
@lru_cache(maxsize=None)
def _bump_cumulative():
    from scipy.interpolate import CubicSpline

    s = np.linspace(-1.0, 1.0, 8193)
    v = np.zeros_like(s)
    inside = np.abs(s) < _BUMP_EDGE
    v[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    cum = integrate.cumulative_simpson(v, x=s, initial=0.0)
    return CubicSpline(s, cum), float(cum[-1])


def profile_antiderivative(h: ProfileSpec, x):
    """Integral of the profile from -infinity to x.

    Gaussian kinds have closed forms (erf / gaussian); the bump uses a cached
    dense Simpson table, accurate to ~1e-12 of its mass.
    """
    x = np.asarray(x, dtype=float)
    s = (x - h.center) / h.width
    aw = h.amplitude * h.width
    if h.kind == "gaussian":
        out = aw * 0.5 * np.sqrt(np.pi) * (erf(s) + 1.0)
    elif h.kind == "polynomial-gaussian":
        out = -0.5 * aw * np.exp(-s * s)
    else:
        spline, total = _bump_cumulative()
        out = aw * np.where(s <= -1.0, 0.0, np.where(s >= 1.0, total, spline(np.clip(s, -1.0, 1.0))))
    return float(out) if out.ndim == 0 else out


def support_radius(h: ProfileSpec, tol: float = 1e-14, k_max: int = 0) -> float:
    """Radius around the center beyond which derivatives up to k_max are
    below tol * amplitude.  The bump is exactly supported on one width."""
    if h.kind == "bump":
        return h.width
    floor = tol * abs(h.amplitude)
    s = 1.0
    while s < 60.0:
        xs = h.center + s * h.width
        vals = [abs(profile_derivative(h, k, xs)) for k in range(k_max + 1)]
        vals += [abs(profile_derivative(h, k, 2 * h.center - xs)) for k in range(k_max + 1)]
        if max(vals) < floor:
            return s * h.width
        s += 0.5
    return 60.0 * h.width

