"""Manufactured space-time fields with closed-form derivatives.

Used by the identity-verification suite: both the background surface and the
test function need exact first and second derivatives at arbitrary (t, x).
Mixtures of travelling gaussians cover the generic case; a speed-one pulse is
an exact solution of the flat wave operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import _gauss_poly


@dataclass(frozen=True)
class MovingGaussian:
    """amp * exp(-((x - v t - c)/s)^2); derivatives of any order are exact."""

    amp: float
    center: float = 0.0
    width: float = 1.0
    speed: float = 0.0

    def d(self, a, b, t, x):
        """d_t^a d_x^b at (t, x); each d_t pulls down a factor -speed."""
        return _gaussian(self.prefactor(a, b), self.speed, self.center, self.width, a + b, t, x)

    def prefactor(self, a, b):
        """amp * (-speed)^a / width^(a+b), the constant factor of d(a, b, ...)."""
        return self.amp * (-self.speed) ** a / self.width ** (a + b)


def _gaussian(prefactor, speed, center, width, k, t, x):
    """prefactor * P_k(z) exp(-z^2) with z = (x - speed t - center) / width:
    a k-th derivative of a travelling gaussian, whose parameters may be
    arrays that broadcast against the events (t, x)."""
    z = (np.asarray(x) - speed * np.asarray(t) - center) / width
    return prefactor * _gauss_poly(k, "1")(z) * np.exp(-z * z)


@dataclass(frozen=True)
class Mixture:
    terms: tuple

    def d(self, a, b, t, x):
        out = self.terms[0].d(a, b, t, x)
        for term in self.terms[1:]:
            out = out + term.d(a, b, t, x)
        return out


class MixtureStack:
    """Mixtures of equally many MovingGaussian terms, evaluated together:
    d(a, b, t, x)[i] is mixtures[i].d(a, b, t, x) bit for bit, the
    mixtures stacked on a leading axis.  Each term's prefactor is the
    member's own Python float, since a power of an array may round
    differently from a power of a float."""

    def __init__(self, mixtures):
        self.mixtures = tuple(mixtures)

    def d(self, a, b, t, x):
        t, x = np.asarray(t), np.asarray(x)
        shape = (len(self.mixtures),) + (1,) * np.broadcast(t, x).ndim
        out = None
        for terms in zip(*(mix.terms for mix in self.mixtures)):
            pref, speed, center, width = (np.reshape(column, shape) for column in zip(
                *((g.prefactor(a, b), g.speed, g.center, g.width) for g in terms)))
            term = _gaussian(pref, speed, center, width, a + b, t, x)
            out = term if out is None else out + term
        return out


class ZeroField:
    def d(self, a, b, t, x):
        return np.zeros(np.broadcast(np.asarray(t), np.asarray(x)).shape)


def random_mixture(rng, amp=0.3):
    """Small-amplitude mixture of 3 random travelling gaussians; amp bounds
    each term so mixtures stay comfortably inside the timelike regime."""
    terms = []
    for _ in range(3):
        terms.append(MovingGaussian(
            amp=float(rng.uniform(-amp, amp)),
            center=float(rng.uniform(-3.0, 3.0)),
            width=float(rng.uniform(0.8, 2.0)),
            speed=float(rng.uniform(-0.8, 0.8))))
    return Mixture(tuple(terms))
