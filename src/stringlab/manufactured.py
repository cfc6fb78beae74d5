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
        z = (np.asarray(x) - self.speed * np.asarray(t) - self.center) / self.width
        k = a + b
        return (self.amp * (-self.speed) ** a / self.width ** k
                * _gauss_poly(k, "1")(z) * np.exp(-z * z))


@dataclass(frozen=True)
class Mixture:
    terms: tuple

    def d(self, a, b, t, x):
        out = self.terms[0].d(a, b, t, x)
        for term in self.terms[1:]:
            out = out + term.d(a, b, t, x)
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
