"""Finite-difference kernels on uniform 1d grids.

Interior stencils are 4th-order centered; the two points next to each edge
use shifted 5-point stencils of the same order.  All kernels are plain numpy
slice arithmetic, data-parallel across the grid.
"""

from __future__ import annotations

import numpy as np


def deriv1(f, dx):
    """First derivative along the last axis, 4th order, one-sided at the edges."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3]
                      + 8.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * dx)
    out[..., 0] = (-25.0 * f[..., 0] + 48.0 * f[..., 1] - 36.0 * f[..., 2]
                   + 16.0 * f[..., 3] - 3.0 * f[..., 4]) / (12.0 * dx)
    out[..., 1] = (-3.0 * f[..., 0] - 10.0 * f[..., 1] + 18.0 * f[..., 2]
                   - 6.0 * f[..., 3] + f[..., 4]) / (12.0 * dx)
    out[..., -2] = (3.0 * f[..., -1] + 10.0 * f[..., -2] - 18.0 * f[..., -3]
                    + 6.0 * f[..., -4] - f[..., -5]) / (12.0 * dx)
    out[..., -1] = (25.0 * f[..., -1] - 48.0 * f[..., -2] + 36.0 * f[..., -3]
                    - 16.0 * f[..., -4] + 3.0 * f[..., -5]) / (12.0 * dx)
    return out


def deriv_k(f, dx, k):
    """k-fold application of deriv1 (stays 4th order in the interior)."""
    out = np.asarray(f, dtype=float)
    for _ in range(k):
        out = deriv1(out, dx)
    return out


def ko_dissipation(f, dx, eps):
    """Fourth-difference damping term, -eps/(16 dx) * D4[f].

    Acts like -(eps/16) dx^3 d^4/dx^4, so it vanishes under refinement
    faster than the solution scale while damping the grid mode.  Zero on
    the two cells nearest each edge (fields there are zero by causal
    domain sizing).
    """
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    out[..., 2:-2] = -(eps / (16.0 * dx)) * (f[..., :-4] - 4.0 * f[..., 1:-3]
                                             + 6.0 * f[..., 2:-2]
                                             - 4.0 * f[..., 3:-1] + f[..., 4:])
    return out


def cubic_weights(pos, n):
    """Base index and 4-point Lagrange weights on a uniform grid of n points.

    pos holds fractional grid positions (cells from point 0).  The stencil
    covers points base..base+3, clamped to the grid; combine neighbour values
    as ((w0*v0 + w1*v1) + w2*v2) + w3*v3.
    """
    base = np.clip(np.floor(pos).astype(int) - 1, 0, n - 4)
    th = pos - base
    w0 = -(th - 1.0) * (th - 2.0) * (th - 3.0) / 6.0
    w1 = th * (th - 2.0) * (th - 3.0) / 2.0
    w2 = -th * (th - 1.0) * (th - 3.0) / 2.0
    w3 = th * (th - 1.0) * (th - 2.0) / 6.0
    return base, (w0, w1, w2, w3)


def cubic_interp(values, x0, dx, xq):
    """4-point Lagrange interpolation on a uniform grid.

    values has shape (..., n); xq is scalar or (m,).  Returns (..., m) or
    (...,) for scalar xq.  Query points are clamped to the grid interior.
    """
    values = np.asarray(values, dtype=float)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    base, (w0, w1, w2, w3) = cubic_weights((xq - x0) / dx, values.shape[-1])
    out = (w0 * values[..., base] + w1 * values[..., base + 1]
           + w2 * values[..., base + 2] + w3 * values[..., base + 3])
    return out[..., 0] if scalar else out
