"""Finite-difference kernels on uniform 1d grids.

Interior stencils are 4th-order centered; the two points next to each edge
use shifted 5-point stencils of the same order.  All kernels are plain numpy
slice arithmetic, data-parallel across the grid.  Each keeps the operation
order of its formula as written below, so a rewrite for speed must not move
a bit: a - b*c is computed as a + (-b)*c, which IEEE arithmetic rounds the
same way.

deriv1 and ko_dissipation run the interior stencil once over all rows laid
end to end (numpy is several times faster on one contiguous run than on a
stack of row slices).  The values this computes across a row boundary mix
two rows and are thrown away: they land on the two edge points of each row,
which the edge formulas then overwrite.
"""

from __future__ import annotations

import numpy as np

# edge rows of deriv1 (times 12 dx): points 0 and 1 from f[0..4], points
# n-2 and n-1 from f[n-1], f[n-2], ..., f[n-5], summed left to right
_EDGE_OUT = np.array([0, 1, -2, -1])
_EDGE_IN = np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
                     [-1, -2, -3, -4, -5], [-1, -2, -3, -4, -5]])
_EDGE_COEF = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                       [-3.0, -10.0, 18.0, -6.0, 1.0],
                       [3.0, 10.0, -18.0, 6.0, -1.0],
                       [25.0, -48.0, 36.0, -16.0, 3.0]])


def _grid_points(f, need, what):
    """f as a C-contiguous float array (a scalar is one point) with at least
    `need` points on its last axis."""
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape[-1] < need:
        raise ValueError(f"{what} needs at least {need} grid points, got {f.shape[-1]}")
    return f


def deriv1(f, dx):
    """First derivative along the last axis, 4th order, one-sided at the edges.

    Interior (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / (12 dx); edge point
    r is sum_k _EDGE_COEF[r, k] f[_EDGE_IN[r, k]] / (12 dx), left to right.
    Needs at least 5 points.
    """
    f = _grid_points(f, 5, "deriv1")
    h = 12.0 * dx
    out = np.empty_like(f)
    flat, f8 = f.reshape(-1), 8.0 * f.reshape(-1)
    mid = out.reshape(-1)[2:-2]
    np.subtract(flat[:-4], f8[1:-3], out=mid)
    mid += f8[3:-1]
    mid -= flat[4:]
    mid /= h
    terms = f[..., _EDGE_IN] * _EDGE_COEF               # (..., 4, 5)
    edge = terms[..., 0] + terms[..., 1]
    for k in (2, 3, 4):
        edge += terms[..., k]
    edge /= h
    out[..., _EDGE_OUT] = edge
    return out


def ko_dissipation(f, dx, eps):
    """Fourth-difference damping term, -eps/(16 dx) * D4[f].

    Acts like -(eps/16) dx^3 d^4/dx^4, so it vanishes under refinement
    faster than the solution scale while damping the grid mode.  Zero on
    the two cells nearest each edge (fields there are zero by causal
    domain sizing).  D4[f] = f[i-2] - 4 f[i-1] + 6 f[i] - 4 f[i+1] + f[i+2],
    summed left to right.  Needs at least 5 points.
    """
    f = _grid_points(f, 5, "ko_dissipation")
    out = np.empty_like(f)
    flat, f4 = f.reshape(-1), 4.0 * f.reshape(-1)
    mid = out.reshape(-1)[2:-2]
    np.subtract(flat[:-4], f4[1:-3], out=mid)
    mid += 6.0 * flat[2:-2]
    mid -= f4[3:-1]
    mid += flat[4:]
    mid *= -(eps / (16.0 * dx))
    out[..., :2] = 0.0
    out[..., -2:] = 0.0
    return out


def cubic_weights(pos, n):
    """Base index and 4-point Lagrange weights on a uniform grid of n >= 4 points.

    pos holds fractional grid positions (cells from point 0).  The stencil
    covers points base..base+3, clamped to the grid; combine neighbour values
    with `cubic_combine`.
    """
    if n < 4:
        raise ValueError(f"cubic interpolation needs at least 4 points, got {n}")
    base = np.minimum(np.maximum(np.floor(pos).astype(int) - 1, 0), n - 4)
    th = pos - base
    th1, th2, th3 = th - 1.0, th - 2.0, th - 3.0
    w0 = -th1 * th2 * th3 / 6.0
    w1 = th * th2 * th3 / 2.0
    w2 = -th * th1 * th3 / 2.0
    w3 = th * th1 * th2 / 6.0
    return base, (w0, w1, w2, w3)


def cubic_combine(weights, values, axis=-1):
    """((w0*v0 + w1*v1) + w2*v2) + w3*v3 over the 4 neighbours v0..v3 that
    run along `axis` of values; the weights broadcast against the rest."""
    lead = (Ellipsis,) + (slice(None),) * (-axis - 1) if axis < 0 else (slice(None),) * axis
    w0, w1, w2, w3 = weights
    out = w0 * values[lead + (0,)]
    term = w1 * values[lead + (1,)]
    out += term
    np.multiply(w2, values[lead + (2,)], out=term)
    out += term
    np.multiply(w3, values[lead + (3,)], out=term)
    out += term
    return out


def cubic_interp(values, x0, dx, xq):
    """4-point Lagrange interpolation on a uniform grid of at least 4 points.

    values has shape (..., n); xq is scalar or (m,).  Returns (..., m) or
    (...,) for scalar xq.  Query points are clamped to the grid interior.
    """
    values = np.asarray(values, dtype=float)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    base, weights = cubic_weights((xq - x0) / dx, values.shape[-1] if values.ndim else 0)
    out = cubic_combine(weights, values[..., base[:, None] + np.arange(4)])
    return out[..., 0] if scalar else out
