"""Discrete verification of the geometric identities behind the energy method.

Three families of checks:

* divergence identity -- the current P^a = T^a_b xi^b of any test function
  over any background satisfies an exact balance between d_a(sqrt(g) P^a)
  and source + deformation + metric-derivative terms.  Verified on
  manufactured fields: the left side by 4th-order stencils on the
  closed-form current, the right side assembled analytically (with stencils
  only for the metric-divergence pieces), residual converging under
  refinement.

* deformation closed forms -- T^a_b d_a(xi^b) for the corrected multipliers
  has a short closed form; it is evaluated both by direct contraction and
  from the closed form, which must agree to roundoff.  The closed form
  carries a weight-derivative cross term proportional to the null-null
  stress component; that term vanishes identically when the test function
  is the base field or the background is flat, and must be kept otherwise.
  `deformation_check` evaluates all its random field pairs at once, stacked
  on a leading axis, with the values of one pair at a time.

* energy balance -- on the trapezoidal null regions, surface term + null
  flux equals the initial term minus the bulk divergence integral.  Checked
  discretely along a run for the row phi itself; the null-segment
  measure carries the Jacobian factor 2 that makes the discrete divergence
  theorem close exactly.  `BalanceAccumulator` computes the currents of
  BALANCE_BLOCK levels at once and adds the levels one at a time, to the
  bits of one level at a time, in O(n) memory whatever the run length.

Both weighted sides are one rule with the sign s of `nullgeom.side_sign`.
The mirror x -> -x swaps L and Lb: a pair (L part, Lb part) read with step
s lists the side's own part first, so each deformation form is one
expression over (Y, Z) = (L phi, Lb phi) and (y, z) = (L varphi, Lb varphi)
so read; a balance region lies on the s side of its boundary.  s only
negates and reorders, in each side's own operand order (A*B and a*b
fixed), so both sides keep their bits.
"""

from __future__ import annotations

from collections import deque
from contextlib import suppress

import numpy as np

from .energy import stress_density
from .errors import BlowupDetected, InsufficientHistory, TimelikeViolation
from .evolve import Grid1D, Refinement, run_evolution
from .forking import refinement_levels, run_both
from .manufactured import MixtureStack, MovingGaussian, ZeroField, random_mixture
from .nullgeom import (GMIN_DEFAULT, multiplier, null_stress, side_sign, side_weight,
                       weight_a, weight_a_prime, weight_coord)
from .stencils import cubic_interp, deriv1


# ---------------------------------------------------------------------------
# Cartesian current assembly on manufactured fields


def _multiplier_cartesian(w, p, t, x, gamma, side):
    """(xi^t, xi^x) of the weighted multiplier over the base gradient (w, p)
    at the events (t, x); side may be 'TL', 'TLb', or 'const' for the fixed
    null multiplier L."""
    if side == "const":
        one = np.ones(np.broadcast(np.asarray(t), np.asarray(x)).shape)
        return one, one
    cl, clb = multiplier(side, side_weight(side, t, x, gamma), w + p, w - p)
    return cl + clb, cl - clb


def _cartesian_stress(w, p, vt, vx):
    """Cartesian (g, (g^tt, g^tx, g^xx), (T^t_t, T^t_x, T^x_t, T^x_x)): the
    determinant and inverse metric over the base gradient (w, p), and the
    stress of the row gradient (vt, vx).  Raises TimelikeViolation when the
    min of g along the last axis is <= GMIN_DEFAULT in some row, naming the
    first such row's min."""
    g = 1.0 - w * w + p * p
    # the floor holds row by row: a stack of levels names the first failing
    # level's min g, as one level at a time would
    low = np.ravel(np.min(np.atleast_1d(g), axis=-1))
    bad = np.flatnonzero(low <= GMIN_DEFAULT)
    if bad.size:
        raise TimelikeViolation(low[bad[0]], GMIN_DEFAULT)
    gtt = -(1.0 + p * p) / g
    gtx = w * p / g
    gxx = (1.0 - w * w) / g
    gradt = gtt * vt + gtx * vx
    gradx = gtx * vt + gxx * vx
    qt = gradt * vt + gradx * vx
    return g, (gtt, gtx, gxx), (gradt * vt - 0.5 * qt, gradt * vx, gradx * vt,
                                gradx * vx - 0.5 * qt)


def _current_density(w, p, vt, vx, xi):
    """(V^t, V^x) = sqrt(g) * T^a_b xi^b for the row gradient (vt, vx) over
    the base gradient (w, p) and the multiplier xi = (xi^t, xi^x)."""
    g, _, (t_tt, t_tx, t_xt, t_xx) = _cartesian_stress(w, p, vt, vx)
    xit, xix = xi
    sq = np.sqrt(g)
    return sq * (t_tt * xit + t_tx * xix), sq * (t_xt * xit + t_xx * xix)


def _event_fields(phi, varphi, t, x, gamma, side):
    """(V^t, V^x, M^tt, M^tx, M^xx) at the events (t, x): the current
    sqrt(g) (P^t, P^x) and the metric maps sqrt(g) g^{ab} of closed-form
    fields, from one evaluation of each field's gradient."""
    w = phi.d(1, 0, t, x)
    p = phi.d(0, 1, t, x)
    # the current raises on g <= 0 before the sqrt below
    vt, vx = _current_density(w, p, varphi.d(1, 0, t, x), varphi.d(0, 1, t, x),
                              _multiplier_cartesian(w, p, t, x, gamma, side))
    sq = np.sqrt(1.0 - w * w + p * p)
    return vt, vx, -(1.0 + p * p) / sq, w * p / sq, (1.0 - w * w) / sq


def _stencil_derivs(fn, t, x, h):
    """4th-order centered (d_t, d_x) of every component that fn(t, x)
    returns, with spacing h: lists of arrays, in fn's order.  fn is called
    once at each of the 8 shifted events."""
    def diff(a, b, c, d):
        return [(fa - 8.0 * fb + 8.0 * fc - fd) / (12.0 * h)
                for fa, fb, fc, fd in zip(a, b, c, d)]
    d_t = diff(fn(t - 2 * h, x), fn(t - h, x), fn(t + h, x), fn(t + 2 * h, x))
    d_x = diff(fn(t, x - 2 * h), fn(t, x - h), fn(t, x + h), fn(t, x + 2 * h))
    return d_t, d_x


def divergence_residual(phi, varphi, gamma, side, h, t, x):
    """max |d_a(sqrt(g) P^a) - sqrt(g)*(source + deformation + metric terms)|
    over the sample points, with stencil spacing h.

    The left side differences the closed-form current (V^t, V^x) by 4th-order
    stencils.  The right side is assembled analytically from the fields'
    derivatives, except the derivatives of the metric maps sqrt(g) g^{ab},
    which come from the same stencils.  `_event_fields` gives both at each
    shifted event: 8 calls per residual.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)

    (dvt_t, _, mtt_t, mtx_t, mxx_t), (_, dvx_x, mtt_x, mtx_x, mxx_x) = _stencil_derivs(
        lambda tt, xx: _event_fields(phi, varphi, tt, xx, gamma, side), t, x, h)
    lhs = dvt_t + dvx_x

    # analytic pieces
    w = phi.d(1, 0, t, x)
    p = phi.d(0, 1, t, x)
    vt = varphi.d(1, 0, t, x)
    vx = varphi.d(0, 1, t, x)
    vtt = varphi.d(2, 0, t, x)
    vtx = varphi.d(1, 1, t, x)
    vxx = varphi.d(0, 2, t, x)
    g, (gtt, gtx, gxx), (t_tt, t_tx, t_xt, t_xx) = _cartesian_stress(w, p, vt, vx)
    sq = np.sqrt(g)

    xit, xix = _multiplier_cartesian(w, p, t, x, gamma, side)
    xi_varphi = xit * vt + xix * vx

    # wave operator: principal part analytic, gauge part by stencils on the
    # metric maps
    principal = gtt * vtt + 2.0 * gtx * vtx + gxx * vxx
    div_t = mtt_t + mtx_x   # d_a M^{a t}
    div_x = mtx_t + mxx_x   # d_a M^{a x}
    box_term = sq * principal * xi_varphi + (div_t * vt + div_x * vx) * xi_varphi

    # deformation term by the signed side rule: dc, dcc are the derivatives
    # of the weight-only and the corrected coefficient
    if side == "const":
        dxit_t = dxit_x = dxix_t = dxix_x = np.zeros_like(w)
    else:
        s = side_sign(side)
        wt = phi.d(2, 0, t, x)
        wx = phi.d(1, 1, t, x)
        px = phi.d(0, 2, t, x)
        coord = weight_coord(s, t, x)
        wgt, wgtp = weight_a(coord, gamma), weight_a_prime(coord, gamma)
        ng = w + s * p
        dc_t = 0.5 * wgtp
        dc_x = s * dc_t
        dcc_t = dc_t * ng ** 2 + wgt * 2.0 * ng * (wt + s * wx)
        dcc_x = dc_x * ng ** 2 + wgt * 2.0 * ng * (wx + s * px)
        dxit_t, dxit_x = dc_t + dcc_t, dc_x + dcc_x
        dxix_t, dxix_x = s * (dc_t - dcc_t), s * (dc_x - dcc_x)
    deform = t_tt * dxit_t + t_xt * dxit_x + t_tx * dxix_t + t_xx * dxix_x

    # xi(sqrt(g) g^{cd}) d_c varphi d_d varphi, directional stencils
    xi_mtt = xit * mtt_t + xix * mtt_x
    xi_mtx = xit * mtx_t + xix * mtx_x
    xi_mxx = xit * mxx_t + xix * mxx_x
    metric_term = 0.5 * (xi_mtt * vt * vt + 2.0 * xi_mtx * vt * vx + xi_mxx * vx * vx)

    rhs = box_term + sq * deform - metric_term
    return float(np.max(np.abs(lhs - rhs)))


def divergence_identity_study(phi, varphi, gamma=0.5, side="TL",
                              hs=(0.08, 0.04, 0.02)) -> Refinement:
    tt, xx = np.meshgrid(np.linspace(0.3, 0.9, 7), np.linspace(-3.0, 3.0, 41), indexing="ij")
    res = [divergence_residual(phi, varphi, gamma, side, h, tt, xx) for h in hs]
    return Refinement(f"divergence_{side}", list(hs), res, DIVERGENCE_ORDER_MIN)


# ---------------------------------------------------------------------------
# deformation closed forms


def _null_data(phi, varphi, t, x):
    """Null-frame inputs of the deformation and trace identities at the
    events (t, x): (A, B, a, b, L Lb phi, L^2 phi, Lb^2 phi)."""
    w = phi.d(1, 0, t, x)
    p = phi.d(0, 1, t, x)
    vt = varphi.d(1, 0, t, x)
    vx = varphi.d(0, 1, t, x)
    wtt = phi.d(2, 0, t, x)
    wtx = phi.d(1, 1, t, x)
    wxx = phi.d(0, 2, t, x)
    B, A = w + p, w - p                     # L phi, Lb phi
    b, a = vt + vx, vt - vx                 # L varphi, Lb varphi
    llb = wtt - wxx                         # L Lb phi
    l2 = wtt + 2.0 * wtx + wxx              # L^2 phi
    lb2 = wtt - 2.0 * wtx + wxx             # Lb^2 phi
    return A, B, a, b, llb, l2, lb2


def deformation_direct(nd, t, x, gamma, side):
    """T^a_b d_a(xi^b) by direct contraction with analytic coefficient
    derivatives in the null frame; nd is `_null_data` at the events (t, x)."""
    A, B, a, b, llb, l2, lb2 = nd
    s = side_sign(side)
    coord = weight_coord(s, t, x)
    wgt, wgtp = weight_a(coord, gamma), weight_a_prime(coord, gamma)
    t_uu, t_uub, t_ubu, t_ubub = null_stress(B, A, b, a)
    (Y, _), (l_own, _), (t_mix, _) = (B, A)[::s], (l2, lb2)[::s], (t_ubu, t_uub)[::s]
    c_u, c_ub = (2.0 * wgt * Y * llb, wgtp)[::s]
    return t_uu * c_u + t_mix * (wgtp * Y * Y + 2.0 * wgt * Y * l_own) + t_ubub * c_ub


def deformation_closed(nd, t, x, gamma, side):
    """Closed form of the deformation contraction; nd is `_null_data` at the
    events (t, x).

    correction part: products of the dynamical correction's derivatives with
    two explicit stress components.  weight part: the weight derivative
    times the null-null stress component (vanishes iff
    |Lphi Lb varphi| = |Lb phi L varphi|, e.g. varphi = phi or flat
    background, but not in general).
    """
    A, B, a, b, llb, l2, lb2 = nd
    s = side_sign(side)
    coord = weight_coord(s, t, x)
    wgt, wgtp = weight_a(coord, gamma), weight_a_prime(coord, gamma)
    g = 1.0 - A * B
    (Y, Z), (y, z), (l_own, _) = (B, A)[::s], (b, a)[::s], (l2, lb2)[::s]
    correction = ((-0.5 * z * z - A * B * z * z / (4.0 * g) - Z * Z * a * b / (4.0 * g))
                  * (wgtp * Y * Y + 2.0 * wgt * Y * l_own)
                  + (Z * Z * y * y - Y * Y * z * z) / (8.0 * g) * 2.0 * wgt * Y * llb)
    weight_part = wgtp * (Y * Y * z * z - Z * Z * y * y) / (8.0 * g)
    return correction + weight_part


def trace_residual(nd):
    """T^a_a and the quadratic scale it should be compared against; nd is
    `_null_data` at the events."""
    A, B, a, b, *_ = nd
    t_uu, _, _, t_ubub = null_stress(B, A, b, a)
    scale = np.abs(a * b) + a * a + b * b + 1e-300
    return np.abs(t_uu + t_ubub), scale


def deformation_check(seed=0, gamma=0.5):
    """Max relative closed-vs-direct discrepancy and max relative trace over
    100 random field pairs; both should sit at roundoff.  The pairs are
    drawn in turn and evaluated together, stacked on a leading axis
    (`manufactured.MixtureStack`): the null data once, shared by both sides
    of every check, and each side once for all pairs.  The direct
    contraction and the closed form stay independent computations.  Each
    pair's values are those of the pair alone, and a NaN of any pair makes
    its maximum NaN, which fails every gate."""
    rng = np.random.default_rng(seed)
    tt, xx = np.meshgrid(np.linspace(0.0, 2.0, 5), np.linspace(-4.0, 4.0, 33), indexing="ij")
    pairs = [(random_mixture(rng, amp=0.25), random_mixture(rng, amp=0.5)) for _ in range(100)]
    nd = _null_data(*map(MixtureStack, zip(*pairs)), tt, xx)
    events = (1, 2)
    sides = []
    for side in ("TL", "TLb"):
        d = deformation_direct(nd, tt, xx, gamma, side)
        c = deformation_closed(nd, tt, xx, gamma, side)
        scale = np.max(np.abs(d), axis=events) + 1e-30
        sides.append(np.max(np.abs(d - c), axis=events) / scale)
    tr, scale = trace_residual(nd)
    return float(np.max(sides)), float(np.max(tr / scale))


# ---------------------------------------------------------------------------
# equivalence band of the stress contractions


def equivalence_ratios(seed=0):
    """Measured ratio band of each contraction against its quadratic
    comparator, sampled over the monitored regime."""
    rng = np.random.default_rng(seed)
    n = 10_000
    B = rng.uniform(0.01, 0.1, n) * rng.choice([-1, 1], n)
    A = rng.uniform(0.1, 1.0, n) * rng.choice([-1, 1], n)
    b = rng.uniform(0.1, 1.0, n) * rng.choice([-1, 1], n)
    a = rng.uniform(0.1, 1.0, n) * rng.choice([-1, 1], n)
    one = np.ones_like(A)
    comparators = {
        ("u", "TL"): b * b + 0.25 * B ** 4 * a * a,
        ("ub", "TL"): A * A * b * b + B * B * a * a,
        ("u", "TLb"): A * A * b * b + B * B * a * a,
        ("ub", "TLb"): a * a + 0.25 * A ** 4 * b * b,
        ("t", "TL"): b * b + B * B * a * a + A * A * b * b + B ** 4 * a * a,
        ("t", "TLb"): a * a + A * A * b * b + B * B * a * a + A ** 4 * b * b,
    }
    bands = {}
    for (direction, side), comp in comparators.items():
        dens = stress_density(B, A, b, a, one, side, direction)
        ratio = dens / comp
        bands[(direction, side)] = (float(np.min(ratio)), float(np.max(ratio)))
    return bands


# ---------------------------------------------------------------------------
# discrete energy balance along a run

# pending levels a BalanceAccumulator works off together.  Blocks of 8 and
# 16 levels ran no faster on `verify` and raised its peak memory by 1.2 and
# 3.7 MiB: each temporary of a block holds one row per level
BALANCE_BLOCK = 4


class BalanceAccumulator:
    """Run observer (`forking`) accumulating all terms of one null-region
    energy identity.

    The test row is phi itself, whose gradient (w, d_x phi) needs no time
    differencing, so every term is available at every step including t = 0.
    side 'TLb' pairs with the region left of an incoming line (ub <= ub0,
    boundary x = 2 ub0 - t); side 'TL' with the region right of an outgoing
    line (u <= u0, boundary x = t - 2 u0).

    on_step copies phi, w and p of each level into a buffer of
    BALANCE_BLOCK levels.  _flush(), when the buffer is full and from
    finalize(), works the pending levels off: one multiplier, one current
    density and one deriv1 over the stacked rows, and one cubic_interp call
    for the boundary values of every level whose boundary point lies on the
    grid.  Then it adds the levels one at a time, in order: the trapezoid of
    the null flux, Sigma(0) at level 0 and dt at level 1, level 0's bulk
    term (the region integral of d_t V^t plus the boundary value of V^x, by
    its one-sided stencil) once level 2 is there, and each later level's
    centred bulk term once the next level is.  finalize() adds only the
    last level's one-sided term, so the sum runs over i = 0, 1, ..., n-1 as
    one sum over all levels would.  Every sum is bit for bit that of a
    level at a time; a TimelikeViolation names the first failing level's
    min g.

    The accumulator holds the V^t profiles of the last 3 levels added, in
    one (3, n) array updated in place, with their times and boundary terms,
    and fewer than BALANCE_BLOCK pending levels: O(n) memory whatever the
    run length.  It follows one single-member run.
    """

    reads = ("phi", "w", "p")

    def __init__(self, side, coord, gamma):
        self.side = side
        # s of the signed side rule (module docstring); the region's far node
        self._sign = side_sign(side)
        self._far = -1 if self._sign > 0 else 0
        self.coord = float(coord)
        self.gamma = float(gamma)
        self._grid = None
        self._fields = None         # (3, BALANCE_BLOCK, n): phi, w, p of the pending levels
        self._times = []            # times of the pending levels
        self._n = 0                 # levels added
        self._vts = None            # (3, n), updated in place: the V^t profiles,
        self._taus = deque(maxlen=3)    # times and boundary V^x terms of the last
        self._edges = deque(maxlen=3)   # 3 levels added, oldest first
        self._dt = None
        self._bulk = 0.0
        self._sigma0 = None         # Sigma(0), the region integral of -V^t at the start
        self._flux = 0.0            # the null flux through the boundary line
        self._prev_flux_integrand = None

    # geometry helpers -----------------------------------------------------
    def _boundary_x(self, tau):
        return self._sign * (tau - 2.0 * self.coord)

    def _region_integral(self, f, grid, xb):
        """Integral of f over the region's part of the grid, boundary xb: a
        trapezoid from the far end to node j next to xb, plus the cell from
        j to xb, f interpolated toward node j - s.  A region narrower than
        one cell is that interpolated part cell alone, and a region that
        misses the grid gives 0."""
        s, x0, dx, n = self._sign, grid.x0, grid.dx, grid.n
        far = self._far % n
        j = min(max(int(np.floor((xb - x0) / dx)) + (s > 0), 0), n - 1)
        full = float(np.trapezoid(f[min(j, far):max(j, far) + 1], dx=dx))
        frac = s * ((x0 + j * dx) - xb)
        if frac > 0 and 0 <= j - s < n:
            fb = f[j] + (f[j - s] - f[j]) * frac / dx
            full += 0.5 * (f[j] + fb) * frac
        return full

    # current of the row phi ------------------------------------------------
    def _currents(self, t, phi, w, p):
        """(V^t, V^x) of the row phi at time t, or of a stack of levels
        (rows of phi, w and p) at the column of times t."""
        grid = self._grid
        xi = _multiplier_cartesian(w, p, t, grid.x, self.gamma, self.side)
        return _current_density(w, p, w, deriv1(phi, grid.dx), xi)

    # callback protocol ----------------------------------------------------
    def on_step(self, state):
        if self._grid is None:
            if state.w.ndim != 1:
                raise ValueError("the energy balance is accumulated along a single-member run")
            self._grid = state.grid
            self._fields = np.empty((3, BALANCE_BLOCK, state.grid.n))
            self._vts = np.empty((3, state.grid.n))
        k = len(self._times)
        self._fields[0, k] = state.phi
        self._fields[1, k] = state.w
        self._fields[2, k] = state.p
        self._times.append(state.t)
        if k + 1 == BALANCE_BLOCK:
            self._flush()

    def _flush(self):
        """Work off the pending levels (class docstring)."""
        m, grid, taus = len(self._times), self._grid, self._times
        if not m:
            return
        vts, vxs = self._currents(np.array(taus)[:, None], *self._fields[:, :m])
        self._times = []
        # null flux integrand: the exact boundary measure is 2*V^{null}
        xbs = [self._boundary_x(tau) for tau in taus]
        on = [k for k, xb in enumerate(xbs) if grid.x0 <= xb <= grid.x_end]
        ends = {}
        if on:
            r = np.arange(len(on))
            at = cubic_interp(np.stack((vts[on], vxs[on])), grid.x0, grid.dx,
                              [xbs[k] for k in on])[:, r, r]
            ends = dict(zip(on, zip(*at.tolist())))     # level: (V^t, V^x) there
        s, vx_far = self._sign, vxs[:, self._far].tolist()
        for k, tau in enumerate(taus):
            if k in ends:
                vt_b, vx_b = ends[k]
                # 2 V^ub (minus region) or 2 V^u (plus region) = V^t - s V^x
                integrand = -(vt_b - s * vx_b)
            else:
                vx_b = integrand = 0.0
            # bulk: the V^x boundary term of the region integral of d_x V^x
            self._add_level(tau, vts[k], integrand, s * (vx_far[k] - vx_b))

    def _add_level(self, tau, vt, integrand, edge):
        """Add the next level, at time tau with V^t profile vt, null flux
        integrand and boundary V^x term edge, to the sums (class docstring)."""
        v, taus, edges = self._vts, self._taus, self._edges
        if self._n:
            self._flux += 0.5 * (tau - taus[-1]) * (self._prev_flux_integrand + integrand)
        else:
            self._sigma0 = self._region_integral(-vt, self._grid, self._boundary_x(tau))
        if self._n == 1:
            self._dt = tau - taus[-1]
        self._prev_flux_integrand = integrand
        v[0] = v[1]
        v[1] = v[2]
        v[2] = vt
        taus.append(tau)
        edges.append(edge)
        self._n += 1
        if self._n == 3:
            self._bulk += self._bulk_term((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * self._dt),
                                          taus[0], edges[0], 0.5)
        if self._n >= 3:
            # the level before, now that it has its next
            self._bulk += self._bulk_term((v[2] - v[0]) / (2.0 * self._dt), taus[1], edges[1],
                                          1.0)

    def _bulk_term(self, dvt, tau, edge, wgt):
        """Weighted bulk term of the level at time tau with d_t V^t = dvt and
        boundary V^x term edge."""
        q = self._region_integral(dvt, self._grid, self._boundary_x(tau))
        q += edge
        return wgt * self._dt * q

    # final assembly --------------------------------------------------------
    def finalize(self):
        """Returns (residual, scale): |Sigma(t) + flux - Sigma(0) + bulk| and
        the magnitude of the largest term."""
        self._flush()
        if self._n < 3:
            raise InsufficientHistory(
                f"balance check needs at least 3 levels, have {self._n}")
        v0, v1, v2 = self._vts
        sigma_t = self._region_integral(-v2, self._grid, self._boundary_x(self._taus[-1]))
        bulk = self._bulk + self._bulk_term((3.0 * v2 - 4.0 * v1 + v0) / (2.0 * self._dt),
                                            self._taus[-1], self._edges[-1], 0.5)
        residual = abs(sigma_t + self._flux - self._sigma0 + bulk)
        scale = max(abs(sigma_t), abs(self._sigma0), abs(self._flux), abs(bulk), 1e-300)
        return residual, scale


def energy_balance_study(cfg, regions, base_grid: Grid1D, t_end) -> list:
    """Balance residuals of cfg's family on base_grid and its 2x and 4x
    refinements of (dx, dt), evolved to t_end under cfg's cfl, eps_ko and
    gmin; one Refinement per (side, coord) of regions, in order.

    All regions share one evolution per level: their accumulators ride as
    callbacks of the same run, each streaming its own terms in O(n) memory.
    The identities stay independent: each compares its own Sigma(t) -
    Sigma(0) with its own flux and bulk, and only the evolved solution is
    shared.  The levels run as `forking.refinement_levels`.  Raises
    BlowupDetected, naming the level, when a run stops early."""
    fam, regions = cfg.family(), list(regions)

    def level(k):
        """(dx, each region's relative residual) of level k"""
        grid = base_grid.refined(2 ** k)
        accs = [BalanceAccumulator(side, coord, fam.gamma) for side, coord in regions]
        run = run_evolution(fam, grid, t_end=t_end, cfl=cfg.cfl, eps_ko=cfg.eps_ko,
                            gmin=cfg.gmin, callbacks=accs)
        if run.status == "blowup":
            # the accumulators end first, as their error at an earlier level
            # stops a serial run; too few levels to finalize leave the blow-up
            for acc in accs:
                with suppress(InsufficientHistory):
                    acc.finalize()
            raise BlowupDetected(run.t_blowup,
                                 f"{run.blowup_reason} on balance level {k} (n = {grid.n})")
        return grid.dx, [r / scale for r, scale in (acc.finalize() for acc in accs)]

    hs, residuals = zip(*refinement_levels(level))
    return [Refinement("energy_balance_" + ("plus" if side_sign(side) > 0 else "minus"),
                       list(hs), list(res), BALANCE_ORDER_MIN)
            for (side, _), res in zip(regions, zip(*residuals))]


# ---------------------------------------------------------------------------
# the identity suite

# pass thresholds
DIVERGENCE_FLAT_TOL = 1e-12     # flat background: the identity is exact
DIVERGENCE_ORDER_MIN = 3.5      # every refinement ratio (log2): 4th-order stencils
BALANCE_ORDER_MIN = 1.5         # every ratio: 2nd-order time differences and quadrature
DEFORMATION_TOL = 1e-10         # closed form vs direct contraction, relative
TRACE_TOL = 1e-13               # |T^a_a| relative to its quadratic scale
EQUIVALENCE_BAND = (1.0 / 16.0, 16.0)


def _closed_form_studies(gamma, seed):
    """(study, passed) of each identity of `verify_suite` but the energy
    balance, in suite order."""
    rng = np.random.default_rng(seed)

    def check(name, value, ok):
        return Refinement(name, [0.0], [value], None), ok

    # divergence identity: flat background, constant null multiplier, exact
    flat = divergence_identity_study(ZeroField(), MovingGaussian(0.7, 0.0, 1.3, 1.0),
                                     gamma=gamma, side="const", hs=(0.05,))
    studies = [(flat, flat.values[0] <= DIVERGENCE_FLAT_TOL)]

    # divergence identity: curved background, both multipliers, refinement
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    for side in ("TL", "TLb"):
        study = divergence_identity_study(phi, varphi, gamma=gamma, side=side)
        studies.append((study, study.passed()))

    # deformation closed forms and the trace identity
    worst, worst_trace = deformation_check(seed=seed, gamma=gamma)
    studies.append(check("deformation_closed_vs_direct", worst, worst <= DEFORMATION_TOL))
    studies.append(check("trace_identity", worst_trace, worst_trace <= TRACE_TOL))

    # two-sided equivalence band of the contractions
    bands = equivalence_ratios(seed=seed)
    # np.min and np.max, unlike min and max, keep a NaN of any band
    lo = float(np.min([b[0] for b in bands.values()]))
    hi = float(np.max([b[1] for b in bands.values()]))
    studies.append(check("equivalence_band_lo", lo, EQUIVALENCE_BAND[0] <= lo))
    studies.append(check("equivalence_band_hi", hi, hi <= EQUIVALENCE_BAND[1]))
    return studies


def verify_suite(cfg) -> list:
    """The six identity studies at cfg.gamma: divergence on a flat and a
    curved background, deformation closed forms, the trace identity, the
    equivalence band, and the energy balance of cfg's family on both null
    regions.  The curved background and the deformation fields are drawn
    from cfg.seed.  Returns (Refinement, passed) per identity, in suite order.

    The closed-form studies run in a forked child while the balance study
    runs (`forking.run_both`); a closed-form study's error is raised before
    the balance study's."""
    bal_grid = Grid1D(-24.0, 0.125, 385)
    closed_forms, balance = run_both(
        lambda: _closed_form_studies(cfg.gamma, cfg.seed),
        lambda: energy_balance_study(cfg, (("TL", -1.0), ("TLb", 1.0)), bal_grid, t_end=4.0))
    return [*closed_forms, *((study, study.passed()) for study in balance)]
