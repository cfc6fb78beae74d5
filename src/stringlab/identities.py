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

* energy balance -- on the trapezoidal null regions, surface term + null
  flux equals the initial term minus the bulk divergence integral.  Checked
  discretely along a run for the row phi itself; the null-segment
  measure carries the Jacobian factor 2 that makes the discrete divergence
  theorem close exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .energy import stress_density
from .errors import BlowupDetected, InsufficientHistory, TimelikeViolation
from .evolve import Grid1D, orders_pass, refinement_orders, run_evolution
from .manufactured import MovingGaussian, ZeroField, random_mixture
from .nullgeom import (GMIN_DEFAULT, multiplier, null_stress, side_weight, weight_a,
                       weight_a_prime)
from .stencils import cubic_interp, deriv1


@dataclass
class IdentityResidual:
    identity: str
    levels: list          # stencil spacings or grid spacings, coarse to fine
    residuals: list

    @property
    def orders(self):
        return refinement_orders(self.residuals)


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
    stress of the row gradient (vt, vx).  Raises TimelikeViolation when
    min(g) <= GMIN_DEFAULT."""
    g = 1.0 - w * w + p * p
    if np.min(g) <= GMIN_DEFAULT:
        raise TimelikeViolation(np.min(g), GMIN_DEFAULT)
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


def _current(phi, varphi, t, x, gamma, side):
    """(V^t, V^x) = sqrt(g) * (P^t, P^x) from closed-form fields."""
    w = phi.d(1, 0, t, x)
    p = phi.d(0, 1, t, x)
    return _current_density(w, p, varphi.d(1, 0, t, x), varphi.d(0, 1, t, x),
                            _multiplier_cartesian(w, p, t, x, gamma, side))


def _metric_maps(phi, t, x):
    """sqrt(g)*g^{ab} maps: (M^tt, M^tx, M^xx)."""
    w = phi.d(1, 0, t, x)
    p = phi.d(0, 1, t, x)
    g = 1.0 - w * w + p * p
    sq = np.sqrt(g)
    return -(1.0 + p * p) / sq, w * p / sq, (1.0 - w * w) / sq


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
    which come from the same stencils on `_metric_maps`.  Each side
    evaluates its function once per shifted event: 8 `_current` and 8
    `_metric_maps` calls per residual.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)

    (dvt_t, _), (_, dvx_x) = _stencil_derivs(
        lambda tt, xx: _current(phi, varphi, tt, xx, gamma, side), t, x, h)
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
    (mtt_t, mtx_t, mxx_t), (mtt_x, mtx_x, mxx_x) = _stencil_derivs(
        lambda tt, xx: _metric_maps(phi, tt, xx), t, x, h)
    principal = gtt * vtt + 2.0 * gtx * vtx + gxx * vxx
    div_t = mtt_t + mtx_x   # d_a M^{a t}
    div_x = mtx_t + mxx_x   # d_a M^{a x}
    box_term = sq * principal * xi_varphi + (div_t * vt + div_x * vx) * xi_varphi

    # deformation term, analytic coefficient derivatives
    if side == "const":
        dxit_t = dxit_x = dxix_t = dxix_x = np.zeros_like(w)
    else:
        wt = phi.d(2, 0, t, x)
        wx = phi.d(1, 1, t, x)
        px = phi.d(0, 2, t, x)
        if side == "TL":
            ub = (t + x) / 2.0
            wgt, wgtp = weight_a(ub, gamma), weight_a_prime(ub, gamma)
            lg = w + p
            dcl_t, dcl_x = 0.5 * wgtp, 0.5 * wgtp
            dclb_t = 0.5 * wgtp * lg ** 2 + wgt * 2.0 * lg * (wt + wx)
            dclb_x = 0.5 * wgtp * lg ** 2 + wgt * 2.0 * lg * (wx + px)
        else:
            uu = (t - x) / 2.0
            wgt, wgtp = weight_a(uu, gamma), weight_a_prime(uu, gamma)
            lbg = w - p
            dclb_t, dclb_x = 0.5 * wgtp, -0.5 * wgtp
            dcl_t = 0.5 * wgtp * lbg ** 2 + wgt * 2.0 * lbg * (wt - wx)
            dcl_x = -0.5 * wgtp * lbg ** 2 + wgt * 2.0 * lbg * (wx - px)
        dxit_t, dxit_x = dcl_t + dclb_t, dcl_x + dclb_x
        dxix_t, dxix_x = dcl_t - dclb_t, dcl_x - dclb_x
    deform = t_tt * dxit_t + t_xt * dxit_x + t_tx * dxix_t + t_xx * dxix_x

    # xi(sqrt(g) g^{cd}) d_c varphi d_d varphi, directional stencils
    xi_mtt = xit * mtt_t + xix * mtt_x
    xi_mtx = xit * mtx_t + xix * mtx_x
    xi_mxx = xit * mxx_t + xix * mxx_x
    metric_term = 0.5 * (xi_mtt * vt * vt + 2.0 * xi_mtx * vt * vx + xi_mxx * vx * vx)

    rhs = box_term + sq * deform - metric_term
    return float(np.max(np.abs(lhs - rhs)))


def divergence_identity_study(phi, varphi, gamma=0.5, side="TL",
                              hs=(0.08, 0.04, 0.02)) -> IdentityResidual:
    tt, xx = np.meshgrid(np.linspace(0.3, 0.9, 7), np.linspace(-3.0, 3.0, 41), indexing="ij")
    res = [divergence_residual(phi, varphi, gamma, side, h, tt, xx) for h in hs]
    return IdentityResidual(f"divergence_{side}", list(hs), res)


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
    t_uu, t_uub, t_ubu, t_ubub = null_stress(B, A, b, a)
    if side == "TL":
        ub = (np.asarray(t) + np.asarray(x)) / 2.0
        wgt, wgtp = weight_a(ub, gamma), weight_a_prime(ub, gamma)
        dy_u = 2.0 * wgt * B * llb
        dy_ub = wgtp * B * B + 2.0 * wgt * B * l2
        return t_uu * dy_u + t_ubu * dy_ub + t_ubub * wgtp
    if side == "TLb":
        uu = (np.asarray(t) - np.asarray(x)) / 2.0
        wgt, wgtp = weight_a(uu, gamma), weight_a_prime(uu, gamma)
        dyb_u = wgtp * A * A + 2.0 * wgt * A * lb2
        dyb_ub = 2.0 * wgt * A * llb
        return t_uu * wgtp + t_uub * dyb_u + t_ubub * dyb_ub
    raise ValueError(f"bad side {side!r}")


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
    g = 1.0 - A * B
    if side == "TL":
        ub = (np.asarray(t) + np.asarray(x)) / 2.0
        wgt, wgtp = weight_a(ub, gamma), weight_a_prime(ub, gamma)
        correction = ((-0.5 * a * a - A * B * a * a / (4.0 * g) - A * A * a * b / (4.0 * g))
                      * (wgtp * B * B + 2.0 * wgt * B * l2)
                      + (A * A * b * b - B * B * a * a) / (8.0 * g) * 2.0 * wgt * B * llb)
        weight_part = wgtp * (B * B * a * a - A * A * b * b) / (8.0 * g)
        return correction + weight_part
    if side == "TLb":
        uu = (np.asarray(t) - np.asarray(x)) / 2.0
        wgt, wgtp = weight_a(uu, gamma), weight_a_prime(uu, gamma)
        correction = ((-0.5 * b * b - A * B * b * b / (4.0 * g) - B * B * a * b / (4.0 * g))
                      * (wgtp * A * A + 2.0 * wgt * A * lb2)
                      + (B * B * a * a - A * A * b * b) / (8.0 * g) * 2.0 * wgt * A * llb)
        weight_part = wgtp * (A * A * b * b - B * B * a * a) / (8.0 * g)
        return correction + weight_part
    raise ValueError(f"bad side {side!r}")


def trace_residual(nd):
    """T^a_a and the quadratic scale it should be compared against; nd is
    `_null_data` at the events."""
    A, B, a, b, *_ = nd
    t_uu, _, _, t_ubub = null_stress(B, A, b, a)
    scale = np.abs(a * b) + a * a + b * b + 1e-300
    return np.abs(t_uu + t_ubub), scale


def deformation_check(seed=0, gamma=0.5):
    """Max relative closed-vs-direct discrepancy and max relative trace over
    100 random field pairs; both should sit at roundoff.  Each pair's null
    data is evaluated once and shared by both sides of every check: the
    direct contraction and the closed form stay independent computations."""
    rng = np.random.default_rng(seed)
    tt, xx = np.meshgrid(np.linspace(0.0, 2.0, 5), np.linspace(-4.0, 4.0, 33), indexing="ij")
    worst = 0.0
    worst_trace = 0.0
    for _ in range(100):
        phi = random_mixture(rng, amp=0.25)
        varphi = random_mixture(rng, amp=0.5)
        nd = _null_data(phi, varphi, tt, xx)
        for side in ("TL", "TLb"):
            d = deformation_direct(nd, tt, xx, gamma, side)
            c = deformation_closed(nd, tt, xx, gamma, side)
            scale = np.max(np.abs(d)) + 1e-30
            worst = max(worst, float(np.max(np.abs(d - c)) / scale))
        tr, scale = trace_residual(nd)
        worst_trace = max(worst_trace, float(np.max(tr / scale)))
    return worst, worst_trace


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


class BalanceAccumulator:
    """Run callback accumulating all terms of one null-region energy identity.

    The test row is phi itself, whose gradient (w, d_x phi) needs no time
    differencing, so every term is available at every step including t = 0.
    side 'TLb' pairs with the region left of an incoming line (ub <= ub0,
    boundary x = 2 ub0 - t); side 'TL' with the region right of an outgoing
    line (u <= u0, boundary x = t - 2 u0).

    The terms are summed as the levels stream in.  Level i's bulk term (the
    region integral of d_t V^t plus the boundary value of V^x) is added once
    level i+1 has arrived (level 0's, by its one-sided stencil, once level 2
    has), and finalize() adds only the last level's one-sided term, so the
    sum runs over i = 0, 1, ..., n-1 as one sum over all levels would.  The
    accumulator holds a window of at most 3 V^t profiles plus one boundary
    scalar per held level: O(n) memory whatever the run length.  It follows
    one single-member run, from its start state on.
    """

    def __init__(self, side, coord, gamma):
        if side not in ("TL", "TLb"):
            raise ValueError(f"bad side {side!r}")
        self.side = side
        self.coord = float(coord)
        self.gamma = float(gamma)
        self._n = 0                 # levels seen
        self._taus = deque(maxlen=3)
        self._vts = deque(maxlen=3)     # V^t profiles of the held levels
        self._edges = deque(maxlen=3)   # boundary V^x terms of the held levels
        self._dt = None
        self._bulk = 0.0
        self.sigma0 = None
        self.flux = 0.0
        self._prev_flux_integrand = None

    # geometry helpers -----------------------------------------------------
    def _boundary_x(self, tau):
        if self.side == "TLb":
            return 2.0 * self.coord - tau
        return tau - 2.0 * self.coord

    def _region_integral(self, f, grid, xb):
        x0, dx, n = grid.x0, grid.dx, grid.n
        pos = (xb - x0) / dx
        idx = int(np.floor(pos))
        if self.side == "TLb":
            if idx < 1:
                return 0.0
            idx = min(idx, n - 1)
            full = float(np.trapezoid(f[:idx + 1], dx=dx))
            frac = xb - (x0 + idx * dx)
            if frac > 0 and idx + 1 < n:
                fb = f[idx] + (f[idx + 1] - f[idx]) * frac / dx
                full += 0.5 * (f[idx] + fb) * frac
            return full
        if idx >= n - 2:
            return 0.0
        lo = max(idx + 1, 0)
        full = float(np.trapezoid(f[lo:], dx=dx))
        frac = (x0 + lo * dx) - xb
        if frac > 0 and lo >= 1:
            fb = f[lo] - (f[lo] - f[lo - 1]) * frac / dx
            full += 0.5 * (f[lo] + fb) * frac
        return full

    # current of the row phi ------------------------------------------------
    def _currents(self, state):
        grid = state.grid
        w, p = state.w, state.p
        xi = _multiplier_cartesian(w, p, state.t, grid.x, self.gamma, self.side)
        return _current_density(w, p, w, deriv1(state.phi, grid.dx), xi)

    # callback protocol ----------------------------------------------------
    def on_step(self, state):
        if not self._n:
            if state.w.ndim != 1:
                raise ValueError("the energy balance is accumulated along a single-member run")
            self._grid = state.grid
        vt_cur, vx_cur = self._currents(state)
        tau = state.t
        # null flux integrand: the exact boundary measure is 2*V^{null}
        xb = self._boundary_x(tau)
        grid = state.grid
        if grid.x0 <= xb <= grid.x_end:
            vt_b, vx_b = cubic_interp(np.stack((vt_cur, vx_cur)), grid.x0, grid.dx, xb)
            # minus region: 2 V^ub = V^t + V^x ; plus region: 2 V^u = V^t - V^x
            integrand = -(vt_b + vx_b) if self.side == "TLb" else -(vt_b - vx_b)
        else:
            vx_b = 0.0
            integrand = 0.0
        if self._prev_flux_integrand is not None:
            dtau = tau - self._taus[-1]
            self.flux += 0.5 * dtau * (self._prev_flux_integrand + integrand)
        self._prev_flux_integrand = integrand
        # bulk: the V^x boundary term of the region integral of d_x V^x
        edge = float(vx_b) - vx_cur[0] if self.side == "TLb" else vx_cur[-1] - float(vx_b)
        self._taus.append(tau)
        self._vts.append(vt_cur)
        self._edges.append(edge)
        self._n += 1
        if self._n == 1:
            self.sigma0 = self._region_integral(-vt_cur, grid, self._boundary_x(tau))
        elif self._n == 2:
            self._dt = self._taus[1] - self._taus[0]
        elif self._n >= 3:
            v0, v1, v2 = self._vts
            if self._n == 3:
                self._bulk += self._bulk_term(
                    (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * self._dt), 0, 0.5)
            self._bulk += self._bulk_term((v2 - v0) / (2.0 * self._dt), 1, 1.0)

    def _bulk_term(self, dvt, k, wgt):
        """Weighted bulk term of the held level k with d_t V^t = dvt."""
        q = self._region_integral(dvt, self._grid, self._boundary_x(self._taus[k]))
        q += self._edges[k]
        return wgt * self._dt * q

    # final assembly --------------------------------------------------------
    def finalize(self):
        """Returns (residual, scale): |Sigma(t) + flux - Sigma(0) + bulk| and
        the magnitude of the largest term."""
        if self._n < 3:
            raise InsufficientHistory(
                f"balance check needs at least 3 levels, have {self._n}")
        v0, v1, v2 = self._vts
        sigma_t = self._region_integral(-v2, self._grid, self._boundary_x(self._taus[-1]))
        bulk = self._bulk + self._bulk_term((3.0 * v2 - 4.0 * v1 + v0) / (2.0 * self._dt),
                                            2, 0.5)
        residual = abs(sigma_t + self.flux - self.sigma0 + bulk)
        scale = max(abs(sigma_t), abs(self.sigma0), abs(self.flux), abs(bulk), 1e-300)
        return residual, scale


def energy_balance_study(cfg, regions, base_grid: Grid1D, t_end) -> list:
    """Balance residuals of cfg's family on base_grid and its 2x and 4x
    refinements of (dx, dt), evolved to t_end under cfg's cfl, eps_ko and
    gmin; one IdentityResidual per (side, coord) of regions, in order.

    All regions share one evolution per level: their accumulators ride as
    callbacks of the same run, each streaming its own terms in O(n) memory.
    The identities stay independent: each compares its own Sigma(t) -
    Sigma(0) with its own flux and bulk, and only the evolved solution is
    shared.  Raises BlowupDetected, naming the level, when a run stops early."""
    fam, regions = cfg.family(), list(regions)
    residuals = [[] for _ in regions]
    hs = []
    grid = base_grid
    for k in range(3):
        accs = [BalanceAccumulator(side, coord, fam.gamma) for side, coord in regions]
        run = run_evolution(fam, grid, t_end=t_end, cfl=cfg.cfl, eps_ko=cfg.eps_ko,
                            gmin=cfg.gmin, callbacks=accs)
        if run.status == "blowup":
            raise BlowupDetected(run.t_blowup,
                                 f"{run.blowup_reason} on balance level {k} (n = {grid.n})")
        for acc, res in zip(accs, residuals):
            r, scale = acc.finalize()
            res.append(r / scale)
        hs.append(grid.dx)
        grid = grid.refined()
    return [IdentityResidual("energy_balance_plus" if side == "TL" else "energy_balance_minus",
                             list(hs), res) for (side, _), res in zip(regions, residuals)]


# ---------------------------------------------------------------------------
# the identity suite

# pass thresholds
DIVERGENCE_FLAT_TOL = 1e-12     # flat background: the identity is exact
DIVERGENCE_ORDER_MIN = 3.5      # every refinement ratio (log2): 4th-order stencils
BALANCE_ORDER_MIN = 1.5         # every ratio: 2nd-order time differences and quadrature
DEFORMATION_TOL = 1e-10         # closed form vs direct contraction, relative
TRACE_TOL = 1e-13               # |T^a_a| relative to its quadratic scale
EQUIVALENCE_BAND = (1.0 / 16.0, 16.0)


@dataclass
class SuiteResult:
    rows: list            # identities.csv rows: identity, level, dx, residual, order
    failures: list        # names of the failed identities, in suite order


def verify_suite(cfg) -> SuiteResult:
    """The six identity studies at cfg.gamma: divergence on a flat and a
    curved background, deformation closed forms, the trace identity, the
    equivalence band, and the energy balance of cfg's family on both null
    regions.  The curved background and the deformation fields are drawn
    from cfg.seed."""
    gamma, seed = cfg.gamma, cfg.seed
    rng = np.random.default_rng(seed)
    suite = SuiteResult([], [])

    def check(study, ok):
        suite.rows.extend([study.identity, i, h, r, order] for i, (h, r, order) in
                          enumerate(zip(study.levels, study.residuals, ["", *study.orders])))
        if not ok:
            suite.failures.append(study.identity)

    def scalar(name, value):
        return IdentityResidual(name, [0.0], [value])

    # divergence identity: flat background, constant null multiplier, exact
    flat = divergence_identity_study(ZeroField(), MovingGaussian(0.7, 0.0, 1.3, 1.0),
                                     gamma=gamma, side="const", hs=(0.05,))
    check(flat, flat.residuals[0] <= DIVERGENCE_FLAT_TOL)

    # divergence identity: curved background, both multipliers, refinement
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    for side in ("TL", "TLb"):
        study = divergence_identity_study(phi, varphi, gamma=gamma, side=side)
        check(study, orders_pass(study.orders, DIVERGENCE_ORDER_MIN))

    # deformation closed forms and the trace identity
    worst, worst_trace = deformation_check(seed=seed, gamma=gamma)
    check(scalar("deformation_closed_vs_direct", worst), worst <= DEFORMATION_TOL)
    check(scalar("trace_identity", worst_trace), worst_trace <= TRACE_TOL)

    # two-sided equivalence band of the contractions
    bands = equivalence_ratios(seed=seed)
    lo = min(b[0] for b in bands.values())
    hi = max(b[1] for b in bands.values())
    check(scalar("equivalence_band_lo", lo), EQUIVALENCE_BAND[0] <= lo)
    check(scalar("equivalence_band_hi", hi), hi <= EQUIVALENCE_BAND[1])

    # discrete energy balance on both null regions
    bal_grid = Grid1D(-24.0, 0.125, 385)
    for study in energy_balance_study(cfg, (("TL", -1.0), ("TLb", 1.0)), bal_grid, t_end=4.0):
        check(study, orders_pass(study.orders, BALANCE_ORDER_MIN))
    return suite
