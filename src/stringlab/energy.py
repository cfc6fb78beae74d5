"""Weighted energies, null fluxes, stress contractions, and run monitors.

The derivative tower holds grid samples of L(d^k phi) and Lb(d^k phi) for
all multi-indices k = (k1, k2) with k1 + k2 <= N.  It is built in two
steps.  `_centred_rows` gives the k1 = 0 rows of a stack of levels: nested
spatial stencils of the base null gradients w +- d_x(phi).  `time_rows`
gives the deeper time derivatives as nested 2nd-order centered differences
of those rows across the levels, so an order-N tower needs 2N+1
consecutive levels.  `null_rows` and `build_tower` are the composition of
the two.

A tower is one array from start to finish, the `time_rows` layout
(N+1, N+1, 2, ..., n) indexed [k1, k2, L or Lb], with zeros where
k1 + k2 > N; the exact t = 0 trace table (`higher_order_traces`) uses the
same layout.  Energies, weighted sups and flux densities work on whole
k1 slices of it, and `_order_sums` adds per-row values into orders.

The run tracker (`EnergyTracker`) holds the fields of its last levels, no
derivatives, and works its flux centres off in blocks.  A block takes the
spatial rows only on a window around each flux probe line and the time
differences only on the four grid columns around each probe; a report
takes both on the whole grid.  Every stencil is elementwise and every
column read lies clear of the window and grid edges, so both are
byte-identical to differencing a tower built afresh from the same states.

Energies at order k aggregate all multi-index rows of that total order:

    E2_[k+1](t)  = sum_{|m|=k} int a(ub) |L phi_m|^2  sqrt(g) dx
    Eb2_[k+1](t) = sum_{|m|=k} int a(u)  |Lb phi_m|^2 sqrt(g) dx

and the inhomogeneous totals sum the orders k = 0..N.  Fluxes accumulate
the same weighted squares along fixed null lines (u = u0 for the
left-travelling part, ub = ub0 for the right-travelling part).

The energies are integrals over the whole line; since the integrands are
nonnegative this equals the supremum over the half-line truncations, which
is the form the run monitors bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, FitOverflow, InsufficientHistory
from .evolve import (FieldState, Grid1D, Refinement, Verdict, init_state, run_evolution,
                     stack_states, step)
from .forking import streamed_run
from .initialdata import TraceTable, higher_order_traces
from .nullgeom import multiplier, null_stress, side_weight
from .stencils import cubic_combine, cubic_weights, deriv1

N_DEFAULT = 4
AGMON_SLACK = 1e-6              # Agmon margins may dip this far below 0, relative to sqrt(sup E)
SUP_RATIO_CAP = 2.0             # embedding cap on the weighted sups in units of the fitted M
_SIDES = ("TL", "TLb")          # the side of the L row (index 0) and of the Lb row (1)
TRACE_ORDER_MIN = 1.5           # floor of trace_check_study's log2(worst level 0 / level 1)
# EnergyTracker centres per flush.  Replaying hierarchy_sweep's states, the
# tracker ran fastest with blocks of 8 among 4 to 32 (4 and 16 took 1.33x
# and 1.18x its time, 32 took 1.46x the time of 16): larger blocks'
# temporaries spill out of a 2 MB L2 cache, smaller ones pay more calls per
# centre.  It holds 2N+8 levels of phi and w, 0.8 MB there, and the
# workload's peak RSS is 1.5 MiB below that at 16
FLUX_BLOCK = 8


def _centred_rows(base, dx, N):
    """base, spatial rows w +- d_x(phi) at a stack of levels along axis 0,
    and their nested d_x up to order N, shape (N+1, *base.shape).  Order
    k2 is differenced only on the levels k2 .. L-1-k2 that order-N towers
    centred on the stack read, and is zero on the others: one deriv1 call
    per order, on ever fewer levels.  w + (-1)*d_x(phi) is w - d_x(phi)
    bit for bit, so a base of w + sign*d_x(phi) holds the L and Lb rows."""
    n_levels = len(base)
    rows = np.empty((N + 1,) + base.shape)
    rows[0] = base
    for k2 in range(1, N + 1):
        rows[k2, :k2] = 0.0
        rows[k2, n_levels - k2:] = 0.0
        rows[k2, k2:n_levels - k2] = deriv1(rows[k2 - 1, k2:n_levels - k2], dx)
    return rows


def time_rows(levels, dt, N):
    """All tower rows at the center of an odd stack of spatial rows.

    levels has the time axis first, then k2 and the L or Lb row, shape
    (levels, N+1, 2, ...), at consecutive, equally spaced times.  Each
    extra time derivative is one centered difference of the row below,
    applied to the whole stack at once.  Returns shape (N+1, N+1, 2, ...) indexed
    [k1, k2, L or Lb]; entries with k1 + k2 > N are zero.  dt may be an
    array that broadcasts against the axes after k2, one step per stack
    laid side by side there.

    Differencing the null rows themselves (rather than assembling them from
    mixed-derivative fields) matters: the left-travelling rows are small and
    would otherwise inherit order-one cancellation errors from the large
    right-travelling part.  Here every row keeps a relative O(dt^2) error.
    """
    n_levels = levels.shape[0]
    if n_levels < 2 * N + 1:
        raise InsufficientHistory(f"need {2 * N + 1} levels for an order-{N} tower, "
                                  f"have {n_levels}")
    if n_levels % 2 == 0:
        raise InsufficientHistory("level stack must have odd length")
    out = np.zeros((N + 1,) + levels.shape[1:])
    out[0] = levels[n_levels // 2]
    half = 2.0 * dt
    cur = levels
    for k1 in range(1, N + 1):
        keep = N + 1 - k1
        cur = cur[2:, :keep] - cur[:-2, :keep]
        cur /= half
        out[k1, :keep] = cur[cur.shape[0] // 2]
    return out


def null_rows(phis, ws, dt, dx, N):
    """Null-gradient rows (L and Lb of every mixed derivative) at the center
    of a level stack.

    phis/ws are sequences of 2N+1 arrays, or arrays with the level axis
    first (each level possibly batched, grid axis last), at consecutive,
    equally spaced times.  Returns the `time_rows` array, indexed
    [k1, k2, L or Lb].
    """
    ph = np.asarray(phis, dtype=float)
    w = np.asarray(ws, dtype=float)
    phx = deriv1(ph, dx)
    rows = _centred_rows(np.stack([w + phx, w - phx], axis=1), dx, N)
    return time_rows(np.moveaxis(rows, 1, 0), dt, N)


@dataclass
class DerivativeTower:
    """Null derivatives of all mixed derivatives up to total order N."""

    t: float
    grid: Grid1D
    N: int
    rows: np.ndarray               # (N+1, N+1, 2, n) `time_rows` layout

    @property
    def g(self):
        return 1.0 - self.rows[0, 0, 0] * self.rows[0, 0, 1]


def _level_dt(times):
    """The common time step of a stack of levels."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise InsufficientHistory("need at least 2 levels")
    dts = np.diff(times)
    # not <=: a NaN time fails the check
    if not np.max(np.abs(dts - dts[0])) <= 1e-9 * max(abs(dts[0]), 1e-30):
        raise InsufficientHistory("stored levels are not equally spaced in time")
    return float(dts[0])


def build_tower(states, N=N_DEFAULT) -> DerivativeTower:
    """Tower at the center state of an odd stack of >= 2N+1 equal-dt levels."""
    states = list(states)
    dt = _level_dt([s.t for s in states])
    grid = states[0].grid
    rows = null_rows([s.phi for s in states], [s.w for s in states], dt, grid.dx, N)
    return DerivativeTower(t=float(states[len(states) // 2].t), grid=grid, N=N, rows=rows)


# ---------------------------------------------------------------------------
# stress-tensor contractions


def stress_density(base_lphi, base_lbphi, row_lphi, row_lbphi, weight, side, direction):
    """T[row](-D direction, multiplier), assembled exactly from null
    components of the inverse metric; no equivalence constants involved.

    direction is 'u', 'ub', or 't' (with -Dt = -Du - Dub).  weight is the
    multiplier weight a(ub) for side 'TL' or a(u) for side 'TLb'.
    """
    B = np.asarray(base_lphi, dtype=float)
    A = np.asarray(base_lbphi, dtype=float)
    t_uu, t_uub, t_ubu, t_ubub = null_stress(B, A, np.asarray(row_lphi, dtype=float),
                                             np.asarray(row_lbphi, dtype=float))
    # L = d/d(ub) and Lb = d/d(u): cl is the ub component, clb the u component
    cl, clb = multiplier(side, weight, B, A)
    pu = t_uu * clb + t_uub * cl
    pub = t_ubu * clb + t_ubub * cl
    if direction == "u":
        return -pu
    if direction == "ub":
        return -pub
    if direction == "t":
        return -(pu + pub)
    raise ValueError(f"direction must be 'u', 'ub', or 't', got {direction!r}")


# ---------------------------------------------------------------------------
# energies


def _order_sums(per_row):
    """Per-row values summed over the rows of each total order.

    per_row is indexed [k1, ..., k2], N+1 entries on each of those axes;
    the result is indexed [..., k] with k = k1 + k2 <= N.  The rows are
    added from zeros in the order k1 = 0..N.
    """
    n_orders = per_row.shape[0]
    out = np.zeros(per_row.shape[1:])
    for k1 in range(n_orders):
        out[..., k1:] += per_row[k1, ..., :n_orders - k1]
    return out


def _side_weights(t, x, gamma):
    """The weight of the L rows, a(ub), and of the Lb rows, a(u), at time t
    on the points x."""
    return [side_weight(side, t, x, gamma) for side in _SIDES]


def energy_orders(tower: DerivativeTower, gamma, weights=None):
    """E2 and Eb2 per order k = 0..N: the trapezoid quadrature of
    weight * |row|^2 * sqrt(g) for each L (Lb) row, summed over |m| = k.
    One k1 slice of rows is squared at a time.  weights are the tower's
    `_side_weights`, computed here unless given."""
    N = tower.N
    sqrt_g = np.sqrt(np.maximum(tower.g, 0.0))
    per_row = np.zeros((N + 1, 2, N + 1))
    if weights is None:
        weights = _side_weights(tower.t, tower.grid.x, gamma)
    for s, wgt in enumerate(weights):
        for k1 in range(N + 1):
            rows = tower.rows[k1, :N + 1 - k1, s]
            per_row[k1, s, :N + 1 - k1] = np.trapezoid(wgt * rows ** 2 * sqrt_g,
                                                       dx=tower.grid.dx)
    e2, eb2 = _order_sums(per_row)
    return e2, eb2


def _sobolev_stats(tower: DerivativeTower, gamma, weights=None):
    """Weighted sup bounds for rows up to order N-1; weights as in
    `energy_orders`.

    For h = sqrt(weight) * row the 1d embedding gives
    sup h^2 <= 2 ||h|| (c0 ||h|| + ||sqrt(weight) d_x row||) with
    c0 = (1+gamma)/4 the uniform bound on the weight's half log-derivative.
    Returns (sup_L, sup_Lb, margin_L, margin_Lb): the weighted sups per
    order and the minimal slack of the bound over all rows.
    """
    N = tower.N
    c0 = 0.25 * (1.0 + gamma)
    sups = np.zeros((2, N))
    margins = [np.inf, np.inf]
    if weights is None:
        weights = _side_weights(tower.t, tower.grid.x, gamma)
    for s, wgt in enumerate(weights):
        root = np.sqrt(wgt)
        for k1 in range(N):
            # rows k2 = 0..N-k1-1 of orders k1..N-1, and the d_x row of each
            rows = tower.rows[k1, :N + 1 - k1, s]
            lhs = np.max(root * np.abs(rows[:-1]), axis=-1)
            l2 = np.sqrt(np.trapezoid(wgt * rows ** 2, dx=tower.grid.dx))
            bound = np.sqrt(2.0 * l2[:-1] * (c0 * l2[:-1] + l2[1:]))
            np.maximum(sups[s, k1:], lhs, out=sups[s, k1:])
            margins[s] = min(margins[s], float(np.min(bound - lhs)))
    return sups[0], sups[1], float(margins[0]), float(margins[1])


@dataclass
class EnergyReport:
    """Snapshot of all monitored quantities at one output time."""

    t: float
    e2: np.ndarray                # per order, side L
    eb2: np.ndarray
    min_g: float
    sup_l: np.ndarray             # sup of sqrt(weight)*|L row| per order < N
    sup_lb: np.ndarray
    agmon_l_margin: float
    agmon_lb_margin: float
    f2: np.ndarray                # (n probes_u, N+1) running flux
    fb2: np.ndarray               # (n probes_ub, N+1)

    @property
    def e2_total(self):
        return float(np.sum(self.e2))

    @property
    def eb2_total(self):
        return float(np.sum(self.eb2))


def report_from_tower(tower: DerivativeTower, gamma, f2, fb2, weights=None) -> EnergyReport:
    """Energies, weighted sups and Agmon margins of a tower, with the flux
    totals f2 and fb2 accumulated up to the tower's t; weights as in
    `energy_orders`."""
    if weights is None:
        weights = _side_weights(tower.t, tower.grid.x, gamma)
    e2, eb2 = energy_orders(tower, gamma, weights)
    sup_l, sup_lb, am_l, am_lb = _sobolev_stats(tower, gamma, weights)
    return EnergyReport(
        t=tower.t, e2=e2, eb2=eb2, min_g=float(np.min(tower.g)),
        sup_l=sup_l, sup_lb=sup_lb,
        agmon_l_margin=am_l, agmon_lb_margin=am_lb, f2=f2, fb2=fb2)


class EnergyTracker:
    """Run observer (`forking`): accumulates null fluxes along fixed probe
    lines and emits periodic EnergyReports from the derivative tower.

    Flux probes are fixed before the run: probes_u are retarded coordinates
    u0 of outgoing lines (x = t - 2 u0), probes_ub advanced coordinates ub0
    of incoming lines (x = 2 ub0 - t).  The lines form one array, the
    u-lines first and the ub-lines after them: the running fluxes `_flux`
    (B, lines, N+1), the flux density of the last centre `_prev`, and the
    per-line flags `_truncated` and `_inside`.  A u-line takes the L rows
    under the weight a(ub), a ub-line the Lb rows under a(u); reports split
    the fluxes into f2 and fb2.

    The tracker holds the fields phi and w of the last 2N + FLUX_BLOCK
    accepted levels, no derivatives.  A level is a centre once N levels
    follow it; the flux at a centre adds dt * weight * |row|^2 * sqrt(g) at
    each line's abscissa by cubic interpolation, trapezoidal in time.  The
    centres are worked off in blocks, when FLUX_BLOCK of them are pending
    and from finalize():

    - the spatial rows of each line's own side (N+1 deriv1 calls per
      block) only on probe windows: per line, the interpolation columns of
      its centres in the block plus the 2(N+1) cells the nested stencils
      reach, the windows of all lines laid end to end in one row per level
      and member;
    - one flat gather of those rows at each line's four columns over the
      2N+1 levels of every centre, and one `time_rows` call with a
      per-centre dt (the summed level times make the steps differ in the
      last bits);
    - the truncation flags and the running fluxes as accumulations along
      the block, which add in the order of one centre at a time, so a
      report reads the flux at its own centre.

    A report centre (every report_every-th level, lagged by N) differences
    the full grid: the spatial rows of its own 2N+1 levels, one member at a
    time.  Every stencil is elementwise and every needed column lies at
    least 2(N+1) cells inside its window and the grid, so all of this is
    byte-identical to differencing a tower built afresh from the same
    states, one centre at a time.

    An ensemble (fields (B, n), see `run_evolution`) is tracked as one: a
    block costs N+1 deriv1 calls whatever B is, and the probe abscissae,
    weights and truncation flags are shared; finalize() returns the
    reports per member.

    A line accumulates while it stays hw+1 cells inside the grid.  One that
    has not reached the grid yet (an outgoing line left of it, an incoming
    line right of it) waits; one that leaves is flagged truncated and stops
    accumulating for good.
    """

    reads = ("phi", "w")

    def __init__(self, gamma, N=N_DEFAULT, probes_u=(), probes_ub=(),
                 report_every=25):
        if not 1 <= N <= 6:
            raise ValueError(f"N out of [1, 6]: {N}")
        if report_every < 1:
            raise ValueError(f"report_every must be >= 1: {report_every}")
        self.gamma = float(gamma)
        self.N = int(N)
        self.probes_u = np.asarray(probes_u, dtype=float)
        self.probes_ub = np.asarray(probes_ub, dtype=float)
        self.report_every = int(report_every)
        self._reports = []
        self._grid = None
        self._fields = None            # (2, 2N+K, B, n): phi and w of the held levels
        self._times = []               # times of the held levels
        self._levels_seen = 0
        self._nu = len(self.probes_u)
        self._flux = None              # (B, lines, N+1) running fluxes
        self._prev = None              # (B, lines, N+1) flux density at _prev_tau
        self._prev_tau = None
        self._truncated = np.zeros(self._nu + len(self.probes_ub), dtype=bool)
        self._inside = np.zeros_like(self._truncated)
        # probes keep hw+1 cells from the edges, clear of the one-sided edge
        # stencils under N+1 nested first derivatives plus the cubic
        # interpolation; hw cells below the probe is also the reference
        # point of its interpolation coordinate
        self._hw = 2 * (self.N + 2) + 4

    def finalize(self):
        """(reports per member up to the last accepted level, names of the
        probe lines that left the grid)."""
        self._flush()
        names = [f"u0={c:g}" for c in self.probes_u] + [f"ub0={c:g}" for c in self.probes_ub]
        return self._reports, [name for name, gone in zip(names, self._truncated) if gone]

    def on_step(self, state: FieldState):
        phi, w = np.atleast_2d(state.phi), np.atleast_2d(state.w)
        if self._fields is None:
            self._grid = state.grid
            self._reports = [[] for _ in range(w.shape[0])]
            self._fields = np.empty((2, 2 * self.N + FLUX_BLOCK) + w.shape)
            self._flux = np.zeros((w.shape[0], len(self._truncated), self.N + 1))
        held = len(self._times)
        self._fields[0, held] = phi
        self._fields[1, held] = w
        self._times.append(state.t)
        self._levels_seen += 1
        if held + 1 == self._fields.shape[1]:
            self._flush()

    def _flush(self):
        """Fluxes and reports of every held centre; keeps the last 2N levels,
        the older halves of the centres to come."""
        N = self.N
        n_centres = len(self._times) - 2 * N
        if n_centres <= 0:
            return
        times = np.array(self._times)
        tau = times[N:N + n_centres]
        running = self._accumulate(tau, self._densities(tau, times[1:n_centres + 1]
                                                        - times[:n_centres]))
        # the start state is level 0: level k is the state after k steps
        first_newest = self._levels_seen - len(self._times) + 2 * N
        for i in range(n_centres):
            if (first_newest + i) % self.report_every == 0:
                self._report(i, times, running[i])
        self._fields[:, :2 * N] = self._fields[:, n_centres:n_centres + 2 * N]
        del self._times[:n_centres]

    # -- flux ---------------------------------------------------------------

    def _densities(self, tau, dts):
        """Flux densities of the held centres at times tau, whose oldest
        levels are dts apart: weight*|row(x)|^2*sqrt(g(x)) summed over the
        rows of each order, shape (centres, B, lines, N+1), zero on lines
        that are not active.  Updates the truncation flags."""
        grid, N, nu = self._grid, self.N, self._nu
        margin = (self._hw + 1) * grid.dx
        lo, hi = grid.x0 + margin, grid.x_end - margin
        t = tau[:, None]
        x = np.concatenate([t - 2.0 * self.probes_u, 2.0 * self.probes_ub - t], axis=1)
        inside = (x > lo) & (x < hi)
        # a u-line moves right and leaves past hi, a ub-line past lo
        past_exit = np.concatenate([x[:, :nu] >= hi, x[:, nu:] <= lo], axis=1)
        leaving = (np.concatenate([self._inside[None], inside[:-1]]) & ~inside) | past_exit
        truncated = np.logical_or.accumulate(
            np.concatenate([self._truncated[None], leaving]))[1:]
        self._truncated, self._inside = truncated[-1], inside[-1]
        active = inside & ~truncated
        cur = np.zeros((len(tau),) + self._flux.shape)
        lines = np.flatnonzero(active.any(axis=0))
        if lines.size:
            active, x = active[:, lines], x[:, lines]
            weights, cols = self._interpolation(x, active)
            n_u = int(np.count_nonzero(lines < nu))
            sign = np.where(np.arange(len(lines)) < n_u, 1.0, -1.0)
            own, other = self._probe_rows(cols, sign, dts)
            own = cubic_combine(weights, own)             # (N+1, N+1, centres, B, P)
            sqrt_g = np.sqrt(np.maximum(1.0 - own[0, 0] * cubic_combine(weights, other), 0.0))
            wgt = np.concatenate([side_weight("TL", t, x[:, :n_u], self.gamma),
                                  side_weight("TLb", t, x[:, n_u:], self.gamma)], axis=1)
            dens = wgt[:, None] * own ** 2 * sqrt_g
            cur[:, :, lines] = np.where(active[:, None, :, None],
                                        _order_sums(np.moveaxis(dens, 1, -1)), 0.0)
        return cur

    def _interpolation(self, x, active):
        """Cubic weights (each (centres, 1, P)) at the abscissae x and the
        first of the four grid columns (centres, P); inactive entries get
        any column of an active one."""
        grid = self._grid
        # interpolation coordinate taken from cell i0, hw below the probe:
        # (x - x0)/dx would round differently in the last bits
        i0 = np.round((x - grid.x0) / grid.dx).astype(int) - self._hw
        pos = (x - (grid.x0 + i0 * grid.dx)) / grid.dx
        base, weights = cubic_weights(pos, 2 * self._hw + 1)
        cols = i0 + base
        cols = np.where(active, cols, np.max(np.where(active, cols, -1), axis=0))
        return tuple(wt[:, None] for wt in weights), cols

    def _probe_rows(self, cols, sign, dts):
        """The tower rows of each line's own side at its four columns from
        cols, (N+1, N+1, centres, B, P, 4), and the other side's k2 = 0 row
        at the centre level, (centres, B, P, 4), for sqrt(g).  sign is +1
        for a line of L rows, -1 for one of Lb rows.

        The rows are differenced on one window per line, which holds the
        columns of all centres plus the 2(N+1) cells the nested stencils
        reach; the windows of all lines lie end to end in one row per level
        and member, and each carries its line's side only.
        """
        N, n, dx = self.N, self._grid.n, self._grid.dx
        reach = 2 * (N + 1)
        first = np.min(cols, axis=0) - reach
        width = int(np.max(np.max(cols, axis=0) + 4 + reach - first))
        start = np.minimum(first, n - width)
        n_lines, held = len(start), len(self._times)
        phi, w = self._fields[:, :held][..., (start[:, None] + np.arange(width)).ravel()]
        phx = deriv1(phi, dx)
        rows = _centred_rows(w + np.repeat(sign, width) * phx, dx, N)   # (N+1, held, B, P*W)
        # flat index of [level, b, p*W + column - start[p]] in a (held, B, P*W) array
        level = w[0].size
        n_members, n_centres = w.shape[1], len(cols)
        centre = ((np.arange(n_centres) * level)[:, None, None, None]
                  + (np.arange(n_members) * (n_lines * width))[:, None, None]
                  + ((cols - start) + np.arange(n_lines) * width)[:, None, :, None]
                  + np.arange(4))                                    # (centres, B, P, 4)
        k2_centre = (np.arange(N + 1) * (held * level))[:, None] + centre.ravel()
        own = rows.take((np.arange(2 * N + 1) * level)[:, None, None] + k2_centre)
        own = own.reshape((2 * N + 1, N + 1) + centre.shape)
        at_centre = centre + N * level
        other = w.take(at_centre) - sign[:, None] * phx.take(at_centre)
        return time_rows(own, dts[:, None, None, None], N), other

    def _accumulate(self, tau, cur):
        """The running fluxes at each centre, (centres, B, lines, N+1): the
        trapezoid from the previous centre to each centre, summed in order."""
        taus, curs = tau, cur
        if self._prev_tau is not None:
            taus = np.concatenate([[self._prev_tau], tau])
            curs = np.concatenate([self._prev[None], cur])
        # else the block holds the run's first centre: its flux is zero, and
        # the first trapezoid starts there
        steps = (0.5 * np.diff(taus))[:, None, None, None] * (curs[:-1] + curs[1:])
        running = np.add.accumulate(np.concatenate([self._flux[None], steps]))[-len(tau):]
        self._flux, self._prev, self._prev_tau = running[-1], cur[-1], tau[-1]
        return running

    # -- reports ------------------------------------------------------------

    def _report(self, i, times, flux):
        """Append to each member the report at held centre i with the fluxes
        flux (B, lines, N+1), from the full-grid spatial rows of the centre's
        2N+1 levels; the members are differenced one at a time, so the
        temporaries stay at the size of a single member.  The members share
        t and x, so they share the side weights."""
        N, nu = self.N, self._nu
        levels = slice(i, i + 2 * N + 1)
        dt = _level_dt(times[levels])
        t = float(times[i + N])
        weights = _side_weights(t, self._grid.x, self.gamma)
        for k, reports in enumerate(self._reports):
            phi, w = self._fields[:, levels, k]
            rows = null_rows(phi, w, dt, self._grid.dx, N)
            tower = DerivativeTower(t=t, grid=self._grid, N=N, rows=rows)
            reports.append(report_from_tower(tower, self.gamma, flux[k, :nu].copy(),
                                             flux[k, nu:].copy(), weights))

    def initial_report(self, fam, grid) -> EnergyReport:
        """Report at t = 0 from the exact trace table of the data, zero flux."""
        table = higher_order_traces(fam, self.N, grid.x)
        tower = DerivativeTower(t=0.0, grid=grid, N=self.N, rows=table.rows)
        return report_from_tower(tower, self.gamma,
                                 np.zeros((len(self.probes_u), self.N + 1)),
                                 np.zeros((len(self.probes_ub), self.N + 1)))


# ---------------------------------------------------------------------------
# runs under a tracker


def config_tracker(cfg) -> EnergyTracker:
    """The EnergyTracker of an ExperimentConfig."""
    return EnergyTracker(gamma=cfg.gamma, N=cfg.N, probes_u=cfg.probes_u,
                         probes_ub=cfg.probes_ub, report_every=cfg.report_every)


def _tracked_ensemble(cfg, deltas):
    """Evolve the family of cfg.with_(delta=d) for each d in deltas on cfg's
    grid, as one ensemble under cfg's tracker, which runs in a child
    (`forking.streamed_run`): (RunResult, reports with the exact t = 0
    report first, MonitorResult) per member, and the truncated probe names.
    Raises InsufficientHistory when a member completes without an evolved
    report: the run was too short to fill the tower ring and reach a report
    step."""
    grid = cfg.grid()
    fams = [cfg.with_(delta=d).family() for d in deltas]
    tracker = config_tracker(cfg)
    start = stack_states([init_state(fam, grid) for fam in fams])

    def run(callbacks):
        result = run_evolution(start, t_end=cfg.t_end, cfl=cfg.cfl, eps_ko=cfg.eps_ko,
                               gmin=cfg.gmin, callbacks=callbacks)
        # the t = 0 reports need no run: they overlap the child's last states
        return result, [tracker.initial_report(fam, grid) for fam in fams]

    (result, initial), [(evolved, truncated)] = streamed_run(run, [tracker], start)
    if any(res.status == "completed" and not reports
           for res, reports in zip(result.members, evolved)):
        raise InsufficientHistory(
            f"a run of {result.n_steps} steps gives no energy report: an order-{tracker.N} "
            f"tower needs {2 * tracker.N + 1} levels and reports come every "
            f"{tracker.report_every} steps")
    out = []
    for res, first, delta, reports in zip(result.members, initial, deltas, evolved):
        reports = [first] + reports
        out.append((res, reports, monitor(reports, delta)))
    return out, truncated


def tracked_run(cfg):
    """Evolve cfg's family on cfg's grid under cfg's EnergyTracker: (RunResult,
    reports with the exact t = 0 report first, MonitorResult, the names of
    the probe lines that left the grid)."""
    (member,), truncated = _tracked_ensemble(cfg, (cfg.delta,))
    return (*member, truncated)


def tracked_sweep(cfg):
    """(members, the names of the probe lines that left the grid), where
    members holds tracked_run's first three values of cfg.with_(delta=d)
    for each d in cfg.deltas, in order.

    All deltas evolve as one ensemble, so each result is bit for bit its
    tracked_run.  Raises BlowupDetected, naming the delta, when a member
    blows up: the hierarchy holds only for globally smooth solutions.
    """
    out, truncated = _tracked_ensemble(cfg, cfg.deltas)
    for d, (res, _, _) in zip(cfg.deltas, out):
        if res.status == "blowup":
            raise BlowupDetected(res.t_blowup, f"{res.blowup_reason} at delta = {d:g}")
    return out, truncated


def _truncation_notes(truncated):
    return [f"warning: flux probe lines left the grid and stopped accumulating: "
            f"{', '.join(truncated)}"] if truncated else []


def run_verdict(cfg, crit, result, mon, truncated) -> Verdict:
    """`run`'s verdict on cfg's CriterionReport and tracked_run(cfg): exit 2
    on a blow-up, warned of when crit passed, else 0 if mon passes at
    cfg.gmin, or 1.  Truncated probe lines are warned of."""
    lines = [f"criterion: {'pass' if crit.passed else 'FAIL'} "
             f"(gap {crit.gap_min:.3e}, ordering margin {crit.order_margin:.3e})"]
    notes = _truncation_notes(truncated)
    if result.status == "blowup":
        lines.append(f"blow-up detected at t = {result.t_blowup:.6g} ({result.blowup_reason})")
        if crit.passed:
            notes.append(f"warning: criterion pass (ordering margin {crit.order_margin:.3e}) "
                         f"but blow-up (min g {result.min_g_seen:.3e}): "
                         "the grid may be under-resolved")
        return Verdict(2, lines, notes)
    ok = mon.passed(cfg.gmin)
    lines.append(f"run complete: t_end={cfg.t_end:g}, min_g={mon.min_g:.4f}, "
                 f"max|lambda|={result.max_speed_seen:.12f}, M2={mon.m2:.4e}, "
                 f"monitors {'pass' if ok else 'FAIL'}")
    return Verdict(0 if ok else 1, lines, notes)


def sweep_verdict(fit, truncated) -> Verdict:
    """`sweep`'s verdict on the fit of tracked_sweep(cfg): exit 0, with
    truncated probe lines warned of."""
    return Verdict(0, [f"sweep: slope(E2)={fit.slope_e2:.3f} (expect 2), "
                       f"slope(Eb2)={fit.slope_eb2:.3f} (expect 0), "
                       f"Eb2 variation={fit.eb2_variation:.3%}, C1_bar={fit.c1_bar:.3e}, "
                       f"C1={fit.c1:.3e}"], _truncation_notes(truncated))


def tower_at_zero(cfg, grid):
    """Tower of cfg's family on grid centered at t = 0, from forward and backward steps."""
    state0 = init_state(cfg.family(), grid)
    sides = []
    for dt in (-cfg.cfl * grid.dx, cfg.cfl * grid.dx):
        s, levels = state0, []
        for _ in range(cfg.N):
            s, _ = step(s, dt=dt, eps_ko=cfg.eps_ko, gmin=cfg.gmin)
            levels.append(s)
        sides.append(levels)
    return build_tower(sides[0][::-1] + [state0] + sides[1], cfg.N)


@dataclass
class TraceCheckStudy:
    """Exact t = 0 trace table against the tower time differences of the
    evolved solution, on a grid and its 2x refinement."""

    discrepancy: dict              # (k1, k2) -> Refinement of its relative max discrepancy
    table: TraceTable              # exact table of level 0, with its den_min

    @property
    def gate(self):
        """The worst discrepancy over (k1, k2) per level; np.max keeps a NaN."""
        recs = list(self.discrepancy.values())
        worst = np.max([rec.values for rec in recs], axis=0).tolist()
        return Refinement("tracecheck", recs[0].spacings, worst, TRACE_ORDER_MIN)

    def verdict(self) -> Verdict:
        """The worst discrepancies and the denominator, then the gate."""
        gate = self.gate
        return gate.verdict(f"tracecheck: max discrepancy {gate.values[0]:.3e} -> "
                            f"{gate.values[1]:.3e} under refinement; induction denominator "
                            f"min {self.table.den_min:.6f} (>= 4)")


def trace_check_study(cfg) -> TraceCheckStudy:
    """trace table vs tower_at_zero on cfg's grid and its 2x refinement for the
    rows of total order <= min(N, 3), each relative to the larger of its two
    trace sups.  Only level 0's table, which the study keeps, has order N."""
    fam, grids = cfg.family(), (cfg.grid(), cfg.grid().refined())
    top = min(cfg.N, 3)
    discrepancy, tables = {}, []
    for level, g in enumerate(grids):
        # the tower first: its level stack is gone before the table is built
        tower = tower_at_zero(cfg.with_(N=top), g)
        table = higher_order_traces(fam, top if level else cfg.N, g.x)
        tables.append(table)
        for k1 in range(top + 1):
            exact = table.rows[k1, :top + 1 - k1]
            scale = np.maximum(np.max(np.abs(exact), axis=(1, 2)), 1e-12)
            dev = np.max(np.abs(tower.rows[k1, :top + 1 - k1] - exact), axis=(1, 2))
            for k2, d in enumerate(dev / scale):
                discrepancy.setdefault((k1, k2), []).append(float(d))
    dxs = [g.dx for g in grids]
    recs = {(k1, k2): Refinement(f"trace_{k1}_{k2}", dxs, ds, TRACE_ORDER_MIN)
            for (k1, k2), ds in discrepancy.items()}
    return TraceCheckStudy(recs, tables[0])


# ---------------------------------------------------------------------------
# monitors and hierarchy fits


@dataclass
class MonitorResult:
    """Bootstrap-style margins for one completed run."""

    delta: float
    sup_e2: float                  # sup over outputs of the total L energy
    sup_eb2: float
    sup_f2: float                  # max over probes of the final flux totals
    sup_fb2: float
    e2_initial: float
    eb2_initial: float
    m2: float                      # fitted bootstrap constant
    c_l: float                     # sup sqrt(weight)|L row| / (delta*M)
    c_lb: float                    # sup sqrt(weight)|Lb row| / M
    agmon_l_margin: float
    agmon_lb_margin: float
    min_g: float

    def passed(self, gmin) -> bool:
        """The run stayed timelike above gmin, the Agmon bounds held up to
        quadrature noise, and the weighted sups obeyed the embedding cap
        under the fitted M (c_l only for delta != 0).  A NaN fails: every
        comparison with it is False."""
        slack = -AGMON_SLACK * np.sqrt(max(self.sup_eb2, self.sup_e2, 1e-30))
        return bool(self.min_g > gmin and self.agmon_l_margin > slack
                    and self.agmon_lb_margin > slack
                    and (self.c_l <= SUP_RATIO_CAP
                         or self.delta == 0.0 and not np.isnan(self.c_l))
                    and self.c_lb <= SUP_RATIO_CAP)


def monitor(reports, delta) -> MonitorResult:
    """Fit the bootstrap constant M from a run and report weighted-sup
    ratios against it.

    M^2 := max( sup_t Eb2 + sup Fb2 , (sup_t E2 + sup F2)/delta^2 ), so the
    two-tier energy bounds hold by construction and the interesting outputs
    are the sup ratios and the Agmon margins.
    """
    if not reports:
        raise ValueError("no energy reports to monitor")
    # np.max and np.min, unlike max and min, keep a NaN of any report
    sup_e2 = float(np.max([r.e2_total for r in reports]))
    sup_eb2 = float(np.max([r.eb2_total for r in reports]))
    last = reports[-1]
    sup_f2 = float(np.max(np.sum(last.f2, axis=1))) if last.f2.size else 0.0
    sup_fb2 = float(np.max(np.sum(last.fb2, axis=1))) if last.fb2.size else 0.0
    a_tier = sup_eb2 + sup_fb2
    b_tier = sup_e2 + sup_f2
    d2 = max(delta ** 2, 1e-300)
    m2 = float(np.max([a_tier, b_tier / d2]))
    m = np.sqrt(max(m2, 1e-300))
    c_l = float(np.max([np.max(r.sup_l) if r.sup_l.size else 0.0 for r in reports]))
    c_lb = float(np.max([np.max(r.sup_lb) if r.sup_lb.size else 0.0 for r in reports]))
    return MonitorResult(
        delta=delta, sup_e2=sup_e2, sup_eb2=sup_eb2, sup_f2=sup_f2, sup_fb2=sup_fb2,
        e2_initial=reports[0].e2_total, eb2_initial=reports[0].eb2_total,
        m2=m2,
        c_l=c_l / max(abs(delta) * m, 1e-300),
        c_lb=c_lb / m,
        agmon_l_margin=float(np.min([r.agmon_l_margin for r in reports])),
        agmon_lb_margin=float(np.min([r.agmon_lb_margin for r in reports])),
        min_g=float(np.min([r.min_g for r in reports])))


@dataclass
class HierarchyFit:
    """delta-scaling of the two energy tiers across a sweep."""

    deltas: np.ndarray
    sup_e2: np.ndarray
    sup_eb2: np.ndarray
    slope_e2: float                # log-log slope, 2 expected
    slope_eb2: float               # 0 expected
    eb2_variation: float           # max/min - 1 across the sweep
    m2: float
    c1_bar: float                  # envelope constant of the Eb tier
    c1: float                      # envelope constant of the E tier


def _slope(x, y) -> float:
    """Slope of the least-squares line through (x, y), in closed form:
    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2).  x must hold at
    least two distinct values, as the sweep's deltas do."""
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


def fit_hierarchy(monitors) -> HierarchyFit:
    """Least-squares slopes and envelope constants from a delta sweep.

    The shape constants are envelope fits: c1_bar is the largest excess of
    sup(Eb2)+sup(Fb2) over its initial value in units of delta*M^4, and c1
    the same for the small tier in units of delta^3*M^6.  Both are positive
    whenever any energy flows at all.  FitOverflow when M^4 or M^6 overflows.
    """
    monitors = sorted(monitors, key=lambda mo: mo.delta)
    deltas = np.array([mo.delta for mo in monitors])
    sup_e2 = np.array([mo.sup_e2 for mo in monitors])
    sup_eb2 = np.array([mo.sup_eb2 for mo in monitors])
    a_tier = np.array([mo.sup_eb2 + mo.sup_fb2 for mo in monitors])
    b_tier = np.array([mo.sup_e2 + mo.sup_f2 for mo in monitors])
    m2 = float(np.max([mo.m2 for mo in monitors]))
    log_d = np.log(deltas)
    slope_e2 = _slope(log_d, np.log(np.maximum(sup_e2, 1e-300)))
    slope_eb2 = _slope(log_d, np.log(np.maximum(sup_eb2, 1e-300)))
    eb0 = np.array([mo.eb2_initial for mo in monitors])
    e0 = np.array([mo.e2_initial for mo in monitors])
    try:
        m4, m6 = m2 ** 2, m2 ** 3
    except OverflowError:
        raise FitOverflow(f"M2 = {m2:.4e} at deltas down to {deltas[0]:g}: the hierarchy "
                          "constants divide by M2^2 and M2^3, which overflow a float") from None
    c1_bar = float(np.max((a_tier - eb0) / (deltas * m4)))
    c1 = float(np.max((b_tier - e0) / (deltas ** 3 * m6)))
    return HierarchyFit(
        deltas=deltas, sup_e2=sup_e2, sup_eb2=sup_eb2,
        slope_e2=slope_e2, slope_eb2=slope_eb2,
        eb2_variation=float(np.max(sup_eb2) / np.min(sup_eb2) - 1.0),
        m2=m2, c1_bar=c1_bar, c1=c1)
