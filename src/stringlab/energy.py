"""Weighted energies, null fluxes, stress contractions, and run monitors.

The derivative tower holds grid samples of L(d^k phi) and Lb(d^k phi) for
all multi-indices k = (k1, k2) with k1 + k2 <= N.  It is built in two
steps.  `spatial_rows` gives the k1 = 0 rows of one time level: spatial
stencils of the base null gradients w +- d_x(phi).  `time_rows` gives the
deeper time derivatives as nested 2nd-order centered differences of those
rows across stored levels, so an order-N tower needs 2N+1 consecutive
levels.  `null_rows` and `build_tower` are the composition of the two.

A tower is one array from start to finish, the `time_rows` layout
(N+1, N+1, 2, ..., n) indexed [k1, k2, L or Lb], with zeros where
k1 + k2 > N; the exact t = 0 trace table (`higher_order_traces`) uses the
same layout.  Energies, weighted sups and flux densities work on whole
k1 slices of it, and `_order_sums` adds per-row values into orders.

The run tracker differentiates each level once, on the full grid, when it
enters its ring of the last 2N+1 levels, and keeps only those spatial
rows.  Flux probes take the time differences on the four grid columns
around each probe; reports take them on the whole grid.  Every stencil is
elementwise, so both are byte-identical to differencing a tower built
afresh from the same states.

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

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, FitOverflow, InsufficientHistory
from .evolve import (FieldState, Grid1D, init_state, orders_pass, refinement_orders,
                     run_evolution, stack_states, step)
from .initialdata import TraceTable, higher_order_traces
from .nullgeom import multiplier, null_stress, side_weight
from .stencils import cubic_combine, cubic_weights, deriv1

N_DEFAULT = 4
AGMON_SLACK = 1e-6              # Agmon margins may dip this far below 0, relative to sqrt(sup E)
SUP_RATIO_CAP = 2.0             # embedding cap on the weighted sups in units of the fitted M
_SIDES = ("TL", "TLb")          # the side of the L row (index 0) and of the Lb row (1)
TRACE_ORDER_MIN = 1.5           # floor of trace_check_study's log2(worst level 0 / level 1)


def spatial_rows(phi, w, dx, N):
    """The k1 = 0 null rows L and Lb of d_x^k2 phi, k2 = 0..N, at one level.

    phi and w may carry any leading axes (grid axis last).  Returns shape
    (N+1, 2, *phi.shape), indexed [k2, L or Lb].  Each order costs one
    deriv1 call on the stacked (L, Lb) pair.
    """
    phi = np.asarray(phi, dtype=float)
    w = np.asarray(w, dtype=float)
    rows = np.empty((N + 1, 2) + phi.shape)
    phx = deriv1(phi, dx)
    rows[0, 0] = w + phx
    rows[0, 1] = w - phx
    for k2 in range(1, N + 1):
        rows[k2] = deriv1(rows[k2 - 1], dx)
    return rows


def time_rows(levels, dt, N):
    """All tower rows at the center of an odd stack of spatial rows.

    levels has the time axis first, then the (N+1, 2, ...) layout of
    `spatial_rows`, at consecutive, equally spaced times.  Each extra time
    derivative is one centered difference of the row below, applied to the
    whole stack at once.  Returns shape (N+1, N+1, 2, ...) indexed
    [k1, k2, L or Lb]; entries with k1 + k2 > N are zero.

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

    phis/ws are sequences of 2N+1 arrays (each possibly batched, grid axis
    last) at consecutive, equally spaced times.  Returns the `time_rows`
    array, indexed [k1, k2, L or Lb].
    """
    ph = np.stack([np.asarray(f, dtype=float) for f in phis])
    w = np.stack([np.asarray(f, dtype=float) for f in ws])
    levels = np.moveaxis(spatial_rows(ph, w, dx, N), 2, 0)
    return time_rows(levels, dt, N)


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
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(abs(dts[0]), 1e-30):
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


def _side_weights(tower: DerivativeTower, gamma):
    """The weight of the L rows, a(ub), and of the Lb rows, a(u), on the grid."""
    return [side_weight(side, tower.t, tower.grid.x, gamma) for side in _SIDES]


def energy_orders(tower: DerivativeTower, gamma):
    """E2 and Eb2 per order k = 0..N: the trapezoid quadrature of
    weight * |row|^2 * sqrt(g) for each L (Lb) row, summed over |m| = k.
    One k1 slice of rows is squared at a time."""
    N = tower.N
    sqrt_g = np.sqrt(np.maximum(tower.g, 0.0))
    per_row = np.zeros((N + 1, 2, N + 1))
    for s, wgt in enumerate(_side_weights(tower, gamma)):
        for k1 in range(N + 1):
            rows = tower.rows[k1, :N + 1 - k1, s]
            per_row[k1, s, :N + 1 - k1] = np.trapezoid(wgt * rows ** 2 * sqrt_g,
                                                       dx=tower.grid.dx)
    e2, eb2 = _order_sums(per_row)
    return e2, eb2


def _sobolev_stats(tower: DerivativeTower, gamma):
    """Weighted sup bounds for rows up to order N-1.

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
    for s, wgt in enumerate(_side_weights(tower, gamma)):
        for k1 in range(N):
            # rows k2 = 0..N-k1-1 of orders k1..N-1, and the d_x row of each
            rows = tower.rows[k1, :N + 1 - k1, s]
            lhs = np.max(np.sqrt(wgt) * np.abs(rows[:-1]), axis=-1)
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
    flux_t: float
    f2: np.ndarray                # (n probes_u, N+1) running flux
    fb2: np.ndarray               # (n probes_ub, N+1)

    @property
    def e2_total(self):
        return float(np.sum(self.e2))

    @property
    def eb2_total(self):
        return float(np.sum(self.eb2))


def report_from_tower(tower: DerivativeTower, gamma, flux_t, f2, fb2) -> EnergyReport:
    """Energies, weighted sups and Agmon margins of a tower, with the flux
    totals accumulated up to flux_t."""
    e2, eb2 = energy_orders(tower, gamma)
    sup_l, sup_lb, am_l, am_lb = _sobolev_stats(tower, gamma)
    return EnergyReport(
        t=tower.t, e2=e2, eb2=eb2, min_g=float(np.min(tower.g)),
        sup_l=sup_l, sup_lb=sup_lb,
        agmon_l_margin=am_l, agmon_lb_margin=am_lb,
        flux_t=flux_t, f2=f2, fb2=fb2)


class EnergyTracker:
    """Run callback: accumulates null fluxes each step and emits periodic
    EnergyReports from the derivative tower.

    Each accepted level is differentiated once, on the full grid, when it
    enters the tracker: its k1 = 0 spatial rows (`spatial_rows`, N+1
    deriv1 calls) go into a ring holding the last 2N+1 levels.  The ring
    keeps only those rows and their times, no field states.

    An ensemble (fields (B, n), see `run_evolution`) shares one ring of
    shape (2N+1, N+1, 2, B, n): a level costs N+1 deriv1 calls whatever B
    is, and the probe abscissae, weights and truncation flags are computed
    once per step.  `member_reports[b]` lists member b's reports.

    Flux probes are fixed before the run: probes_u are retarded coordinates
    u0 of outgoing lines (x = t - 2 u0), probes_ub advanced coordinates ub0
    of incoming lines (x = 2 ub0 - t).  Each accepted step gathers the four
    interpolation columns around every active probe from the ring, forms
    the k1 >= 1 rows there by nested centered time differences, and adds
    dt * weight * |row|^2 * sqrt(g) at the line's current abscissa by cubic
    interpolation (trapezoidal in time, lagged to the center of the ring so
    all tower rows exist).  Reports difference the whole ring the same way.

    The lines form one array, the u-lines first and the ub-lines after
    them: the running fluxes `_flux` (B, lines, N+1), the flux density of
    the last step `_prev`, and the per-line flags `truncated` and
    `_inside`.  A u-line takes the L rows under the weight a(ub), a ub-line
    the Lb rows under a(u); reports split the fluxes into f2 and fb2.

    A line accumulates while it stays hw+1 cells inside the grid.  One that
    has not reached the grid yet (an outgoing line left of it, an incoming
    line right of it) waits; one that leaves is flagged truncated and stops
    accumulating for good.
    """

    def __init__(self, gamma, N=N_DEFAULT, probes_u=(), probes_ub=(),
                 report_every=25):
        self.gamma = float(gamma)
        self.N = int(N)
        self.probes_u = np.asarray(probes_u, dtype=float)
        self.probes_ub = np.asarray(probes_ub, dtype=float)
        self.report_every = int(report_every)
        self.member_reports: list[list[EnergyReport]] = []
        self._n_levels = 2 * self.N + 1
        self._grid = None
        self._rows = None              # (2N+1, N+1, 2, B, n) ring of spatial rows
        self._times = deque(maxlen=self._n_levels)
        self._levels_seen = 0
        self._nu = len(self.probes_u)
        self._flux = None              # (B, lines, N+1) running fluxes
        self._prev = None              # (B, lines, N+1) flux density at _prev_tau
        self._prev_tau = None
        self.truncated = np.zeros(self._nu + len(self.probes_ub), dtype=bool)
        self._inside = np.zeros_like(self.truncated)
        # probes keep hw+1 cells from the edges, clear of the one-sided edge
        # stencils under N+1 nested first derivatives plus the cubic
        # interpolation; hw cells below the probe is also the reference
        # point of its interpolation coordinate
        self._hw = 2 * (self.N + 2) + 4

    @property
    def reports(self) -> list[EnergyReport]:
        """The reports of a single-member run."""
        if len(self.member_reports) > 1:
            raise ValueError("an ensemble has member_reports, one list per member")
        return self.member_reports[0] if self.member_reports else []

    def on_step(self, state: FieldState):
        self._push(state)
        # the start state is level 0: level k is the state after k steps
        if len(self._times) == self._n_levels:
            self._accumulate_flux()
            if (self._levels_seen - 1) % self.report_every == 0:
                self._report()

    def _push(self, state: FieldState):
        phi, w = np.atleast_2d(state.phi), np.atleast_2d(state.w)
        if self._rows is None:
            n_members = w.shape[0]
            self._grid = state.grid
            self.member_reports = [[] for _ in range(n_members)]
            self._rows = np.empty((self._n_levels, self.N + 1, 2, n_members, state.grid.n))
            self._flux = np.zeros((n_members, len(self.truncated), self.N + 1))
        self._rows[self._levels_seen % self._n_levels] = spatial_rows(
            phi, w, state.grid.dx, self.N)
        self._times.append(state.t)
        self._levels_seen += 1

    def _ring_order(self):
        """Ring slots from the oldest level to the newest."""
        return (self._levels_seen + np.arange(self._n_levels)) % self._n_levels

    # -- flux ---------------------------------------------------------------

    def _probe_rows(self, xq):
        """All tower rows at the abscissae xq, shape (N+1, N+1, 2, B, P)."""
        grid = self._grid
        # interpolation coordinate taken from cell i0, hw below the probe:
        # (xq - x0)/dx would round differently in the last bits
        i0 = np.round((xq - grid.x0) / grid.dx).astype(int) - self._hw
        pos = (xq - (grid.x0 + i0 * grid.dx)) / grid.dx
        base, weights = cubic_weights(pos, 2 * self._hw + 1)
        idx = (i0 + base)[:, None] + np.arange(4)
        cols = self._rows.take(idx, axis=-1)[self._ring_order()]   # (2N+1, N+1, 2, B, P, 4)
        return cubic_combine(weights, time_rows(cols, self._times[1] - self._times[0], self.N))

    def _flux_density(self, rows, xq, tau, nu):
        """weight*|row(xq)|^2*sqrt(g(xq)) summed over the rows of each order,
        shape (B, P, N+1): the L rows of the first nu lines (u-lines, weight
        a(ub)), the Lb rows of the rest (ub-lines, weight a(u))."""
        sqrt_g = np.sqrt(np.maximum(1.0 - rows[0, 0, 0] * rows[0, 0, 1], 0.0))
        dens = np.empty(rows.shape[:2] + rows.shape[3:])
        for side, part in enumerate((slice(None, nu), slice(nu, None))):
            wgt = side_weight(_SIDES[side], tau, xq[part], self.gamma)
            dens[..., part] = wgt * rows[:, :, side, ..., part] ** 2 * sqrt_g[..., part]
        return _order_sums(np.moveaxis(dens, 1, -1))

    def _accumulate_flux(self):
        grid = self._grid
        tau = self._times[self.N]
        margin = (self._hw + 1) * grid.dx
        lo, hi = grid.x0 + margin, grid.x_end - margin
        x = np.concatenate([tau - 2.0 * self.probes_u, 2.0 * self.probes_ub - tau])
        inside = (x > lo) & (x < hi)
        # a u-line moves right and leaves past hi, a ub-line past lo
        past_exit = np.concatenate([x[:self._nu] >= hi, x[self._nu:] <= lo])
        self.truncated |= (self._inside & ~inside) | past_exit
        self._inside = inside
        active = inside & ~self.truncated
        cur = np.zeros_like(self._flux)
        if np.any(active):
            xq = x[active]
            cur[:, active] = self._flux_density(self._probe_rows(xq), xq, tau,
                                                int(np.count_nonzero(active[:self._nu])))
        if self._prev_tau is not None:
            self._flux += 0.5 * (tau - self._prev_tau) * (self._prev + cur)
        self._prev, self._prev_tau = cur, tau

    def truncated_probes(self):
        """Names of the probe lines that left the grid, e.g. 'u0=3'."""
        names = [f"u0={c:g}" for c in self.probes_u] + [f"ub0={c:g}" for c in self.probes_ub]
        return [name for name, gone in zip(names, self.truncated) if gone]

    # -- reports ------------------------------------------------------------

    def _report(self):
        """Append a report from the current ring to each member.  The members
        are differenced one at a time, so the temporaries stay at the size of
        a single-member ring."""
        dt = _level_dt(self._times)
        t = float(self._times[self.N])
        flux_t = self._prev_tau if self._prev_tau is not None else t
        for k, reports in enumerate(self.member_reports):
            rows = time_rows(self._rows[..., k, :][self._ring_order()], dt, self.N)
            tower = DerivativeTower(t=t, grid=self._grid, N=self.N, rows=rows)
            reports.append(report_from_tower(
                tower, self.gamma, flux_t, self._flux[k, :self._nu].copy(),
                self._flux[k, self._nu:].copy()))

    def initial_report(self, fam, grid) -> EnergyReport:
        """Report at t = 0 from the exact trace table of the data, zero flux."""
        table = higher_order_traces(fam, self.N, grid.x)
        tower = DerivativeTower(t=0.0, grid=grid, N=self.N, rows=table.rows)
        return report_from_tower(tower, self.gamma, 0.0,
                                 np.zeros((len(self.probes_u), self.N + 1)),
                                 np.zeros((len(self.probes_ub), self.N + 1)))


# ---------------------------------------------------------------------------
# runs under a tracker


def config_tracker(cfg) -> EnergyTracker:
    """The EnergyTracker of an ExperimentConfig."""
    return EnergyTracker(gamma=cfg.gamma, N=cfg.N, probes_u=cfg.probes_u,
                         probes_ub=cfg.probes_ub, report_every=cfg.report_every)


def _tracked_ensemble(cfg, deltas, tracker):
    """Evolve the family of cfg.with_(delta=d) for each d in deltas on cfg's
    grid, as one ensemble under tracker: (RunResult, reports with the exact
    t = 0 report first, MonitorResult) per member.  Raises
    InsufficientHistory when a member completes without an evolved report:
    the run was too short to fill the tower ring and reach a report step."""
    grid = cfg.grid()
    fams = [cfg.with_(delta=d).family() for d in deltas]
    result = run_evolution(stack_states([init_state(fam, grid) for fam in fams]),
                           t_end=cfg.t_end, cfl=cfg.cfl, eps_ko=cfg.eps_ko, gmin=cfg.gmin,
                           callbacks=[tracker])
    if any(res.status == "completed" and not reports
           for res, reports in zip(result.members, tracker.member_reports)):
        raise InsufficientHistory(
            f"a run of {result.n_steps} steps gives no energy report: an order-{tracker.N} "
            f"tower needs {2 * tracker.N + 1} levels and reports come every "
            f"{tracker.report_every} steps")
    out = []
    for res, fam, delta, reports in zip(result.members, fams, deltas, tracker.member_reports):
        reports = [tracker.initial_report(fam, grid)] + reports
        out.append((res, reports, monitor(reports, delta)))
    return out


def tracked_run(cfg, tracker=None):
    """Evolve cfg's family on cfg's grid under cfg's EnergyTracker (or tracker):
    (RunResult, reports with the exact t = 0 report first, MonitorResult)."""
    return _tracked_ensemble(cfg, (cfg.delta,), tracker or config_tracker(cfg))[0]


def tracked_sweep(cfg):
    """tracked_run of cfg.with_(delta=d) for each d in cfg.deltas, in order.

    All deltas evolve as one ensemble, so each result is bit for bit its
    tracked_run.  Raises BlowupDetected, naming the delta, when a member
    blows up: the hierarchy holds only for globally smooth solutions.
    """
    out = _tracked_ensemble(cfg, cfg.deltas, config_tracker(cfg))
    for d, (res, _, _) in zip(cfg.deltas, out):
        if res.status == "blowup":
            raise BlowupDetected(res.t_blowup, f"{res.blowup_reason} at delta = {d:g}")
    return out


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
    evolved solution, on a grid and its 2x refinement (dt = cfl*dx)."""

    dxs: list                      # grid spacing per level
    discrepancy: dict              # (k1, k2) -> [relative max discrepancy per level]
    table: TraceTable              # exact table of level 0, with its den_min

    def worst(self, level):
        return float(np.max([d[level] for d in self.discrepancy.values()]))

    def passed(self):
        return orders_pass(refinement_orders([self.worst(0), self.worst(1)]), TRACE_ORDER_MIN)


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
    return TraceCheckStudy([g.dx for g in grids], discrepancy, tables[0])


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
        under the fitted M (c_l only for delta != 0)."""
        slack = -AGMON_SLACK * np.sqrt(max(self.sup_eb2, self.sup_e2, 1e-30))
        return bool(self.min_g > gmin and self.agmon_l_margin > slack
                    and self.agmon_lb_margin > slack
                    and (self.delta == 0.0 or self.c_l <= SUP_RATIO_CAP)
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
    sup_e2 = max(r.e2_total for r in reports)
    sup_eb2 = max(r.eb2_total for r in reports)
    last = reports[-1]
    sup_f2 = float(np.max(np.sum(last.f2, axis=1))) if last.f2.size else 0.0
    sup_fb2 = float(np.max(np.sum(last.fb2, axis=1))) if last.fb2.size else 0.0
    a_tier = sup_eb2 + sup_fb2
    b_tier = sup_e2 + sup_f2
    d2 = max(delta ** 2, 1e-300)
    m2 = max(a_tier, b_tier / d2)
    m = np.sqrt(max(m2, 1e-300))
    c_l = max(float(np.max(r.sup_l)) if r.sup_l.size else 0.0 for r in reports)
    c_lb = max(float(np.max(r.sup_lb)) if r.sup_lb.size else 0.0 for r in reports)
    return MonitorResult(
        delta=delta, sup_e2=sup_e2, sup_eb2=sup_eb2, sup_f2=sup_f2, sup_fb2=sup_fb2,
        e2_initial=reports[0].e2_total, eb2_initial=reports[0].eb2_total,
        m2=m2,
        c_l=c_l / max(abs(delta) * m, 1e-300),
        c_lb=c_lb / m if m > 0 else 0.0,
        agmon_l_margin=min(r.agmon_l_margin for r in reports),
        agmon_lb_margin=min(r.agmon_lb_margin for r in reports),
        min_g=min(r.min_g for r in reports))


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
    slope_e2 = float(np.polyfit(np.log(deltas), np.log(np.maximum(sup_e2, 1e-300)), 1)[0])
    slope_eb2 = float(np.polyfit(np.log(deltas), np.log(np.maximum(sup_eb2, 1e-300)), 1)[0])
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
