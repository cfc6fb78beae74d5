"""Method-of-lines evolution of the first-order string system.

State variables are (phi, w, p) = (phi, dt phi, dx phi), evolved by

    dt(phi) = w
    dt(w)   = (2 w p w_x - (w^2 - 1) p_x) / (1 + p^2)
    dt(p)   = w_x

with 4th-order centered differences in space, classical 4-stage Runge-Kutta
in time, and optional fourth-difference damping on w and p.  phi rides along
for diagnostics only; the flux never consumes it.

Initial data are numerically compactly supported and the characteristic
speeds never exceed 1 on a timelike state, so a domain sized
support + t_end + margin makes the boundary treatment irrelevant for the
interior (checked by the nested-domain tests).

Active window.  Such a domain is mostly vacuum for most of a run, so
run_evolution steps only a sub-grid where the fields live.  A cell is live
where |w| or |p| exceeds LIVE_FLOOR (or is not finite).  One RK4 step moves
information by _REACH = 8 cells (4 stages x a stencil radius of 2), so a
member's live range widened by _REACH cells gets the same bits from a step
of its live range widened by 2 _REACH cells as from the full step: every
stage value those cells use comes from an interior stencil in both, or
from the same edge stencil where the window meets the grid edge.  Each
member keeps the new values on its own live range widened by _REACH cells
and its old values elsewhere, so its result does not depend on the other
members.  A member windows only when its window skips at least
WINDOW_MIN_SKIP points, where the live mask costs a few per cent of what
it saves.  Grids under WINDOW_MIN_SKIP + 33 points never build the mask,
and neither does a step in which every member is live at the two cells
_PRECHECK_CELL and n - 1 - _PRECHECK_CELL: such a member's window skips
at most WINDOW_MIN_SKIP - 2 points.  That check decides every step of the
default run and of verify's finest level, and 283 of the 316 steps of the
coarse level of acceptance criterion A5 (n = 1793).  The stepped sub-grid
is the hull of the members' windows, grown to whole blocks of
_WINDOW_BLOCK points, or the whole grid when some member does not window.

No blow-up check can trip on the cells a windowed step leaves out.  A
frozen cell holds |w|, |p| <= 1e-30, and a stepped cell outside the kept
range is computed from such cells only (it lies more than _REACH cells from
the live range, and the sub-grid edges, whose one-sided stencils reach 4
points in, at least 2 _REACH): one step scales them by at most
e^(dt L) with dt L of order 10, so all their squares lie below 2^-54.
Their discriminant 1 + p^2 - w^2 and their speed are then exactly 1, they
are finite and far below FIELD_CAP, and run_evolution takes gmin in [0, 1).
Both sets are non-empty for a windowed member, so the minimum
discriminant and the maximum speed over its stepped sub-grid row equal
those over its whole new row.

Refinement levels.  The three grids of a refinement study (converge,
blowup, and verify's energy balance) do not depend on each other.
refinement_levels runs the two coarse levels in one child process while
the finest level runs in the caller.  The child comes from `forked`: an
os.fork whose outcome, a value or an exception, is pickled back through a
pipe.  Only the coarse levels' results cross, so a callback riding on the
finest run, such as blowup_study's CharacteristicTracer, stays in the
caller and is never pickled.  A level runs the same floating-point
operations in either process, so the results are bit-identical to the
serial loop.  So are the errors: the child is joined also when the finest
level raises, and a coarse level's error is raised first, where the
serial loop would have stopped.  Where os.fork is missing or fails with
OSError, the forked function runs inline when joined, and a study is the
serial loop again.  A 1-core host runs the child and the caller on one
core and pays only the fork, about 3 ms.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import BlowupDetected, HyperbolicityLoss, InsufficientHistory, StringLabError
from .initialdata import DataFamily, check_data
from .nullgeom import FIELD_CAP, GMIN_DEFAULT
from .stencils import cubic_combine, cubic_weights, deriv1, ko_dissipation

CFL_DEFAULT = 0.4
CFL_MAX = 0.9
EPS_KO_DEFAULT = 0.01
LIVE_FLOOR = 1e-30        # a cell is live where |w| or |p| exceeds this
WINDOW_MIN_SKIP = 1024    # points a member's window must skip for it to act
_REACH = 8                # cells one RK4 step reaches: 4 stages x stencil radius 2
# a member live here and at n - 1 - this cell has a window no more than
# (WINDOW_MIN_SKIP - 1) // 2 cells short of each grid edge
_PRECHECK_CELL = (WINDOW_MIN_SKIP - 1) // 2 + 2 * _REACH
# stepped widths are whole blocks of this many points, so that a step's
# arrays fit the memory the last step freed (else peak memory grows)
_WINDOW_BLOCK = 256


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_i = x0 + i*dx, i = 0..n-1."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.n < 16:
            raise ValueError("need at least 16 grid points")

    @property
    def x(self):
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def x_end(self):
        return self.x0 + self.dx * (self.n - 1)

    def refined(self, factor=2):
        """Same interval with factor-times finer spacing (shared endpoints)."""
        return Grid1D(self.x0, self.dx / factor, (self.n - 1) * factor + 1)


@dataclass
class FieldState:
    """Grid samples of (phi, w, p) at one time level; an ensemble of B
    members on one grid at one time has fields of shape (B, n)."""

    t: float
    grid: Grid1D
    phi: np.ndarray
    w: np.ndarray
    p: np.ndarray

    @cached_property
    def disc(self):
        """The determinant 1 - Lphi*Lbphi = 1 + p^2 - w^2, computed once."""
        return 1.0 + self.p * self.p - self.w * self.w

    @property
    def min_g(self):
        """min over the grid (and the members) of the determinant."""
        return float(np.min(self.disc))

    def copy(self):
        return FieldState(self.t, self.grid, self.phi.copy(), self.w.copy(), self.p.copy())

    def member(self, k):
        """Member k of an ensemble (an index, or a mask for a sub-ensemble)."""
        return FieldState(self.t, self.grid, self.phi[k], self.w[k], self.p[k])


def stack_states(states) -> FieldState:
    """The ensemble of single-member states at one time on one grid."""
    return FieldState(states[0].t, states[0].grid,
                      *(np.stack([getattr(s, f) for s in states]) for f in ("phi", "w", "p")))


def init_state(fam: DataFamily, grid: Grid1D) -> FieldState:
    """Sample (F, G, F') from closed forms; rejects out-of-range
    (`check_data`) and non-hyperbolic data."""
    x = grid.x
    w, p = check_data(fam.G(x), fam.F_prime(x))
    state = FieldState(t=0.0, grid=grid, phi=fam.F(x), w=w, p=p)
    if state.min_g <= 0.0:
        raise HyperbolicityLoss(state.min_g, where="initial data")
    return state


def max_speed(w, p, disc=None):
    """max over the grid of |lambda_pm|, per member for an ensemble; raises
    HyperbolicityLoss if degenerate.  disc = 1 + p^2 - w^2 if not given."""
    disc = 1.0 + p * p - w * w if disc is None else disc
    mdisc = float(np.min(disc))
    if mdisc <= 0.0:
        raise HyperbolicityLoss(mdisc)
    return _max_speed(w, p, disc)


def _max_speed(w, p, disc):
    """max_speed of a state already known to have disc > 0 everywhere."""
    # max(|-wp - root|, |-wp + root|) is |wp| + root bit for bit: root >= 0
    # and rounding is monotone
    speed = w * p
    np.abs(speed, out=speed)
    speed += np.sqrt(disc)
    den = p * p
    den += 1.0
    speed /= den
    lam = np.max(speed, axis=-1)
    return float(lam) if lam.ndim == 0 else lam


def _time_step(dx, t0, t_end, cfl):
    """(dt, n_steps) of a run: dt = cfl*dx, shrunk so that n_steps whole
    steps span t_end - t0; summed one by one, they end at t_end up to
    roundoff (t_end = 4 in 100 steps ends at 4.000000000000003).  Both
    characteristic speeds of a timelike state lie in [-1, 1]
    (`nullgeom.eigenvalues`), so the Courant number is at most cfl whatever
    the state."""
    if not 0.0 < cfl <= CFL_MAX:
        raise ValueError(f"cfl out of (0, {CFL_MAX}]: {cfl}")
    if not t_end > t0:
        raise ValueError(f"t_end = {t_end} is not after the start time {t0}")
    dt = cfl * dx
    n_steps = max(1, int(np.ceil((t_end - t0) / dt - 1e-12)))
    return (t_end - t0) / n_steps, n_steps


def _stage_rhs(y, dx, eps_ko):
    """dt of the rows y = (w rows, p rows) and the discriminant 1 + p^2 - w^2:
    one deriv1 and one ko_dissipation call whatever the number of members.

    The w rows are (2 w p w_x - (w^2 - 1) p_x) / (1 + p^2) [+ ko], the p rows
    w_x [+ ko], each evaluated in that order; the sums run in place."""
    half = len(y) // 2
    w, p = y[:half], y[half:]
    yx = deriv1(y, dx)
    wx, px = yx[:half], yx[half:]
    den = p * p
    den += 1.0
    ww = w * w
    dw = 2.0 * w
    dw *= p
    dw *= wx
    px_term = ww - 1.0
    px_term *= px
    dw -= px_term
    if eps_ko:
        dw /= den
        k = ko_dissipation(y, dx, eps_ko)
        k[:half] += dw
        k[half:] += wx
    else:
        k = np.empty_like(y)
        np.divide(dw, den, out=k[:half])
        k[half:] = wx
    return k, np.subtract(den, ww, out=ww)


def step(state: FieldState, dt: float, eps_ko: float = EPS_KO_DEFAULT,
         gmin: float = GMIN_DEFAULT):
    """One RK4 step of size dt (run_evolution takes dt = cfl*dx).

    Returns the new state and each member's minimum discriminant
    1 + p^2 - w^2 over the grid (an array over the flattened leading axes,
    one entry for a single-member state), which the timelike check takes.

    Raises BlowupDetected (with the last valid time) on loss of the timelike
    or hyperbolic regime, runaway field size, or non-finite values.  The
    members of an ensemble step with one dt; the step stops at the first
    check that any member fails, and the exception lists each member's
    reason at that check (None if it passed) in `members`, over the
    flattened leading axes.
    """
    dx = state.grid.dx
    shape = state.w.shape
    phi0 = state.phi.reshape(-1, shape[-1])
    n_members = len(phi0)

    def flag(bad, reason):
        if bad.any():
            why = tuple(reason(i) if b else None for i, b in enumerate(bad.tolist()))
            raise BlowupDetected(state.t, next(filter(None, why)),
                                 why if len(shape) > 1 else None)

    def hyperbolic(disc):
        mdisc = np.min(disc, axis=-1)
        flag(mdisc <= 0.0, lambda i: f"hyperbolicity loss ({HyperbolicityLoss(mdisc[i])})")

    # overflow before a failed check is reported by name, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # the w rows of all members, then their p rows, ride through the
        # stages as one 2-d array; phi's slopes are the stage values of w
        y0 = np.concatenate((state.w.reshape(phi0.shape), state.p.reshape(phi0.shape)))
        w_rows, p_rows = slice(n_members), slice(n_members, None)
        # y1 = y0 + dt/6 (k1 + 2 k2 + 2 k3 + k4) and
        # phi1 = phi0 + dt/6 (y0 + 2 y2 + 2 y3 + y4)[w rows], accumulated in
        # place in that order as the stages come in (stage values y2..y4
        # share one buffer)
        k1, disc = _stage_rhs(y0, dx, eps_ko)
        hyperbolic(disc)
        y = k1 * (0.5 * dt)
        y += y0
        phi1 = y[w_rows] * 2.0
        phi1 += y0[w_rows]
        k2, disc = _stage_rhs(y, dx, eps_ko)
        hyperbolic(disc)
        np.multiply(k2, 0.5 * dt, out=y)
        y += y0
        phi1 += y[w_rows] * 2.0
        ksum = k2
        ksum *= 2.0
        ksum += k1
        k3, disc = _stage_rhs(y, dx, eps_ko)
        hyperbolic(disc)
        np.multiply(k3, dt, out=y)
        y += y0
        phi1 += y[w_rows]
        k3 *= 2.0
        ksum += k3
        k4, disc = _stage_rhs(y, dx, eps_ko)
        hyperbolic(disc)
        ksum += k4
        ksum *= dt / 6.0
        y1 = ksum
        y1 += y0
        phi1 *= dt / 6.0
        phi1 += phi0

        # a row's max |value| is finite exactly when all its values are
        sup = np.max(np.abs(y1), axis=-1)
        finite = np.isfinite(sup)
        flag(~(finite[w_rows] & finite[p_rows] & np.isfinite(phi1).all(axis=-1)),
             lambda i: "non-finite values")
        sup = np.maximum(sup[w_rows], sup[p_rows])
        flag(sup > FIELD_CAP, lambda i: f"field size {sup[i]:.3e} exceeds cap")
        new = FieldState(t=state.t + dt, grid=state.grid, phi=phi1.reshape(shape),
                         w=y1[w_rows].reshape(shape), p=y1[p_rows].reshape(shape))
        min_g = np.min(new.disc.reshape(phi0.shape), axis=-1)
        flag(min_g <= gmin, lambda i: f"timelike violation (min g = {min_g[i]:.3e})")
    return new, min_g


def _active_window(w, p):
    """The sub-grid [lo, hi) that the next step of the (B, n) rows w, p
    covers, and per member the range [a, b) that keeps the new values
    (None: the whole stepped row); None when no member windows.  The rule
    and why it keeps every bit is in the module docstring."""
    n = w.shape[-1]
    if n < WINDOW_MIN_SKIP + 4 * _REACH + 1:
        return None
    # NaN is live: a non-finite cell must reach step's checks
    ends = [_PRECHECK_CELL, n - 1 - _PRECHECK_CELL]
    if not np.any((np.abs(w[:, ends]) <= LIVE_FLOOR) & (np.abs(p[:, ends]) <= LIVE_FLOOR)):
        return None
    quiet = np.abs(w) <= LIVE_FLOOR
    quiet &= np.abs(p) <= LIVE_FLOOR
    # each member's live range [a, b]; an all-quiet row gets [0, n - 1]
    ranges = list(zip(quiet.argmin(axis=-1).tolist(),
                      (n - 1 - quiet[:, ::-1].argmin(axis=-1)).tolist()))

    def widened(live, by):
        return max(live[0] - by, 0), min(live[1] + by + 1, n)

    windows = [widened(r, 2 * _REACH) for r in ranges]
    windowed = [n - (hi - lo) >= WINDOW_MIN_SKIP for lo, hi in windows]
    if not any(windowed):
        return None
    keep = [widened(r, _REACH) if on else None for r, on in zip(ranges, windowed)]
    if not all(windowed):
        return (0, n), keep
    lo, hi = min(lo for lo, _ in windows), max(hi for _, hi in windows)
    width = min(-(-(hi - lo) // _WINDOW_BLOCK) * _WINDOW_BLOCK, n)
    hi = min(lo + width, n)
    return (hi - width, hi), keep


@dataclass
class RunResult:
    status: str                 # "completed", "blowup" or "stopped" (see run_evolution)
    state: FieldState           # last valid state
    dt: float
    n_steps: int
    max_speed_seen: float
    min_g_seen: float
    t_blowup: float | None = None
    blowup_reason: str | None = None
    history: list = field(default_factory=list)   # always empty: perfbench reads it (item 6)
    members: list = field(default_factory=list)   # RunResult per member of an ensemble


def run_evolution(fam_or_state, grid: Grid1D | None = None, t_end: float = 10.0,
                  cfl: float = CFL_DEFAULT, eps_ko: float = EPS_KO_DEFAULT,
                  gmin: float = GMIN_DEFAULT, callbacks=()) -> RunResult:
    """Evolve to t_end with the fixed dt = cfl*dx of the grid, shrunk so that
    a whole number of steps spans t_end, which the summed steps reach up to
    roundoff; the Courant number is at most cfl (see `_time_step`).  Raises
    ValueError unless t_end is after the start time, cfl lies in
    (0, CFL_MAX] and gmin in [0, 1).  Each callback's on_step(state) gets
    the start state and then each accepted state.

    Each step covers only the active window of the module docstring: on a
    grid of at least WINDOW_MIN_SKIP + 33 points, a member whose fields are
    above LIVE_FLOOR on a small enough range keeps its old values outside
    that range widened by 8 cells, bit for bit what the full step gives
    inside it.  The cells left out cannot trip a blow-up check (module
    docstring), so max_speed_seen and min_g_seen, reduced over the stepped
    rows, equal their full-grid values.  Every accepted state holds fresh
    arrays.  The per-step speeds skip max_speed's hyperbolicity check: step
    accepted the state with min g > gmin >= 0; the t = 0 state is checked.

    Fields with leading axes make an ensemble, flattened to (B, n), whose
    members step in lockstep until a blow-up of any member stops the run.
    The result lists one RunResult per member in `members`: a member that
    blew up gets its single run's result bit for bit, the others status
    "stopped" and their single runs' results up to the last accepted
    step.  Its own fields hold the last ensemble state, the extremes over
    the members and the first failed member's blow-up.  A single-member run
    is the B = 1 case of the loop.
    """
    if not 0.0 <= gmin < 1.0:
        raise ValueError(f"gmin out of [0, 1): {gmin}")
    if isinstance(fam_or_state, FieldState):
        state = fam_or_state.copy()
        grid = state.grid
    else:
        state = init_state(fam_or_state, grid)
    dt, n_steps = _time_step(grid.dx, state.t, t_end, cfl)
    single = state.w.ndim == 1
    state = FieldState(state.t, grid,
                       *(f.reshape(-1, grid.n) for f in (state.phi, state.w, state.p)))
    max_seen, min_g_seen = max_speed(state.w, state.p, state.disc), np.min(state.disc, axis=-1)
    t_last, why = None, [None] * len(state.w)   # the blow-up time and each member's reason

    def accept():
        seen = state.member(0) if single else state
        for cb in callbacks:
            cb.on_step(seen)

    def advance():
        """step on the active window: the new state and each member's
        min g and max speed"""
        window = _active_window(state.w, state.p)
        if window is None:
            new, min_g = step(state, dt, eps_ko=eps_ko, gmin=gmin)
            return new, min_g, _max_speed(new.w, new.p, new.disc)
        (lo, hi), keep = window
        part, min_g = step(FieldState(state.t, Grid1D(grid.x0 + lo * grid.dx, grid.dx, hi - lo),
                                      state.phi[:, lo:hi], state.w[:, lo:hi], state.p[:, lo:hi]),
                           dt, eps_ko=eps_ko, gmin=gmin)
        fields = []
        for old, part_f in zip((state.phi, state.w, state.p), (part.phi, part.w, part.p)):
            new_f = old.copy()
            for k, (a, b) in enumerate(kept or (lo, hi) for kept in keep):
                new_f[k, a:b] = part_f[k, a - lo:b - lo]
            fields.append(new_f)
        return FieldState(part.t, grid, *fields), min_g, _max_speed(part.w, part.p, part.disc)

    accept()
    for _ in range(n_steps):
        try:
            new, min_g, speed = advance()
        except BlowupDetected as exc:
            # copy out, keep no exception: its traceback holds step's arrays
            t_last, why = exc.t_last, exc.members
            break
        state = new
        max_seen = np.maximum(max_seen, speed)
        min_g_seen = np.minimum(min_g_seen, min_g)
        accept()

    done = "completed" if t_last is None else "stopped"
    results = [RunResult(done if r is None else "blowup", state.member(k), dt, n_steps,
                         float(max_seen[k]), float(min_g_seen[k]), None if r is None else t_last,
                         r) for k, r in enumerate(why)]
    if single:
        return results[0]
    first = next((r for r in results if r.status == "blowup"), results[0])
    return RunResult(first.status, state, dt, n_steps, float(np.max(max_seen)),
                     float(np.min(min_g_seen)), first.t_blowup, first.blowup_reason,
                     members=results)


# ---------------------------------------------------------------------------
# travelling-wave oracle


def exact_travelling(fam: DataFamily, t, x):
    """phi(t, x) = F(x - t) for a delta = 0 family.

    With delta = 0 the left-travelling null gradient vanishes identically,
    the determinant is exactly 1, and both flux terms of the divergence-form
    equation reduce to -+ F'(x - t): the profile translates rigidly.
    """
    if fam.delta != 0.0:
        raise ValueError("travelling-wave oracle requires delta = 0")
    return fam.F(np.asarray(x) - t)


# ---------------------------------------------------------------------------
# characteristic tracing


@dataclass
class CharPath:
    family: str
    seed_x: float
    ts: np.ndarray
    xs: np.ndarray
    alive: np.ndarray       # False once the path left the usable domain


class CharacteristicTracer:
    """Integrate dx/dt = lambda_family along a run, as it is produced.

    A run_evolution callback of one run (on_step, from the start state on)
    followed by finish().  Path step i is the RK4 step of the field
    evolution with cubic space-time interpolation of (w, p) over the 4
    levels j..j+3 nearest its time, j = floor((t - t0)/dt) - 1.
    Accumulated step times carry roundoff, so j is one of i-2, i-1, i.  The
    step runs once level i+4 has arrived, so the clip of j to the last 4
    levels of the run cannot act before the run ends; the tracer then drops
    every level older than i-1.  It references at most 7 levels (each
    accepted state has fresh arrays, so none is copied) and gathers only the
    4 stencil columns of each seed from each of the 4 levels it
    interpolates, so memory is O(n) whatever the run length.
    finish() runs the remaining tail steps with j clipped to the last 4
    levels, as an integration over all the levels at once would.
    """

    def __init__(self, seeds, family: str = "plus"):
        if family not in ("plus", "minus"):
            raise ValueError("family must be 'plus' or 'minus'")
        self.family = family
        self.seeds = np.asarray(seeds, dtype=float)
        self._sign = 1.0 if family == "plus" else -1.0
        self._times = []                 # no level yet: finish() raises InsufficientHistory
        self._levels = deque()
        self._first = 0                  # run index of self._levels[0]
        self._xs = self.seeds.copy()
        self._traj = [self._xs.copy()]
        self._min_sep = (float(np.min(np.abs(np.diff(self._xs)))) if self._xs.size > 1
                         else np.inf)

    def on_step(self, state: FieldState):
        if not self._times:
            if state.w.ndim != 1:
                raise ValueError("characteristics are traced along a single-member run")
            grid = state.grid
            self._grid = grid
            self._lo, self._hi = grid.x0 + 2 * grid.dx, grid.x_end - 2 * grid.dx
            self._alive = (self._xs > self._lo) & (self._xs < self._hi)
            self._alive_hist = [self._alive.copy()]
        self._times.append(state.t)
        self._levels.append((state.w, state.p))
        i = len(self._traj) - 1
        if len(self._times) >= i + 5:
            self._advance(i)
            while self._first < i - 1:
                self._levels.popleft()
                self._first += 1

    def finish(self):
        """Run the tail steps and return (paths, min_sep) for every seed."""
        count = len(self._times)
        if count < 4:
            raise InsufficientHistory(
                f"characteristic tracing needs at least 4 time levels, the run has {count}")
        for i in range(len(self._traj) - 1, count - 1):
            self._advance(i)
        ts = np.array(self._times)
        traj = np.array(self._traj)
        alive_hist = np.array(self._alive_hist)
        paths = [CharPath(family=self.family, seed_x=float(s), ts=ts,
                          xs=traj[:, k], alive=alive_hist[:, k])
                 for k, s in enumerate(self.seeds)]
        return paths, self._min_sep

    def _at(self, t):
        """The first j of the 4 levels j..j+3 nearest time t and the cubic
        time weights at t over them."""
        times, dt = self._times, self._times[1] - self._times[0]
        j = min(max(math.floor((t - times[0]) / dt) - 1, 0), len(times) - 4)
        return j, cubic_weights((t - times[j]) / dt, 4)[1]

    def _lam(self, at, xq):
        # cubic in space at each of the 4 levels of `at`, then cubic in time;
        # only the 4 stencil columns of each seed are gathered
        j, time_weights = at
        grid = self._grid
        base, weights = cubic_weights((xq - grid.x0) / grid.dx, grid.n)
        cols = base[:, None] + np.arange(4)
        k = j - self._first
        q = cubic_combine(weights, np.array([(w.take(cols), p.take(cols))
                                             for w, p in islice(self._levels, k, k + 4)]))
        wt, pt = cubic_combine(time_weights, q, axis=0)   # (2, m)
        disc = np.maximum(1.0 + pt * pt - wt * wt, 0.0)
        return (-wt * pt + self._sign * np.sqrt(disc)) / (1.0 + pt * pt)

    def _advance(self, i):
        t, dt = self._times[i], self._times[1] - self._times[0]
        xs, alive, lam = self._xs, self._alive, self._lam
        # RK stages 2 and 3 share the time t + dt/2
        mid = self._at(t + 0.5 * dt)
        k1 = lam(self._at(t), xs)
        k2 = lam(mid, xs + 0.5 * dt * k1)
        k3 = lam(mid, xs + 0.5 * dt * k2)
        k4 = lam(self._at(t + dt), xs + dt * k3)
        xs = np.where(alive, xs + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), xs)
        alive = alive & (xs > self._lo) & (xs < self._hi)
        self._xs, self._alive = xs, alive
        self._traj.append(xs.copy())
        self._alive_hist.append(alive.copy())
        if xs.size > 1:
            pair_alive = alive[1:] & alive[:-1]
            if np.any(pair_alive):
                self._min_sep = min(self._min_sep,
                                    float(np.min(np.abs(np.diff(xs))[pair_alive])))


def trace_characteristics(states, seeds, family: str = "plus"):
    """Replay recorded single-member states, in run order, through a
    CharacteristicTracer.

    Same paths, bit for bit, as passing the tracer to run_evolution as a
    callback, which records nothing and needs O(n) memory.  Paths freeze
    when they reach the edge of the usable domain; they all stop at the last
    state's time (the blow-up time for a run that ended early).  Returns the
    paths and the minimum separation between adjacent same-family paths
    over the whole trace; raises InsufficientHistory below 4 states.
    """
    tracer = CharacteristicTracer(seeds, family)
    for state in states:
        tracer.on_step(state)
    return tracer.finish()


def richardson_time(t_blowups):
    """Extrapolate the detected times across three grids (halving dx)."""
    t0, t1, t2 = t_blowups
    d0, d1 = t1 - t0, t2 - t1
    if d1 == 0 or d0 == 0 or abs(d1) >= abs(d0):
        return t2
    r = d1 / d0
    return t2 + d1 * r / (1.0 - r)


def refinement_orders(values):
    """log2(v_i / v_{i+1}) per successive pair; None unless both are positive and finite."""
    return [float(np.log2(a / b)) if 0 < a < np.inf and 0 < b < np.inf else None
            for a, b in zip(values, values[1:])]


def orders_pass(orders, order_min):
    """The rule of every order gate: each order is defined and >= order_min."""
    return None not in orders and min(orders) >= order_min


# ---------------------------------------------------------------------------
# independent work in a forked child


def forked(fn):
    """Start fn() in a forked child process; return join, which waits for
    the child and returns fn's value or raises its exception.

    The child pickles the outcome through a pipe and leaves by os._exit, so
    it runs no exit handler and flushes no buffer it inherited.  join()
    raises StringLabError when the child sends no readable outcome: a value
    or exception that does not pickle, or a child that died.  Where os.fork
    is missing or fails with OSError, join is fn itself, run inline when
    joined.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on any fork beside other threads; those of
            # a numpy process are OpenBLAS workers, which OpenBLAS stops
            # before a fork and the child starts again
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):
        os.close(read_fd)
        os.close(write_fd)
        return fn
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = True, fn()
            except BaseException as exc:
                outcome = False, exc
            try:
                data = pickle.dumps(outcome)
            except Exception as exc:
                data = pickle.dumps((False, StringLabError(
                    f"a forked child's {'value' if outcome[0] else 'error'} "
                    f"does not pickle: {exc}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)

    def join():
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:
            raise StringLabError(f"forked child {pid} sent no readable outcome "
                                 f"(wait status {status})") from exc
        if ok:
            return value
        raise value

    return join


def run_both(first, second):
    """(first(), second()), first in a forked child while second runs in the
    caller.  The child is joined also when second raises, and when both
    raise, first's error is raised, as if they had run in that order."""
    join = forked(first)
    try:
        value = second()
    except BaseException:
        join()
        raise
    return join(), value


def refinement_levels(level):
    """[level(0), level(1), level(2)]: levels 0 and 1 in one forked child,
    the finest in the caller (module docstring).  A lower level's error is
    raised first, as in the serial loop."""
    coarse, finest = run_both(lambda: [level(0), level(1)], lambda: level(2))
    return [*coarse, finest]


# ---------------------------------------------------------------------------
# refinement studies

CONVERGE_ORDER_MIN = 2.5        # every ratio: damping's O(dx^3) error holds it near 3, not 4


@dataclass
class ConvergenceLevel:
    n: int
    dx: float
    err: float                  # max |phi - exact travelling wave| at the final time
    max_speed_seen: float


@dataclass
class ConvergenceStudy:
    """Errors against the exact travelling wave on a grid and its 2x and 4x
    refinements, and the converge gate on their orders."""

    levels: list                # ConvergenceLevel per grid, coarse to fine

    @property
    def orders(self):
        return refinement_orders([lev.err for lev in self.levels])

    def passed(self):
        return orders_pass(self.orders, CONVERGE_ORDER_MIN)


def convergence_study(cfg) -> ConvergenceStudy:
    """Error against the exact travelling wave of cfg's family (delta = 0)
    on cfg's grid and its 2x and 4x refinements, coarse to fine.

    Raises BlowupDetected, naming the level, when a run stops before t_end:
    its last state would be compared with the wave at another time.
    """
    fam = cfg.family()

    def level(k):
        grid = cfg.grid().refined(2 ** k)
        res = run_evolution(fam, grid, t_end=cfg.t_end, cfl=cfg.cfl, eps_ko=cfg.eps_ko,
                            gmin=cfg.gmin)
        if res.status == "blowup":
            raise BlowupDetected(res.t_blowup,
                                 f"{res.blowup_reason} on level {k} (n = {grid.n})")
        err = float(np.max(np.abs(res.state.phi - exact_travelling(fam, res.state.t, grid.x))))
        return ConvergenceLevel(grid.n, grid.dx, err, res.max_speed_seen)

    return ConvergenceStudy(refinement_levels(level))


@dataclass
class BlowupLevel:
    n: int
    dx: float
    t_blowup: float             # nan when the level ran to t_end
    reason: str | None


@dataclass
class BlowupStudy:
    levels: list                # BlowupLevel per grid, coarse to fine
    t_star: float               # richardson_time of the levels; nan unless all blew up
    initial_sep: float          # spacing of the plus-family characteristic seeds
    paths: list = field(default_factory=list)   # CharPath per seed on the finest level
    min_sep: float = float("nan")               # paths and min_sep only when t_star is set


def blowup_study(cfg) -> BlowupStudy:
    """Detected blow-up time of cfg's family on cfg's grid and its 2x and 4x
    refinements, and the focusing of adjacent plus-family characteristics.

    17 seeds span max|center| + 2 max width on each side of the origin, so
    they cover both packets.  They are traced while the finest level runs,
    in O(n) memory, in the calling process (`refinement_levels`).
    """
    fam = cfg.family()
    half = max(abs(fam.f.center), abs(fam.fb.center)) + 2.0 * max(fam.f.width, fam.fb.width)
    seeds = np.linspace(-half, half, 17)
    tracer = CharacteristicTracer(seeds, family="plus")

    def level(k):
        g = cfg.grid().refined(2 ** k)
        res = run_evolution(fam, g, t_end=cfg.t_end, cfl=cfg.cfl, eps_ko=cfg.eps_ko,
                            gmin=cfg.gmin, callbacks=[tracer] if k == 2 else ())
        tb = res.t_blowup if res.status == "blowup" else float("nan")
        return BlowupLevel(g.n, g.dx, tb, res.blowup_reason)

    levels = refinement_levels(level)
    t_blowups = [lev.t_blowup for lev in levels]
    sep0 = float(seeds[1] - seeds[0])
    if np.isnan(t_blowups).any():
        return BlowupStudy(levels, float("nan"), sep0)
    return BlowupStudy(levels, richardson_time(t_blowups), sep0, *tracer.finish())
