import dataclasses

import numpy as np
import pytest
from conftest import BLOWUP_SMALL, Recorder
from scipy import integrate
from test_golden import GOLDEN

from stringlab import (DataFamily, EnergyReport, EnergyTracker, Grid1D, InsufficientHistory,
                       ProfileSpec, TimelikeViolation, build_tower,
                       energy_orders, higher_order_traces, init_state, monitor, parse_config,
                       run_evolution, stack_states, stress_density, tracked_run, tracked_sweep)
import stringlab.energy as energy
from stringlab.config import ExperimentConfig
from stringlab.energy import (FLUX_BLOCK, DerivativeTower, TraceCheckStudy, _level_dt,
                              _order_sums, _sobolev_stats, null_rows, report_from_tower,
                              time_rows)
from stringlab.evolve import FieldState, Refinement, step
from stringlab.nullgeom import side_weight
from stringlab.stencils import cubic_combine, cubic_weights, deriv1

GAUSS2 = ProfileSpec("gaussian", 1.0, 0.0, 2.0)


def _run_stack(fam, grid, n_levels, dt=0.02, eps_ko=0.0):
    st = init_state(fam, grid)
    # walk back so the stack is centered near t = n_levels/2 * dt
    states = [st.copy()]
    s = st
    for _ in range(n_levels - 1):
        from stringlab.evolve import step
        s, _ = step(s, dt=dt, eps_ko=eps_ko)
        states.append(s.copy())
    return states


def test_build_tower_needs_enough_levels(default_family):
    grid = Grid1D(-24, 0.25, 193)
    states = _run_stack(default_family, grid, 5)
    with pytest.raises(InsufficientHistory):
        build_tower(states, N=4)
    with pytest.raises(InsufficientHistory):
        build_tower(states[:4], N=1)   # even-length stack
    with pytest.raises(InsufficientHistory, match="at least 2 levels"):
        build_tower(states[:1], N=0)   # no time step to read off


def test_tower_zero_solution():
    grid = Grid1D(-5, 0.1, 101)
    z = np.zeros(grid.n)
    states = [FieldState(t=0.02 * i, grid=grid, phi=z, w=z, p=z) for i in range(5)]
    tower = build_tower(states, N=2)
    assert np.all(tower.rows == 0)
    e2, eb2 = energy_orders(tower, 0.5)
    assert np.all(e2 == 0) and np.all(eb2 == 0)


def test_tower_manufactured_mixed_derivatives():
    # phi = sin(x) cos(t): null rows have closed forms
    grid = Grid1D(-np.pi, 2 * np.pi / 256, 257)
    x = grid.x
    errs = []
    for dt in (0.02, 0.01):
        states = [FieldState(t=dt * j, grid=grid, phi=np.sin(x) * np.cos(dt * j),
                             w=-np.sin(x) * np.sin(dt * j),
                             p=np.cos(x) * np.cos(dt * j))
                  for j in range(-2, 3)]
        tower = build_tower(states, N=2)
        # row (1,1): L(d_t d_x phi): d_t d_x phi = -cos(x) sin(t)
        # L = dt + dx: -> -cos(x)cos(t) + sin(x)sin(t) at t = 0: -cos(x)
        lrow, lbrow = tower.rows[1, 1]
        errs.append(np.max(np.abs(lrow - (-np.cos(x)))))
        assert np.max(np.abs(lbrow - (-np.cos(x)))) == pytest.approx(errs[-1], rel=0.5)
    assert errs[1] < 2.5e-4
    assert np.log2(errs[0] / errs[1]) > 1.7    # dt^2 dominates


def test_tower_travelling_l_rows_vanish(travelling_family):
    grid = Grid1D(-20, 0.05, 801)
    rec = Recorder()
    run_evolution(travelling_family, grid, t_end=0.5, callbacks=[rec])
    tower = build_tower(rec.states[-9:], N=4)
    for k1, k2 in np.ndindex(5, 5):
        assert np.max(np.abs(tower.rows[k1, k2, 0])) < 2e-5, f"L row {(k1, k2)}"


def test_tower_matches_initial_traces(default_family):
    # forward/backward stack centered at t = 0 vs the exact algebraic table
    from stringlab.evolve import step
    grid = Grid1D(-20, 0.05, 801)
    st = init_state(default_family, grid)
    dt = 0.02
    fwd, back = [], []
    s = st.copy()
    for _ in range(2):
        s, _ = step(s, dt=dt, eps_ko=0.0)
        fwd.append(s.copy())
    s = st.copy()
    for _ in range(2):
        s, _ = step(s, dt=-dt, eps_ko=0.0)
        back.append(s.copy())
    tower = build_tower(list(reversed(back)) + [st] + fwd, N=2)
    table = higher_order_traces(default_family, 2, grid.x)
    for key in np.ndindex(3, 3):
        if sum(key) > 2:
            continue
        (lt, lbt), (tl, tlb) = table.rows[key], tower.rows[key]
        scale = max(np.max(np.abs(lt)), np.max(np.abs(lbt)), 1e-12)
        assert np.max(np.abs(tl - lt)) / scale < 2e-3, key
        assert np.max(np.abs(tlb - lbt)) / scale < 2e-3, key


# ---------------------------------------------------------------------------
# stress contractions


def test_stress_flat_background_density():
    # zero base field: the t-contraction reduces to the flat wave energy
    rng = np.random.default_rng(7)
    b, a = rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)
    zero = np.zeros(50)
    wgt = 1.7 * np.ones(50)
    dens = stress_density(zero, zero, b, a, wgt, "TL", "t")
    assert np.allclose(dens, 0.5 * wgt * b ** 2, atol=1e-14)
    dens_u = stress_density(zero, zero, b, a, wgt, "TL", "u")
    assert np.allclose(dens_u, 0.5 * wgt * b ** 2, atol=1e-14)
    # zero iff the L row vanishes
    assert stress_density(0.0, 0.0, 0.0, 0.9, 1.0, "TL", "t") == 0.0


def test_stress_zero_rows_zero_density():
    assert stress_density(0.0, 0.0, 0.0, 0.0, 1.0, "TLb", "t") == 0.0


def test_stress_closed_form_du_tl(rng):
    # the -Du/TL contraction against its expanded closed form
    for _ in range(300):
        B, A = rng.uniform(-0.6, 0.6, 2)
        b, a = rng.uniform(-1, 1, 2)
        wgt = float(rng.uniform(0.5, 3.0))
        g = 1.0 - A * B
        expect = ((0.5 + A * B / (4 * g)) * wgt * b ** 2
                  + wgt * B ** 4 * a ** 2 / (8 * g)
                  - wgt * B ** 2 * A ** 2 * b ** 2 / (8 * g)
                  + wgt * B ** 2 * a * b / (4 * g))
        got = stress_density(B, A, b, a, wgt, "TL", "u")
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-13)


def test_stress_quadratic_homogeneity(rng):
    B, A, b, a = 0.3, -0.5, 0.7, 0.2
    for direction in ("u", "ub", "t"):
        for side in ("TL", "TLb"):
            base = stress_density(B, A, b, a, 1.3, side, direction)
            scaled = stress_density(B, A, 3.0 * b, 3.0 * a, 1.3, side, direction)
            assert scaled == pytest.approx(9.0 * base, rel=1e-12, abs=1e-14)


def test_stress_positivity_in_monitored_regime(rng):
    n = 1000
    B = rng.uniform(-0.1, 0.1, n)
    A = rng.uniform(-1.0, 1.0, n)
    b = rng.uniform(-1, 1, n)
    a = rng.uniform(-1, 1, n)
    one = np.ones(n)
    nz = (b ** 2 + a ** 2) > 1e-4
    for side in ("TL", "TLb"):
        dens_t = stress_density(B, A, b, a, one, side, "t")
        assert np.all(dens_t[nz] > 0.0)
    assert np.all(stress_density(B, A, b, a, one, "TL", "u")[nz] > 0)
    assert np.all(stress_density(B, A, b, a, one, "TLb", "ub")[nz] > 0)


def test_stress_trace_free(rng):
    B, A = rng.uniform(-0.7, 0.7, 2)
    b, a = rng.uniform(-1, 1, 2)
    # T(-Dt) = T(-Du) + T(-Dub) by construction; trace-freeness is checked in
    # the identities suite, here just consistency of the assembly
    for side in ("TL", "TLb"):
        tu = stress_density(B, A, b, a, 1.0, side, "u")
        tub = stress_density(B, A, b, a, 1.0, side, "ub")
        tt = stress_density(B, A, b, a, 1.0, side, "t")
        assert tt == pytest.approx(tu + tub, rel=1e-13)


def test_stress_raises_on_degenerate_base():
    with pytest.raises(TimelikeViolation):
        stress_density(1.0, 1.0, 0.1, 0.1, 1.0, "TL", "t")


# ---------------------------------------------------------------------------
# energies


def _tophat_tower(scale=1.0):
    grid = Grid1D(-2.0, 4.0 / 1600, 1601)
    x = grid.x
    lrow = np.where(np.abs(x) <= 1.0, scale, 0.0)
    rows = np.stack([lrow, np.zeros_like(x)])[None, None]
    return DerivativeTower(t=0.0, grid=grid, N=0, rows=rows)


def test_energy_slice_tophat_oracle():
    # int_{-1}^{1} (1 + x^2/4)^{3/2} dx by adaptive quadrature as the oracle
    (val,), (val_b,) = energy_orders(_tophat_tower(), 0.5)
    oracle, _ = integrate.quad(lambda x: (1 + x * x / 4.0) ** 1.5, -1.0, 1.0)
    # top-hat edges cost one cell of trapezoid error
    assert val == pytest.approx(oracle, rel=2e-3)
    assert val_b == 0.0


def test_energy_delta_zero_noise_floor(travelling_family):
    grid = Grid1D(-20, 0.05, 801)
    rec = Recorder()
    run_evolution(travelling_family, grid, t_end=1.0, callbacks=[rec])
    tower = build_tower(rec.states[-9:], N=4)
    e2, eb2 = energy_orders(tower, 0.5)
    assert np.all(e2 < 1e-7)
    assert eb2[0] > 1.0   # the right-travelling part carries order-one energy


def test_energy_quadratic_homogeneity():
    (val,), _ = energy_orders(_tophat_tower(), 0.5)
    (doubled,), _ = energy_orders(_tophat_tower(2.0), 0.5)
    assert doubled == pytest.approx(4.0 * val, rel=1e-12)


# ---------------------------------------------------------------------------
# tracker and monitor


def test_tracker_zero_field_flux_zero():
    grid = Grid1D(-10, 0.1, 201)
    z = np.zeros(grid.n)
    st = FieldState(t=0.0, grid=grid, phi=z, w=z, p=z)
    tr = EnergyTracker(gamma=0.5, N=2, probes_u=(-1.0, 0.0), probes_ub=(0.0,),
                       report_every=10)
    run_evolution(st, t_end=2.0, callbacks=[tr])
    (reports,), _ = tr.finalize()
    last = reports[-1]
    assert np.all(last.f2 == 0) and np.all(last.fb2 == 0)
    assert last.e2_total == 0 and last.eb2_total == 0


def test_tracker_flux_monotone_and_reports(default_family):
    grid = Grid1D(-28, 0.1, 561)
    tr = EnergyTracker(gamma=0.5, N=3, probes_u=(0.0,), probes_ub=(0.0,),
                       report_every=20)
    res = run_evolution(default_family, grid, t_end=6.0, callbacks=[tr])
    (reports,), _ = tr.finalize()
    assert res.status == "completed" and len(reports) >= 3
    f_series = [float(np.sum(r.fb2)) for r in reports]
    assert all(b >= a - 1e-15 for a, b in zip(f_series, f_series[1:]))
    assert f_series[-1] > 0
    for rep in reports:
        assert np.all(rep.e2 >= 0) and np.all(rep.eb2 >= 0)
        assert rep.min_g > 0.8


def test_tracker_travelling_flux_noise(travelling_family):
    grid = Grid1D(-20, 0.1, 401)
    tr = EnergyTracker(gamma=0.5, N=2, probes_u=(-1.0, 1.0), probes_ub=(),
                       report_every=20)
    run_evolution(travelling_family, grid, t_end=4.0, callbacks=[tr])
    (reports,), _ = tr.finalize()
    assert float(np.max(reports[-1].f2)) < 1e-8


def test_monitor_and_sobolev(default_family):
    grid = Grid1D(-28, 0.1, 561)
    tr = EnergyTracker(gamma=0.5, N=4, probes_u=(0.0,), probes_ub=(0.0,),
                       report_every=25)
    run_evolution(default_family, grid, t_end=6.0, callbacks=[tr])
    (reports,), _ = tr.finalize()
    mon = monitor(reports, default_family.delta)
    assert mon.m2 > 0
    assert mon.sup_e2 <= default_family.delta ** 2 * mon.m2 * (1 + 1e-9)
    assert mon.c_l <= 2.0 and mon.c_lb <= 2.0
    # weighted sup bounds hold with slack at every report
    assert mon.agmon_l_margin > 0 and mon.agmon_lb_margin > 0
    assert mon.passed(gmin=1e-6)
    # each monitor check fails on its own; c_L is exempt at delta = 0
    assert not dataclasses.replace(mon, min_g=1e-6).passed(gmin=1e-6)
    assert not dataclasses.replace(mon, agmon_lb_margin=-1e-3).passed(gmin=1e-6)
    assert not dataclasses.replace(mon, c_lb=2.5).passed(gmin=1e-6)
    assert not dataclasses.replace(mon, c_l=2.5).passed(gmin=1e-6)
    assert dataclasses.replace(mon, c_l=2.5, delta=0.0).passed(gmin=1e-6)


@pytest.mark.parametrize("delta", [0.1, 0.0])
@pytest.mark.parametrize("name", ["e2", "eb2", "sup_l", "sup_lb", "agmon_l_margin",
                                  "agmon_lb_margin", "min_g"])
def test_a_nan_after_the_first_report_fails_the_monitor(name, delta):
    def report(t):
        return EnergyReport(t=t, e2=np.array([0.01, 0.01]), eb2=np.array([1.0, 1.0]),
                            min_g=0.9, sup_l=np.array([0.05, 0.05]),
                            sup_lb=np.array([0.5, 0.5]), agmon_l_margin=0.1,
                            agmon_lb_margin=0.1, f2=np.zeros((1, 3)),
                            fb2=np.zeros((1, 3)))

    reports = [report(t) for t in (0.0, 1.0, 2.0)]
    assert monitor(reports, delta).passed(gmin=0.0)
    value = getattr(reports[1], name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[1] = np.nan
    else:
        value = np.nan
    setattr(reports[1], name, value)
    assert not monitor(reports, delta).passed(gmin=0.0)


@pytest.mark.parametrize("at", [1, 4])
def test_level_dt_rejects_a_nan_time(at):
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    assert _level_dt(times) == pytest.approx(0.1)
    times[at] = np.nan
    with pytest.raises(InsufficientHistory, match="not equally spaced"):
        _level_dt(times)


def test_null_rows_rejects_short_stack():
    z = [np.zeros(32)] * 3
    with pytest.raises(InsufficientHistory):
        null_rows(z, z, 0.1, 0.1, 2)


# ---------------------------------------------------------------------------
# incremental tower inside the tracker


@pytest.mark.parametrize("N", [2, 4])
def test_tracker_reports_equal_reference_tower(default_family, N):
    grid = Grid1D(-16, 0.1, 321)
    tr = EnergyTracker(gamma=0.5, N=N, probes_u=(0.0,), probes_ub=(0.0,),
                       report_every=7)
    rec = Recorder()
    run_evolution(default_family, grid, t_end=1.5, callbacks=[tr, rec])
    (reports,), _ = tr.finalize()
    assert len(reports) >= 3
    times = [s.t for s in rec.states]
    for rep in reports:
        i = times.index(rep.t)
        tower = build_tower(rec.states[i - N:i + N + 1], N=N)
        e2, eb2 = energy_orders(tower, 0.5)
        sup_l, sup_lb, am_l, am_lb = _sobolev_stats(tower, 0.5)
        assert tower.t == rep.t
        assert np.array_equal(rep.e2, e2) and np.array_equal(rep.eb2, eb2)
        assert rep.min_g == float(np.min(tower.g))
        assert np.array_equal(rep.sup_l, sup_l) and np.array_equal(rep.sup_lb, sup_lb)
        assert rep.agmon_l_margin == am_l and rep.agmon_lb_margin == am_lb


def test_report_evaluates_each_side_weight_once(default_family, monkeypatch):
    # energy_orders and _sobolev_stats share the weights of one report
    states = [init_state(default_family, Grid1D(-12, 0.1, 241))]
    for _ in range(4):
        states.append(step(states[-1], 0.04)[0])
    tower = build_tower(states, N=2)
    sides = []

    def counted(side, *args):
        sides.append(side)
        return side_weight(side, *args)

    monkeypatch.setattr(energy, "side_weight", counted)
    report_from_tower(tower, 0.5, np.zeros((0, 3)), np.zeros((0, 3)))
    assert sides == ["TL", "TLb"]


def _spatial_rows(phi, w, dx, N):
    """The k1 = 0 null rows L and Lb of d_x^k2 phi, k2 = 0..N, at one level
    (any leading axes, grid axis last), shape (N+1, 2, *phi.shape): nested
    deriv1 calls on the whole level, apart from `energy._centred_rows`."""
    rows = np.empty((N + 1, 2) + phi.shape)
    phx = deriv1(phi, dx)
    rows[0, 0] = w + phx
    rows[0, 1] = w - phx
    for k2 in range(1, N + 1):
        rows[k2] = deriv1(rows[k2 - 1], dx)
    return rows


def test_spatial_then_time_rows_is_null_rows():
    rng = np.random.default_rng(3)
    phis = rng.standard_normal((5, 3, 40))
    ws = rng.standard_normal((5, 3, 40))
    ref = null_rows(list(phis), list(ws), 0.05, 0.1, 2)
    per_level = np.stack([_spatial_rows(p, w, 0.1, 2) for p, w in zip(phis, ws)])
    rows = time_rows(per_level, 0.05, 2)
    assert ref.shape == rows.shape == (3, 3, 2, 3, 40)
    assert np.array_equal(ref, rows)
    # a stack of levels as one array gives the same rows
    assert np.array_equal(null_rows(phis, ws, 0.05, 0.1, 2), ref)
    assert np.all(rows[2, 1:] == 0) and np.all(rows[1, 2] == 0)


def _blocks(n_steps, N):
    """Flush blocks of a run of n_steps steps: one per FLUX_BLOCK centres
    and one for the rest, the centres being the levels with N on each side."""
    return -(-(n_steps + 1 - 2 * N) // FLUX_BLOCK)


def test_tracker_deriv1_budget(default_family, monkeypatch):
    # N+1 deriv1 calls per flush block on the probe windows, and N+1 per
    # report on the full grid; the flux never differentiates a whole grid
    import stringlab.energy as energy
    calls = []
    orig = energy.deriv1

    def counted(f, dx):
        calls.append(np.shape(f)[-1])
        return orig(f, dx)

    monkeypatch.setattr(energy, "deriv1", counted)
    grid = Grid1D(-16, 0.1, 321)
    N = 3
    tr = EnergyTracker(gamma=0.5, N=N, probes_u=(-1.0, 0.0, 1.0), probes_ub=(0.0, 1.0),
                       report_every=5)
    res = run_evolution(default_family, grid, t_end=1.0, callbacks=[tr])
    (reports,), _ = tr.finalize()
    n_reports = len(reports)
    assert res.n_steps >= 2 * N + FLUX_BLOCK and n_reports >= 2
    assert len(calls) == (N + 1) * (_blocks(res.n_steps, N) + n_reports)
    assert calls.count(grid.n) == (N + 1) * n_reports


def test_tracker_probe_entering_late_accumulates(default_family):
    # ub0 = 11: the incoming line x = 22 - t starts right of the grid and
    # enters at t ~ 3.3; on a wider grid the same line starts inside
    tr = EnergyTracker(gamma=0.5, N=2, probes_ub=(11.0,), report_every=50)
    res = run_evolution(default_family, Grid1D(-20, 0.1, 401), t_end=12.0, callbacks=[tr])
    wide = EnergyTracker(gamma=0.5, N=2, probes_ub=(11.0,), report_every=50)
    run_evolution(default_family, Grid1D(-20, 0.1, 481), t_end=12.0, callbacks=[wide])
    ((late,), left), ((wider,), wide_left) = tr.finalize(), wide.finalize()
    assert left == [] and wide_left == []
    # the run ends on a report step (300 steps, reports at 50, ..., 300), so
    # the last report carries the fluxes of the whole run
    assert res.n_steps == 300 and len(late) == 6
    f_late = late[-1].fb2
    f_wide = wider[-1].fb2
    assert np.all(f_late > 0)
    assert np.allclose(f_late, f_wide, rtol=1e-6, atol=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"report_every": 0}, "report_every must be >= 1: 0"),
    ({"N": 0}, "N out of [1, 6]: 0"),
], ids=["report_every", "N"])
def test_tracker_rejects_its_settings_when_built(kwargs, message):
    # report_every = 0 used to raise ZeroDivisionError at the first flush,
    # N = 0 a numpy broadcast ValueError
    with pytest.raises(ValueError) as raised:
        EnergyTracker(0.5, **kwargs)
    assert str(raised.value) == message


def test_tracker_probe_leaving_is_truncated(default_family):
    # u0 = -8: the outgoing line x = t + 16 leaves the grid at t ~ 2.7
    tr = EnergyTracker(gamma=0.5, N=2, probes_u=(-8.0, 0.0), report_every=10)
    run_evolution(default_family, Grid1D(-20, 0.1, 401), t_end=5.0, callbacks=[tr])
    (reports,), left = tr.finalize()
    assert left == ["u0=-8"]
    # the flux stops growing once the line is gone
    f_series = [float(r.f2[0].sum()) for r in reports if r.t > 3.0]
    assert len(f_series) >= 2 and len(set(f_series)) == 1


# ---------------------------------------------------------------------------
# the blocked tracker against the one-centre-at-a-time reference


class RingTracker:
    """Reference for EnergyTracker: the full-grid design.  Every level's
    spatial rows enter a ring of the last 2N+1 levels on the whole grid;
    each new level accumulates the flux of the ring centre at once, from the
    four columns around each active line, and a report differences the ring."""

    def __init__(self, gamma, N, probes_u=(), probes_ub=(), report_every=25):
        self.gamma, self.N, self.report_every = gamma, N, report_every
        self.probes_u = np.asarray(probes_u, dtype=float)
        self.probes_ub = np.asarray(probes_ub, dtype=float)
        self._reports = []
        self._n_levels = 2 * N + 1
        self._rows = None
        self._times = []
        self._levels_seen = 0
        self._nu = len(self.probes_u)
        self._prev = self._prev_tau = None
        self.truncated = np.zeros(self._nu + len(self.probes_ub), dtype=bool)
        self._inside = np.zeros_like(self.truncated)
        self._hw = 2 * (N + 2) + 4

    def finalize(self):
        names = [f"u0={c:g}" for c in self.probes_u] + [f"ub0={c:g}" for c in self.probes_ub]
        return self._reports, [name for name, gone in zip(names, self.truncated) if gone]

    def on_step(self, state):
        phi, w = np.atleast_2d(state.phi), np.atleast_2d(state.w)
        if self._rows is None:
            self._grid = state.grid
            self._reports = [[] for _ in range(w.shape[0])]
            self._rows = np.empty((self._n_levels, self.N + 1, 2) + w.shape)
            self._flux = np.zeros((w.shape[0], len(self.truncated), self.N + 1))
        self._rows[self._levels_seen % self._n_levels] = _spatial_rows(
            phi, w, state.grid.dx, self.N)
        self._times = (self._times + [state.t])[-self._n_levels:]
        self._levels_seen += 1
        if len(self._times) == self._n_levels:
            self._accumulate_flux()
            if (self._levels_seen - 1) % self.report_every == 0:
                self._report()

    def _ring(self):
        return self._rows[(self._levels_seen + np.arange(self._n_levels)) % self._n_levels]

    def _probe_rows(self, xq):
        grid = self._grid
        i0 = np.round((xq - grid.x0) / grid.dx).astype(int) - self._hw
        pos = (xq - (grid.x0 + i0 * grid.dx)) / grid.dx
        base, weights = cubic_weights(pos, 2 * self._hw + 1)
        cols = self._ring().take((i0 + base)[:, None] + np.arange(4), axis=-1)
        return cubic_combine(weights, time_rows(cols, self._times[1] - self._times[0], self.N))

    def _flux_density(self, rows, xq, tau, nu):
        sqrt_g = np.sqrt(np.maximum(1.0 - rows[0, 0, 0] * rows[0, 0, 1], 0.0))
        dens = np.empty(rows.shape[:2] + rows.shape[3:])
        for side, part in enumerate((slice(None, nu), slice(nu, None))):
            wgt = side_weight(("TL", "TLb")[side], tau, xq[part], self.gamma)
            dens[..., part] = wgt * rows[:, :, side, ..., part] ** 2 * sqrt_g[..., part]
        return _order_sums(np.moveaxis(dens, 1, -1))

    def _accumulate_flux(self):
        grid = self._grid
        tau = self._times[self.N]
        margin = (self._hw + 1) * grid.dx
        lo, hi = grid.x0 + margin, grid.x_end - margin
        x = np.concatenate([tau - 2.0 * self.probes_u, 2.0 * self.probes_ub - tau])
        inside = (x > lo) & (x < hi)
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

    def _report(self):
        dt = _level_dt(self._times)
        t = float(self._times[self.N])
        for k, reports in enumerate(self._reports):
            rows = time_rows(self._ring()[..., k, :], dt, self.N)
            tower = DerivativeTower(t=t, grid=self._grid, N=self.N, rows=rows)
            reports.append(report_from_tower(tower, self.gamma,
                                             self._flux[k, :self._nu].copy(),
                                             self._flux[k, self._nu:].copy()))


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(EnergyReport):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y), f.name


# On [-10, 10], with hw+1 = 2N+9 cells kept from each edge: u0 = -4 leaves
# the grid at t ~ 0.3 to 0.7 (at N = 4 and cfl 0.9 it is past its exit at
# the first centre); u0 = 30 never reaches the grid; u0 = -20 starts past
# its exit; ub0 = 5.5 starts right of the grid and enters at t ~ 2.3 to
# 2.7; ub0 = -3 leaves at t ~ 2.3 to 2.7.  Most of these events fall
# inside a flush block, not on its first centre.
_PROBES = dict(probes_u=(-4.0, 0.0, 30.0, -20.0), probes_ub=(5.5, 0.0, -3.0))


@pytest.mark.parametrize("N,report_every,cfl,deltas,t_end", [
    (2, 1, 0.4, (0.1,), 4.0),
    (3, 7, 0.9, (0.1, 0.05, 0.025), 6.0),
    (4, 50, 0.4, (0.1,), 6.0),
    (4, 7, 0.9, (0.2, 0.1), 6.0),
    (2, 7, 0.4, (0.1,), 0.4),                   # 10 steps: shorter than one block
])
def test_blocked_tracker_equals_ring_reference(N, report_every, cfl, deltas, t_end):
    grid = Grid1D(-10.0, 0.1, 201)
    fams = [DataFamily(0.5, d, GAUSS2, GAUSS2) for d in deltas]
    trackers = [cls(gamma=0.5, N=N, report_every=report_every, **_PROBES)
                for cls in (EnergyTracker, RingTracker)]
    res = run_evolution(stack_states([init_state(f, grid) for f in fams]), t_end=t_end,
                        cfl=cfl, callbacks=trackers)
    assert res.status == "completed"
    (blocked, blocked_left), (ring, ring_left) = (tr.finalize() for tr in trackers)
    assert len(blocked) == len(deltas)
    for got, want in zip(blocked, ring):
        assert got
        _assert_same_reports(got, want)
    assert blocked_left == ring_left
    if t_end > 1.0:
        assert blocked_left == ["u0=-4", "u0=-20", "ub0=-3"]
    else:
        assert res.n_steps + 1 - 2 * N < FLUX_BLOCK


def test_blocked_tracker_equals_ring_reference_at_a_blowup():
    # the blow-up stops the ensemble inside a block
    grid = Grid1D(-16.0, 0.1, 321)
    fams = [BLOWUP_SMALL.family(), DataFamily(0.5, 0.1, GAUSS2, GAUSS2)]
    trackers = [cls(gamma=0.5, N=3, report_every=5, probes_u=(0.0, 2.0), probes_ub=(0.0,))
                for cls in (EnergyTracker, RingTracker)]
    res = run_evolution(stack_states([init_state(f, grid) for f in fams]), t_end=6.0,
                        cfl=0.9, callbacks=trackers)
    assert [m.status for m in res.members] == ["blowup", "stopped"]
    assert (res.n_steps - 2 * 3) % FLUX_BLOCK != 0
    (blocked, blocked_left), (ring, ring_left) = (tr.finalize() for tr in trackers)
    for got, want in zip(blocked, ring):
        assert got
        _assert_same_reports(got, want)
    assert blocked_left == ring_left


# ---------------------------------------------------------------------------
# ensembles: one tracker over members stepping in lockstep


def _small_cfg(**kw):
    return ExperimentConfig(x0=-24.0, dx=0.1, n=481, t_end=3.0, report_every=10, **kw)


def test_tracked_sweep_members_equal_tracked_runs():
    cfg = _small_cfg(deltas=(0.1, 0.05, 0.025))
    swept = tracked_sweep(cfg)
    for delta, (res, reports, mon) in zip(cfg.deltas, swept):
        res1, reports1, mon1, _ = tracked_run(cfg.with_(delta=delta))
        assert res.status == res1.status == "completed"
        for f in ("phi", "w", "p"):
            assert np.array_equal(getattr(res.state, f), getattr(res1.state, f))
        assert res.max_speed_seen == res1.max_speed_seen
        assert res.min_g_seen == res1.min_g_seen
        assert len(reports) > 3
        _assert_same_reports(reports, reports1)
        assert mon == mon1


def test_tracker_member_blowup_keeps_its_reports():
    # the blow-up member stops the ensemble: it keeps its single run's
    # reports, the others their single runs' reports up to that step
    grid = Grid1D(-16, 0.05, 641)
    fams = [BLOWUP_SMALL.family(), DataFamily(0.5, 0.1, GAUSS2, GAUSS2),
            DataFamily(0.5, 0.05, GAUSS2, GAUSS2)]
    tracker = EnergyTracker(gamma=0.5, N=2, probes_u=(0.0,), probes_ub=(0.0, 1.0),
                            report_every=10)
    rec = Recorder()
    ens = run_evolution(stack_states([init_state(f, grid) for f in fams]), t_end=6.0,
                        callbacks=[tracker, rec])
    assert [m.status for m in ens.members] == ["blowup", "stopped", "stopped"]
    steps = len(rec.states) - 1
    ensemble_reports, _ = tracker.finalize()
    for fam, member, reports in zip(fams, ens.members, ensemble_reports):
        single = EnergyTracker(gamma=0.5, N=2, probes_u=(0.0,), probes_ub=(0.0, 1.0),
                               report_every=10)
        single_rec = Recorder()
        res = run_evolution(fam, grid, t_end=6.0, callbacks=[single, single_rec])
        (single_reports,), _ = single.finalize()
        if member.status == "blowup":
            _assert_same_reports(reports, single_reports)
            continue
        assert res.status == "completed" and len(reports) < len(single_reports)
        _assert_same_reports(reports, single_reports[:len(reports)])
        for f in ("phi", "w", "p"):
            assert np.array_equal(getattr(member.state, f), getattr(single_rec.states[steps], f))
    assert len(ensemble_reports[0]) == len(ensemble_reports[1]) > 0


def test_ensemble_tracker_deriv1_budget(monkeypatch, tmp_path):
    # a flush block costs N+1 calls whatever B is; a report N+1 per member.
    # The tracker runs in a forked child, so each call appends a line to a
    # file that the child writes
    import stringlab.energy as energy
    orig = energy.deriv1

    def counted(f, dx):
        with open(log, "a") as fh:
            print(1, file=fh)
        return orig(f, dx)

    monkeypatch.setattr(energy, "deriv1", counted)
    cfg = _small_cfg(N=3)
    for deltas in ((0.1,), (0.1, 0.05, 0.025)):
        log = tmp_path / f"calls{len(deltas)}"
        (res, reports, _), *_ = tracked_sweep(cfg.with_(deltas=deltas))
        # the t = 0 report comes from the exact trace table
        n_reports = len(deltas) * (len(reports) - 1)
        calls = len(log.read_text().splitlines())
        assert calls == (cfg.N + 1) * (_blocks(res.n_steps, cfg.N) + n_reports)


def test_tracker_holds_bounded_levels():
    # over 1000 steps the tracker holds the fields of at most 2N + FLUX_BLOCK
    # levels and no derivative rows between flushes
    grid = Grid1D(-2.0, 0.1, 41)
    z = np.zeros(grid.n)
    N = 3
    tr = EnergyTracker(gamma=0.5, N=N, probes_u=(0.0,), probes_ub=(0.0,), report_every=50)
    held, nbytes = [], []

    class Probe:
        def on_step(self, state):
            held.append(len(tr._times))
            nbytes.append(sum(v.nbytes for v in vars(tr).values() if isinstance(v, np.ndarray)))

    res = run_evolution(FieldState(0.0, grid, z, z, z), t_end=40.0, callbacks=[tr, Probe()])
    assert res.status == "completed" and res.n_steps >= 1000
    assert len(held) == res.n_steps + 1 and max(held) == 2 * N + FLUX_BLOCK - 1
    assert tr._fields.shape == (2, 2 * N + FLUX_BLOCK, 1, grid.n)
    assert max(nbytes) < tr._fields.nbytes + 1024
    assert len(tr.finalize()[0][0]) == res.n_steps // 50


@pytest.mark.parametrize("level1,order,passed", [
    ([2.0 ** -12, 2.0 ** -13], 2.0, True),
    ([2.0 ** -11, 2.0 ** -12], 1.0, False),
    ([0.0, 0.0], None, False),                   # undefined: nothing left at level 1
    ([float("nan"), 2.0 ** -13], None, False),   # a nan discrepancy is not skipped
])
def test_trace_check_gate_on_the_worst_order(level1, order, passed):
    rows = {(0, 0): [2.0 ** -10, level1[0]], (1, 0): [2.0 ** -11, level1[1]]}
    study = TraceCheckStudy({key: Refinement(str(key), [0.1, 0.05], ds, 1.5)
                             for key, ds in rows.items()}, table=None)
    assert study.gate.name == "tracecheck" and study.gate.floor == energy.TRACE_ORDER_MIN
    assert study.gate.orders == [order]
    assert study.gate.passed() == passed


def test_hierarchy_slopes_equal_polyfit():
    # the closed-form line against numpy's least-squares fit (an SVD in
    # LAPACK): on seeded random sweeps, then on the golden sweep's monitors
    rng = np.random.default_rng(2021)
    for _ in range(2000):
        deltas = rng.choice(np.geomspace(1e-4, 1.0, 4001), size=rng.integers(3, 7),
                            replace=False)
        x = np.log(deltas)
        y = rng.uniform(-1.0, 3.0) * x + rng.uniform(-5.0, 5.0) + 0.1 * rng.standard_normal(x.size)
        assert abs(energy._slope(x, y) - np.polyfit(x, y, 1)[0]) < 1e-12
    monitors = [mon for _, _, mon in tracked_sweep(parse_config(GOLDEN["sweep"][0]))]
    fit = energy.fit_hierarchy(monitors)
    x = np.log(fit.deltas)
    for slope, sups in ((fit.slope_e2, fit.sup_e2), (fit.slope_eb2, fit.sup_eb2)):
        assert slope == energy._slope(x, np.log(sups))
        assert abs(slope - np.polyfit(x, np.log(sups), 1)[0]) < 1e-12
