import numpy as np
import pytest
from conftest import BLOWUP_SMALL, Recorder

from stringlab import (BlowupDetected, CharacteristicTracer, DataFamily, Grid1D,
                       HyperbolicityLoss, InsufficientHistory, ProfileSpec, StringLabError,
                       blowup_study, exact_travelling, init_state, run_evolution,
                       stack_states, step, trace_characteristics)
import stringlab.evolve as evolve
from stringlab.evolve import FieldState, Refinement, _stage_rhs, max_speed, refinement_orders
from stringlab.stencils import cubic_interp, deriv1


def _state(grid, phi, w, p, t=0.0):
    return FieldState(t=t, grid=grid, phi=phi, w=w, p=p)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid1D(0.0, -0.1, 100)
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.1, 8)
    g = Grid1D(-1.0, 0.5, 17)
    assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(7.0)
    r = g.refined()
    assert r.n == 33 and r.x_end == pytest.approx(g.x_end)


def test_deriv1_is_fourth_order():
    errs = []
    for n in (65, 129):
        x = np.linspace(-1.0, 1.0, n)
        err = np.max(np.abs(deriv1(np.sin(3 * x), x[1] - x[0]) - 3 * np.cos(3 * x)))
        errs.append(err)
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_cubic_interp_cubic_exact():
    x0, dx, n = -2.0, 0.25, 33
    xg = x0 + dx * np.arange(n)
    vals = xg ** 3 - 2 * xg + 1
    xq = np.linspace(-1.5, 1.5, 57)
    out = cubic_interp(vals, x0, dx, xq)
    assert np.allclose(out, xq ** 3 - 2 * xq + 1, atol=1e-12)


def test_init_state_zero_family():
    fam = DataFamily(0.5, 0.0, ProfileSpec("gaussian", 0.0), ProfileSpec("gaussian", 0.0))
    st = init_state(fam, Grid1D(-10, 0.1, 201))
    assert np.all(st.phi == 0) and np.all(st.w == 0) and np.all(st.p == 0)


def test_init_state_travelling_null(travelling_family):
    st = init_state(travelling_family, Grid1D(-20, 0.1, 401))
    assert np.max(np.abs(st.w + st.p)) < 1e-15


def test_init_state_rejects_superluminal():
    fam = DataFamily(0.5, 1.0, ProfileSpec("gaussian", 1.5, 0.0, 1.0),
                     ProfileSpec("gaussian", 1.5, 0.0, 1.0))
    # F' = 0, G = 1.5 gaussian: 1 + p^2 - w^2 < 0 at the center
    with pytest.raises(HyperbolicityLoss):
        init_state(fam, Grid1D(-16, 0.1, 321))


def test_compatibility_residual_refines(travelling_family):
    # ||p - D_x phi||_inf of the sampled data stays at stencil level
    res = []
    for n in (257, 513):
        grid = Grid1D(-16, 32 / (n - 1), n)
        st = init_state(travelling_family, grid)
        res.append(float(np.max(np.abs(st.p - deriv1(st.phi, grid.dx)))))
    assert np.log2(res[0] / res[1]) > 3.5


def _rhs(w, p, dx):
    """The undamped stage right-hand side (dt w, dt p)."""
    (dw, dp), _ = _stage_rhs(np.stack((w, p)), dx, 0.0)
    return dw, dp


def test_rhs_zero_and_constant_states():
    grid = Grid1D(-5, 0.1, 101)
    z = np.zeros(grid.n)
    dw, dp = _rhs(z, z, grid.dx)
    assert np.all(dw == 0) and np.all(dp == 0)
    dw, dp = _rhs(0.3 * np.ones(grid.n), z, grid.dx)
    assert np.allclose(dw, 0, atol=1e-14) and np.allclose(dp, 0, atol=1e-14)


def test_rhs_manufactured_wave():
    # phi = sin(x - t): dt(w) should reproduce -sin(x - t) up to stencil error
    errs = []
    for n in (201, 401):
        grid = Grid1D(-2 * np.pi, 4 * np.pi / (n - 1), n)
        x = grid.x
        dw, dp = _rhs(-np.cos(x), np.cos(x), grid.dx)
        errs.append(np.max(np.abs(dw - (-np.sin(x)))))
        assert np.allclose(dp, np.sin(x), atol=errs[-1] * 2 + 1e-12)
    assert np.log2(errs[0] / errs[1]) > 3.3


def test_step_zero_stays_zero():
    grid = Grid1D(-5, 0.1, 101)
    z = np.zeros(grid.n)
    st = _state(grid, z, z, z)
    for _ in range(20):
        st, _ = step(st, dt=0.02)
    assert np.all(st.w == 0) and np.all(st.p == 0) and np.all(st.phi == 0)


def test_constant_states_are_fixed_points():
    grid = Grid1D(-5, 0.1, 101)
    z = np.zeros(grid.n)
    st = _state(grid, z, 0.4 * np.ones(grid.n), 0.2 * np.ones(grid.n))
    out, _ = step(st, dt=0.02, eps_ko=0.01)
    assert np.allclose(out.w, 0.4, atol=1e-13)
    assert np.allclose(out.p, 0.2, atol=1e-13)


def test_time_reversal_roundtrip(default_family):
    grid = Grid1D(-24, 0.05, 961)
    st = init_state(default_family, grid)
    dt = 0.02
    fwd, _ = step(st, dt=dt, eps_ko=0.0)
    back, _ = step(fwd, dt=-dt, eps_ko=0.0)
    assert np.max(np.abs(back.w - st.w)) < 10 * dt ** 5
    assert np.max(np.abs(back.p - st.p)) < 10 * dt ** 5


def test_reflection_symmetry(default_family):
    # x -> -x, p -> -p maps solutions to solutions; the solver commutes with
    # the reflection to roundoff
    grid = Grid1D(-24, 0.1, 481)
    st = init_state(default_family, grid)
    refl = FieldState(t=0.0, grid=grid, phi=st.phi[::-1].copy(),
                      w=st.w[::-1].copy(), p=-st.p[::-1].copy())
    a, _ = step(st, dt=0.03)
    b, _ = step(refl, dt=0.03)
    assert np.max(np.abs(b.w - a.w[::-1])) < 1e-13
    assert np.max(np.abs(b.p + a.p[::-1])) < 1e-13


def test_travelling_wave_convergence(travelling_family):
    errs = []
    for n in (257, 513, 1025):
        grid = Grid1D(-18, 36 / (n - 1), n)
        res = run_evolution(travelling_family, grid, t_end=4.0)
        assert res.status == "completed"
        errs.append(np.max(np.abs(res.state.phi
                                  - exact_travelling(travelling_family, 4.0, grid.x))))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 3.3)


def test_exact_travelling_rejects_nonzero_delta(default_family):
    with pytest.raises(ValueError):
        exact_travelling(default_family, 1.0, 0.0)


def test_speed_bound_on_run(default_family):
    grid = Grid1D(-28, 0.1, 561)
    res = run_evolution(default_family, grid, t_end=5.0)
    assert res.max_speed_seen <= 1.0 + 1e-12


def test_blowup_detection_and_reporting():
    fam = BLOWUP_SMALL.family()
    res = run_evolution(fam, Grid1D(-16, 0.05, 641), t_end=10.0)
    assert res.status == "blowup"
    assert res.t_blowup is not None and 3.0 < res.t_blowup < 5.0
    assert res.blowup_reason


def test_step_raises_blowup_with_last_valid_time():
    fam = BLOWUP_SMALL.family()
    grid = Grid1D(-16, 0.05, 641)
    st = init_state(fam, grid)
    with pytest.raises(BlowupDetected) as exc_info:
        for _ in range(10000):
            st, _ = step(st, dt=0.02)
    assert exc_info.value.t_last == pytest.approx(st.t)


def test_characteristics_straight_on_zero_field():
    grid = Grid1D(-10, 0.05, 401)
    z = np.zeros(grid.n)
    st = _state(grid, z, z, z)
    rec = Recorder()
    run_evolution(st, t_end=3.0, callbacks=[rec])
    paths, min_sep = trace_characteristics(rec.states, [-4.0, -2.0, 0.0], family="plus")
    for p in paths:
        assert np.allclose(p.xs, p.seed_x + p.ts, atol=1e-12)
    assert min_sep == pytest.approx(2.0, abs=1e-12)
    paths, _ = trace_characteristics(rec.states, [0.0], family="minus")
    assert np.allclose(paths[0].xs, -paths[0].ts, atol=1e-12)


def test_characteristics_early_speed_delta_zero(travelling_family):
    # plus-family speed field is exactly 1 on delta = 0 data
    grid = Grid1D(-20, 0.05, 801)
    rec = Recorder()
    run_evolution(travelling_family, grid, t_end=2.0, callbacks=[rec])
    paths, _ = trace_characteristics(rec.states, [-3.0, 0.0, 3.0], family="plus")
    for p in paths:
        slope = (p.xs[-1] - p.xs[0]) / (p.ts[-1] - p.ts[0])
        assert slope == pytest.approx(1.0, abs=1e-7)


def _stored_history_trace(hist, seeds, family):
    """Characteristic RK4 over all the recorded states of a run: every level
    stacked, cubic time interpolation over levels j..j+3 with j clipped to
    the run."""
    times = np.array([s.t for s in hist])
    dt = times[1] - times[0]
    W = np.stack([s.w for s in hist])
    P = np.stack([s.p for s in hist])
    grid = hist[0].grid
    sign = 1.0 if family == "plus" else -1.0

    def lam(t, xq):
        j = int(np.clip(np.floor((t - times[0]) / dt) - 1, 0, len(times) - 4))
        wq = cubic_interp(W[j:j + 4], grid.x0, grid.dx, xq)
        pq = cubic_interp(P[j:j + 4], grid.x0, grid.dx, xq)
        wt = cubic_interp(wq.T, times[j], dt, t)
        pt = cubic_interp(pq.T, times[j], dt, t)
        disc = np.maximum(1.0 + pt * pt - wt * wt, 0.0)
        return (-wt * pt + sign * np.sqrt(disc)) / (1.0 + pt * pt)

    lo, hi = grid.x0 + 2 * grid.dx, grid.x_end - 2 * grid.dx
    xs = np.asarray(seeds, dtype=float).copy()
    alive = (xs > lo) & (xs < hi)
    traj, alive_hist = [xs.copy()], [alive.copy()]
    min_sep = float(np.min(np.abs(np.diff(xs))))
    for i in range(len(times) - 1):
        t = times[i]
        k1 = lam(t, xs)
        k2 = lam(t + 0.5 * dt, xs + 0.5 * dt * k1)
        k3 = lam(t + 0.5 * dt, xs + 0.5 * dt * k2)
        k4 = lam(t + dt, xs + dt * k3)
        xs = np.where(alive, xs + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), xs)
        alive = alive & (xs > lo) & (xs < hi)
        traj.append(xs.copy())
        alive_hist.append(alive.copy())
        pair_alive = alive[1:] & alive[:-1]
        if np.any(pair_alive):
            min_sep = min(min_sep, float(np.min(np.abs(np.diff(xs))[pair_alive])))
    return times, np.array(traj), np.array(alive_hist), min_sep


@pytest.mark.parametrize("t_end,status", [(10.0, "blowup"), (2.0, "completed")])
def test_streamed_characteristics_match_stored_history(t_end, status):
    fam = BLOWUP_SMALL.family()
    grid = Grid1D(-16, 0.1, 321)
    # the outer seeds leave the usable domain, one per family
    seeds = np.r_[-15.7, np.linspace(-6.0, 6.0, 9), 15.7]
    tracers = {fam_: CharacteristicTracer(seeds, fam_) for fam_ in ("plus", "minus")}
    rec = Recorder()
    res = run_evolution(fam, grid, t_end=t_end, callbacks=[*tracers.values(), rec])
    assert res.status == status
    for family, tracer in tracers.items():
        ts, xs, alive, min_sep = _stored_history_trace(rec.states, seeds, family)
        assert not alive[-1].all()
        for paths, sep in (tracer.finalize(), trace_characteristics(rec.states, seeds, family)):
            assert sep == min_sep
            for k, path in enumerate(paths):
                assert np.array_equal(path.ts, ts)
                assert np.array_equal(path.xs, xs[:, k])
                assert np.array_equal(path.alive, alive[:, k])


def test_blowup_study_matches_plain_runs():
    cfg = BLOWUP_SMALL
    fam, grid = cfg.family(), cfg.grid()
    study = blowup_study(cfg)
    grids = [grid, grid.refined(), grid.refined().refined()]
    rec = Recorder()
    runs = [run_evolution(fam, g, t_end=5.0, callbacks=[rec] if k == 2 else ())
            for k, g in enumerate(grids)]
    assert [lev.n for lev in study.levels] == [361, 721, 1441]
    assert [lev.t_blowup for lev in study.levels] == [r.t_blowup for r in runs]
    assert [lev.reason for lev in study.levels] == [r.blowup_reason for r in runs]
    # 17 seeds span max|center| + 2 max width = 6 on each side
    seeds = np.linspace(-6.0, 6.0, 17)
    assert [p.seed_x for p in study.paths] == list(seeds) and study.initial_sep == 0.75
    paths, min_sep = trace_characteristics(rec.states, seeds, family="plus")
    assert study.min_sep == min_sep
    assert all(np.array_equal(a.xs, b.xs) for a, b in zip(study.paths, paths))


def test_tracer_holds_bounded_levels():
    grid = Grid1D(-2.0, 0.1, 41)
    z = np.zeros(grid.n)
    tracer = CharacteristicTracer([-1.0, 0.0, 1.0], "plus")
    held = []

    class Probe:
        def on_step(self, state):
            held.append(len(tracer._levels))

    res = run_evolution(_state(grid, z, z, z), t_end=40.0, callbacks=[tracer, Probe()])
    assert res.status == "completed" and res.n_steps >= 1000
    assert len(held) == res.n_steps + 1 and max(held) <= 8
    paths, _ = tracer.finalize()
    assert len(paths[0].ts) == res.n_steps + 1


def test_tracer_needs_four_levels():
    grid = Grid1D(-10, 0.05, 401)
    z = np.zeros(grid.n)
    st = _state(grid, z, z, z)
    tracer = CharacteristicTracer([0.0, 1.0], "plus")
    tracer.on_step(st)
    tracer.on_step(step(st, dt=0.02)[0])
    with pytest.raises(InsufficientHistory, match="4 time levels") as exc_info:
        tracer.finalize()
    assert isinstance(exc_info.value, StringLabError)
    rec = Recorder()
    run_evolution(st, t_end=0.04, callbacks=[rec])
    assert len(rec.states) == 3
    for states in (rec.states, []):
        with pytest.raises(InsufficientHistory, match="4 time levels"):
            trace_characteristics(states, [0.0], "plus")


def test_nested_domain_causality(default_family):
    dx = 0.1
    big = Grid1D(-40.0, dx, 801)
    small = Grid1D(-25.0, dx, 501)
    rb = run_evolution(default_family, big, t_end=5.0)
    rs = run_evolution(default_family, small, t_end=5.0)
    mask = np.abs(small.x) <= 25.0 - 7.0
    off = int(round((small.x0 - big.x0) / dx))
    idx = np.arange(small.n)[mask] + off
    for fa, fb in ((rs.state.w, rb.state.w), (rs.state.p, rb.state.p)):
        assert np.max(np.abs(fa[mask] - fb[idx])) < 1e-9


def test_max_speed_helper():
    assert max_speed(np.zeros(4), np.zeros(4)) == pytest.approx(1.0)
    with pytest.raises(HyperbolicityLoss):
        max_speed(np.array([1.2]), np.array([0.0]))


# ---------------------------------------------------------------------------
# ensembles: members step in lockstep as one (B, n) state


def _assert_same_run(member, serial):
    assert member.status == serial.status
    assert (member.dt, member.n_steps) == (serial.dt, serial.n_steps)
    assert member.state.t == serial.state.t
    for f in ("phi", "w", "p"):
        assert np.array_equal(getattr(member.state, f), getattr(serial.state, f))
    assert member.max_speed_seen == serial.max_speed_seen
    assert member.min_g_seen == serial.min_g_seen
    assert (member.t_blowup, member.blowup_reason) == (serial.t_blowup, serial.blowup_reason)


def _assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t and np.array_equal(a.w, b.w) and np.array_equal(a.phi, b.phi)


def _member_states(rec, k):
    return [s.member(k) for s in rec.states]


def _assert_stopped_run(member, serial, serial_states, steps):
    """member, stopped after `steps` accepted steps by another member's
    blow-up, is serial's run up to that step: state and extremes, against
    serial's recorded states."""
    prefix = serial_states[:steps + 1]
    assert steps < serial.n_steps and len(prefix) == steps + 1
    assert member.status == "stopped"
    assert member.t_blowup is None and member.blowup_reason is None
    assert (member.dt, member.n_steps) == (serial.dt, serial.n_steps)
    assert member.state.t == prefix[-1].t
    for f in ("phi", "w", "p"):
        assert np.array_equal(getattr(member.state, f), getattr(prefix[-1], f))
    assert member.max_speed_seen == max(max_speed(s.w, s.p) for s in prefix)
    assert member.min_g_seen == min(float(np.min(s.disc)) for s in prefix)


def _families(*deltas):
    g2 = ProfileSpec("gaussian", 1.0, 0.0, 2.0)
    return [DataFamily(0.5, d, g2, g2) for d in deltas]


def test_ensemble_members_equal_their_single_runs():
    grid = Grid1D(-20, 0.1, 401)
    fams = _families(0.1, 0.05, 0.025)
    states = [init_state(fam, grid) for fam in fams]
    rec = Recorder()
    ens = run_evolution(stack_states(states), t_end=3.0, callbacks=[rec])
    assert ens.status == "completed" and len(ens.members) == 3
    assert ens.state.w.shape == (3, grid.n) and len(rec.states) == ens.n_steps + 1
    for k, (member, fam) in enumerate(zip(ens.members, fams)):
        single = Recorder()
        _assert_same_run(member, run_evolution(fam, grid, t_end=3.0, callbacks=[single]))
        _assert_same_states(_member_states(rec, k), single.states)


def test_ensemble_of_mixed_speeds_matches_single_runs():
    grid = Grid1D(-20, 0.1, 401)
    x = grid.x
    bump = np.exp(-x * x / 8.0)
    # a moving background keeps the speeds below 1 everywhere, while the
    # compactly supported data reach 1; dt = cfl*dx is the same for all
    slow = [FieldState(0.0, grid, 0.3 * x, 0.6 + 0.1 * a * bump, 0.3 + 0.0 * x)
            for a in (1.0, 0.5)]
    fast = [init_state(fam, grid) for fam in _families(0.1, 0.05)]
    states = [fast[0], slow[0], fast[1], slow[1]]
    singles = [run_evolution(s, t_end=2.0) for s in states]
    assert singles[0].max_speed_seen != singles[1].max_speed_seen
    assert all((r.dt, r.n_steps) == (0.04, 50) for r in singles)
    ens = run_evolution(stack_states(states), t_end=2.0)
    assert len(ens.members) == 4
    for member, single in zip(ens.members, singles):
        _assert_same_run(member, single)


@pytest.mark.parametrize("kwargs,match", [
    ({"t_end": -0.5}, "t_end"),
    ({"t_end": 2.0, "cfl": -0.4}, "cfl"),
    ({"t_end": 2.0, "cfl": 5.0}, "cfl"),
    # a negative gmin would let step accept a degenerate state
    ({"t_end": 2.0, "gmin": -1e-3}, "gmin"),
    ({"t_end": 2.0, "gmin": 1.0}, "gmin"),
    ({"t_end": 1.0, "eps_ko": -0.5}, r"^eps_ko must be >= 0: -0\.5$"),
])
def test_run_rejects_a_backward_or_unstable_step(kwargs, match):
    # each used to "complete": one backward step of dt = -0.5, one step of
    # dt = 2.0 (Courant number 20), four steps at Courant number 5, or steps
    # whose negative damping amplifies the shortest waves
    grid = Grid1D(-20, 0.1, 401)
    with pytest.raises(ValueError, match=match):
        run_evolution(_families(0.1)[0], grid, **kwargs)


def test_ensemble_member_blowup_leaves_the_others_unchanged():
    # slow moving backgrounds around the blow-up data: on this coarse grid
    # all three take 50 steps, and the other two members' speeds differ.
    # The ensemble stops at the blow-up; the others stop where it did
    grid = Grid1D(-16, 0.25, 129)
    x = grid.x
    bump = np.exp(-x * x / 8.0)
    states = [FieldState(0.0, grid, 0.05 * x, w0 + 0.1 * bump, 0.05 + 0.0 * x)
              for w0 in (0.2, 0.1)]
    states.insert(1, init_state(BLOWUP_SMALL.family(), grid))
    rec = Recorder()
    ens = run_evolution(stack_states(states), t_end=5.0, callbacks=[rec])
    recs = [Recorder() for _ in states]
    singles = [run_evolution(s, t_end=5.0, callbacks=[r]) for s, r in zip(states, recs)]
    assert [r.status for r in singles] == ["completed", "blowup", "completed"]
    assert singles[0].max_speed_seen != singles[2].max_speed_seen
    assert [m.status for m in ens.members] == ["stopped", "blowup", "stopped"]
    _assert_same_run(ens.members[1], singles[1])
    _assert_same_states(_member_states(rec, 1), recs[1].states)
    steps = len(rec.states) - 1
    for k in (0, 2):
        _assert_stopped_run(ens.members[k], singles[k], recs[k].states, steps)
        _assert_same_states(_member_states(rec, k), recs[k].states[:steps + 1])
    assert ens.status == "blowup" and ens.t_blowup == singles[1].t_blowup
    assert ens.blowup_reason == singles[1].blowup_reason
    assert ens.state.w.shape == (3, grid.n) and ens.state.t == ens.t_blowup


def test_ensemble_step_names_each_failed_member():
    grid = Grid1D(-16, 0.05, 641)
    fams = [BLOWUP_SMALL.family(), _families(0.1)[0]]
    st = stack_states([init_state(fam, grid) for fam in fams])
    single = init_state(fams[0], grid)
    with pytest.raises(BlowupDetected) as exc_info:
        for _ in range(10000):
            st, _ = step(st, dt=0.02)
            single, _ = step(single, dt=0.02)
    with pytest.raises(BlowupDetected) as single_info:
        step(single, dt=0.02)
    exc = exc_info.value
    assert exc.members == (single_info.value.reason, None)
    assert exc.t_last == single_info.value.t_last == st.t
    assert single_info.value.members is None


def test_ensemble_stencil_calls_do_not_grow_with_members(monkeypatch):
    import stringlab.evolve as evolve
    calls = {"deriv1": 0, "ko_dissipation": 0}
    for name in calls:
        def counted(*args, _orig=getattr(evolve, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(evolve, name, counted)
    grid = Grid1D(-20, 0.1, 401)
    states = [init_state(fam, grid) for fam in _families(0.1, 0.05, 0.025)]
    for n_members in (1, 3):
        calls.update(deriv1=0, ko_dissipation=0)
        res = run_evolution(stack_states(states[:n_members]), t_end=1.0)
        assert calls == {"deriv1": 4 * res.n_steps, "ko_dissipation": 4 * res.n_steps}


# ---------------------------------------------------------------------------
# active window: run_evolution steps only where the fields live


def _bump_members(grid, centers, radius=3.0, amp=0.4):
    """(B, n) state of compact bumps, exactly zero outside |x - c| < radius:
    each member's live range is known without the window rule."""
    x = grid.x
    bumps = np.stack([np.maximum(1.0 - ((x - c) / radius) ** 2, 0.0) ** 4 for c in centers])
    return FieldState(0.0, grid, 0.1 * bumps, amp * bumps, -0.5 * amp * bumps)


def _record_step_grids(monkeypatch):
    """Wrap evolve.step to record the (x0, n) of every grid it steps."""
    import stringlab.evolve as evolve
    seen = []

    def recorded(state, *args, _orig=evolve.step, **kwargs):
        seen.append((state.grid.x0, state.grid.n))
        return _orig(state, *args, **kwargs)

    monkeypatch.setattr(evolve, "step", recorded)
    return seen


def _kept_range(row, n):
    live = np.flatnonzero(row != 0.0)
    return max(live[0] - 8, 0), min(live[-1] + 9, n)


@pytest.mark.parametrize("centers,wide", [
    ((0.0,), False),                 # B = 1, inside the grid
    ((-20.0, 0.0, 15.0), False),     # B = 3, three windows, one hull
    ((-33.5,), False),               # the window touches the left edge
    ((33.5,), False),                # and the right edge
    ((-20.0, 20.0), True),           # a third, wide member steps the whole grid
])
def test_windowed_step_equals_full_step_on_kept_cells(monkeypatch, centers, wide):
    grid = Grid1D(-35.0, 0.05, 1401)
    state = _bump_members(grid, centers)
    kept = [_kept_range(row, grid.n) for row in state.w]
    if wide:
        wide_row = 0.2 * np.exp(-grid.x ** 2 / 200.0)
        state = stack_states([state.member(0), state.member(1),
                              FieldState(0.0, grid, wide_row, wide_row, wide_row)])
        kept.append((0, grid.n))
    seen = _record_step_grids(monkeypatch)
    res = run_evolution(state, t_end=0.02)
    assert res.n_steps == 1
    (x0, size), = seen
    lo = int(round((x0 - grid.x0) / grid.dx))
    hi = lo + size
    if wide:
        assert (lo, hi) == (0, grid.n)
    else:
        # a sub-grid that holds every live range widened by 16 cells
        assert lo <= max(min(a for a, _ in kept) - 8, 0)
        assert hi >= min(max(b for _, b in kept) + 8, grid.n)
        assert size < grid.n
    # the edge cases clip the window to the grid
    assert (lo == 0) == (centers[0] < -33.0 or wide)
    assert (hi == grid.n) == (centers[-1] > 33.0 or wide)
    full, min_g = step(state, res.dt)
    for k, (a, b) in enumerate(kept):
        mask = np.zeros(grid.n, bool)
        mask[a:b] = True
        got = res.members[k]
        for f in ("phi", "w", "p"):
            new, old, want = getattr(got.state, f), getattr(state, f)[k], getattr(full, f)[k]
            assert np.array_equal(new[mask], want[mask])
            assert np.array_equal(new[~mask], old[~mask])
        # the left-out cells cannot set the extremes: min g and the max
        # speed over the whole new row are those the run reports
        old = state.member(k)
        assert got.min_g_seen == min(float(np.min(old.disc)), float(np.min(got.state.disc)))
        assert got.max_speed_seen == max(max_speed(old.w, old.p),
                                         max_speed(got.state.w, got.state.p))
    assert np.array_equal(min_g, np.min(full.disc, axis=-1))


def test_windowed_ensemble_members_equal_their_single_runs(monkeypatch):
    # the default grid: the blow-up data and two bumps centred apart window
    # differently, and the blow-up member stops the ensemble near t = 3.9
    grid = Grid1D(-40.0, 0.05, 1601)
    bumps = _bump_members(grid, (-25.0, 20.0))
    states = [init_state(BLOWUP_SMALL.family(), grid), bumps.member(0), bumps.member(1)]
    seen = _record_step_grids(monkeypatch)
    extremes = []

    class Extremes:
        def on_step(self, state):
            extremes.append((np.min(state.disc, axis=-1), max_speed(state.w, state.p)))

    ens = run_evolution(stack_states(states), t_end=5.0, callbacks=[Extremes()])
    # windowed while the blow-up data are narrow, then the whole grid
    assert seen[0][1] < grid.n and seen[-1][1] == grid.n
    recs = [Recorder() for _ in states]
    singles = [run_evolution(s, t_end=5.0, callbacks=[r]) for s, r in zip(states, recs)]
    assert [r.status for r in singles] == ["blowup", "completed", "completed"]
    assert [m.status for m in ens.members] == ["blowup", "stopped", "stopped"]
    _assert_same_run(ens.members[0], singles[0])
    for member, single, r in zip(ens.members[1:], singles[1:], recs[1:]):
        _assert_stopped_run(member, single, r.states, len(extremes) - 1)
    # min g and the max speed over the whole states the callback saw, the start state first
    min_g = min(float(np.min(g)) for g, _ in extremes)
    speed = max(float(np.max(v)) for _, v in extremes)
    assert (ens.min_g_seen, ens.max_speed_seen) == (min_g, speed)


@pytest.mark.parametrize("n", [1056, 1057])
def test_window_needs_a_grid_it_can_skip_1024_points_of(monkeypatch, n):
    # one live cell: its window spans 33 points, so it skips 1024 points
    # from n = 1057 on; a smaller grid always steps whole
    grid = Grid1D(-100.0, 0.5, n)
    w = np.zeros(n)
    w[200] = 1e-3
    state = FieldState(0.0, grid, np.zeros(n), w, np.zeros(n))
    seen = _record_step_grids(monkeypatch)
    run_evolution(state, t_end=1.0)
    assert len(seen) == 5
    if n == 1056:
        assert seen == [(grid.x0, n)] * 5
    else:
        assert seen[0][1] < n


def test_a_non_finite_cell_is_live():
    # far enough from the bump that a window of the finite cells alone
    # would leave it out
    grid = Grid1D(-100.0, 0.5, 1201)
    state = _bump_members(grid, (0.0,)).member(0)
    state.w[150] = np.nan
    res = run_evolution(state, t_end=1.0)
    assert (res.status, res.t_blowup, res.blowup_reason) == ("blowup", 0.0, "non-finite values")


def test_refinement_orders_are_undefined_unless_both_values_are_positive_and_finite():
    inf, nan = float("inf"), float("nan")
    assert refinement_orders([8.0, 1.0, 0.25]) == [3.0, 2.0]
    assert refinement_orders([1.0, 0.0, 0.0]) == [None, None]
    assert refinement_orders([0.0, 1.0, -1.0, inf, nan, 1.0]) == [None] * 5
    assert refinement_orders([1.0]) == []
    # an undefined order fails the gate whatever the others read
    hs = [1.0, 0.5, 0.25]
    assert Refinement("r", hs, [128.0, 8.0, 1.0], 3.0).min_order == 3.0
    assert Refinement("r", hs, [128.0, 8.0, 1.0], 3.0).passed()
    assert not Refinement("r", hs, [128.0, 8.0, 1.0], 3.1).passed()
    assert not Refinement("r", hs, [128.0, 8.0, 0.0], 3.0).passed()


def test_refinement_rows_leave_level_0_order_empty():
    rec = Refinement("r", [1.0, 0.5, 0.25], [8.0, 1.0, 0.0], 2.5)
    # an undefined order is None, which the CSV writer spells n/a
    assert rec.rows() == [[0, 1.0, 8.0, ""], [1, 0.5, 1.0, 3.0], [2, 0.25, 0.0, None]]
    assert rec.min_order is None
    # a one-level record has no order to gate: its caller's threshold does
    one = Refinement("one", [0.0], [1e-12], None)
    assert one.orders == [] and one.rows() == [[0, 0.0, 1e-12, ""]]
    assert one.min_order is None and not one.passed()
