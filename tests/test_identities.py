import os
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import Recorder

import stringlab.evolve as evolve
from stringlab import (BlowupDetected, DataFamily, FieldState, Grid1D, InsufficientHistory,
                       ProfileSpec, TimelikeViolation, identities, init_state, metric_scalars,
                       run_evolution, stack_states, step)
from stringlab.config import ExperimentConfig
from stringlab.identities import (BALANCE_BLOCK, BalanceAccumulator, _null_data,
                                  deformation_check, deformation_closed, deformation_direct,
                                  divergence_identity_study, divergence_residual,
                                  energy_balance_study, equivalence_ratios,
                                  trace_residual, verify_suite)
from stringlab.stencils import cubic_interp
from stringlab.manufactured import (Mixture, MixtureStack, MovingGaussian, ZeroField,
                                    random_mixture)


def test_divergence_flat_free_wave_roundoff():
    # flat background and a constant null multiplier: the current of a
    # right-moving free wave vanishes identically, so the residual is roundoff
    study = divergence_identity_study(ZeroField(), MovingGaussian(0.8, 0.3, 1.2, 1.0),
                                      side="const", hs=(0.04,))
    assert study.values[0] < 1e-13


@pytest.mark.parametrize("side", ["TL", "TLb"])
def test_divergence_converges(side, rng):
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    study = divergence_identity_study(phi, varphi, side=side)
    assert min(study.orders) > 1.5
    assert study.values[-1] < 1e-5


def test_divergence_quadratic_in_test_function(rng):
    phi = random_mixture(rng, amp=0.2)
    varphi = random_mixture(rng, amp=0.4)
    tt, xx = np.meshgrid(np.linspace(0.3, 0.8, 4), np.linspace(-2, 2, 17), indexing="ij")
    r1 = divergence_residual(phi, varphi, 0.5, "TL", 0.05, tt, xx)
    scaled = Mixture(tuple(MovingGaussian(3.0 * t.amp, t.center, t.width, t.speed)
                           for t in varphi.terms))
    r9 = divergence_residual(phi, scaled, 0.5, "TL", 0.05, tt, xx)
    assert r9 == pytest.approx(9.0 * r1, rel=1e-6)


@pytest.mark.parametrize("side", ["TL", "TLb", "const"])
def test_divergence_residual_calls_each_shifted_field_once(side, rng, monkeypatch):
    # the 4th-order stencils need the current and the metric maps at the 8
    # shifted events only; every component comes from the same call
    calls = []
    orig = identities._event_fields

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(identities, "_event_fields", counted)
    phi = random_mixture(rng, amp=0.2)
    varphi = random_mixture(rng, amp=0.4)
    tt, xx = np.meshgrid(np.linspace(0.3, 0.8, 3), np.linspace(-2, 2, 9), indexing="ij")
    divergence_residual(phi, varphi, 0.5, side, 0.05, tt, xx)
    assert len(calls) == 8


def test_deformation_closed_vs_direct_random_fields():
    worst, worst_trace = deformation_check(seed=3)
    assert worst <= 1e-10
    assert worst_trace <= 1e-13


def _deformation_check_per_pair(seed=0, gamma=0.5):
    """The per-pair loop that the stacked deformation_check replaced: each
    pair's fields, null data and checks on their own."""
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


@pytest.mark.parametrize("seed", [0, 1, 17611])
def test_stacked_deformation_check_equals_per_pair_loop(seed):
    assert deformation_check(seed=seed) == _deformation_check_per_pair(seed)


@pytest.mark.parametrize("target,at", [("deformation_closed", 0), ("trace_residual", 1)])
def test_a_nan_after_the_first_pair_fails_deformation_check(monkeypatch, target, at):
    # pair 1 of 100 is NaN: its check must fail, not be skipped
    real = getattr(identities, target)

    def with_nan(*args):
        out = real(*args)
        (out[0] if isinstance(out, tuple) else out)[1] = np.nan
        return out

    monkeypatch.setattr(identities, target, with_nan)
    values = deformation_check(seed=3)
    assert np.isnan(values[at]) and not np.isnan(values[1 - at])


def test_mixture_stack_equals_each_mixture(rng):
    mixtures = [random_mixture(rng, amp=0.4) for _ in range(6)]
    tt, xx = np.meshgrid(np.linspace(0.0, 1.0, 3), np.linspace(-3.0, 3.0, 11), indexing="ij")
    stack = MixtureStack(mixtures)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]:
        got = stack.d(a, b, tt, xx)
        assert got.shape == (6,) + tt.shape
        for mix, row in zip(mixtures, got):
            assert np.array_equal(row, mix.d(a, b, tt, xx))


def test_deformation_vanishes_when_correction_does(rng):
    # a field with L phi = 0 everywhere (right-travelling) and a test row
    # with vanishing L part: the whole TL contraction dies
    phi = MovingGaussian(0.5, 0.0, 1.5, 1.0)     # f(x - t)
    varphi = MovingGaussian(0.9, 0.4, 1.1, 1.0)
    tt, xx = np.meshgrid(np.linspace(0, 1, 4), np.linspace(-3, 3, 21), indexing="ij")
    val = deformation_direct(_null_data(phi, varphi, tt, xx), tt, xx, 0.5, "TL")
    assert np.max(np.abs(val)) < 1e-14


def test_deformation_weight_term_is_needed(rng):
    # dropping the weight-derivative cross term breaks the identity on
    # generic fields: the discrepancy is exactly that term
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    tt, xx = np.meshgrid(np.linspace(0.2, 0.9, 4), np.linspace(-3, 3, 21), indexing="ij")
    nd = _null_data(phi, varphi, tt, xx)
    direct = deformation_direct(nd, tt, xx, 0.5, "TLb")
    closed = deformation_closed(nd, tt, xx, 0.5, "TLb")
    # reconstruct the weight part and subtract it
    from stringlab.nullgeom import weight_a_prime
    A, B, a, b, *_ = nd
    g = 1.0 - A * B
    weight_part = weight_a_prime((tt - xx) / 2.0, 0.5) * (A * A * b * b - B * B * a * a) / (8 * g)
    truncated = closed - weight_part
    assert np.max(np.abs(direct - closed)) < 1e-13 * np.max(np.abs(direct))
    assert np.max(np.abs(direct - truncated)) > 1e3 * np.max(np.abs(direct - closed))


def test_deformation_sign_mutation_detected(rng):
    # corrupting one sign in the closed form must trip the comparison
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    tt, xx = np.meshgrid(np.linspace(0.2, 0.9, 4), np.linspace(-3, 3, 21), indexing="ij")

    def corrupted_closed(nd, t, x, gamma, side):
        from stringlab.nullgeom import weight_a, weight_a_prime
        A, B, a, b, llb, l2, lb2 = nd
        g = 1.0 - A * B
        uu = (np.asarray(t) - np.asarray(x)) / 2.0
        wgt, wgtp = weight_a(uu, gamma), weight_a_prime(uu, gamma)
        correction = ((-0.5 * b * b - A * B * b * b / (4.0 * g) + B * B * a * b / (4.0 * g))
                      * (wgtp * A * A + 2.0 * wgt * A * lb2)                  # sign flip
                      + (B * B * a * a - A * A * b * b) / (8.0 * g) * 2.0 * wgt * A * llb)
        return correction + wgtp * (A * A * b * b - B * B * a * a) / (8.0 * g)

    nd = _null_data(phi, varphi, tt, xx)
    direct = deformation_direct(nd, tt, xx, 0.5, "TLb")
    bad = corrupted_closed(nd, tt, xx, 0.5, "TLb")
    rel = np.max(np.abs(direct - bad)) / np.max(np.abs(direct))
    assert rel > 1e-6


def test_trace_identity_roundoff(rng):
    phi = random_mixture(rng, amp=0.3)
    varphi = random_mixture(rng, amp=0.6)
    tt, xx = np.meshgrid(np.linspace(0, 1, 5), np.linspace(-4, 4, 33), indexing="ij")
    tr, scale = trace_residual(_null_data(phi, varphi, tt, xx))
    assert np.max(tr / scale) < 1e-13


def test_equivalence_band():
    bands = equivalence_ratios(seed=0)
    lo = min(b[0] for b in bands.values())
    hi = max(b[1] for b in bands.values())
    assert 1.0 / 16.0 <= lo and hi <= 16.0
    # the principal contraction satisfies the tighter band
    lo1, hi1 = bands[("u", "TL")]
    assert 1.0 / 8.0 <= lo1 and hi1 <= 8.0


# ---------------------------------------------------------------------------
# the shared stress kernels stay checked by an independent side


def _planted_null_stress(coef):
    """The null-frame stress with coef in place of the 1/2 of its trace term."""
    def kernel(lphi, lbphi, row_l, row_lb):
        _, guu, gubub, guub = metric_scalars(lphi, lbphi)
        gradu = guu * row_lb + guub * row_l
        gradub = guub * row_lb + gubub * row_l
        qt = gradu * row_lb + gradub * row_l
        return (gradu * row_lb - coef * qt, gradu * row_l, gradub * row_lb,
                gradub * row_l - coef * qt)
    return kernel


def _planted_cartesian_stress(coef):
    """The Cartesian stress with coef in place of the 1/2 of its trace term."""
    def kernel(w, p, vt, vx):
        g = 1.0 - w * w + p * p
        gtt = -(1.0 + p * p) / g
        gtx = w * p / g
        gxx = (1.0 - w * w) / g
        gradt = gtt * vt + gtx * vx
        gradx = gtx * vt + gxx * vx
        qt = gradt * vt + gradx * vx
        return g, (gtt, gtx, gxx), (gradt * vt - coef * qt, gradt * vx, gradx * vt,
                                    gradx * vx - coef * qt)
    return kernel


@pytest.mark.parametrize("coef,flagged", [(0.5, False), (0.45, True)])
def test_shared_null_stress_checked_by_closed_forms(monkeypatch, coef, flagged):
    # deformation_direct and trace_residual take the stress from
    # nullgeom.null_stress (patched where identities binds it); the closed
    # form and the vanishing 1+1d trace do not, so a planted coefficient
    # shows in both checks, and the faithful copy (coef 1/2) in neither
    monkeypatch.setattr(identities, "null_stress", _planted_null_stress(coef))
    worst, worst_trace = deformation_check(seed=5)
    assert (worst > 1e-10) == flagged
    assert (worst_trace > 1e-13) == flagged


@pytest.mark.parametrize("side", ["TL", "TLb"])
@pytest.mark.parametrize("coef,flagged", [(0.5, False), (0.45, True)])
def test_shared_cartesian_stress_checked_by_analytic_side(monkeypatch, rng, side, coef,
                                                         flagged):
    # the stencil side and the deformation term both take the stress from
    # _cartesian_stress; the analytic box term does not
    monkeypatch.setattr(identities, "_cartesian_stress", _planted_cartesian_stress(coef))
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    study = divergence_identity_study(phi, varphi, side=side)
    assert (min(study.orders) < 1.5) == flagged


# ---------------------------------------------------------------------------
# energy balance


def test_balance_zero_solution():
    fam = DataFamily(0.5, 0.0, ProfileSpec("gaussian", 0.0), ProfileSpec("gaussian", 0.0))
    acc = BalanceAccumulator("TLb", 1.0, 0.5)
    run_evolution(fam, Grid1D(-12, 0.1, 241), t_end=2.0, callbacks=[acc])
    res, scale = acc.finalize()
    assert res == 0.0 and acc._sigma0 == 0.0 and acc._flux == 0.0


def test_balance_travelling_tl_side_noise(travelling_family):
    # the TL current of a right-travelling wave involves only L rows: zero
    acc = BalanceAccumulator("TL", -1.0, 0.5)
    run_evolution(travelling_family, Grid1D(-18, 0.05, 721), t_end=2.0,
                  eps_ko=0.0, callbacks=[acc])
    res, scale = acc.finalize()
    assert abs(acc._sigma0) < 1e-12
    assert res < 1e-10


@pytest.mark.parametrize("side,coord", [("TL", -1.0), ("TLb", 1.0)])
def test_balance_converges(side, coord):
    study, = energy_balance_study(ExperimentConfig(), [(side, coord)],
                                  Grid1D(-22.0, 0.25, 177), t_end=3.0)
    assert min(study.orders) > 1.5
    assert study.values[-1] < 1e-3


def test_balance_finalize_needs_three_levels(default_family):
    acc = BalanceAccumulator("TLb", 1.0, 0.5)
    state = init_state(default_family, Grid1D(-12, 0.1, 241))
    acc.on_step(state)
    acc.on_step(step(state, dt=0.04)[0])
    assert len(acc._times) == 2         # both levels still pending
    with pytest.raises(InsufficientHistory, match="at least 3 levels, have 2"):
        acc.finalize()


@pytest.mark.parametrize("side", ["TL", "TLb"])
@pytest.mark.parametrize("cells", [-0.3, 0.4, 1.0, 1.5, 7.6, 14.5, 15.0, 15.6, 16.3])
def test_region_integral_of_a_linear_profile_is_exact(side, cells):
    # the trapezoid and its interpolated partial cell integrate a linear
    # profile exactly over the region's part of the grid: left of the
    # boundary for TLb, right of it for TL.  A boundary exactly on node 1
    # or 15 leaves one whole cell to one side, and a region narrower than
    # a cell is its part cell; a region that misses the grid gives 0
    grid = Grid1D(-2.0, 0.25, 17)
    xb = grid.x0 + cells * grid.dx
    a, b = 0.7, -1.3
    xb_in = min(max(xb, grid.x0), grid.x_end)
    lo, hi = (grid.x0, xb_in) if side == "TLb" else (xb_in, grid.x_end)
    exact = a * (hi - lo) + 0.5 * b * (hi * hi - lo * lo)
    got = BalanceAccumulator(side, 0.0, 0.5)._region_integral(a + b * grid.x, grid, xb)
    assert got == pytest.approx(exact, rel=1e-13, abs=1e-14)


class _StoredBalance(BalanceAccumulator):
    """The stored-profile assembly that the streamed accumulator replaced:
    every V^t and V^x profile is kept, and finalize() runs the bulk sum over
    the whole history.  It shares only the current, geometry and region
    integral helpers with the streamed accumulator, and sums Sigma(0) and
    the flux into the same attributes as the levels arrive."""

    def __init__(self, side, coord, gamma):
        super().__init__(side, coord, gamma)
        self._all_taus, self._all_vts, self._all_vxs = [], [], []
        self._prev = None

    def on_step(self, state):
        self._grid = state.grid
        vt_cur, vx_cur = self._currents(state.t, state.phi, state.w, state.p)
        tau = state.t
        if not self._all_taus:
            self._sigma0 = self._region_integral(-vt_cur, state.grid, self._boundary_x(tau))
        self._all_taus.append(tau)
        self._all_vts.append(vt_cur)
        self._all_vxs.append(vx_cur)
        xb = self._boundary_x(tau)
        grid = state.grid
        if grid.x0 <= xb <= grid.x_end:
            vt_b = cubic_interp(vt_cur, grid.x0, grid.dx, xb)
            vx_b = cubic_interp(vx_cur, grid.x0, grid.dx, xb)
            integrand = -(vt_b + vx_b) if self.side == "TLb" else -(vt_b - vx_b)
        else:
            integrand = 0.0
        if self._prev is not None:
            self._flux += 0.5 * (tau - self._all_taus[-2]) * (self._prev + integrand)
        self._prev = integrand

    def finalize(self):
        taus = np.asarray(self._all_taus)
        vts, vxs = self._all_vts, self._all_vxs
        n = len(taus)
        dt = taus[1] - taus[0]
        grid = self._grid
        sigma_t = self._region_integral(-vts[-1], grid, self._boundary_x(taus[-1]))
        bulk = 0.0
        for i in range(n):
            if i == 0:
                dvt = (-3.0 * vts[0] + 4.0 * vts[1] - vts[2]) / (2.0 * dt)
            elif i == n - 1:
                dvt = (3.0 * vts[-1] - 4.0 * vts[-2] + vts[-3]) / (2.0 * dt)
            else:
                dvt = (vts[i + 1] - vts[i - 1]) / (2.0 * dt)
            xb = self._boundary_x(taus[i])
            q = self._region_integral(dvt, grid, xb)
            if grid.x0 <= xb <= grid.x_end:
                vx_b = float(cubic_interp(vxs[i], grid.x0, grid.dx, xb))
            else:
                vx_b = 0.0
            if self.side == "TLb":
                q += vx_b - vxs[i][0]
            else:
                q += vxs[i][-1] - vx_b
            wgt = 0.5 if i in (0, n - 1) else 1.0
            bulk += wgt * dt * q
        residual = abs(sigma_t + self._flux - self._sigma0 + bulk)
        scale = max(abs(sigma_t), abs(self._sigma0), abs(self._flux), abs(bulk), 1e-300)
        return residual, scale


# each id keeps its -0 suffix (the order of the test row phi), so that it names the same case
@pytest.mark.parametrize("side,coord,leaves", [
    pytest.param(*case, id="-".join(map(str, case)) + "-0")
    for case in [("TL", -1.0, False), ("TLb", 1.0, False), ("TL", -2.5, True),
                 ("TLb", -2.5, True)]])
def test_streamed_balance_equals_stored_profiles(default_family, side, coord, leaves):
    # boundary lines at coord -2.5 start 1 inside the edge of the grid and
    # leave it at t = 1
    grid = Grid1D(-6.0, 0.1, 121)
    streamed = BalanceAccumulator(side, coord, 0.5)
    stored = _StoredBalance(side, coord, 0.5)
    run_evolution(default_family, grid, t_end=2.0, callbacks=[streamed, stored])
    xb = streamed._boundary_x(2.0)
    assert (not grid.x0 <= xb <= grid.x_end) == leaves
    assert streamed.finalize() == stored.finalize()
    assert (streamed._sigma0, streamed._flux) == (stored._sigma0, stored._flux)
    assert streamed.finalize() == stored.finalize()     # finalize leaves the sums alone


def test_balance_window_stays_three_levels(default_family):
    # 3 V^t profiles in one array updated in place, plus fewer than
    # BALANCE_BLOCK pending levels in a buffer of BALANCE_BLOCK, whatever
    # the run length
    acc = BalanceAccumulator("TLb", 1.0, 0.5)
    held = []

    class Probe:
        def on_step(self, state):
            held.append((acc._vts, len(acc._taus), len(acc._times)))

    res = run_evolution(default_family, Grid1D(-12.0, 0.1, 241), t_end=12.0,
                        callbacks=[acc, Probe()])
    assert res.n_steps == 300 and len(held) == 301
    assert all(v is acc._vts for v, _, _ in held) and acc._vts.shape == (3, 241)
    assert max(t for _, t, _ in held) == 3
    assert max(pending for _, _, pending in held) == BALANCE_BLOCK - 1
    assert acc._fields.shape == (3, BALANCE_BLOCK, 241)
    acc.finalize()
    assert (len(acc._taus), len(acc._times)) == (3, 0)


@pytest.fixture(scope="module")
def balance_states():
    """The start state and the first 2 BALANCE_BLOCK + 2 accepted states of
    the default family on a small grid (dt = 0.04)."""
    fam = DataFamily(gamma=0.5, delta=0.1, f=ProfileSpec("gaussian", 1.0, 0.0, 2.0),
                     fb=ProfileSpec("gaussian", 1.0, 0.0, 2.0))
    rec = Recorder()
    run_evolution(fam, Grid1D(-6.0, 0.1, 121), t_end=0.04 * (2 * BALANCE_BLOCK + 2),
                  callbacks=[rec])
    return rec.states


# a line at coord -2.95 starts 1 cell inside the edge of the grid and leaves
# it between t = 0.08 and t = 0.12, at level 3
@pytest.mark.parametrize("side,coord", [("TL", -1.0), ("TLb", 1.0), ("TL", -2.95),
                                        ("TLb", -2.95)])
@pytest.mark.parametrize("levels", [BALANCE_BLOCK - 1, BALANCE_BLOCK, BALANCE_BLOCK + 1,
                                    2 * BALANCE_BLOCK + 1])
def test_blocked_balance_equals_stored_profiles_at_block_edges(balance_states, side, coord,
                                                               levels):
    blocked = BalanceAccumulator(side, coord, 0.5)
    stored = _StoredBalance(side, coord, 0.5)
    for state in balance_states[:levels]:
        blocked.on_step(state)
        stored.on_step(state)
    grid = balance_states[0].grid
    left = [k for k, s in enumerate(balance_states[:levels])
            if not grid.x0 <= blocked._boundary_x(s.t) <= grid.x_end]
    if coord == -2.95 and levels > 3:
        assert left[0] == 3 and left[0] % BALANCE_BLOCK     # mid-block
    blocked._flush()
    assert (blocked._sigma0, blocked._flux) == (stored._sigma0, stored._flux)
    assert blocked.finalize() == stored.finalize()


def _near_singular(state, k, g):
    """state with the determinant 1 - w^2 + p^2 = g at cell k (p = 0 there)."""
    w, p = state.w.copy(), state.p.copy()
    w[k], p[k] = np.sqrt(1.0 - g), 0.0
    return FieldState(state.t, state.grid, state.phi, w, p)


def _violating_levels(states):
    """states[:4] with min g in (0, 1e-6] at levels 2 and 3 (5e-7, then the
    lower 2e-7), as a run under gmin = 0 may accept them."""
    return [*states[:2], _near_singular(states[2], 60, 5e-7), _near_singular(states[3], 50, 2e-7)]


@pytest.mark.parametrize("side", ["TL", "TLb"])
def test_blocked_balance_raises_the_first_violating_level(balance_states, side):
    # the serial accumulator raised at level 2; the blocked one raises when
    # it works the block off, naming level 2's min g, not the block's
    levels = _violating_levels(balance_states)
    stored, blocked = _StoredBalance(side, 1.0, 0.5), BalanceAccumulator(side, 1.0, 0.5)
    with pytest.raises(TimelikeViolation) as serial:
        for state in levels:
            stored.on_step(state)
    assert len(stored._all_taus) == 2
    with pytest.raises(TimelikeViolation) as worked_off:
        for state in levels:
            blocked.on_step(state)
        blocked.finalize()
    assert type(worked_off.value) is type(serial.value)
    assert str(worked_off.value) == str(serial.value)
    assert worked_off.value.min_g == serial.value.min_g == pytest.approx(5e-7, rel=1e-6)


def test_balance_study_raises_an_accumulator_error_before_the_blowup(balance_states,
                                                                     monkeypatch):
    # a run that blows up after accepting a violating level, which is still
    # pending in the blocked accumulators when the run returns: the study
    # raises the accumulator's error, as the serial accumulators did
    levels = _violating_levels(balance_states)[:3]

    def blows_up(fam, grid, callbacks=(), **kwargs):
        for state in levels:
            for cb in callbacks:
                cb.on_step(state)
        return SimpleNamespace(status="blowup", t_blowup=levels[-1].t,
                               blowup_reason="hyperbolicity loss")

    monkeypatch.setattr(identities, "run_evolution", blows_up)
    stored = _StoredBalance("TL", -1.0, 0.5)
    with pytest.raises(TimelikeViolation) as serial:
        for state in levels:
            stored.on_step(state)
    with pytest.raises(TimelikeViolation) as study:
        energy_balance_study(ExperimentConfig(), [("TL", -1.0), ("TLb", 1.0)],
                             Grid1D(-6.0, 0.1, 121), t_end=1.0)
    assert str(study.value) == str(serial.value)


def test_balance_accumulator_rejects_an_ensemble(default_family):
    grid = Grid1D(-12.0, 0.1, 241)
    ens = stack_states([init_state(default_family, grid)] * 2)
    with pytest.raises(ValueError, match="single-member run"):
        run_evolution(ens, t_end=1.0, callbacks=[BalanceAccumulator("TLb", 1.0, 0.5)])


def test_two_region_study_equals_one_region_studies():
    cfg, grid = ExperimentConfig(), Grid1D(-22.0, 0.25, 177)
    regions = [("TL", -1.0), ("TLb", 1.0)]
    both = energy_balance_study(cfg, regions, grid, t_end=2.0)
    singles = [energy_balance_study(cfg, [r], grid, t_end=2.0)[0] for r in regions]
    assert both == singles
    assert [s.name for s in both] == ["energy_balance_plus", "energy_balance_minus"]


def test_verify_suite_evolves_each_balance_level_once(monkeypatch, tmp_path):
    # both balance regions ride on one run per level: 3 levels, 3 runs.  The
    # coarse levels run in a forked child, so each call appends a line of
    # its callbacks' class names to a file that both processes write
    log = tmp_path / "calls"

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            print(*(type(cb).__name__ for cb in kwargs.get("callbacks")), file=fh)
        return run_evolution(*args, **kwargs)

    monkeypatch.setattr(identities, "run_evolution", counted)
    assert all(ok for _, ok in verify_suite(ExperimentConfig(seed=1)))
    calls = [line.split() for line in log.read_text().splitlines()]
    assert len(calls) == 3
    assert all(len(cbs) == 2 for cbs in calls)


@pytest.mark.parametrize("fork", [True, False])
def test_verify_raises_a_closed_form_error_before_a_balance_error(monkeypatch, fork):
    # the closed-form studies come first in the suite, so their error wins
    # over a balance level's, whether they run in a child or inline
    if not fork:
        monkeypatch.delattr(os, "fork")
    # the field-size cap stops every balance level at its first step
    monkeypatch.setattr(evolve, "FIELD_CAP", 1e-3)
    with pytest.raises(BlowupDetected, match="on balance level 0"):
        verify_suite(ExperimentConfig(seed=1))

    def fails(seed=0):
        raise ValueError("the equivalence band fails")

    monkeypatch.setattr(identities, "equivalence_ratios", fails)
    with pytest.raises(ValueError, match="^the equivalence band fails$"):
        verify_suite(ExperimentConfig(seed=1))


def _scaled_weight_a_prime(x, gamma, _orig=identities.weight_a_prime):
    return 1.01 * _orig(x, gamma)


def _scaled_correction(side, weight, lphi, lbphi, _orig=identities.multiplier):
    cl, clb = _orig(side, weight, lphi, lbphi)
    return (cl, 1.01 * clb) if side == "TL" else (1.01 * cl, clb)


@pytest.mark.parametrize("target,kernel,orders", [
    # only the analytic right side of the divergence identity reads a'
    ("weight_a_prime", _scaled_weight_a_prime, {"TL": (3.94, 2.79), "TLb": (4.24, 1.30)}),
    # the |Lphi|^2 or |Lbphi|^2 term of the corrected multiplier
    ("multiplier", _scaled_correction, {"TL": (3.98, 3.32), "TLb": (2.99, 0.57)}),
])
def test_verify_fails_a_one_percent_kernel_defect(monkeypatch, target, kernel, orders):
    # the mean of the two ratios (2.77 and 1.78 for TLb) passed a gate of 1.5;
    # every ratio must reach the 4th-order floor
    monkeypatch.setattr(identities, target, kernel)
    suite = verify_suite(ExperimentConfig(seed=17611))
    assert [rec.name for rec, ok in suite if not ok] == ["divergence_TL", "divergence_TLb"]
    got = {rec.name: rec.orders for rec, _ in suite}
    for side, want in orders.items():
        assert got[f"divergence_{side}"] == pytest.approx(want, abs=0.005)
