"""The stepping, interpolation and tower-report kernels against in-test
copies of their written-out formulas, compared with == (NaN matched as NaN,
zeros by sign).

The kernels evaluate these formulas in place, with fewer array passes and
over stacked rows laid end to end, but in the same operation order; any
reassociation moves the last bits of some value and fails here.
"""

import numpy as np
import pytest

from stringlab.energy import DerivativeTower, _sobolev_stats, build_tower, energy_orders
from stringlab.evolve import FieldState, Grid1D, init_state, max_speed, step
from stringlab.initialdata import DataFamily, higher_order_traces
from stringlab.nullgeom import side_weight
from stringlab.profiles import ProfileSpec
from stringlab.stencils import cubic_interp, cubic_weights, deriv1, ko_dissipation


def _deriv1_ref(f, dx):
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


def _ko_ref(f, dx, eps):
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    out[..., 2:-2] = -(eps / (16.0 * dx)) * (f[..., :-4] - 4.0 * f[..., 1:-3]
                                             + 6.0 * f[..., 2:-2]
                                             - 4.0 * f[..., 3:-1] + f[..., 4:])
    return out


def _cubic_interp_ref(values, x0, dx, xq):
    values = np.asarray(values, dtype=float)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    pos = (xq - x0) / dx
    base = np.clip(np.floor(pos).astype(int) - 1, 0, values.shape[-1] - 4)
    th = pos - base
    w0 = -(th - 1.0) * (th - 2.0) * (th - 3.0) / 6.0
    w1 = th * (th - 2.0) * (th - 3.0) / 2.0
    w2 = -th * (th - 1.0) * (th - 3.0) / 2.0
    w3 = th * (th - 1.0) * (th - 2.0) / 6.0
    out = (w0 * values[..., base] + w1 * values[..., base + 1]
           + w2 * values[..., base + 2] + w3 * values[..., base + 3])
    return out[..., 0] if scalar else out


def _stage_rhs_ref(y, dx, eps_ko):
    half = len(y) // 2
    w, p = y[:half], y[half:]
    yx = _deriv1_ref(y, dx)
    wx, px = yx[:half], yx[half:]
    den = 1.0 + p * p
    ww = w * w
    k = np.empty_like(y)
    np.divide(2.0 * w * p * wx - (ww - 1.0) * px, den, out=k[:half])
    k[half:] = wx
    if eps_ko:
        k += _ko_ref(y, dx, eps_ko)
    return k


def _rk4_ref(phi, w, p, dx, dt, eps_ko):
    """One classical RK4 step of (B, n) rows, summed as written."""
    b = len(w)
    y0 = np.concatenate((w, p))
    k1 = _stage_rhs_ref(y0, dx, eps_ko)
    y2 = y0 + 0.5 * dt * k1
    k2 = _stage_rhs_ref(y2, dx, eps_ko)
    y3 = y0 + 0.5 * dt * k2
    k3 = _stage_rhs_ref(y3, dx, eps_ko)
    y4 = y0 + dt * k3
    k4 = _stage_rhs_ref(y4, dx, eps_ko)
    y1 = y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    phi1 = phi + dt / 6.0 * (y0[:b] + 2.0 * y2[:b] + 2.0 * y3[:b] + y4[:b])
    return phi1, y1[:b], y1[b:]


def _max_speed_ref(w, p, disc):
    den = 1.0 + p * p
    root = np.sqrt(disc)
    return np.max(np.maximum(np.abs(-w * p - root), np.abs(-w * p + root)) / den, axis=-1)


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan], b[~nan])
    assert np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan]))


def _grid_fields(shape, seed):
    """Random values of mixed scale with signed zeros, incl. at the edges."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    zeros = rng.random(shape) < 0.2
    f[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    f[..., 0], f[..., -1] = -0.0, 0.0
    return f


def _with_nonfinite(f):
    g = f.copy()
    n = g.shape[-1]
    for i, v in ((0, np.inf), (3, np.nan), (n // 2, -np.inf), (n - 2, np.nan)):
        g.reshape(-1, n)[::2, i] = v
    return g


SHAPES = [(13,), (2, 13), (2, 3, 13), (5,), (2, 1025)]


@pytest.mark.parametrize("shape", SHAPES)
def test_deriv1_equals_written_out_formula(shape):
    f = _grid_fields(shape, 1)
    for dx in (0.1, 0.03125):
        for g in (f, _with_nonfinite(f), np.asfortranarray(f), np.zeros(shape),
                  -np.zeros(shape)):
            with np.errstate(invalid="ignore"):
                _assert_bitwise(deriv1(g, dx), _deriv1_ref(g, dx))


@pytest.mark.parametrize("shape", SHAPES)
def test_ko_dissipation_equals_written_out_formula(shape):
    f = _grid_fields(shape, 2)
    for dx, eps in ((0.1, 0.01), (0.03125, 0.2), (0.1, 0.0)):
        for g in (f, _with_nonfinite(f), np.asfortranarray(f), -np.zeros(shape)):
            with np.errstate(invalid="ignore"):
                _assert_bitwise(ko_dissipation(g, dx, eps), _ko_ref(g, dx, eps))


def test_cubic_interp_equals_written_out_formula():
    rng = np.random.default_rng(3)
    x0, dx = -2.0, 0.125
    xq = np.r_[rng.uniform(-3.0, 3.0, 200), x0, x0 + 40 * dx, -1.0 + 1e-17]
    for values in (rng.standard_normal(41), rng.standard_normal((2, 3, 41)),
                   rng.standard_normal((4, 2, 41))):
        _assert_bitwise(cubic_interp(values, x0, dx, xq), _cubic_interp_ref(values, x0, dx, xq))
        for t in (0.3, -5.0, 2.9375):
            _assert_bitwise(cubic_interp(values, x0, dx, t), _cubic_interp_ref(values, x0, dx, t))
    vals4 = rng.standard_normal((2, 4))
    _assert_bitwise(cubic_interp(vals4, 1.0, 0.5, 1.8), _cubic_interp_ref(vals4, 1.0, 0.5, 1.8))


def _smooth_state(grid, amps):
    x = grid.x
    bump = np.exp(-x * x / 4.0)
    phi = np.stack([a * np.sin(x) * bump for a in amps])
    p = np.stack([a * (np.cos(x) - 0.5 * x * np.sin(x)) * bump for a in amps])
    w = np.stack([-0.7 * a * bump * np.cos(2 * x) for a in amps])
    return phi, w, p


def _near_degenerate_state(grid, amps):
    # |w| reaches 0.9995 sqrt(1 + p^2): the discriminant falls to about 1e-3
    x = grid.x
    bump = np.exp(-x * x / 2.0)
    p = np.stack([0.4 * a * x * bump for a in amps])
    w = np.stack([0.9995 * np.sqrt(1.0 + pk * pk) * bump for pk in p])
    phi = np.stack([0.2 * a * bump for a in amps])
    return phi, w, p


@pytest.mark.parametrize("eps_ko", [0.0, 0.01])
@pytest.mark.parametrize("amps", [(1.0,), (1.0, 0.5, 0.25)])
@pytest.mark.parametrize("make", [_smooth_state, _near_degenerate_state])
def test_step_equals_written_out_rk4(eps_ko, amps, make):
    grid = Grid1D(-8.0, 0.0625, 257)
    phi, w, p = make(grid, amps)
    state = FieldState(0.5, grid, phi, w, p)
    if len(amps) == 1:
        state = state.member(0)
    dt = 0.4 * grid.dx
    new, min_g = step(state, dt, eps_ko=eps_ko)
    ref = _rk4_ref(phi, w, p, grid.dx, dt, eps_ko)
    assert new.t == 0.5 + dt
    for got, want in zip((new.phi, new.w, new.p), ref):
        _assert_bitwise(got, want.reshape(got.shape))
    _, w1, p1 = ref
    _assert_bitwise(min_g, np.min(1.0 + p1 * p1 - w1 * w1, axis=-1))


def test_max_speed_equals_max_of_abs_form():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((3, 100_000)) * 10.0 ** rng.integers(-4, 3, (3, 100_000))
    # |w| < sqrt(1 + p^2), some of it within a few ulps of the light cone
    u = np.where(rng.random(p.shape) < 0.1, 1.0 - 1e-15, rng.uniform(-1.0, 1.0, p.shape))
    w = u * np.sqrt(1.0 + p * p) * np.sign(rng.standard_normal(p.shape))
    w[:, :4], p[:, :4] = [0.0, -0.0, 0.0, 0.5], [0.0, 0.0, -0.0, -0.0]
    disc = 1.0 + p * p - w * w
    assert np.min(disc) > 0.0
    _assert_bitwise(max_speed(w, p, disc), _max_speed_ref(w, p, disc))
    assert max_speed(w[1], p[1]) == _max_speed_ref(w[1], p[1], disc[1])


def test_short_inputs_raise_named_errors():
    with pytest.raises(ValueError, match="at least 5 grid points, got 4"):
        deriv1(np.zeros(4), 0.1)
    with pytest.raises(ValueError, match="at least 5 grid points, got 4"):
        ko_dissipation(np.zeros((2, 4)), 0.1, 0.01)
    with pytest.raises(ValueError, match="at least 5 grid points, got 1"):
        deriv1(1.0, 0.1)
    with pytest.raises(ValueError, match="at least 4 points, got 3"):
        cubic_weights(np.array([0.5]), 3)
    # used to clamp the stencil base to -1 and wrap around to the last point
    with pytest.raises(ValueError, match="at least 4 points, got 3"):
        cubic_interp([0.0, 1.0, 4.0], 0.0, 1.0, 1.5)
    assert cubic_interp([0.0, 1.0, 4.0, 9.0], 0.0, 1.0, 1.5) == 2.25


def _row_energy_ref(tower, k1, k2, s, gamma):
    """Trapezoid quadrature of weight * |row|^2 * sqrt(g) for one row."""
    sqrt_g = np.sqrt(np.maximum(tower.g, 0.0))
    wgt = side_weight(("TL", "TLb")[s], tower.t, tower.grid.x, gamma)
    return float(np.trapezoid(wgt * tower.rows[k1, k2, s] ** 2 * sqrt_g, dx=tower.grid.dx))


def _energy_orders_ref(tower, gamma):
    """Row energies one row at a time, summed over the rows of each order."""
    return tuple(np.array([sum(_row_energy_ref(tower, k1, k - k1, s, gamma)
                               for k1 in range(k + 1)) for k in range(tower.N + 1)])
                 for s in (0, 1))


def _sobolev_stats_ref(tower, gamma):
    """The weighted sups and Agmon slacks, one row at a time."""
    dx = tower.grid.dx
    c0 = 0.25 * (1.0 + gamma)
    wgts = [side_weight(side, tower.t, tower.grid.x, gamma) for side in ("TL", "TLb")]
    sups = np.zeros((2, tower.N))
    margins = [np.inf, np.inf]
    for k1 in range(tower.N):
        for k2 in range(tower.N - k1):
            for s, wgt in enumerate(wgts):
                row, nxt = tower.rows[k1, k2, s], tower.rows[k1, k2 + 1, s]
                lhs = float(np.max(np.sqrt(wgt) * np.abs(row)))
                l2 = float(np.sqrt(np.trapezoid(wgt * row ** 2, dx=dx)))
                l2x = float(np.sqrt(np.trapezoid(wgt * nxt ** 2, dx=dx)))
                bound = np.sqrt(2.0 * l2 * (c0 * l2 + l2x)) if l2 > 0 else 0.0
                sups[s, k1 + k2] = max(sups[s, k1 + k2], lhs)
                margins[s] = min(margins[s], bound - lhs)
    return sups[0], sups[1], float(margins[0]), float(margins[1])


def _evolved_tower(fam, grid, N):
    states = [init_state(fam, grid)]
    for _ in range(2 * N):
        states.append(step(states[-1], 0.4 * grid.dx)[0])
    return build_tower(states, N)


@pytest.mark.parametrize("N", [1, 4])
def test_tower_reports_equal_per_row_loop(N):
    fam = DataFamily(0.5, 0.1, ProfileSpec("gaussian", 1.0, 0.5, 2.0),
                     ProfileSpec("polynomial-gaussian", 0.8, -1.0, 1.5))
    grid = Grid1D(-16.0, 0.1, 321)
    table = higher_order_traces(fam, N, grid.x)
    towers = [_evolved_tower(fam, grid, N),
              DerivativeTower(t=0.0, grid=grid, N=N, rows=table.rows)]
    assert towers[0].t > 0.0
    for tower in towers:
        for got, want in zip(energy_orders(tower, 0.3), _energy_orders_ref(tower, 0.3)):
            _assert_bitwise(got, want)
        for got, want in zip(_sobolev_stats(tower, 0.3), _sobolev_stats_ref(tower, 0.3)):
            _assert_bitwise(got, want)
