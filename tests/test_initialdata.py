import warnings

import numpy as np
import pytest
from conftest import fixture_config
from hypothesis import given, strategies as st

from stringlab import (DataFamily, DataOutOfRange, Grid1D, HyperbolicityLoss, ProfileSpec,
                       check_kong_tsuji, criterion_for_family, eigenvalues,
                       higher_order_traces, init_state, parse_config)
from stringlab.cli import main


def test_gamma_range_enforced():
    with pytest.raises(ValueError):
        DataFamily(gamma=1.2)


def test_build_data_identities(default_family, rng):
    # the defining relations hold pointwise to roundoff
    x = rng.uniform(-6, 6, 10)
    fp, g = default_family.F_prime(x), default_family.G(x)
    f = default_family.f_deriv(0, x)
    fb = default_family.fb_deriv(0, x)
    assert np.allclose(g + fp, 0.1 * f, atol=1e-15)
    assert np.allclose(g - fp, fb, atol=1e-15)


def test_build_data_delta_zero(travelling_family):
    x = np.linspace(-5, 5, 33)
    fp, g = travelling_family.F_prime(x), travelling_family.G(x)
    # Lphi = g + fp vanishes identically
    assert np.max(np.abs(g + fp)) < 1e-15


def test_build_data_symmetric_case():
    fam = DataFamily(gamma=0.5, delta=1.0,
                     f=ProfileSpec("gaussian", 1.0, 0.0, 1.0),
                     fb=ProfileSpec("gaussian", 1.0, 0.0, 1.0))
    x = np.linspace(-4, 4, 21)
    assert np.allclose(fam.F_prime(x), 0.0, atol=1e-16)
    assert np.allclose(fam.G(x), fam.f_deriv(0, x), atol=1e-16)


@pytest.mark.parametrize("amplitude", [2.5e6, 1e200, float("nan")])
def test_out_of_range_data_is_a_named_error(amplitude):
    # a travelling family: G = amplitude/2 at the center, over the field cap
    # or not finite
    def fam(amp):
        h = ProfileSpec("gaussian", amp, 0.0, 1.0)
        return DataFamily(0.5, 0.0, h, h)

    grid, bad = Grid1D(-8.0, 0.1, 161), fam(amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: criterion_for_family(bad, grid.x), lambda: init_state(bad, grid),
                      lambda: higher_order_traces(bad, 2, grid.x)):
            with pytest.raises(DataOutOfRange, match="initial data out of range"):
                build()
    assert init_state(fam(2e6), grid).w.max() == 1e6      # exactly at the cap


def test_antiderivative_pins_left_edge(default_family):
    assert default_family.F(-60.0) == pytest.approx(0.0, abs=1e-15)


def test_data_eigenvalues_flat():
    lo, hi = eigenvalues(np.zeros(5), np.zeros(5))
    assert np.allclose(lo, -1.0) and np.allclose(hi, 1.0)


def test_data_eigenvalues_match_pointwise_kernel(default_family, rng):
    # the criterion reads the pointwise kernel at (w, p) = (G, F')
    x = rng.uniform(-8, 8, 64)
    rep = criterion_for_family(default_family, x)
    lo, hi = eigenvalues(default_family.G(x), default_family.F_prime(x))
    assert np.array_equal(rep.lambda_minus, lo) and np.array_equal(rep.lambda_plus, hi)


def test_data_eigenvalues_delta_zero(travelling_family):
    x = np.linspace(-8, 8, 101)
    lo, hi = eigenvalues(travelling_family.G(x), travelling_family.F_prime(x))
    fb = travelling_family.fb_deriv(0, x)
    assert np.allclose(hi, 1.0, atol=1e-14)
    assert np.allclose(lo, (fb ** 2 - 4.0) / (fb ** 2 + 4.0), atol=1e-14)
    assert np.all(lo < 1.0)


def test_data_eigenvalues_seed_formula(default_family, rng):
    # closed form in terms of the seeds, derived from the data relations
    x = rng.uniform(-6, 6, 32)
    f = default_family.f_deriv(0, x)
    fb = default_family.fb_deriv(0, x)
    d = default_family.delta
    den = 4.0 + fb ** 2 + d ** 2 * f ** 2 - 2.0 * d * fb * f
    lo_ref = (fb ** 2 - d ** 2 * f ** 2 - 4.0 * np.sqrt(1.0 - d * fb * f)) / den
    hi_ref = (fb ** 2 - d ** 2 * f ** 2 + 4.0 * np.sqrt(1.0 - d * fb * f)) / den
    lo, hi = eigenvalues(default_family.G(x), default_family.F_prime(x))
    assert np.allclose(lo, lo_ref, atol=1e-13)
    assert np.allclose(hi, hi_ref, atol=1e-13)


def test_data_eigenvalues_hyperbolicity_loss():
    with pytest.raises(HyperbolicityLoss):
        eigenvalues(np.array([0.0, 1.0, 0.0]), np.zeros(3))


# ---------------------------------------------------------------------------
# criterion


def test_criterion_constant_pass():
    rep = check_kong_tsuji(-np.ones(50), np.ones(50))
    assert rep.passed and rep.order_margin == pytest.approx(2.0)
    assert rep.gap_min == pytest.approx(2.0)
    assert rep.lam_star_lo == -1.0 and rep.lam_star_hi == 1.0


def _brute_force_margin(lo, hi):
    # all pairs x1 <= x2
    n = len(lo)
    worst = np.inf
    for j in range(n):
        for i in range(j + 1):
            worst = min(worst, hi[j] - lo[i])
    return worst


def test_criterion_prefix_max_equals_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        lo = rng.uniform(-1, 1, n)
        hi = rng.uniform(-1, 1, n)
        rep = check_kong_tsuji(lo, hi)
        assert rep.order_margin == _brute_force_margin(lo, hi)


@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=30))
def test_criterion_prefix_max_property(pairs):
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    rep = check_kong_tsuji(lo, hi)
    assert rep.order_margin == _brute_force_margin(lo, hi)


def test_criterion_margin_converges_under_refinement(default_family):
    margins = []
    for n in (201, 401, 801):
        x = np.linspace(-20, 20, n)
        margins.append(criterion_for_family(default_family, x).order_margin)
    assert abs(margins[2] - margins[1]) <= abs(margins[1] - margins[0]) + 1e-12
    assert abs(margins[2] - margins[1]) < 5e-3


def test_criterion_delta_zero_passes(travelling_family):
    x = np.linspace(-20, 20, 801)
    assert criterion_for_family(travelling_family, x).passed


def test_blowup_fixture_fails_criterion():
    # the colliding packets of acceptance A5, on two samplings of the data
    fam = fixture_config("a5_blowup").family()
    assert not criterion_for_family(fam, np.linspace(-14.0, 14.0, 4001)).passed
    x = np.linspace(-20, 20, 2001)
    rep = criterion_for_family(fam, x)
    assert not rep.passed and rep.order_margin < 0
    # but the initial data are healthy (separated packets)
    lo, hi = eigenvalues(fam.G(x), fam.F_prime(x))
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))


# ---------------------------------------------------------------------------
# higher-order traces


def test_traces_base_rows(default_family):
    x = np.linspace(-10, 10, 201)
    table = higher_order_traces(default_family, 3, x)
    lt, lbt = table.rows[0, 0]
    assert np.allclose(lt, 0.1 * default_family.f_deriv(0, x), atol=1e-14)
    assert np.allclose(lbt, default_family.fb_deriv(0, x), atol=1e-14)
    # spatial rows are derivatives of the base rows
    lt1, lbt1 = table.rows[0, 1]
    assert np.allclose(lt1, 0.1 * default_family.f_deriv(1, x), atol=1e-13)
    assert np.allclose(lbt1, default_family.fb_deriv(1, x), atol=1e-13)


def test_traces_denominator_floor(default_family):
    x = np.linspace(-12, 12, 301)
    table = higher_order_traces(default_family, 4, x)
    assert table.den_min >= 4.0


def test_traces_delta_zero_travelling(travelling_family):
    # substitute the exact travelling solution: every L row vanishes and the
    # Lb rows equal spatial derivatives of the right-moving profile
    x = np.linspace(-10, 10, 161)
    table = higher_order_traces(travelling_family, 4, x)
    for k1, k2 in np.ndindex(5, 5):
        if k1 + k2 > 4:
            continue
        lt, lbt = table.rows[k1, k2]
        assert np.max(np.abs(lt)) < 1e-13, f"L row {k1, k2} should vanish"
        expect = (-1.0) ** k1 * travelling_family.fb_deriv(k1 + k2, x)
        assert np.allclose(lbt, expect, atol=1e-11), f"Lb row {k1, k2}"


def test_traces_delta_scaling():
    # with fb = 0 the L rows scale exactly linearly in delta
    f = ProfileSpec("gaussian", 1.0, 0.0, 1.5)
    zero = ProfileSpec("gaussian", 0.0, 0.0, 1.5)
    x = np.linspace(-6, 6, 101)
    t1 = higher_order_traces(DataFamily(0.5, 0.2, f, zero), 3, x)
    t2 = higher_order_traces(DataFamily(0.5, 0.1, f, zero), 3, x)
    assert np.allclose(t1.rows[:, :, 0], 2.0 * t2.rows[:, :, 0], rtol=1e-12, atol=1e-14)

    # with fb nonzero each L row is O(delta): log-log slope >= 1
    fb = ProfileSpec("gaussian", 1.0, 0.0, 2.0)
    sizes = []
    for d in (0.1, 0.05, 0.025):
        tb = higher_order_traces(DataFamily(0.5, d, f, fb), 3, x)
        sizes.append(np.max(np.abs(tb.rows[:, :, 0])))
    slopes = np.diff(np.log(sizes)) / np.diff(np.log([0.1, 0.05, 0.025]))
    assert np.all(slopes >= 0.99)


def test_traces_weighted_norms_stable_under_refinement(default_family):
    # sampled class membership: weighted discrete norms finite and stable
    vals = []
    for n in (401, 801):
        x = np.linspace(-20, 20, n)
        table = higher_order_traces(default_family, 3, x)
        w = (1 + np.abs(x)) ** 3
        norm = np.sum(np.trapezoid(w * table.rows[:, :, 1] ** 2, x))
        vals.append(norm)
    assert np.isfinite(vals).all()
    assert vals[1] == pytest.approx(vals[0], rel=1e-4)


def test_trace_table_csv_roundtrip(tmp_path):
    # tracecheck writes the exact table of its coarse level to traces.csv,
    # one row per (k1, k2, x) with k1 + k2 <= N, and every value reads back
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("mode = tracecheck\nN = 2\nt_end = 0.5\nx0 = -6\ndx = 0.25\n"
                        "n = 49\nf_width = 0.5\nfb_width = 0.5\n")
    main(["tracecheck", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    header, *rows = (tmp_path / "out" / "traces.csv").read_text().splitlines()
    assert header == "x,k1,k2,L_trace,Lb_trace"
    cfg = parse_config(cfg_file.read_text())
    table = higher_order_traces(cfg.family(), cfg.N, cfg.grid().x)
    want = [(x, k1, k2, lv, lbv) for k1 in range(3) for k2 in range(3 - k1)
            for x, lv, lbv in zip(table.x, *table.rows[k1, k2])]
    assert len(rows) == 6 * cfg.n      # k1 + k2 <= 2
    for row, (x, k1, k2, lv, lbv) in zip(rows, want):
        got = row.split(",")
        assert (float(got[0]), int(got[1]), int(got[2]), float(got[3]), float(got[4])) \
            == (x, k1, k2, lv, lbv)
