import numpy as np
import pytest

from stringlab import (DataFamily, Grid1D, InsufficientHistory, ProfileSpec, identities,
                       init_state, metric_scalars, run_evolution, step)
from stringlab.identities import (BalanceAccumulator, deformation_check,
                                  deformation_closed, deformation_direct,
                                  divergence_identity_study, divergence_residual,
                                  energy_balance_study, equivalence_ratios,
                                  trace_residual)
from stringlab.manufactured import Mixture, MovingGaussian, ZeroField, random_mixture


def test_divergence_flat_free_wave_roundoff():
    # flat background and a constant null multiplier: the current of a
    # right-moving free wave vanishes identically, so the residual is roundoff
    study = divergence_identity_study(ZeroField(), MovingGaussian(0.8, 0.3, 1.2, 1.0),
                                      side=("const", 1.0, 0.0), hs=(0.04,))
    assert study.residuals[0] < 1e-13


@pytest.mark.parametrize("side", ["TL", "TLb"])
def test_divergence_converges(side, rng):
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    study = divergence_identity_study(phi, varphi, side=side)
    assert study.observed_order > 1.5
    assert study.residuals[-1] < 1e-5


def test_divergence_quadratic_in_test_function(rng):
    phi = random_mixture(rng, amp=0.2)
    varphi = random_mixture(rng, amp=0.4)
    tt, xx = np.meshgrid(np.linspace(0.3, 0.8, 4), np.linspace(-2, 2, 17), indexing="ij")
    r1 = divergence_residual(phi, varphi, 0.5, "TL", 0.05, tt, xx)
    scaled = Mixture(tuple(MovingGaussian(3.0 * t.amp, t.center, t.width, t.speed)
                           for t in varphi.terms))
    r9 = divergence_residual(phi, scaled, 0.5, "TL", 0.05, tt, xx)
    assert r9 == pytest.approx(9.0 * r1, rel=1e-6)


def test_deformation_closed_vs_direct_random_fields():
    worst, worst_trace = deformation_check(seed=3, n_fields=100)
    assert worst <= 1e-10
    assert worst_trace <= 1e-13


def test_deformation_vanishes_when_correction_does(rng):
    # a field with L phi = 0 everywhere (right-travelling) and a test row
    # with vanishing L part: the whole TL contraction dies
    phi = MovingGaussian(0.5, 0.0, 1.5, 1.0)     # f(x - t)
    varphi = MovingGaussian(0.9, 0.4, 1.1, 1.0)
    tt, xx = np.meshgrid(np.linspace(0, 1, 4), np.linspace(-3, 3, 21), indexing="ij")
    val = deformation_direct(phi, varphi, tt, xx, 0.5, "TL")
    assert np.max(np.abs(val)) < 1e-14


def test_deformation_weight_term_is_needed(rng):
    # dropping the weight-derivative cross term breaks the identity on
    # generic fields: the discrepancy is exactly that term
    phi = random_mixture(rng, amp=0.25)
    varphi = random_mixture(rng, amp=0.5)
    tt, xx = np.meshgrid(np.linspace(0.2, 0.9, 4), np.linspace(-3, 3, 21), indexing="ij")
    direct = deformation_direct(phi, varphi, tt, xx, 0.5, "TLb")
    closed = deformation_closed(phi, varphi, tt, xx, 0.5, "TLb")
    # reconstruct the weight part and subtract it
    from stringlab.identities import _null_data
    from stringlab.nullgeom import weight_a_prime
    A, B, a, b, *_ = _null_data(phi, varphi, tt, xx)
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

    def corrupted_closed(phi, varphi, t, x, gamma, side):
        from stringlab.identities import _null_data
        from stringlab.nullgeom import weight_a, weight_a_prime
        A, B, a, b, llb, l2, lb2 = _null_data(phi, varphi, t, x)
        g = 1.0 - A * B
        uu = (np.asarray(t) - np.asarray(x)) / 2.0
        wgt, wgtp = weight_a(uu, gamma), weight_a_prime(uu, gamma)
        correction = ((-0.5 * b * b - A * B * b * b / (4.0 * g) + B * B * a * b / (4.0 * g))
                      * (wgtp * A * A + 2.0 * wgt * A * lb2)                  # sign flip
                      + (B * B * a * a - A * A * b * b) / (8.0 * g) * 2.0 * wgt * A * llb)
        return correction + wgtp * (A * A * b * b - B * B * a * a) / (8.0 * g)

    direct = deformation_direct(phi, varphi, tt, xx, 0.5, "TLb")
    bad = corrupted_closed(phi, varphi, tt, xx, 0.5, "TLb")
    rel = np.max(np.abs(direct - bad)) / np.max(np.abs(direct))
    assert rel > 1e-6


def test_trace_identity_roundoff(rng):
    phi = random_mixture(rng, amp=0.3)
    varphi = random_mixture(rng, amp=0.6)
    tt, xx = np.meshgrid(np.linspace(0, 1, 5), np.linspace(-4, 4, 33), indexing="ij")
    tr, scale = trace_residual(phi, varphi, tt, xx)
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
    worst, worst_trace = deformation_check(seed=5, n_fields=4)
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
    assert (study.observed_order < 1.5) == flagged


# ---------------------------------------------------------------------------
# energy balance


def test_balance_zero_solution():
    fam = DataFamily(0.5, 0.0, ProfileSpec("gaussian", 0.0), ProfileSpec("gaussian", 0.0))
    acc = BalanceAccumulator("TLb", 1.0, 0.5)
    run_evolution(fam, Grid1D(-12, 0.1, 241), t_end=2.0, callbacks=[acc])
    res, scale = acc.finalize()
    assert res == 0.0 and acc.sigma0 == 0.0 and acc.flux == 0.0


def test_balance_travelling_tl_side_noise(travelling_family):
    # the TL current of a right-travelling wave involves only L rows: zero
    acc = BalanceAccumulator("TL", -1.0, 0.5)
    run_evolution(travelling_family, Grid1D(-18, 0.05, 721), t_end=2.0,
                  eps_ko=0.0, callbacks=[acc])
    res, scale = acc.finalize()
    assert abs(acc.sigma0) < 1e-12
    assert res < 1e-10


@pytest.mark.parametrize("side,coord", [("TL", -1.0), ("TLb", 1.0)])
def test_balance_converges(side, coord, default_family):
    study = energy_balance_study(default_family, side, coord,
                                 Grid1D(-22.0, 0.25, 177), t_end=3.0)
    assert study.observed_order > 1.5
    assert study.residuals[-1] < 1e-3


def test_balance_higher_spatial_row(default_family):
    study = energy_balance_study(default_family, "TLb", 0.5,
                                 Grid1D(-22.0, 0.25, 177), t_end=2.0, k2=1)
    assert study.observed_order > 1.5


def test_balance_finalize_needs_three_levels(default_family):
    acc = BalanceAccumulator("TLb", 1.0, 0.5)
    state = init_state(default_family, Grid1D(-12, 0.1, 241))
    acc.on_start(state)
    acc.on_step(step(state, dt=0.04))
    with pytest.raises(InsufficientHistory, match="at least 3 levels, have 2"):
        acc.finalize()
