import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stringlab
from stringlab import (HyperbolicityLoss, TimelikeViolation, causal_norm, eigenvalues,
                       metric_scalars, multiplier, null_stress, side_weight, weight_a,
                       weight_a_prime)
from stringlab.energy import null_rows, stress_density
from stringlab.identities import (BalanceAccumulator, deformation_closed, deformation_direct,
                                  divergence_residual)
from stringlab.manufactured import ZeroField

SRC = Path(stringlab.__file__).resolve().parent

finite = st.floats(-5.0, 5.0, allow_nan=False)


# The null coordinates u = (t - x)/2, ub = (t + x)/2 live in side_weight:
# side TL takes a(ub), side TLb takes a(u).
@pytest.mark.parametrize("t,x,u,ub", [
    (0.0, 0.0, 0.0, 0.0),
    (2.0, 1.0, 0.5, 1.5),
    (1.0, -1.0, 1.0, 0.0),
])
def test_null_coords_examples(t, x, u, ub):
    assert side_weight("TLb", t, x, 0.5) == pytest.approx(weight_a(u, 0.5))
    assert side_weight("TL", t, x, 0.5) == pytest.approx(weight_a(ub, 0.5))


@given(finite, finite)
def test_null_coords_roundtrip(t, x):
    assert side_weight("TL", t, x, 0.5) == weight_a((t + x) / 2.0, 0.5)
    assert side_weight("TLb", t, x, 0.5) == weight_a((t - x) / 2.0, 0.5)
    assert side_weight("TLb", t, x, 0.5) == side_weight("TL", t, -x, 0.5)
    # read (t, x) as null coordinates (u, ub) of the event (u + ub, ub - u)
    u, ub = t, x
    assert side_weight("TLb", u + ub, ub - u, 0.5) == pytest.approx(weight_a(u, 0.5), rel=1e-12)
    assert side_weight("TL", u + ub, ub - u, 0.5) == pytest.approx(weight_a(ub, 0.5), rel=1e-12)


def _null_gradient(w, p):
    # the k = 0 null rows of phi = p*x with phi_t = w, an order-0 tower of
    # one level; the stencil is exact on lines
    x = 0.5 * np.arange(-3, 4)
    rows = null_rows([p * x], [np.full_like(x, w)], 1.0, 0.5, 0)
    return rows[0, 0, 0], rows[0, 0, 1]


@pytest.mark.parametrize("w,p,lphi,lbphi", [
    (0.0, 0.0, 0.0, 0.0),
    (1.0, 1.0, 2.0, 0.0),     # pure left-travelling profile
    (1.0, -1.0, 0.0, 2.0),    # pure right-travelling profile
])
def test_null_gradient_examples(w, p, lphi, lbphi):
    lrow, lbrow = _null_gradient(w, p)
    assert lrow == pytest.approx(np.full(7, lphi), abs=1e-12)
    assert lbrow == pytest.approx(np.full(7, lbphi), abs=1e-12)
    g, *_ = metric_scalars(lphi, lbphi)
    assert g == pytest.approx(1.0 + p * p - w * w)   # the hyperbolicity discriminant


@given(finite, finite)
def test_null_gradient_roundtrip(w, p):
    lrow, lbrow = _null_gradient(w, p)
    assert (lrow + lbrow) / 2.0 == pytest.approx(np.full(7, w), abs=1e-12)
    assert (lrow - lbrow) / 2.0 == pytest.approx(np.full(7, p), abs=1e-12)


def test_metric_scalars_flat():
    g, guu, gubub, guub = metric_scalars(0.0, 0.0)
    assert g == 1.0 and guu == 0.0 and gubub == 0.0
    assert guub == pytest.approx(-0.5)


def test_metric_scalars_example():
    g, *_ = metric_scalars(0.2, -1.0)
    assert g == pytest.approx(1.2)


def test_metric_scalars_boundary_raises():
    with pytest.raises(TimelikeViolation):
        metric_scalars(1.0, 1.0)


def test_metric_inverse_matches_matrix_inversion(rng):
    # cross component is not in closed form anywhere obvious; check against
    # direct inversion of the 2x2 null-frame metric
    for _ in range(200):
        lphi, lbphi = rng.uniform(-0.9, 0.9, 2)
        if 1.0 - lphi * lbphi <= 1e-3:
            continue
        _, guu, gubub, guub = metric_scalars(lphi, lbphi)
        gmat = np.array([[lbphi ** 2, -2.0 + lphi * lbphi],
                         [-2.0 + lphi * lbphi, lphi ** 2]])
        ginv = np.linalg.inv(gmat)
        assert guu == pytest.approx(ginv[0, 0], rel=1e-12, abs=1e-12)
        assert guub == pytest.approx(ginv[0, 1], rel=1e-12, abs=1e-12)
        assert gubub == pytest.approx(ginv[1, 1], rel=1e-12, abs=1e-12)
        assert guu <= 0.0 and gubub <= 0.0


def test_null_stress_matches_matrix_form(rng):
    # T^a_b = g^{ac} d_c(row) d_b(row) - 1/2 delta^a_b g^{cd} d_c(row) d_d(row),
    # with the inverse metric from direct inversion; index 0 is u, 1 is ub,
    # and d_u = Lb, d_ub = L
    for _ in range(100):
        lphi, lbphi = rng.uniform(-0.9, 0.9, 2)
        row_l, row_lb = rng.uniform(-1.0, 1.0, 2)
        gmat = np.array([[lbphi ** 2, -2.0 + lphi * lbphi],
                         [-2.0 + lphi * lbphi, lphi ** 2]])
        ginv = np.linalg.inv(gmat)
        d = np.array([row_lb, row_l])
        stress = np.outer(ginv @ d, d) - 0.5 * (d @ ginv @ d) * np.eye(2)
        got = null_stress(lphi, lbphi, row_l, row_lb)
        assert got == pytest.approx(list(stress.ravel()), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("w,p,lo,hi", [
    (0.0, 0.0, -1.0, 1.0),
    (0.5, 0.0, -np.sqrt(3) / 2, np.sqrt(3) / 2),
])
def test_eigenvalues_examples(w, p, lo, hi):
    lam = eigenvalues(w, p)
    assert lam[0] == pytest.approx(lo, abs=1e-7)
    assert lam[1] == pytest.approx(hi, abs=1e-7)


def test_eigenvalues_degenerate_raises():
    with pytest.raises(HyperbolicityLoss):
        eigenvalues(1.0, 0.0)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_speed_bound_and_gap(w, p):
    disc = 1.0 + p * p - w * w
    if disc <= 1e-9:
        return
    lo, hi = eigenvalues(w, p)
    assert lo < hi
    assert hi - lo == pytest.approx(2.0 * np.sqrt(disc) / (1.0 + p * p), rel=1e-12)
    assert abs(lo) <= 1.0 + 1e-12 and abs(hi) <= 1.0 + 1e-12
    # the algebraic identity behind the speed bound
    assert (1 + p * p + w * p) ** 2 - disc == pytest.approx((1 + p * p) * (p + w) ** 2,
                                                            rel=1e-9, abs=1e-9)


def test_weight_examples():
    assert weight_a(0.0, 0.3) == 1.0
    assert weight_a(1.0, 0.5) == pytest.approx(2.0 ** 1.5)
    x = np.linspace(-4, 4, 101)
    assert np.allclose(weight_a(x, 0.7), weight_a(-x, 0.7))
    assert np.all(weight_a(x, 0.7) >= 1.0)
    # log-derivative is uniformly bounded by 1+gamma
    ratio = weight_a_prime(x, 0.7) / weight_a(x, 0.7)
    assert np.max(np.abs(ratio)) <= 1.7 + 1e-12


@pytest.mark.parametrize("gamma", [-0.1, 0.0, 1.0, 1.5])
def test_weight_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError):
        weight_a(1.0, gamma)


# every entry point that takes a side name, called with the name
SIDE_ENTRY_POINTS = {
    "side_weight": lambda side: side_weight(side, 0.0, 0.0, 0.5),
    "multiplier": lambda side: multiplier(side, 1.0, 0.1, 0.2),
    "causal_norm": lambda side: causal_norm(side, 1.0, 0.1, 0.2),
    "stress_density": lambda side: stress_density(0.1, 0.2, 0.3, 0.4, 1.0, side, "t"),
    "deformation_direct": lambda side: deformation_direct((0.1,) * 7, 0.0, 0.0, 0.5, side),
    "deformation_closed": lambda side: deformation_closed((0.1,) * 7, 0.0, 0.0, 0.5, side),
    "BalanceAccumulator": lambda side: BalanceAccumulator(side, 0.0, 0.5),
    "divergence_residual": lambda side: divergence_residual(
        ZeroField(), ZeroField(), 0.5, side, 0.05, np.zeros(3), np.zeros(3)),
}


@pytest.mark.parametrize("side", ["L", "tl", ""])
def test_side_rejects_unknown(side):
    # nullgeom.side_sign raises the one message for an unknown side name
    message = f"side must be 'TL' or 'TLb', got {side!r}"
    for name, call in SIDE_ENTRY_POINTS.items():
        with pytest.raises(ValueError) as raised:
            call(side)
        assert str(raised.value) == message, name


def _side_comparisons(path):
    """Line numbers of the comparisons of a value with "TL" or "TLb" in
    the source file path."""
    def names_a_side(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_side, node.elts))
        return isinstance(node, ast.Constant) and node.value in ("TL", "TLb")

    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Compare)
                  and any(map(names_a_side, [node.left, *node.comparators])))


def test_only_nullgeom_compares_with_a_side_name():
    # nullgeom owns the side rule: every other module takes the sign from
    # side_sign instead of testing the name; the scan sees nullgeom's own
    found = {path.name: _side_comparisons(path) for path in SRC.glob("*.py")
             if path.name != "nullgeom.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _side_comparisons(SRC / "nullgeom.py")


def test_multiplier_examples():
    weight = side_weight("TL", 0.0, 0.0, 0.5)
    cl, clb = multiplier("TL", weight, 0.0, 0.7)
    assert cl == pytest.approx(1.0) and clb == pytest.approx(0.0)

    weight = side_weight("TLb", 0.0, 0.0, 0.5)
    cl, clb = multiplier("TLb", weight, 0.1, 2.0)
    assert cl == pytest.approx(4.0) and clb == pytest.approx(1.0)

    weight = side_weight("TL", 1.0, 1.0, 0.5)     # ub = 1
    cl, clb = multiplier("TL", weight, 0.5, 0.3)
    assert cl == pytest.approx(2.8284271, abs=1e-6)
    assert clb == pytest.approx(0.7071068, abs=1e-6)


def test_causal_norm_examples():
    weight = side_weight("TL", 0.0, 0.0, 0.5)
    assert causal_norm("TL", weight, 0.0, 1.3) == 0.0
    val = causal_norm("TL", weight, 0.1, 1.0)
    assert val == pytest.approx(0.01 * (-3 + 0.2 + 0.01), abs=1e-12)
    val = causal_norm("TL", weight, 2.0, 2.0)
    assert val > 0.0   # non-causal regime


def test_causal_norm_sign(rng):
    t, x = 0.3, -0.8
    for _ in range(300):
        lphi, lbphi = rng.uniform(-1.0, 1.0, 2)
        factor = -3 + 2 * lphi * lbphi + (lphi * lbphi) ** 2
        weight = side_weight("TLb", t, x, 0.4)
        val = causal_norm("TLb", weight, lphi, lbphi)
        assert val == pytest.approx(weight ** 2 * lbphi ** 2 * factor, rel=1e-12, abs=1e-14)
        if factor <= 0:
            assert val <= 0.0
        if lphi == 0.0:
            assert causal_norm("TL", side_weight("TL", t, x, 0.4), lphi, lbphi) == 0.0
