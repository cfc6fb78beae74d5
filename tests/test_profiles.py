import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from stringlab import ProfileSpec, parse_config, profile_antiderivative, profile_derivative
from stringlab.profiles import _bump_poly, _gauss_poly, erf, support_radius

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("kind", ["gaussian", "polynomial-gaussian", "bump"])
def test_k0_reproduces_value(kind):
    h = ProfileSpec(kind, 1.3, 0.4, 1.7)
    x = np.linspace(-4, 4, 101)
    s = (x - 0.4) / 1.7
    if kind == "gaussian":
        expect = 1.3 * np.exp(-s ** 2)
    elif kind == "polynomial-gaussian":
        expect = 1.3 * s * np.exp(-s ** 2)
    else:
        expect = np.where(np.abs(s) < 1, 1.3 * np.exp(1 - 1 / (1 - np.minimum(s ** 2, 0.999999))), 0.0)
    assert np.allclose(profile_derivative(h, 0, x), expect, atol=1e-12)


def test_gaussian_first_derivative_value():
    h = ProfileSpec("gaussian", 1.0, 0.0, 1.0)
    assert profile_derivative(h, 1, 1.0) == pytest.approx(-2.0 * np.exp(-1.0), abs=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "polynomial-gaussian", "bump"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_derivatives_match_finite_differences(kind, k):
    # k-th derivative vs centered difference of the (k-1)-th: refinement study
    h = ProfileSpec(kind, 0.9, -0.3, 1.4)
    x = -0.3 + 1.4 * np.linspace(-0.7, 0.7, 23)
    exact = profile_derivative(h, k, x)
    scale = np.max(np.abs(exact))
    errs = []
    for step in (1e-3, 5e-4):
        fd = (profile_derivative(h, k - 1, x + step)
              - profile_derivative(h, k - 1, x - step)) / (2 * step)
        errs.append(np.max(np.abs(fd - exact)) / scale)
    assert errs[1] < 1e-4
    assert np.log2(errs[0] / errs[1]) > 1.6   # centered differences are ~2nd order


@pytest.mark.parametrize("kind", ["gaussian", "polynomial-gaussian", "bump"])
def test_derivatives_finite_everywhere(kind):
    h = ProfileSpec(kind, 1.0, 0.0, 1.0)
    x = np.linspace(-1.0001, 1.0001, 4001)   # straddles the bump edge
    for k in range(9):
        assert np.all(np.isfinite(profile_derivative(h, k, x)))


@pytest.mark.parametrize("kind", ["gaussian", "polynomial-gaussian", "bump"])
def test_antiderivative_differentiates_back(kind):
    h = ProfileSpec(kind, 1.1, 0.2, 0.9)
    x = np.linspace(-3, 3, 41)
    step = 1e-5
    fd = (profile_antiderivative(h, x + step) - profile_antiderivative(h, x - step)) / (2 * step)
    assert np.max(np.abs(fd - profile_derivative(h, 0, x))) < 1e-8
    assert profile_antiderivative(h, -50.0) == pytest.approx(0.0, abs=1e-14)


def test_bump_compact_support():
    h = ProfileSpec("bump", 2.0, 0.0, 1.5)
    assert profile_derivative(h, 0, 1.5) == 0.0
    assert profile_derivative(h, 4, -1.6) == 0.0
    assert support_radius(h) == 1.5


def test_support_radius_of_zero_profile():
    # a zero profile used to get the 60-width cap: 120 for a width-2 gaussian
    # against 12 at amplitude 1, so zero-amplitude configs demanded [-126, 126]
    for kind in ("gaussian", "polynomial-gaussian", "bump"):
        assert support_radius(ProfileSpec(kind, 0.0, 1.0, 2.0)) == 0.0
    assert support_radius(ProfileSpec("gaussian", 1.0, 1.0, 2.0)) == 12.0
    cfg = parse_config("f_amplitude = 0\nfb_amplitude = 0\nx0 = -23\nn = 921\nt_end = 20\n")
    assert cfg.family().support_radius() == 0.0


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _polynomial_reference(k, kind):
    # the recurrences of _gauss_poly and _bump_poly on numpy.polynomial, which
    # the package itself does not import
    from numpy.polynomial import Polynomial
    s = Polynomial([0.0, 1.0])
    if kind == "bump":
        n, one_m_s2 = Polynomial([1.0]), Polynomial([1.0, 0.0, -1.0])
        for j in range(k):
            n = (n.deriv() * one_m_s2 + 4.0 * j * s * n) * one_m_s2 - 2.0 * s * n
        return n
    p = Polynomial([1.0]) if kind == "1" else Polynomial([0.0, 1.0])
    for _ in range(k):
        p = p.deriv() - Polynomial([0.0, 2.0]) * p
    return p


@pytest.mark.parametrize("kind", ["1", "s", "bump"])
@pytest.mark.parametrize("k", range(12))
def test_profile_polynomials_equal_numpy_polynomial(kind, k):
    # Bit for bit, signed zeros included: Polynomial's coefficients carry
    # -0.0, so np.polyder/np.polymul/np.polysub would flip the sign of an
    # exact zero at s = 0 (seed "1" at k = 5, seed "s" at k = 2).
    ours = _bump_poly(k) if kind == "bump" else _gauss_poly(k, kind)
    ref = _polynomial_reference(k, kind)
    rng = np.random.default_rng(100 + k)
    s = np.concatenate(([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, -1e-300],
                        np.linspace(-3.0, 3.0, 6001), rng.uniform(-1.0, 1.0, 19999),
                        4.0 * rng.standard_normal(20000)))
    assert _same_bits(ours(s), ref(s))
    assert _same_bits(ours(s.reshape(4, -1)), ref(s.reshape(4, -1)))
    for point in (0.0, -0.0, 0.7, -2.5):
        got, want = ours(np.asarray(point)), ref(np.asarray(point))
        assert type(got) is type(want) and _same_bits(got, want)
        assert np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("lo, hi, n", [(-40.0, 40.0, 1_000_001), (-8.0, 8.0, 1_000_001)])
def test_erf_bitwise_equals_scipy_on_dense_grid(lo, hi, n):
    x = np.linspace(lo, hi, n)
    assert _same_bits(erf(x), special.erf(x))


def test_erf_bitwise_equals_scipy_at_edge_cases():
    tiny = np.finfo(float).smallest_subnormal
    x = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -3e-320,
                  np.finfo(float).tiny, 1e-200, 1.0, -1.0, np.nextafter(1.0, 2.0),
                  8.0, -8.0, np.nextafter(8.0, 0.0), 26.5, 1e300, -1e300])
    assert _same_bits(erf(x), special.erf(x))
    assert erf(np.inf) == 1.0 and erf(-np.inf) == -1.0
    assert np.signbit(erf(-0.0)) and not np.signbit(erf(0.0))
    assert np.isnan(erf(np.nan)) and np.all(np.isnan(erf(np.array([np.nan, -np.nan]))))
    assert isinstance(erf(0.3), float) and erf(0.3) == special.erf(0.3)


def test_bump_antiderivative_matches_quadrature():
    h = ProfileSpec("bump", 1.3, 0.5, 2.0)     # s = (x - 0.5)/2 is exact

    def core(t):
        return np.exp(1.0 - 1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0

    def quad(a, b):
        return 1.3 * 2.0 * integrate.quad(core, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    mass = quad(-1.0, 1.0)
    s = np.linspace(-1.0, 1.0, 41)
    expect = np.array([quad(-1.0, si) for si in s])
    assert np.max(np.abs(profile_antiderivative(h, 0.5 + 2.0 * s) - expect)) < 1e-12 * mass
    beyond = profile_antiderivative(h, 0.5 + 2.0 * np.array([1.0, 1.0 + 1e-9, 1.5, 40.0]))
    assert np.all(beyond == beyond[0]) and abs(beyond[0] - mass) < 1e-12 * mass
    assert np.all(profile_antiderivative(h, 0.5 - 2.0 * np.array([1.0, 1.5, 40.0])) == 0.0)


RUNTIME_CHECK = textwrap.dedent(r"""
    import sys
    from pathlib import Path
    import stringlab.cli as cli
    out = Path(sys.argv[1])
    for kind in ("gaussian", "bump"):
        cfg = out / (kind + ".cfg")
        cfg.write_text("t_end = 1\nx0 = -16\ndx = 0.1\nn = 321\nreport_every = 5\n"
                       "probes_u = 0\nprobes_ub = 0\nf_kind = " + kind + "\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out / kind)])
        assert rc == 0, (kind, rc)
        assert (out / kind / "energy.csv").exists()
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_cli_runs_without_scipy(tmp_path):
    # A fresh interpreter: importing the package and running gaussian and bump
    # seeds must never load scipy, which only the tests use as an oracle.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RUNTIME_CHECK, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
