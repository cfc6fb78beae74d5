import numpy as np
import pytest

from stringlab import ProfileSpec, profile_antiderivative, profile_derivative
from stringlab.profiles import support_radius


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

