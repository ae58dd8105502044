"""Log-gamma, reciprocal gamma and complex error functions."""

import math

import mpmath as mp
import numpy as np
import pytest

from mlsections.mitlef import erfc
from mlsections.specfun import ln_gamma, ln_gamma_arr, rgamma


def test_ln_gamma_small_integers():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                          rel=1e-13)


def test_ln_gamma_functional_equation():
    for x in np.linspace(1.0, 50.0, 197):
        ratio = math.exp(ln_gamma(x + 1.0) - ln_gamma(x))
        assert ratio == pytest.approx(x, rel=1e-12)


def test_ln_gamma_against_lgamma():
    for x in np.geomspace(0.5, 1e6, 300):
        assert ln_gamma(float(x)) == pytest.approx(math.lgamma(x), rel=1e-13,
                                                   abs=1e-13)


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-1.5)
    with pytest.raises(ValueError):
        ln_gamma_arr(np.array([1.0, 0.0]))


def test_ln_gamma_arr_matches_scalar():
    xs = np.array([0.5, 1.0, 3.25, 17.0, 1234.5])
    got = ln_gamma_arr(xs)
    for x, g in zip(xs, got):
        assert g == ln_gamma(float(x))


def test_rgamma_poles_types_and_mpmath():
    for x in (0.0, -1.0, -7.0):
        assert rgamma(x) == 0.0
    assert type(rgamma(2.5)) is float
    assert rgamma(3.0) == 0.5
    xs = np.array([[-7.0, -2.5], [0.25, 4.0]])
    got = rgamma(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got[0, 0] == 0.0
    for rho in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        x = 1.0 - np.arange(1, 81) / rho
        ref = np.array([float(mp.rgamma(v)) for v in x])
        assert np.all(np.abs(rgamma(x) - ref) <= 2e-15 * np.abs(ref))
    # the vanishing terms theorem4_rhs relies on: 1/Gamma(1 - k/2) = 0 at even k
    k = np.arange(1, 81)
    assert np.all(rgamma(1.0 - k[1::2] / 2.0) == 0.0)
    assert np.all(rgamma(1.0 - k[::2] / 2.0) != 0.0)


def test_erfc_at_zero_and_one():
    assert erfc(0.0) == pytest.approx(1.0, abs=1e-14)
    # independent quadrature of the defining integral
    integral = mp.quad(lambda v: mp.exp(-v * v), [0, 1])
    expected = float(1 - 2 / mp.sqrt(mp.pi) * integral)
    assert erfc(1.0).real == pytest.approx(expected, rel=1e-10)
    assert erfc(1.0) == pytest.approx(0.15729920705, rel=1e-9)


def test_erfc_reflection_and_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert abs(erfc(z) + erfc(-z) - 2.0) < 1e-10 * max(1.0, abs(erfc(z)))
        assert erfc(z.conjugate()) == pytest.approx(
            erfc(z).conjugate(), rel=1e-12, abs=1e-12)


def test_erfc_matches_mpmath():
    for z in (0.3 + 0.4j, 2.0 - 1.0j, -1.5 + 0.2j, 5.0 + 5.0j, 9.0 - 3.0j):
        ours, ref = erfc(z), complex(mp.erfc(z))
        assert abs(ours - ref) <= 1e-10 * max(abs(ref), 1e-30)
