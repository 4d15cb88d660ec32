import math

import numpy as np
import pytest
from scipy.integrate import quad

from prolate import HermiteGaussMode, hermite_function, hg_eval


def test_polynomial_values():
    # the Hermite polynomials H_0..H_3 inside the normalized recurrence
    x = np.array([-1.5, 0.0, 0.7])
    polys = (1.0 + 0 * x, 2 * x, 4 * x * x - 2.0, 8 * x ** 3 - 12 * x)
    for n, h in enumerate(polys):
        norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        assert np.allclose(hermite_function(n, x), h * np.exp(-0.5 * x * x) / norm,
                           rtol=1e-14, atol=1e-15)


def test_hg_ground_mode_at_origin():
    assert hg_eval(HermiteGaussMode(0, 4.0), 0.0) == pytest.approx((4.0 / math.pi) ** 0.25,
                                                                  rel=1e-14)


def test_odd_modes_vanish_at_origin():
    for n in (1, 3, 5, 9):
        for c in (0.5, 4.0, 20.0):
            assert hg_eval(HermiteGaussMode(n, c), 0.0) == pytest.approx(0.0, abs=1e-300)


def test_parity():
    t = np.linspace(0.05, 3.0, 17)
    for n in range(6):
        mode = HermiteGaussMode(n, 3.0)
        assert np.allclose(hg_eval(mode, -t), (-1.0) ** n * hg_eval(mode, t), rtol=1e-12)


def test_unit_norm_by_adaptive_quadrature():
    # independent oracle: scipy adaptive quadrature of the squared mode
    mode = HermiteGaussMode(2, 20.0)
    val, err = quad(lambda t: hg_eval(mode, t) ** 2, -np.inf, np.inf, epsabs=1e-12)
    assert abs(val - 1.0) < 1e-10
    mode = HermiteGaussMode(7, 1.3)
    val, _ = quad(lambda t: hg_eval(mode, t) ** 2, -np.inf, np.inf, epsabs=1e-12)
    assert abs(val - 1.0) < 1e-10


def test_large_index_stays_finite():
    # the folded normalization must not overflow where a naive H_n would
    vals = hg_eval(HermiteGaussMode(200, 2.0), np.linspace(-8.0, 8.0, 33))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 10.0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        HermiteGaussMode(-1, 2.0)
    with pytest.raises(ValueError):
        HermiteGaussMode(2, 0.0)
    with pytest.raises(ValueError):
        hermite_function(-1, 0.0)
