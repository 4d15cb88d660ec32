import numpy as np
import pytest

from prolate import (GaussianPsf, HermiteGaussMode, QuadratureError, SlepianParams,
                     build_basis, default_psf_sigma, eval_psi, extension_matrix, hg_eval,
                     project)
from prolate.quadrature import gauss_legendre

import oracles


@pytest.fixture(scope="module")
def b5():
    return build_basis(SlepianParams(5.0), n_max=8)


class TestProject:
    def test_zero_function(self, b5):
        # no energy anywhere is not convergence: the tail share is reported as 1
        with pytest.raises(QuadratureError) as err:
            project(lambda t: np.zeros_like(t), b5)
        assert err.value.achieved == 1.0

    def test_ground_hg_mode_concentrates_on_psi0(self):
        b = build_basis(SlepianParams(20.0))
        mode = HermiteGaussMode(0, 20.0)
        g = project(lambda t: hg_eval(mode, t), b)
        assert g[0] ** 2 > 0.99

    def test_projection_contractive(self, b5):
        # projecting can only lose energy
        for c_mode, scale in ((4.0, 1.0), (9.0, 0.7)):
            mode = HermiteGaussMode(0, c_mode)
            g = project(lambda t: scale * hg_eval(mode, t), b5)
            assert np.dot(g, g) <= scale ** 2 + 1e-8

    def test_far_off_centre_pulse(self, b5):
        # a Gaussian centred at t = 25 or 40 holds no energy in the first panel
        # pairs; that is no convergence, and its energy lies past the radius cap
        sigma = default_psf_sigma(5.0)
        for t0 in (25.0, 40.0):
            with pytest.raises(QuadratureError) as err:
                project(lambda t: GaussianPsf(sigma)(np.asarray(t) - t0), b5)
            assert err.value.achieved == pytest.approx(1.0, abs=1e-9)
        # at t = 8 the rule still reaches it: a time-domain sum over psi_n agrees,
        # measured 2.8e-13 of the largest coefficient
        f = lambda t: GaussianPsf(sigma)(np.asarray(t) - 8.0)
        x, w = gauss_legendre(600, 0.0, 16.0)
        want = extension_matrix(b5, x) @ (w * f(x))
        assert np.max(np.abs(project(f, b5) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_heavy_tail_reports_achieved_tolerance(self, b5):
        # a constant, and psi_3: bandlimited, but decaying only as 1/t
        for f in (np.ones_like, lambda t: eval_psi(b5, 3, t)):
            with pytest.raises(QuadratureError) as err:
                project(f, b5)
            assert err.value.achieved is not None and err.value.achieved > 0.0


class TestSynthesize:
    def test_parseval_for_unit_vectors(self, b5):
        # whole-line energy of the synthesis equals the coefficient norm
        rng = np.random.default_rng(11)
        for _ in range(4):
            coeffs = np.zeros(9)
            idx = rng.choice(9, size=8, replace=False)
            coeffs[idx] = rng.standard_normal(8)
            coeffs /= np.linalg.norm(coeffs)
            energy = 0.0
            for n in range(9):
                for m in range(9):
                    if coeffs[n] and coeffs[m]:
                        energy += coeffs[n] * coeffs[m] * oracles.whole_line_inner(b5, n, m)
            assert abs(energy - 1.0) < 1e-6
