import numpy as np
import pytest

from prolate import (BandlimitedFunction, HermiteGaussMode, QuadratureError,
                     SlepianParams, build_basis, eval_psi, extension_matrix,
                     hg_eval, project)

import oracles


@pytest.fixture(scope="module")
def b5():
    return build_basis(SlepianParams(5.0), n_max=8)


class TestProject:
    def test_basis_mode_maps_to_unit_vector(self, b5):
        g = project(lambda t: eval_psi(b5, 3, t), b5, bandlimited=True)
        expect = np.zeros(9)
        expect[3] = 1.0
        assert np.max(np.abs(g.coeffs - expect)) < 1e-7

    @pytest.mark.parametrize("c", [2.0, 5.0, 20.0, 45.0])
    def test_bandlimited_rounding_grows_as_one_over_sqrt_lambda(self, basis_cache, c):
        # the window identity divides window integrals by lambda_n, so
        # coefficient n carries the rounding of f's window values over sqrt(lambda_n)
        b = basis_cache(c)
        bound = 100.0 * np.finfo(float).eps / np.sqrt(b.lambdas)
        for k in range(4):
            g = project(lambda t: eval_psi(b, k, t), b, bandlimited=True)
            assert np.all(np.abs(g.coeffs - np.eye(b.n_modes)[k]) <= bound)

    def test_zero_function(self, b5):
        g = project(lambda t: np.zeros_like(t), b5)
        assert np.all(g.coeffs == 0.0)

    def test_ground_hg_mode_concentrates_on_psi0(self):
        b = build_basis(SlepianParams(20.0))
        mode = HermiteGaussMode(0, 20.0)
        g = project(lambda t: hg_eval(mode, t), b)
        assert g.coeffs[0] ** 2 > 0.99

    def test_projection_contractive(self, b5):
        # projecting can only lose energy
        for c_mode, scale in ((4.0, 1.0), (9.0, 0.7)):
            mode = HermiteGaussMode(0, c_mode)
            g = project(lambda t: scale * hg_eval(mode, t), b5)
            assert g.energy() <= scale ** 2 + 1e-8

    def test_heavy_tail_reports_achieved_tolerance(self, b5):
        with pytest.raises(QuadratureError) as err:
            project(lambda t: np.ones_like(t), b5)
        assert err.value.achieved is not None and err.value.achieved > 0.0


def synthesize(g, basis, t):
    """sum_n g_n psi_n(t) over the coefficients of g."""
    return g.coeffs @ extension_matrix(basis, t, np.arange(g.coeffs.size))


class TestSynthesize:
    def test_round_trip_on_basis_mode(self, b5):
        g = project(lambda t: eval_psi(b5, 1, t), b5, bandlimited=True)
        t = np.linspace(-2.0, 2.0, 21)
        assert np.max(np.abs(synthesize(g, b5, t) - eval_psi(b5, 1, t))) < 1e-7

    def test_linearity(self, b5):
        g = BandlimitedFunction(b5.params, [2.0])
        t = np.linspace(-1.5, 1.5, 11)
        assert np.allclose(synthesize(g, b5, t), 2.0 * eval_psi(b5, 0, t), atol=1e-12)

    def test_project_synthesize_round_trip_random(self, b5):
        rng = np.random.default_rng(42)
        for _ in range(6):
            coeffs = np.zeros(9)
            idx = rng.choice(9, size=5, replace=False)
            coeffs[idx] = rng.standard_normal(5)
            g0 = BandlimitedFunction(b5.params, coeffs)
            g1 = project(lambda t: synthesize(g0, b5, t), b5, bandlimited=True)
            assert np.max(np.abs(g1.coeffs - coeffs)) < 1e-7

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
