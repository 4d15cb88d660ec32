import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from prolate import (LAMBDA_FLOOR, GaussianPsf, SlepianParams, build_basis,
                     default_psf_sigma, eval_psi, extension_matrix, lambda0_curve,
                     plunge_index, project)
from prolate import basis as basis_module
from prolate.basis import MAX_LEGENDRE_SIZE
from prolate.quadrature import gauss_legendre

import oracles


def sinc_kernel(t, z, omega):
    """Band-limiting kernel sin(omega (t - z)) / (pi (t - z))."""
    return (omega / math.pi) * np.sinc((omega / math.pi) * (t - z))


class TestBuildBasis:
    def test_lambda0_at_c5(self, basis_cache):
        b = basis_cache(5.0, 8)
        assert 0.998 <= b.lambdas[0] < 1.0

    def test_matches_dense_oracle(self, basis_cache):
        for c in (1.0, 5.0):
            b = basis_cache(c)
            n_check = plunge_index(c) + 2
            dense = oracles.dense_nystrom_lambdas(c, order=2000, n_top=n_check + 1)
            assert np.max(np.abs(b.lambdas[: n_check + 1] - dense)) < 1e-8

    def test_spectrum_decreasing_in_unit_interval(self, basis_cache):
        for c in (1.0, 2.7, 5.0):
            b = basis_cache(c)
            lam = b.lambdas[b.lambdas >= LAMBDA_FLOOR]
            assert np.all(np.diff(lam) < 0.0)
            assert np.all((lam > 0.0) & (lam < 1.0))

    def test_window_orthogonality(self, basis_cache):
        b = basis_cache(5.0, 8)
        nodes, weights = gauss_legendre(64, -1.0, 1.0)
        psi = oracles.window_values(b, nodes)
        gram = (psi * weights) @ psi.T
        assert np.max(np.abs(gram - np.diag(b.lambdas))) < 1e-12

    def test_deep_tail_n_max_builds(self):
        # lambda_30(1) is about 1e-100: the modes stay resolved and the
        # eigenvalues keep falling
        b = build_basis(SlepianParams(1.0), n_max=30)
        assert np.all(np.diff(b.lambdas) < 0.0) and b.lambdas[-1] > 0.0
        assert b.lambdas[-1] < 1e-90

    @pytest.mark.parametrize("c, n_max", [(5.0, 100_000), (5.0, 2004), (1500.0, None)])
    def test_rejects_oversized_legendre_basis(self, monkeypatch, c, n_max):
        # refused from c and n_max alone: the eigen solve is never reached.
        # n_max = 2003 at c = 5 is the largest basis allowed, 2004 one too many
        assert basis_module._legendre_shape(5.0, 2003)[1] == MAX_LEGENDRE_SIZE

        def solve(*args):
            raise AssertionError("_legendre_modes called")

        monkeypatch.setattr(basis_module, "_legendre_modes", solve)
        with pytest.raises(ValueError, match="MAX_LEGENDRE_SIZE"):
            build_basis(SlepianParams(c), n_max=n_max)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SlepianParams(-1.0)
        with pytest.raises(ValueError):
            SlepianParams(2.0, T=0.0)

    def test_large_c_saturated_cluster_builds(self):
        # eigenvalues pile up at 1 with sub-1e-12 gaps
        b = build_basis(SlepianParams(20.0), n_max=17)
        assert b.lambdas[0] < 1.0


class TestEvalPsi:
    def test_integral_equation_residual(self, basis_cache):
        t = np.linspace(-3.0, 3.0, 61)
        for c in (1.0, 5.0, 10.0):
            b = basis_cache(c)
            nodes_f, w_f = gauss_legendre(160, -1.0, 1.0)
            for n in range(min(plunge_index(c) + 2, b.n_max) + 1):
                psi_f = eval_psi(b, n, nodes_f)
                lhs = sinc_kernel(t[:, None], nodes_f[None, :], b.params.omega) @ (w_f * psi_f)
                rhs = b.lambdas[n] * eval_psi(b, n, t)
                assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_odd_modes_vanish_at_zero(self, basis_cache):
        b = basis_cache(5.0, 8)
        for n in (1, 3, 5, 7):
            assert abs(eval_psi(b, n, 0.0)) < 1e-10

    def test_parity(self, basis_cache):
        b = basis_cache(5.0, 8)
        t = np.linspace(0.1, 2.5, 13)
        for n in range(8):
            sign = 1.0 if n % 2 == 0 else -1.0
            assert np.allclose(eval_psi(b, n, -t), sign * eval_psi(b, n, t), atol=1e-10)

    def test_hermite_compatible_signs(self, basis_cache):
        b = basis_cache(5.0, 8)
        # even modes alternate sign at the origin like H_n(0); odd slopes
        # alternate like H_n'(0)
        assert eval_psi(b, 0, 0.0) > 0.0
        assert eval_psi(b, 2, 0.0) < 0.0
        assert eval_psi(b, 4, 0.0) > 0.0
        eps = 1e-4
        assert eval_psi(b, 1, eps) > 0.0
        assert eval_psi(b, 3, eps) < 0.0

    def test_extension_reproduces_node_samples(self, basis_cache):
        b = basis_cache(5.0, 8)
        nodes, _ = gauss_legendre(64, -1.0, 1.0)
        vals = extension_matrix(b, nodes)
        assert np.max(np.abs(vals - oracles.window_values(b, nodes))) < 1e-9

    def test_subfloor_mode_evaluates(self):
        # lambda_8(c = 2) = 2.8e-14 sits below LAMBDA_FLOOR; its values come
        # from the band integral, which does not divide by lambda_8
        b = build_basis(SlepianParams(2.0), n_max=8)
        assert b.lambdas[7] >= LAMBDA_FLOOR > b.lambdas[8]
        # the band integral is accurate to about eps relative to the unit norm
        nodes, _ = gauss_legendre(64, -1.0, 1.0)
        inside = eval_psi(b, 8, nodes)
        assert np.max(np.abs(inside - oracles.window_values(b, nodes)[8])) < 1e-13
        assert abs(eval_psi(b, 8, 2.5)) < 1.0

    @pytest.mark.parametrize("c, T", [(0.5, 1.0), (5.0, 2.0), (45.0, 1.0)])
    def test_far_values_match_band_quadrature(self, c, T):
        # beyond Omega |t| = K the values come from spherical Bessel functions;
        # both sides of that switch against a band rule that resolves every t
        b = build_basis(SlepianParams(c, T=T))
        t = np.linspace(-40.0 * T, 40.0 * T, 801)
        x, w = np.polynomial.legendre.leggauss(math.ceil(41.0 * c) + 200)
        om = b.params.omega
        psi_hat = oracles.band_transforms(b.params, b.n_modes, om * x)
        psi_hat *= (om * w / (2.0 * math.pi))[:, None]
        want = (psi_hat.T @ np.exp(1j * om * np.outer(x, t))).real
        assert np.max(np.abs(extension_matrix(b, t) - want)) < 1e-11

    @pytest.mark.parametrize("c, n_max", [(0.1, None), (5.0, None), (45.0, None),
                                          (150.0, None), (5.0, 400)])
    def test_values_across_the_reach_match_band_quadrature(self, c, n_max):
        # the band rule's rows serve |t| up to its reach n_w / Omega and the
        # Bessel terms beyond: times on both sides of the switch, against a
        # band rule that resolves every t.  Measured at most 5.8e-12 (c = 150)
        b = build_basis(SlepianParams(c), n_max=n_max)
        reach, om = b._band_rule[2], b.params.omega
        t = np.array([-1.01, -1.0, 1.0, 1.01]) * reach
        x, w = np.polynomial.legendre.leggauss(math.ceil(1.2 * om * reach) + b._beta.shape[1]
                                               + 200)
        psi_hat = oracles.band_transforms(b.params, b.n_modes, om * x)
        psi_hat *= (om * w / (2.0 * math.pi))[:, None]
        want = (psi_hat.T @ np.exp(1j * om * np.outer(x, t))).real
        assert np.max(np.abs(extension_matrix(b, t) - want)) < 1e-11

    @pytest.mark.parametrize("c", [0.5, 5.0, 20.0, 45.0])
    @pytest.mark.parametrize("block_bytes", [1, 8 * 200 * 7, 8 * 1000 * 64])
    def test_blocked_times_match_one_block(self, monkeypatch, c, block_bytes):
        # near and far times split across blocks of 1 to about 600 times;
        # the products differ from the one-block run only in the matmul's
        # rounding, measured at most 8.4e-16 of the largest value
        b = build_basis(SlepianParams(c))
        t = np.concatenate([np.linspace(-3.0, 3.0, 601), np.linspace(-80.0, 80.0, 1001)])
        one = extension_matrix(b, t)
        monkeypatch.setattr(basis_module, "_BLOCK_BYTES", block_bytes)
        blocked = extension_matrix(b, t)
        assert blocked.shape == one.shape
        assert np.max(np.abs(blocked - one)) <= 1e-14 * np.max(np.abs(one))

    def test_long_grid_memory_is_bounded(self):
        # hg-compare --c 20 --t-grid=-3:3:1e-5: one block would hold two
        # 104 x 600001 tables of 476 MiB; blocked it peaked at 37.6 MiB
        b = build_basis(SlepianParams(20.0), n_max=max(4, plunge_index(20.0) + 2))
        t = np.linspace(-3.0, 3.0, 600001)
        tracemalloc.start()
        try:
            vals = eval_psi(b, 2, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        step = 1000  # every 1000th time, one block
        assert np.max(np.abs(vals[::step] - eval_psi(b, 2, t[::step]))) <= 1e-14

    @pytest.mark.parametrize("c", [5.0, 20.0, 25.0, 50.0, 100.0])
    def test_parity_residual_through_the_cluster(self, c):
        # modes inside the cluster at 1 keep their parity
        b = build_basis(SlepianParams(c))
        t = np.linspace(-1.0, 1.0, 201)
        for n in range(6):
            vals = eval_psi(b, n, t)
            residual = np.max(np.abs(vals - (-1) ** n * vals[::-1])) / np.max(np.abs(vals))
            assert residual < 1e-12, (n, residual)


class TestHighPrecisionOracle:
    """lambda_n and window modes against ``oracles.mp_prolate``."""

    @pytest.mark.parametrize("c, n_modes", [(0.5, 19), (5.0, 36), (20.0, 56)])
    def test_lambdas_down_to_1e60(self, c, n_modes):
        want, _ = oracles.mp_prolate(c, n_modes)
        got = build_basis(SlepianParams(c), n_max=n_modes - 1).lambdas
        assert want[-1] < 1e-60
        deep = want >= 1e-60
        assert np.max(np.abs(got[deep] - want[deep]) / want[deep]) < 1e-10
        cluster = want > 0.5
        assert np.all(np.abs(got[cluster] - np.minimum(want[cluster], 1.0)) < 1e-14)

    @pytest.mark.parametrize("c", [45.0, 100.0])
    def test_cluster_lambdas(self, c):
        n_modes = plunge_index(c) + 4
        want, _ = oracles.mp_prolate(c, n_modes)
        got = build_basis(SlepianParams(c), n_max=n_modes - 1).lambdas
        assert np.max(np.abs(got - np.minimum(want, 1.0))) < 1e-14
        assert np.all(got < 1.0) and np.all(np.diff(got) <= 0.0)

    def test_window_samples_near_the_floor(self):
        # lambda_8..lambda_11 run from 1.6e-7 down to 6.3e-13; the oracle's
        # coefficients beyond the basis's Legendre range are below 3e-49
        _, coeffs = oracles.mp_prolate(5.0, 36)
        b = build_basis(SlepianParams(5.0), n_max=11)
        size = b._beta.shape[1]
        assert np.max(np.abs(coeffs[8:12, size:])) < 3e-49
        assert np.max(np.abs(b._beta[8:12] - coeffs[8:12, :size])) <= 1e-14


class TestBandEnergy:
    @pytest.mark.parametrize("c, n_max", [(5.0, 64), (100.0, 260)])
    def test_rows_sum_to_band_energy(self, c, n_max):
        # every mode, below the floor too: the band transforms must carry no
        # eps / sqrt(lambda_n) rounding
        sigma = default_psf_sigma(c)
        b = build_basis(SlepianParams(c), n_max=n_max)
        psf = GaussianPsf(sigma)
        rows = project(lambda t: psf(t - 1.5), b)
        assert abs(np.dot(rows, rows) - special.erf(math.sqrt(2.0) * sigma * c)) < 1e-13


class TestWholeLineOrthogonality:
    def test_orthonormal_over_real_line(self, basis_cache):
        b = basis_cache(2.0, plunge_index(2.0) + 4)
        n_modes = b.n_max + 1
        for n in range(n_modes):
            for m in range(n, n_modes):
                val = oracles.whole_line_inner(b, n, m)
                assert abs(val - (1.0 if n == m else 0.0)) < 6e-10


class TestScaleInvariance:
    def test_lambda_and_mode_rescaling(self):
        b1 = build_basis(SlepianParams(5.0, T=1.0), n_max=6)
        b2 = build_basis(SlepianParams(5.0, T=2.0), n_max=6)
        assert np.max(np.abs(b1.lambdas - b2.lambdas)) < 1e-12
        t = np.linspace(-2.5, 2.5, 41)
        for n in range(7):
            lhs = eval_psi(b2, n, t)
            rhs = eval_psi(b1, n, t / 2.0) / math.sqrt(2.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPlungeIndex:
    def test_values(self):
        assert plunge_index(5.0) == 4
        assert plunge_index(5 * math.pi / 2) == 5
        assert plunge_index(math.pi / 2) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            plunge_index(0.0)


class TestSpectrumShape:
    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_plunge_profile(self, basis_cache, k):
        c = k * math.pi / 2.0
        b = basis_cache(c, k + 6)
        lam = b.lambdas
        assert np.all(lam[: k - 3] > 0.9)
        assert np.all(lam[k + 4:] < 0.1)
        last_above = int(np.max(np.nonzero(lam > 0.9)[0]))
        first_below = int(np.min(np.nonzero(lam < 0.1)[0]))
        assert first_below - last_above <= 6


class TestLambda0Curve:
    def test_monotone_and_saturating(self):
        table = lambda0_curve([1.0, 2.0, 5.0, 10.0, 20.0])
        lam0 = table[:, 1]
        assert np.all(np.diff(lam0) >= 0.0)
        assert np.all((lam0 > 0.0) & (lam0 < 1.0))
        assert lam0[2] == pytest.approx(0.999, abs=2e-3)
        assert 1.0 - lam0[-1] < 1e-6
        dense = oracles.dense_nystrom_lambdas(20.0, order=800, n_top=1)[0]
        assert abs(lam0[-1] - min(dense, np.nextafter(1.0, 0.0))) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lambda0_curve([])
