import math

import mpmath as mp
import numpy as np
import pytest

from prolate import (EigensolverError, SlepianParams, build_basis, eval_psi,
                     extension_matrix, lambda0_curve, plunge_index, sinc_kernel,
                     sinc_kernel_dt)
from prolate.basis import _kernel_derivatives
from prolate.quadrature import gauss_legendre

import oracles


class TestSincKernel:
    def test_diagonal_limit(self):
        assert sinc_kernel(0.3, 0.3, 5.0) == pytest.approx(5.0 / math.pi, rel=1e-15)

    def test_sine_zeros(self):
        omega = 5.0
        for k in (1, -2, 3):
            t = 0.1 + k * math.pi / omega
            assert sinc_kernel(t, 0.1, omega) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        assert sinc_kernel(0.1, 0.7, 5.0) == pytest.approx(sinc_kernel(0.7, 0.1, 5.0), rel=1e-15)

    def test_derivative_matches_difference_quotient(self):
        z = np.array([-0.4, 0.0, 0.9])
        h = 1e-6
        for t in (0.0, 0.3, 2.0):
            fd = (sinc_kernel(t + h, z, 7.0) - sinc_kernel(t - h, z, 7.0)) / (2 * h)
            assert np.allclose(sinc_kernel_dt(t, z, 7.0), fd, atol=1e-7)

    def test_derivative_small_argument_series(self):
        # leading behavior -omega^3 x / (3 pi), and no jump at the series switch
        x = np.array([1e-9, 5e-6, 2e-5, 9e-5])
        vals = sinc_kernel_dt(x, 0.0, 1.0)
        assert np.allclose(vals, -x / (3.0 * np.pi), rtol=1e-8, atol=0.0)
        # both branches agree where each is still accurate
        u = 2e-4
        exact = (u * np.cos(u) - np.sin(u)) / (np.pi * u * u)
        series = (u * (-1.0 / 3.0 + u * u / 30.0)) / np.pi
        assert exact == pytest.approx(series, rel=1e-12)
        assert sinc_kernel_dt(u, 0.0, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_derivatives_match_mpmath(self):
        # orders 1..3 against 40-digit differentiation of sin(u)/(pi u), on
        # both branches and on both sides of the switch at |u| = 1
        above = np.nextafter(1.0, 2.0)
        us = [1e-9, -1e-9, 1e-3, 0.3, 1.0, 2.0, 5.0, 50.0, 800.0, -2.0,
              above, -1.0, -above]
        got = _kernel_derivatives(np.array(us), 0.0, 1.0, 3)
        for i, u in enumerate(us):
            for n in (1, 2, 3):
                with mp.workdps(40):
                    exact = float(mp.diff(lambda x: mp.sin(x) / (mp.pi * x) if x else 1 / mp.pi,
                                          mp.mpf(u), n))
                scale = max(abs(exact), 1.0 / (1.0 + abs(u)))
                assert abs(got[n - 1, i] - exact) <= 1e-13 * scale, (u, n)
        # no jump between the last fixed-rule point and the first recurrence point
        assert np.max(np.abs(got[:, 4] - got[:, 10])) < 1e-13
        assert np.max(np.abs(got[:, 11] - got[:, 12])) < 1e-13

    def test_derivatives_scale_with_omega(self):
        # K^(n)(x) = omega^(n+1)/pi s^(n)(omega x); order 1 is sinc_kernel_dt
        x = np.linspace(-0.7, 0.9, 17)
        unit = _kernel_derivatives(3.0 * x, 0.0, 1.0, 3)
        scaled = _kernel_derivatives(x, 0.0, 3.0, 3)
        for n in (1, 2, 3):
            assert np.allclose(scaled[n - 1], 3.0 ** (n + 1) * unit[n - 1], rtol=1e-14, atol=0.0)
        assert np.array_equal(scaled[0], sinc_kernel_dt(x, 0.0, 3.0))


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
            lam = b.lambdas[b.extendable]
            assert np.all(np.diff(lam) < 0.0)
            assert np.all((lam > 0.0) & (lam < 1.0))

    def test_window_orthogonality(self, basis_cache):
        b = basis_cache(5.0, 8)
        gram = (b.samples * b.weights) @ b.samples.T
        assert np.max(np.abs(gram - np.diag(b.lambdas))) < 1e-12

    def test_rejects_unreachable_n_max(self):
        with pytest.raises(EigensolverError):
            build_basis(SlepianParams(1.0), n_max=30)

    def test_rejects_low_quad_order(self):
        with pytest.raises(ValueError):
            build_basis(SlepianParams(5.0), n_max=8, quad_order=16)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SlepianParams(-1.0)
        with pytest.raises(ValueError):
            SlepianParams(2.0, T=0.0)

    def test_large_c_saturated_cluster_builds(self):
        # eigenvalues pile up at 1 with sub-1e-12 gaps; must not trip the guard
        b = build_basis(SlepianParams(20.0), n_max=17)
        assert b.lambdas[0] < 1.0


class TestEvalPsi:
    def test_integral_equation_residual(self, basis_cache):
        t = np.linspace(-3.0, 3.0, 61)
        for c in (1.0, 5.0, 10.0):
            b = basis_cache(c)
            nodes_f, w_f = gauss_legendre(int(2.5 * b.quad_order), -1.0, 1.0)
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
        vals = extension_matrix(b, b.nodes)
        assert np.max(np.abs(vals - b.samples)) < 1e-9

    def test_rejects_subfloor_mode(self):
        # raise the floor so the last kept mode falls below it
        b = build_basis(SlepianParams(1.0), n_max=5, lambda_floor=1e-9)
        assert not b.extendable[5]
        with pytest.raises(EigensolverError):
            eval_psi(b, 5, 0.5)


class TestWholeLineOrthogonality:
    def test_orthonormal_over_real_line(self, basis_cache):
        b = basis_cache(2.0, plunge_index(2.0) + 4)
        n_modes = b.n_max + 1
        for n in range(n_modes):
            for m in range(n, n_modes):
                val = oracles.whole_line_inner(b, n, m)
                assert abs(val - (1.0 if n == m else 0.0)) < 1e-7


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
