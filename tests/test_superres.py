import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from prolate import (GaussianPsf, IdentifiabilityError, MeasurementDesign, PovmValidityError,
                     ProbeState, QuadratureError, RankDeficiencyError, SingularFisherError,
                     SlepianParams, TwoPulseModel, build_basis, crb,
                     default_psf_sigma, design_from_sphere, efficiency_bounds,
                     efficiency_factor, fisher_matrix, gamma_modes,
                     gram_schmidt, hg_eval, optimal_povm, probabilities_ideal,
                     probabilities_limited, probe_from_model, project,
                     superres_fisher, time_limited_design)
import prolate.superres as superres
from prolate.quadrature import real_line_rule
from prolate.superres import DerivativeBasis

import oracles


@pytest.fixture(scope="module")
def b5():
    return build_basis(SlepianParams(5.0), n_max=None)


@pytest.fixture(scope="module")
def model5(b5):
    return TwoPulseModel(GaussianPsf(default_psf_sigma(5.0)),
                         tau=default_psf_sigma(5.0), tau0=0.0, nu=0.5)


@pytest.fixture(scope="module")
def dbasis5(model5, b5):
    return gram_schmidt(gamma_modes(model5, b5))


def sample_design(row2=(0.55, 0.55, 0.0, 0.0)):
    return design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2, row2=row2)


class PlainGaussian:
    """The unit-norm Gaussian as a user-written callable, not the library's GaussianPsf."""

    def __init__(self, sigma):
        self.sigma = sigma

    def __call__(self, t):
        s2 = self.sigma ** 2
        return (2.0 * math.pi * s2) ** -0.25 * np.exp(-np.asarray(t, float) ** 2 / (4.0 * s2))


class SechPsf:
    """Unit-norm sech(t/a)/sqrt(2a) with closed-form derivatives up to order 3."""

    def __init__(self, a):
        self.a = a

    def __call__(self, t):
        return 1.0 / (math.sqrt(2.0 * self.a) * np.cosh(np.asarray(t, float) / self.a))

    def derivative(self, n):
        # with S = sech x and T = tanh x, the derivatives of S of orders 1..3
        # are -S T, S (2 T^2 - 1) and S T (5 - 6 T^2)
        poly = {0: lambda x: 1.0, 1: lambda x: -x, 2: lambda x: 2 * x * x - 1,
                3: lambda x: x * (5 - 6 * x * x)}[n]
        return lambda t: self(t) * poly(np.tanh(np.asarray(t, float) / self.a)) / self.a ** n


class ExactGaussian(PlainGaussian):
    """The unit-norm Gaussian with closed-form derivatives of every order."""

    def derivative(self, n):
        # d^n/dt^n exp(-x^2) with x = t / (2 sigma) is (-1 / (2 sigma))^n H_n(x) exp(-x^2)
        return lambda t: ((-0.5 / self.sigma) ** n * self(t)
                          * special.eval_hermite(n, np.asarray(t, float) / (2.0 * self.sigma)))


def plain(psf):
    """The pulse as a bare callable, without its derivative method."""
    return lambda t: psf(t)


def row_errors(want, got):
    return np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)


def derivative_projections(psf, tau0, basis):
    """project(psf.derivative(n)) of the shifted pulse, one projection per order."""
    return np.vstack([project(lambda t, _n=n: psf.derivative(_n)(t - tau0), basis)
                      for n in range(4)])


class TestGaussianPsf:
    def test_unit_norm(self):
        psf = GaussianPsf(0.7)
        rule = real_line_rule(psf, 1.0, max_freq=2.0 * math.pi)
        assert rule.total_energy == pytest.approx(1.0, abs=1e-12)

    def test_second_derivative_closed_form(self):
        psf = ExactGaussian(0.5)
        t = np.linspace(-2.0, 2.0, 41)
        assert np.allclose(psf(t), GaussianPsf(0.5)(t), rtol=1e-14, atol=0.0)
        assert np.allclose(psf.derivative(2)(t),
                           oracles.gaussian_second_derivative(t, 0.5), atol=1e-12)

    def test_overlap_closed_form(self):
        sigma, tau = 0.4, 0.3
        psf = GaussianPsf(sigma)
        rule = real_line_rule(lambda t: psf(t - tau / 2) * psf(t + tau / 2), 1.0,
                              max_freq=2.0 * math.pi)
        assert np.dot(rule.weights, rule.values) == pytest.approx(
            oracles.gaussian_overlap(tau, sigma), rel=1e-12)


class TestProbeFromModel:
    def test_zero_separation_pure(self, b5):
        model = TwoPulseModel(GaussianPsf(0.5), tau=0.0, tau0=0.1, nu=0.3)
        probe = probe_from_model(model, b5)
        assert np.max(np.abs(probe.modes[0] - probe.modes[1])) < 1e-12

    def test_full_weight_single_component(self, b5, model5):
        probe = probe_from_model(replace(model5, nu=1.0), b5)
        assert probe.weights == pytest.approx([1.0, 0.0])

    def test_coefficient_overlap_matches_gaussian_formula(self):
        # band truncation is negligible at c=10, so the coefficient inner
        # product reproduces the continuum overlap
        b = build_basis(SlepianParams(10.0), n_max=None)
        sigma = default_psf_sigma(10.0)
        tau = 0.5 * sigma
        probe = probe_from_model(TwoPulseModel(GaussianPsf(sigma), tau=tau), b)
        got = float(np.dot(probe.modes[0], probe.modes[1]))
        assert got == pytest.approx(oracles.gaussian_overlap(tau, sigma), abs=1e-6)

    @pytest.mark.parametrize("c", [2.5, 5.0, 12.0, 20.0, 45.0])
    def test_rows_match_closed_form_transform(self, basis_cache, c):
        # projections and probe rows of shifted pulses; the oracle's default
        # band rule adds its own error of about 1e-10 at c = 45 and shift 1.5
        b = basis_cache(c)
        sigma = default_psf_sigma(c)
        for psf, g_hat in ((GaussianPsf(sigma), oracles.gaussian_transform(sigma)),
                           (SechPsf(sigma), oracles.sech_transform(sigma))):
            for s in (0.0, 0.35, -0.8, 1.5):
                probe = probe_from_model(TwoPulseModel(psf, tau=0.3, tau0=s - 0.15), b)
                rows = ((project(lambda t: psf(t - s), b), s),
                        (probe.modes[0], s), (probe.modes[1], s - 0.3))
                for got, shift in rows:
                    want = oracles.transform_rows(b, g_hat, shift, n_derivs=0,
                                                  n_omega=4000 if shift else None)
                    assert row_errors(want, got[None, :])[0] <= 1e-10, \
                        (c, type(psf).__name__, shift)

    def test_rows_at_their_rounding_floor_refused(self, basis_cache):
        # at c = 45 the pulses at 3 +/- 0.05, inside the reach 4.07, have rows
        # of about 3e-15 whose rounding floor is 9.2e-2 of their norm; there
        # superres_fisher returned an all-zero matrix, every outcome excluded
        b = basis_cache(45.0)
        far = TwoPulseModel(GaussianPsf(default_psf_sigma(45.0)), tau=0.1, tau0=3.0)
        centred = replace(far, tau0=0.0)
        povm = optimal_povm(sample_design(), gram_schmidt(gamma_modes(centred, b)))
        for call in (lambda: probe_from_model(far, b),
                     lambda: superres_fisher(far, povm, b, "limited"),
                     lambda: superres_fisher(far, povm, b, "ideal")):
            with pytest.raises(QuadratureError, match=r"order 0 at shift 3.05 is below "
                                                      r"1e\+12 times its rounding floor") as err:
                call()
            assert 0.05 < err.value.achieved < 0.2

    @pytest.mark.parametrize("c", [20.0, 45.0])
    def test_accepted_rows_clear_of_their_rounding_floor(self, basis_cache, c):
        # every probe row accepted out to the reach is within 1e-8 of the
        # oracle, as for gamma_modes; the outer centroids are refused
        b = basis_cache(c)
        sigma = default_psf_sigma(c)
        g_hat = oracles.gaussian_transform(sigma)
        refused = 0
        for tau0 in np.linspace(0.0, b._band_rule[2] - 0.05, 9):
            try:
                probe = probe_from_model(TwoPulseModel(GaussianPsf(sigma), tau=0.1,
                                                       tau0=tau0), b)
            except QuadratureError:
                refused += 1
                continue
            want = np.vstack([oracles.transform_rows(b, g_hat, tau0=s, n_derivs=0,
                                                     n_omega=2000)
                              for s in (tau0 + 0.05, tau0 - 0.05)])
            assert np.max(row_errors(want, probe.modes)) <= 1e-8, tau0
        assert 0 < refused < 9

    def test_rejects_unnormalized_generic_psf(self, b5):
        bad = lambda t: 2.0 * GaussianPsf(0.5)(t)
        with pytest.raises(ValueError):
            probe_from_model(TwoPulseModel(bad, tau=0.2), b5)

    def test_unit_norm_bound(self, b5, basis_cache):
        # at c = 5 a Gaussian of a 40th of the default width samples to
        # |energy - 1| = 4.9e-7, and its rows are about 1e-8 off
        narrow = GaussianPsf(default_psf_sigma(5.0) / 40.0)
        with pytest.raises(ValueError, match="not unit-norm"):
            probe_from_model(TwoPulseModel(narrow, tau=0.2), b5)
        for c in (1.2, 5.0, 20.0, 45.0, 150.0):
            psf = GaussianPsf(default_psf_sigma(c))
            probe_from_model(TwoPulseModel(psf, tau=0.2, tau0=0.05), basis_cache(c))
        for c in (2.5, 6.0):
            psf = SechPsf(default_psf_sigma(c))
            probe_from_model(TwoPulseModel(psf, tau=0.2, tau0=0.05), basis_cache(c))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            TwoPulseModel(GaussianPsf(0.5), tau=-0.1)
        with pytest.raises(ValueError):
            TwoPulseModel(GaussianPsf(0.5), tau=0.1, nu=1.5)


class TestGammaModes:
    def test_zeroth_is_shifted_psf(self, b5, model5):
        db = gamma_modes(model5, b5)
        direct = project(lambda t: model5.psf(t - model5.tau0), b5)
        assert np.max(np.abs(db.gamma[0] - direct)) < 1e-10

    def test_first_derivative_orthogonal_to_zeroth(self, b5, model5):
        db = gamma_modes(model5, b5)
        g0, g1 = db.gamma[0], db.gamma[1]
        cosang = abs(np.dot(g0, g1)) / (np.linalg.norm(g0) * np.linalg.norm(g1))
        assert cosang < 1e-8

    def test_heavy_tail_raises_the_same_error_on_both_routes(self, b5):
        lorentzian = lambda t: 1.0 / (1.0 + np.asarray(t, float) ** 2)
        for call in (lambda: gamma_modes(TwoPulseModel(lorentzian, tau=0.2), b5),
                     lambda: project(lorentzian, b5)):
            with pytest.raises(QuadratureError) as err:
                call()
            assert err.value.achieved is not None and err.value.achieved > 0.0
            assert "bandlimited" not in str(err.value)

    def test_generic_route_matches_analytic(self, basis_cache):
        # one sampling of the pulse against four projections of its exact derivatives
        for c in (1.2, 2.5, 5.0, 12.0, 20.0, 45.0):
            b = basis_cache(c)
            sigma = default_psf_sigma(c)
            centred = gamma_modes(TwoPulseModel(PlainGaussian(sigma), tau=0.3), b)
            assert np.array_equal(centred.gamma[0], project(PlainGaussian(sigma), b))
            # tau0 is a phase of the centred sampling, where project samples
            # the shifted pulse: measured at most 2.2e-14 apart
            generic = gamma_modes(TwoPulseModel(PlainGaussian(sigma), tau=0.3, tau0=0.1), b)
            shifted = project(lambda t: PlainGaussian(sigma)(t - 0.1), b)
            assert row_errors(shifted[None, :], generic.gamma[:1])[0] <= 1e-13, c
            exact = derivative_projections(ExactGaussian(sigma), 0.1, b)
            assert np.max(row_errors(exact, generic.gamma)) < 1e-10, c

    def test_sech_routes_agree(self, basis_cache):
        for c in (2.5, 6.0):
            b = basis_cache(c)
            psf = SechPsf(default_psf_sigma(c))
            t = np.linspace(-1.0, 1.0, 9)
            h = 1e-5
            for n in (1, 2, 3):  # the closed forms themselves, by central differences
                fd = (psf.derivative(n - 1)(t + h) - psf.derivative(n - 1)(t - h)) / (2 * h)
                assert np.allclose(psf.derivative(n)(t), fd, rtol=1e-6, atol=1e-6)
            got = gamma_modes(TwoPulseModel(psf, tau=0.2, tau0=-0.05), b).gamma
            # the derivative method is never consulted
            plain_rows = gamma_modes(TwoPulseModel(plain(psf), tau=0.2, tau0=-0.05), b).gamma
            assert np.array_equal(got, plain_rows)
            exact = derivative_projections(psf, -0.05, b)
            assert np.max(row_errors(exact, got)) < 1e-10, c

    @pytest.mark.parametrize("c", [1.2, 5.0, 20.0, 45.0, 100.0])
    def test_rows_match_closed_form_transform(self, basis_cache, c):
        b = basis_cache(c)
        sigma = default_psf_sigma(c)
        want = oracles.transform_rows(b, oracles.gaussian_transform(sigma), tau0=0.1)
        got = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3, tau0=0.1), b).gamma
        assert np.max(row_errors(want, got)) <= 1e-10, c

    @pytest.mark.parametrize("n_max", [60, 120, 200])
    def test_explicit_n_max_rows_match_closed_form(self, n_max):
        # the band rule holds at least the modes' Legendre terms; on the 64
        # nodes of the automatic c = 5 basis the modes above about 100 were off
        # by up to 4.6.  Measured 3.7e-13 of the largest entry
        b = build_basis(SlepianParams(5.0), n_max=n_max)
        sigma = default_psf_sigma(5.0)
        for tau0 in (0.0, 3.0):
            got = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3, tau0=tau0), b).gamma
            want = oracles.transform_rows(b, oracles.gaussian_transform(sigma), tau0=tau0,
                                          n_omega=2000)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), tau0

    def test_rows_at_their_rounding_floor_refused(self, basis_cache):
        # at c = 45 the pulse centred at 3, inside the reach 4.07, has rows of
        # about 5e-16, wrong by up to 2e2 relative: its rounding floor is 8.9e-2
        # of row 0's norm
        psf = GaussianPsf(default_psf_sigma(45.0))
        with pytest.raises(QuadratureError, match="rounding floor") as err:
            gamma_modes(TwoPulseModel(psf, tau=0.1, tau0=3.0), basis_cache(45.0))
        assert 0.05 < err.value.achieved < 0.2

    @pytest.mark.parametrize("c", [5.0, 20.0, 45.0])
    def test_accepted_rows_clear_of_their_rounding_floor(self, basis_cache, c):
        # rows were off by up to 1e4 times floor / norm, so every row
        # gamma_modes accepts is within 1e-8 of the oracle; scanned out to the
        # reach, where c = 20 and 45 refuse
        b = basis_cache(c)
        sigma = default_psf_sigma(c)
        refused = 0
        for tau0 in np.linspace(0.0, b._band_rule[2], 9):
            try:
                got = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.1, tau0=tau0), b).gamma
            except QuadratureError:
                refused += 1
                continue
            want = oracles.transform_rows(b, oracles.gaussian_transform(sigma), tau0=tau0,
                                          n_omega=2000)
            assert np.max(row_errors(want, got)) <= 1e-8, tau0
        assert (refused > 0) == (c > 5.0)

    def test_former_step_size_failures_run_through(self, basis_cache):
        # a fixed finite-difference step of T/50 could not resolve these widths;
        # GaussianPsf's sigma sets the default tau_floor, the sech pulse passes one
        design = sample_design()
        for c, psf, floor in ((10.0, GaussianPsf(default_psf_sigma(10.0)), None),
                              (6.0, plain(SechPsf(default_psf_sigma(6.0))),
                               1e-4 * default_psf_sigma(6.0))):
            b = basis_cache(c)
            model = TwoPulseModel(psf, tau=0.2)
            povm = optimal_povm(design, gram_schmidt(gamma_modes(model, b)))
            fm = superres_fisher(model, povm, b, "limited", tau_floor=floor)
            assert np.all(np.isfinite(fm.matrix)), c
            assert np.all(np.diag(fm.matrix) > 0.0), c


class TestGramSchmidt:
    def test_orthonormal_output(self, dbasis5):
        gram = dbasis5.phi @ dbasis5.phi.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8

    def test_triangular_positive_diagonal(self, dbasis5):
        # phi @ gamma^T is R: row k of phi mixes gamma rows 0..k only
        r = dbasis5.phi @ dbasis5.gamma.T
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-15 * np.max(np.abs(r))
        assert np.all(np.diag(r) > 0.0)
        assert np.allclose(dbasis5.gamma, np.triu(r).T @ dbasis5.phi, atol=1e-12)

    def test_orthonormal_input_is_fixed_point(self, b5, dbasis5):
        again = gram_schmidt(DerivativeBasis(params=b5.params, gamma=dbasis5.phi))
        assert np.max(np.abs(again.phi @ dbasis5.phi.T - np.eye(4))) < 1e-8
        assert np.max(np.abs(again.phi - dbasis5.phi)) < 1e-8

    def test_rank_deficiency_reported(self, b5, dbasis5):
        def orthonormalize(gamma):
            return gram_schmidt(DerivativeBasis(params=b5.params, gamma=gamma))

        # a repeated row, and a zero row, are named by their index
        for k in (1, 2, 3):
            for j in range(k):
                gamma = dbasis5.gamma.copy()
                gamma[k] = gamma[j]
                with pytest.raises(RankDeficiencyError, match=f"row {k} lies in the span") as err:
                    orthonormalize(gamma)
                assert err.value.index == k
            gamma = dbasis5.gamma.copy()
            gamma[k] = 0.0
            with pytest.raises(RankDeficiencyError, match="zero derivative row") as err:
                orthonormalize(gamma)
            assert err.value.index == k
        with pytest.raises(RankDeficiencyError, match="4 derivative rows .* 3 coefficient"):
            orthonormalize(dbasis5.gamma[:, :3])
        # rows 1 and 2 each keep 1e-8 of their norm outside the previous rows:
        # each passes the row test, their product fails the determinant
        gamma = dbasis5.gamma.copy()
        size = 1e-4 * np.linalg.norm(gamma[0])
        gamma[1], gamma[2] = gamma[0] + size * dbasis5.phi[1], gamma[0] + size * dbasis5.phi[2]
        with pytest.raises(RankDeficiencyError, match="Gram determinant") as err:
            orthonormalize(gamma)
        assert err.value.index is None

    @pytest.mark.parametrize("c", [1.2, 2.5, 5.0, 20.0, 45.0])
    def test_matches_modified_gram_schmidt(self, basis_cache, c):
        sigma = default_psf_sigma(c)
        db = gram_schmidt(gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=sigma), basis_cache(c)))
        phi, r = oracles.modified_gram_schmidt(db.gamma)
        assert np.max(np.abs(db.phi - phi)) <= 1e-13
        assert np.max(np.abs(db.phi @ db.gamma.T - r)) <= 1e-13 * np.max(np.abs(r))

    def test_matches_hg_projections_at_large_c(self):
        # Gram-Schmidt of Gaussian derivatives reproduces the Hermite-Gauss
        # family up to the (-1)^n sign forced by the positive diagonal
        c = 20.0
        b = build_basis(SlepianParams(c), n_max=None)
        sigma = 1.0 / math.sqrt(2.0 * c)
        db = gram_schmidt(gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.1), b))
        for n in range(4):
            hg = project(lambda t: hg_eval(n, c, t), b)
            dist = np.linalg.norm(db.phi[n] - (-1.0) ** n * hg)
            assert dist < 1e-5


class TestMeasurementDesign:
    def test_sphere_efficiency_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            r1, r2 = rng.uniform(0.05, 1.0, 2)
            phi1, phi2 = rng.uniform(0.06, math.pi / 2 - 0.06, 2) + rng.integers(0, 4, 2) * math.pi / 2
            d = design_from_sphere(r1, phi1, r2, phi2)
            expect = r2 ** 2 * math.sin(phi1 - phi2) ** 2
            assert efficiency_factor(d) == pytest.approx(expect, abs=1e-12)

    def test_sine_extremes(self):
        d = design_from_sphere(1.0, 0.3, 1.0, 0.3 - math.pi / 2)
        assert efficiency_factor(d) == pytest.approx(1.0, rel=1e-12)
        d = design_from_sphere(1.0, 0.3, 0.5, 0.3)
        assert efficiency_factor(d) == pytest.approx(0.0, abs=1e-25)

    def test_unit_efficiency_direct(self):
        c = np.zeros((3, 4))
        c[0, 1], c[1, 1] = 1.0, 0.0
        c[0, 2], c[1, 2] = 0.0, 1.0
        assert efficiency_factor(MeasurementDesign(c)) == pytest.approx(1.0, rel=1e-15)

    def test_scaling_quadratic(self):
        d = sample_design()
        c2 = d.C.copy()
        c2[:, 2] *= 2.0
        assert efficiency_factor(MeasurementDesign(c2)) == pytest.approx(
            4.0 * efficiency_factor(d), rel=1e-12)

    def test_lattice_angles_rejected(self):
        for phi in (0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi):
            with pytest.raises(ValueError):
                design_from_sphere(1.0, phi, 1.0, 0.3)
        with pytest.raises(ValueError):
            design_from_sphere(0.0, 0.3, 1.0, 0.4)


class TestOptimalPovm:
    def test_partial_isometry_for_orthonormal_rows(self, dbasis5):
        c = np.zeros((3, 4))
        c[0, 1] = c[1, 2] = c[2, 0] = 1.0
        povm = optimal_povm(MeasurementDesign(c), dbasis5)
        evals = np.linalg.eigvalsh(povm.vectors.T @ povm.vectors)
        on_or_off = np.minimum(np.abs(evals), np.abs(evals - 1.0))
        assert np.max(on_or_off) < 1e-10

    def test_scaled_design_fails_validity(self, dbasis5):
        d = sample_design()
        with pytest.raises(PovmValidityError, match="exceed the identity") as err:
            optimal_povm(MeasurementDesign(2.0 * d.C), dbasis5)
        assert err.value.top_eigenvalue > 1.0
        # the direction is the top eigenvector of C^T C, taken into coefficients
        _, evecs = np.linalg.eigh(4.0 * d.C.T @ d.C)
        direction = evecs[:, -1] @ dbasis5.phi
        assert abs(np.dot(err.value.eigenvector, direction)) == pytest.approx(1.0, rel=1e-12)

    def test_pure_state_reduction(self, b5, dbasis5):
        # at tau = 0 the state is pure: p_j = |<pi_j|Psi_0>|^2 whatever nu is
        povm = optimal_povm(sample_design(), dbasis5)
        p = []
        for nu in (0.25, 0.75):
            model = TwoPulseModel(GaussianPsf(default_psf_sigma(5.0)),
                                  tau=0.0, tau0=0.0, nu=nu)
            probe = probe_from_model(model, b5)
            p.append(probabilities_ideal(probe, povm))
        assert np.max(np.abs(p[0] - p[1])) < 1e-12
        mode = probe_from_model(TwoPulseModel(GaussianPsf(default_psf_sigma(5.0)),
                                              tau=0.0), b5).modes[0]
        direct = [float(np.dot(v, mode)) ** 2 for v in povm.vectors]
        assert np.max(np.abs(np.array(direct) - p[0][:3])) < 1e-12


class TestTimeLimitedDesign:
    def test_unit_eigenvalues_identity(self, b5, dbasis5):
        d = sample_design()
        fake = replace(b5, lambdas=np.ones_like(b5.lambdas))
        tl = time_limited_design(d, dbasis5, fake)
        assert np.max(np.abs(tl.C - d.C)) < 1e-12

    def test_large_c_recovers_design(self):
        c = 30.0
        b = build_basis(SlepianParams(c), n_max=None)
        model = TwoPulseModel(GaussianPsf(default_psf_sigma(c)), tau=0.1)
        db = gram_schmidt(gamma_modes(model, b))
        d = sample_design()
        tl = time_limited_design(d, db, b)
        assert np.max(np.abs(tl.C - d.C)) < 1e-4

    def test_column_norm_bounded_by_window_energy(self, b5, dbasis5):
        rng = np.random.default_rng(3)
        lam = b5.lambdas[: dbasis5.phi.shape[1]]
        phi1_window = float(np.dot(dbasis5.phi[1] ** 2, lam))
        for _ in range(50):
            r1, r2 = rng.uniform(0.05, 0.7, 2)
            phi1, phi2 = rng.uniform(0.06, math.pi / 2 - 0.06, 2)
            d = design_from_sphere(r1, phi1, r2, phi2)
            tl = time_limited_design(d, dbasis5, b5)
            assert tl.C[0, 1] ** 2 + tl.C[1, 1] ** 2 <= phi1_window + 1e-12


class TestEfficiencyBounds:
    def test_bound_ordering_and_paley_wiener_gap(self, b5, dbasis5):
        bound_phi2, bound_lambda0 = efficiency_bounds(dbasis5, b5)
        assert bound_phi2 <= bound_lambda0 + 1e-12
        assert bound_phi2 < 1.0
        # a derivative-built second mode is far from the top concentrator
        assert bound_phi2 < bound_lambda0 - 0.1
        assert bound_lambda0 == pytest.approx(b5.lambdas[0], rel=1e-15)

    def test_saturation_when_phi2_is_psi0(self, b5):
        m = b5.n_modes
        phi = np.zeros((4, m))
        phi[0, 1] = phi[1, 2] = phi[3, 3] = 1.0
        phi[2, 0] = 1.0  # second orthonormal mode aligned with psi_0
        db = DerivativeBasis(params=b5.params, gamma=phi, phi=phi)
        bound_phi2, bound_lambda0 = efficiency_bounds(db, b5)
        assert bound_phi2 == pytest.approx(bound_lambda0, rel=1e-15)

    def test_monotone_recovery_in_c(self):
        d = sample_design()
        previous_a, previous_l0 = -1.0, -1.0
        for c in (1.0, 2.0, 5.0, 10.0, 20.0):
            b = build_basis(SlepianParams(c), n_max=None)
            model = TwoPulseModel(GaussianPsf(default_psf_sigma(c)), tau=0.1)
            db = gram_schmidt(gamma_modes(model, b))
            a_lim = efficiency_factor(time_limited_design(d, db, b))
            _, l0 = efficiency_bounds(db, b)
            assert a_lim > previous_a and l0 > previous_l0
            previous_a, previous_l0 = a_lim, l0


class TestSuperresFisher:
    def test_well_posed_point(self, b5, model5, dbasis5):
        povm = optimal_povm(sample_design(), dbasis5)
        fm = superres_fisher(model5, povm, b5, "limited")
        assert np.max(np.abs(fm.matrix - fm.matrix.T)) < 1e-9
        evals = np.linalg.eigvalsh(fm.matrix)
        assert evals[0] > -1e-9
        assert fm.matrix[0, 0] > 0.0
        assert fm.labels == ("tau", "tau0", "nu")

    def test_limits_reduce_separation_information(self):
        c = 2.0
        b = build_basis(SlepianParams(c), n_max=None)
        sigma = default_psf_sigma(c)
        model = TwoPulseModel(GaussianPsf(sigma), tau=sigma, tau0=0.0, nu=0.5)
        db = gram_schmidt(gamma_modes(model, b))
        povm = optimal_povm(sample_design(), db)
        f_lim = superres_fisher(model, povm, b, "limited")
        f_ideal = superres_fisher(model, povm, b, "ideal")
        assert f_lim.matrix[0, 0] < f_ideal.matrix[0, 0]

    def test_tau_floor_refused(self, b5, model5, dbasis5):
        povm = optimal_povm(sample_design(), dbasis5)
        tiny = replace(model5, tau=1e-5 * model5.psf.sigma)
        with pytest.raises(IdentifiabilityError):
            superres_fisher(tiny, povm, b5, "ideal")

    @pytest.mark.parametrize("nu", [0.0, 1e-5, 1.0 - 1e-5, 1.0])
    def test_nu_within_step_of_boundary_refused(self, b5, model5, dbasis5,
                                                monkeypatch, nu):
        # the steps in nu are 1e-5 * (1 + nu); refused before the pulse is sampled
        povm = optimal_povm(sample_design(), dbasis5)

        def no_sampling(*args, **kwargs):
            raise AssertionError("pulse sampled")

        monkeypatch.setattr(superres, "_sampled_pulse", no_sampling)
        with pytest.raises(IdentifiabilityError, match="nu = .* Fisher step"):
            superres_fisher(replace(model5, nu=nu), povm, b5, "limited")

    @pytest.mark.parametrize("tau", [0.0, 4e-6, 9e-6])
    def test_tau_within_step_of_zero_refused(self, b5, model5, dbasis5, monkeypatch, tau):
        # the step in tau is 1e-5 * (1 + tau); refused before the pulse is
        # sampled, also where tau passes the floor
        povm = optimal_povm(sample_design(), dbasis5)

        def no_sampling(*args, **kwargs):
            raise AssertionError("pulse sampled")

        monkeypatch.setattr(superres, "_sampled_pulse", no_sampling)
        with pytest.raises(IdentifiabilityError, match="tau = .* Fisher step"):
            superres_fisher(replace(model5, tau=tau), povm, b5, "limited", tau_floor=0.0)

    def test_tau_clear_of_step_accepted(self, b5, model5, dbasis5):
        povm = optimal_povm(sample_design(), dbasis5)
        fm = superres_fisher(replace(model5, tau=2e-5), povm, b5, "ideal", tau_floor=0.0)
        assert np.all(np.isfinite(fm.matrix))

    @pytest.mark.parametrize("floor", [math.nan, -1e-9, -math.inf])
    def test_nan_or_negative_tau_floor_refused(self, b5, model5, dbasis5, floor):
        # tau = 2e-5 is below the default floor 4.5e-5 at c = 5; a NaN floor
        # let it through, a zero floor lets it through on purpose
        povm = optimal_povm(sample_design(), dbasis5)
        model = replace(model5, tau=2e-5)
        with pytest.raises(IdentifiabilityError, match="below the floor"):
            superres_fisher(model, povm, b5, "ideal")
        with pytest.raises(ValueError, match="tau_floor must be >= 0"):
            superres_fisher(model, povm, b5, "ideal", tau_floor=floor)
        assert superres_fisher(model, povm, b5, "ideal", tau_floor=0.0).matrix[0, 0] > 0.0

    def test_nu_clear_of_boundary_accepted(self, b5, model5, dbasis5):
        povm = optimal_povm(sample_design(), dbasis5)
        fm = superres_fisher(replace(model5, nu=1e-3), povm, b5, "limited")
        assert np.all(np.isfinite(fm.matrix))

    def test_near_zero_separation_singular(self, b5, dbasis5):
        povm = optimal_povm(sample_design(), dbasis5)
        sigma = default_psf_sigma(5.0)
        model = TwoPulseModel(GaussianPsf(sigma), tau=1e-3 * sigma, tau0=0.0, nu=0.5)
        fm = superres_fisher(model, povm, b5, "ideal")
        with pytest.raises(SingularFisherError):
            crb(fm)

    def test_invalid_regime(self, b5, model5, dbasis5):
        povm = optimal_povm(sample_design(), dbasis5)
        with pytest.raises(ValueError):
            superres_fisher(model5, povm, b5, "windowed")

    def test_probe_decomposition_invariance(self, b5, model5, dbasis5):
        # Fisher computed from the natural two-pulse mixture and from the
        # probe's eigendecomposition agree
        povm = optimal_povm(sample_design(), dbasis5)

        def natural(theta):
            m = replace(model5, tau=float(theta[0]), tau0=float(theta[1]),
                        nu=float(theta[2]))
            return probabilities_limited(probe_from_model(m, b5), povm, b5)

        def eigen(theta):
            m = replace(model5, tau=float(theta[0]), tau0=float(theta[1]),
                        nu=float(theta[2]))
            probe = probe_from_model(m, b5)
            rho = (probe.weights[:, None, None]
                   * probe.modes[:, :, None] * probe.modes[:, None, :]).sum(0)
            evals, evecs = np.linalg.eigh(rho)
            keep = evals > 1e-14
            trace = float(np.trace(rho))
            eig_probe = ProbeState(evals[keep] / trace,
                                   evecs[:, keep].T * math.sqrt(trace))
            return probabilities_limited(eig_probe, povm, b5)

        theta0 = model5.theta
        f1 = fisher_matrix(natural, theta0)
        f2 = fisher_matrix(eigen, theta0)
        assert np.max(np.abs(f1.matrix - f2.matrix)) < 1e-8
