import math

import numpy as np
import pytest

from prolate import (FisherMatrix, GaussianPsf, Povm, ProbeState,
                     PovmValidityError, SingularFisherError, SlepianParams,
                     TwoPulseModel, build_basis, crb, default_psf_sigma,
                     design_from_sphere, fisher_matrix, gamma_modes, gram_schmidt,
                     optimal_povm, plunge_index, probabilities_ideal,
                     probabilities_limited, probabilities_truncated,
                     probe_from_model, time_limit_povm)

import oracles


@pytest.fixture(scope="module")
def b5():
    return build_basis(SlepianParams(5.0), n_max=8)


def unit(i, m=9):
    v = np.zeros(m)
    v[i] = 1.0
    return v


def projector_povm(*indices, m=9):
    return Povm([unit(i, m) for i in indices])


def random_probe_povm(rng, m=9, k=2, d=3):
    rows = rng.standard_normal((k, m))
    rows /= np.linalg.norm(rows, axis=1)[:, None] * rng.uniform(1.0, 2.0, k)[:, None]
    wts = rng.uniform(0.2, 1.0, k)
    probe = ProbeState(wts / wts.sum(), rows)
    v = rng.standard_normal((d, m))
    v /= np.linalg.norm(v, axis=1)[:, None] * rng.uniform(1.0, 2.0, d)[:, None]
    top = float(np.linalg.eigvalsh(v.T @ v)[-1])
    return probe, Povm(v * math.sqrt(0.98 / top))


def top_eigenvalue(povm):
    """Largest eigenvalue of the summed monitored elements."""
    return float(np.linalg.eigvalsh(povm.vectors.T @ povm.vectors)[-1])


class TestProbabilitiesIdeal:
    def test_projection_onto_itself(self):
        probe = ProbeState([1.0], [unit(0)])
        p = probabilities_ideal(probe, projector_povm(0))
        assert p == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_orthogonal_modes(self):
        probe = ProbeState([1.0], [unit(0)])
        p = probabilities_ideal(probe, projector_povm(1))
        assert p[0] == pytest.approx(0.0, abs=1e-14)

    def test_mixture_linearity(self):
        probe = ProbeState([0.5, 0.5], [unit(0), unit(1)])
        p = probabilities_ideal(probe, projector_povm(0, 1))
        assert p == pytest.approx([0.5, 0.5, 0.0], abs=1e-14)

    def test_overcomplete_rejected(self):
        # the POVM refuses itself when built, not when first evaluated
        for scale, top in ((1.0, 2.0), (math.sqrt(0.5), 1.5)):
            with pytest.raises(PovmValidityError, match="exceed the identity") as err:
                Povm([unit(0), scale * unit(0)])
            assert err.value.top_eigenvalue == pytest.approx(top, rel=1e-14)
            direction = err.value.eigenvector
            assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-14)
            assert abs(direction[0]) == pytest.approx(1.0, rel=1e-14)
        # a partial isometry sits exactly at the identity and builds
        Povm([unit(0), unit(1)])

    def test_kernel_refusals_within_slacks(self):
        # probe rows and POVM vectors each within their own 1e-9 slack, yet
        # together past the kernel's 1e-10: the kernel keeps both refusals
        a = math.sqrt(1.0 + 5e-10)
        povm = Povm([a * unit(0), a * unit(1)])
        with pytest.raises(PovmValidityError, match=r"outside \[0, 1\]"):
            probabilities_ideal(ProbeState([1.0], [a * unit(0)]), povm)
        # each probability near 1/2, their sum near 1 + 1e-9
        probe = ProbeState([1.0], [a * (unit(0) + unit(1)) / math.sqrt(2.0)])
        with pytest.raises(PovmValidityError, match="slacks adding up"):
            probabilities_ideal(probe, povm)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ProbeState([0.7, 0.7], [unit(0), unit(1)])  # weights don't sum to 1
        with pytest.raises(ValueError):
            ProbeState([1.0], [2.0 * unit(0)])  # row norm > 1
        with pytest.raises(PovmValidityError, match="exceed the identity") as err:
            Povm([unit(0), 1.1 * unit(1)])  # element above the identity
        assert err.value.top_eigenvalue == pytest.approx(1.21, rel=1e-14)
        with pytest.raises(ValueError, match="non-empty"):
            Povm([])


class TestProbabilitiesLimited:
    def test_single_mode_damping(self, b5):
        probe = ProbeState([1.0], [unit(0)])
        p = probabilities_limited(probe, projector_povm(0), b5)
        lam0 = b5.lambdas[0]
        assert p[0] == pytest.approx(lam0 ** 2, rel=1e-14)
        assert p[1] == pytest.approx(1.0 - lam0 ** 2, rel=1e-12)

    def test_large_c_matches_ideal(self):
        b = build_basis(SlepianParams(100.0), n_max=8)
        probe = ProbeState([0.6, 0.4], [unit(0), unit(2)])
        povm = projector_povm(0, 1, 2)
        ideal = probabilities_ideal(probe, povm)
        limited = probabilities_limited(probe, povm, b)
        assert np.max(np.abs(ideal - limited)) < 1e-4

    def test_subfloor_support_suppressed(self, b5):
        probe = ProbeState([1.0], [unit(8)])
        p = probabilities_limited(probe, projector_povm(8), b5)
        assert p[0] < 1e-10  # lambda_8(5)^2 ~ 1e-14

    def test_element_wise_damping_order(self, b5):
        rng = np.random.default_rng(0)
        rows = np.abs(rng.standard_normal((2, 9)))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        probe = ProbeState([0.5, 0.5], rows)
        povm = projector_povm(0, 1, 2)
        ideal = probabilities_ideal(probe, povm)
        limited = probabilities_limited(probe, povm, b5)
        assert np.all(limited[:-1] <= ideal[:-1] + 1e-15)

    def test_convergence_with_c(self):
        probe = ProbeState([0.5, 0.5], [unit(0, 3), unit(2, 3)])
        povm = projector_povm(0, 1, 2, m=3)
        ideal = probabilities_ideal(probe, povm)
        gaps = []
        for c in (5.0, 10.0, 20.0, 50.0):
            b = build_basis(SlepianParams(c), n_max=4)
            gaps.append(np.max(np.abs(probabilities_limited(probe, povm, b) - ideal)))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-10


class TestProbabilitiesTruncated:
    def test_low_support_equals_ideal(self, b5):
        # support entirely below the plunge index: truncation inactive
        probe = ProbeState([1.0], [unit(2)])
        povm = projector_povm(2)
        assert np.array_equal(probabilities_truncated(probe, povm, 5.0),
                              probabilities_ideal(probe, povm))

    def test_high_support_zeroed(self, b5):
        probe = ProbeState([1.0], [unit(0)])
        povm = projector_povm(8)  # 8 > plunge_index(5) + ... cut at 4
        p = probabilities_truncated(probe, povm, 5.0)
        assert p[0] == 0.0

    def test_faithful_to_limited_at_moderate_c(self):
        c = 10.0
        b = build_basis(SlepianParams(c), n_max=8)
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((2, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows = np.hstack([rows, np.zeros((2, 6))])
        probe = ProbeState([0.5, 0.5], rows)
        povm = projector_povm(0, 1, 2)
        lim = probabilities_limited(probe, povm, b)
        tru = probabilities_truncated(probe, povm, c)
        assert np.max(np.abs(lim - tru)) < 2e-3  # gap set by 1 - lambda_n(10)^2


def close_to_reference(got, want, rel):
    return np.max(np.abs(got - want)) <= rel * np.max(want)


class TestProbabilityKernel:
    """The three regimes as one column weight, against the per-element formula
    of ``oracles.per_element_probabilities``."""

    @pytest.mark.parametrize("c", [1.2, 5.0, 20.0, 45.0])
    def test_rank_one_bit_identical(self, c):
        basis = build_basis(SlepianParams(c))
        sigma = default_psf_sigma(c)
        model = TwoPulseModel(GaussianPsf(sigma), tau=sigma, tau0=0.05, nu=0.4)
        design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                    row2=(0.55, 0.55, 0.0, 0.0))
        cases = [(probe_from_model(model, basis),
                  optimal_povm(design, gram_schmidt(gamma_modes(model, basis))))]
        rng = np.random.default_rng(17)
        cases += [random_probe_povm(rng, m=basis.n_modes, k=k, d=3)
                  for k in (1, 2, 3, 9) for _ in range(10)]
        for probe, povm in cases:
            assert np.array_equal(probabilities_ideal(probe, povm),
                                  oracles.per_element_probabilities(probe, povm))
            assert np.array_equal(probabilities_limited(probe, povm, basis),
                                  oracles.per_element_probabilities(probe, povm,
                                                                    scale=basis.lambdas))

    def test_width_mismatch_refused(self, b5):
        # a POVM narrower than the probe is refused, not zero-extended
        rng = np.random.default_rng(23)
        probe, _ = random_probe_povm(rng)
        _, narrow = random_probe_povm(rng, m=4)
        for route in (lambda: probabilities_ideal(probe, narrow),
                      lambda: probabilities_limited(probe, narrow, b5),
                      lambda: probabilities_truncated(probe, narrow, 5.0)):
            with pytest.raises(ValueError, match="have 9 coefficients .* have 4"):
                route()

    def test_mixed_element_widths_refused(self):
        # one matrix holds every element's vector, so ragged rows cannot form it
        with pytest.raises(ValueError, match="inhomogeneous"):
            Povm([unit(0, m=4), unit(1, m=3)])

    @pytest.mark.parametrize("c", [1.2, 5.0, 20.0, 45.0])
    def test_truncated_against_sliced_sums(self, c):
        # zero weights above the plunge index in place of sliced sums: the
        # products add exact zeros, in another order; measured at most 1.2e-16
        # of the largest probability
        rng = np.random.default_rng(29)
        m = build_basis(SlepianParams(c)).n_modes
        for _ in range(40):
            probe, povm = random_probe_povm(rng, m=m, k=2, d=3)
            want = oracles.per_element_probabilities(probe, povm, n_cut=plunge_index(c))
            assert close_to_reference(probabilities_truncated(probe, povm, c), want, 1e-15)

    def test_too_few_eigenvalues_rejected(self, b5):
        probe = ProbeState([1.0], [unit(0, m=12)])
        with pytest.raises(ValueError, match="supplies 9 eigenvalues"):
            probabilities_limited(probe, projector_povm(0, m=12), b5)
        with pytest.raises(ValueError, match="supplies 9 eigenvalues"):
            time_limit_povm(projector_povm(0, m=12), b5)

    def test_vectors_are_a_read_only_copy(self):
        rows = np.array([unit(0, m=4), 0.5 * unit(1, m=4), unit(2, m=4)])
        povm = Povm(rows)
        assert povm.vectors.shape == (3, 4) and np.array_equal(povm.vectors, rows)
        assert povm.vectors is not rows and rows.flags.writeable
        with pytest.raises(ValueError):
            povm.vectors[0, 0] = 2.0
        # a single vector is one element
        assert Povm(unit(1, m=4)).vectors.shape == (1, 4)


class TestTimeLimitPovm:
    @pytest.mark.parametrize("c", [0.5, 5.0, 20.0])
    def test_partial_isometries_stay_valid(self, c):
        # sum_j L pi_j pi_j^T L = L (sum_j pi_j pi_j^T) L <= L^2: the damped
        # POVM builds, and its top eigenvalue is at most lambda_0^2 times 1
        basis = build_basis(SlepianParams(c), n_max=8)
        lam0 = float(basis.lambdas[0])
        rng = np.random.default_rng(41)
        for d in (1, 2, 3, 4):
            for _ in range(10):
                q, _ = np.linalg.qr(rng.standard_normal((basis.n_modes, d)))
                povm = Povm(q.T)
                assert top_eigenvalue(povm) == pytest.approx(1.0, abs=1e-15)
                damped = time_limit_povm(povm, basis)
                assert top_eigenvalue(damped) <= lam0 ** 2 * top_eigenvalue(povm) * (1 + 1e-15)

    def test_single_projector_damped(self, b5):
        tl = time_limit_povm(projector_povm(0), b5)
        assert tl.vectors[0, 0] == pytest.approx(b5.lambdas[0], rel=1e-15)
        assert np.sum(tl.vectors ** 2) == pytest.approx(b5.lambdas[0] ** 2, rel=1e-14)

    def test_double_application_contracts(self, b5):
        povm = projector_povm(0, 1)
        once = time_limit_povm(povm, b5)
        twice = time_limit_povm(once, b5)
        for v1, v2 in zip(once.vectors, twice.vectors):
            assert np.sum(v2 ** 2) < np.sum(v1 ** 2)
            assert np.allclose(v2, v1 * b5.lambdas, atol=1e-16)

    def test_probability_route_identity(self, b5):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(50):
            probe, povm = random_probe_povm(rng)
            a = probabilities_limited(probe, povm, b5)
            b = probabilities_ideal(probe, time_limit_povm(povm, b5))
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-12

    def test_probability_vectors_normalized(self, b5):
        rng = np.random.default_rng(99)
        for _ in range(20):
            probe, povm = random_probe_povm(rng)
            for p in (probabilities_ideal(probe, povm),
                      probabilities_limited(probe, povm, b5),
                      probabilities_truncated(probe, povm, 5.0)):
                assert np.all(p >= 0.0)
                assert abs(p.sum() - 1.0) < 1e-10


class TestDecompositionIndependence:
    def test_eigendecomposition_equivalent(self, b5):
        # same rank-2 operator written as a non-orthogonal mixture and as its
        # eigendecomposition; every probability route must agree
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((2, 9))
        rows /= np.linalg.norm(rows, axis=1)[:, None] * 1.3
        weights = np.array([0.3, 0.7])
        probe_mix = ProbeState(weights, rows)
        rho = (weights[:, None, None] * rows[:, :, None] * rows[:, None, :]).sum(0)
        evals, evecs = np.linalg.eigh(rho)
        keep = evals > 1e-14
        trace = float(np.trace(rho))
        # rho = sum (e_i / tr) |sqrt(tr) v_i><sqrt(tr) v_i|: weights sum to 1,
        # rows stay subnormalized because tr < 1 here
        probe_eig = ProbeState(evals[keep] / trace,
                               evecs[:, keep].T * np.sqrt(trace))
        _, povm = random_probe_povm(rng)
        for route in (lambda pr: probabilities_ideal(pr, povm),
                      lambda pr: probabilities_limited(pr, povm, b5),
                      lambda pr: probabilities_truncated(pr, povm, 5.0)):
            assert np.max(np.abs(route(probe_mix) - route(probe_eig))) < 1e-10


class TestFisher:
    def test_bernoulli_closed_form(self):
        fm = fisher_matrix(lambda th: np.array([th[0], 1.0 - th[0]]), [0.3])
        assert fm.matrix[0, 0] == pytest.approx(oracles.bernoulli_fisher(0.3), rel=1e-6)

    def test_product_model_off_diagonal_vanishes(self):
        def model(th):
            t1, t2 = th
            return np.array([t1 * t2, t1 * (1.0 - t2), 1.0 - t1])

        fm = fisher_matrix(model, [0.4, 0.7])
        expect = oracles.product_model_fisher(0.4, 0.7)
        assert np.max(np.abs(fm.matrix - expect)) < 1e-6
        assert abs(fm.matrix[0, 1]) < 1e-8

    def test_independent_parameter_row_vanishes(self):
        def model(th):
            return np.array([th[0], 1.0 - th[0]])  # ignores th[1]

        fm = fisher_matrix(model, [0.4, 0.9])
        assert np.max(np.abs(fm.matrix[1])) < 1e-10
        assert np.max(np.abs(fm.matrix[:, 1])) < 1e-10

    def test_symmetry_and_psd(self):
        def model(th):
            t1, t2 = th
            p0 = 0.2 + 0.3 * t1 + 0.1 * t2 * t1
            p1 = 0.3 - 0.1 * t1 + 0.2 * t2
            return np.array([p0, p1, 1.0 - p0 - p1])

        fm = fisher_matrix(model, [0.3, 0.4])
        assert np.max(np.abs(fm.matrix - fm.matrix.T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(fm.matrix)) > -1e-9

    def test_floored_outcomes_reported(self):
        def model(th):
            return np.array([th[0], 0.0, 1.0 - th[0]])

        fm = fisher_matrix(model, [0.4])
        assert fm.excluded_outcomes == (1,)

    def test_step_leaving_unit_interval_rejected(self):
        # the step at theta = 1e-7 is about 1e-5, so theta - h is negative
        with pytest.raises(ValueError, match=r"left \[0, 1\]"):
            fisher_matrix(lambda th: np.array([th[0], 1.0 - th[0]]), [1e-7])


class TestCrb:
    def test_diagonal_inverse(self):
        fm = FisherMatrix(np.diag([4.0, 25.0]), ("a", "b"))
        assert crb(fm) == pytest.approx([0.5, 0.2], rel=1e-12)

    def test_scalar_bernoulli(self):
        fm = fisher_matrix(lambda th: np.array([th[0], 1.0 - th[0]]), [0.3])
        assert crb(fm)[0] == pytest.approx(np.sqrt(0.21), rel=1e-6)

    def test_singular_reports_null_direction(self):
        fm = FisherMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), ("x", "y"))
        with pytest.raises(SingularFisherError) as err:
            crb(fm)
        d = err.value.null_direction
        assert d is not None
        assert abs(d[0] + d[1]) < 1e-12  # null space along (1, -1)
