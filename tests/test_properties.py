"""Cross-cutting contracts: thread safety, T-independence, regime plumbing."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from prolate import (GaussianPsf, Povm, PovmValidityError, ProbeState, SlepianParams,
                     TwoPulseModel, build_basis, crb, default_psf_sigma, design_from_sphere,
                     efficiency_bounds, efficiency_factor, eval_psi,
                     gamma_modes, gram_schmidt, optimal_povm,
                     probabilities_limited, superres_fisher,
                     time_limited_design)

import oracles


def test_shared_basis_concurrent_readers():
    # a built basis is immutable; concurrent evaluation must agree with serial
    basis = build_basis(SlepianParams(5.0), n_max=8)
    probe = ProbeState([0.5, 0.5], np.eye(9)[:2])
    povm = Povm(np.eye(9)[:2])
    t = np.linspace(-2.0, 2.0, 101)

    def work(n):
        return eval_psi(basis, n % 6, t), probabilities_limited(probe, povm, basis)

    serial = [work(n) for n in range(12)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(work, range(12)))
    for (v1, p1), (v2, p2) in zip(serial, parallel):
        assert np.array_equal(v1, v2)
        assert np.array_equal(p1, p2)


def test_superres_pipeline_independent_of_T():
    # everything dimensionless depends on c only; rebuild the whole pipeline
    # at a stretched window and compare
    results = []
    for T in (1.0, 2.0):
        c = 4.0
        basis = build_basis(SlepianParams(c, T=T), n_max=None)
        sigma = default_psf_sigma(c) * T
        model = TwoPulseModel(GaussianPsf(sigma), tau=sigma, tau0=0.0, nu=0.5)
        dbasis = gram_schmidt(gamma_modes(model, basis))
        design = design_from_sphere(0.6, 0.9, 0.6, 0.9 - 1.1, row2=(0.5, 0.5, 0, 0))
        a_lim = efficiency_factor(time_limited_design(design, dbasis, basis))
        bounds = efficiency_bounds(dbasis, basis)
        results.append((a_lim, *bounds))
    assert np.allclose(results[0], results[1], atol=1e-10)


def test_whole_line_orthogonality_at_stretched_window():
    basis = build_basis(SlepianParams(3.0, T=2.0), n_max=5)
    for n in range(6):
        for m in range(n, 6):
            val = oracles.whole_line_inner(basis, n, m)
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-11


def test_povm_validate_direct():
    # a POVM validates itself when built: a unit vector sits at the identity,
    # and [v, sqrt(0.5) v] sums to 1.5 |v><v|, past it
    vec = np.eye(4)[0]
    good = Povm([vec])
    top = np.linalg.eigvalsh(good.vectors @ good.vectors.T)[-1]
    assert top == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PovmValidityError) as err:
        Povm([vec, np.sqrt(0.5) * vec])
    assert err.value.top_eigenvalue == pytest.approx(1.5, rel=1e-14)


def test_superres_fisher_truncated_regime():
    c = 5.0
    basis = build_basis(SlepianParams(c), n_max=None)
    sigma = default_psf_sigma(c)
    model = TwoPulseModel(GaussianPsf(sigma), tau=sigma, tau0=0.0, nu=0.5)
    dbasis = gram_schmidt(gamma_modes(model, basis))
    design = design_from_sphere(0.7, math.pi / 3, 0.7, math.pi / 3 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    povm = optimal_povm(design, dbasis)
    f_tru = superres_fisher(model, povm, basis, "truncated")
    f_ideal = superres_fisher(model, povm, basis, "ideal")
    assert f_tru.matrix[0, 0] > 0.0
    # the plunge cut approximates the window damping, so it should land
    # between nothing-lost and the fully limited value's scale
    assert f_tru.matrix[0, 0] <= f_ideal.matrix[0, 0] + 1e-9
    bounds = crb(f_tru)
    assert np.all(np.isfinite(bounds))
