"""Reuse of Gauss-Legendre rules and Nystrom extension blocks.

The reference for every cached result is the uncached formula it replaces:
the extension onto all nodes of the real-line rule, applied in one product.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prolate.superres as superres
from prolate import (GaussianPsf, SlepianParams, TwoPulseModel, band_energy_fraction,
                     build_basis, crb, default_psf_sigma, design_from_sphere,
                     efficiency_bounds, efficiency_factor, extension_matrix,
                     gamma_modes, gram_schmidt, optimal_povm, project,
                     superres_fisher, time_limited_design)
from prolate.bandlimited import BandlimitedFunction
from prolate.quadrature import _reference_rule, gauss_legendre, real_line_rule


def sech_pulse(w):
    return lambda t: 1.0 / (np.cosh(np.asarray(t, dtype=float) / w) * math.sqrt(2.0 * w))


def uncached_project(f, basis, *, rel_tol=1e-11):
    """The projection without the block cache: one extension onto all nodes."""
    T = basis.params.T
    rule = real_line_rule(f, T, max_freq=2.0 * basis.params.omega + 16.0 / T,
                          rel_tol=rel_tol)
    assert rule.converged
    coeffs = extension_matrix(basis, rule.nodes) @ (rule.weights * rule.values)
    return BandlimitedFunction(params=basis.params, coeffs=coeffs)


def test_leggauss_runs_once_per_order(monkeypatch):
    solves = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counted(order):
        solves[order] += 1
        return leggauss(order)

    _reference_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    basis = build_basis(SlepianParams(5.0))
    psf = GaussianPsf(default_psf_sigma(5.0))
    for _ in range(3):
        for s in (0.0, 0.3, -1.2):
            project(lambda t, _s=s: psf(t - _s), basis)
        band_energy_fraction(psf, 5.0)
    assert len(solves) >= 3  # basis, panel and frequency orders
    assert set(solves.values()) == {1}


def test_cached_rule_and_blocks_are_read_only():
    x, w = _reference_rule(40)
    assert not x.flags.writeable and not w.flags.writeable
    nodes, weights = gauss_legendre(40, -2.0, 3.0)
    assert nodes.flags.writeable and weights.flags.writeable  # caller's own copies

    basis = build_basis(SlepianParams(4.0))
    project(GaussianPsf(0.4), basis)
    blocks = list(basis._extension_blocks.values())
    assert blocks
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


def test_block_cache_is_private_state():
    a = build_basis(SlepianParams(4.0))
    b = build_basis(SlepianParams(4.0))
    project(GaussianPsf(0.4), a)
    assert a._extension_blocks and not b._extension_blocks
    assert "_extension_blocks" not in repr(a)
    assert not replace(a)._extension_blocks
    with pytest.raises(AttributeError):
        a._extension_blocks = {}


def test_warm_projection_bit_identical_to_cold():
    psf = sech_pulse(default_psf_sigma(3.0))
    cold_basis = build_basis(SlepianParams(3.0))
    cold = project(lambda t: psf(t - 0.4), cold_basis).coeffs
    warm_basis = build_basis(SlepianParams(3.0))
    for s in (0.0, 1.1, -0.7):
        project(lambda t, _s=s: psf(t - _s), warm_basis)
    warm = project(lambda t: psf(t - 0.4), warm_basis).coeffs
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, project(lambda t: psf(t - 0.4), cold_basis).coeffs)


@pytest.mark.parametrize("c", [2.5, 5.0, 12.0, 20.0, 45.0])
def test_cached_coefficients_match_uncached_extension(c):
    basis = build_basis(SlepianParams(c))
    sigma = default_psf_sigma(c)
    gauss = GaussianPsf(sigma)
    pulses = [gauss.derivative(k) for k in range(4)] + [sech_pulse(sigma)]
    worst = 0.0
    for f in pulses:
        for s in (0.0, 0.35, -0.8, 1.5):
            g = lambda t, _f=f, _s=s: _f(t - _s)
            got = project(g, basis).coeffs
            want = uncached_project(g, basis).coeffs
            worst = max(worst, np.max(np.abs(got - want)) / np.linalg.norm(want))
    assert worst < 1e-10


class PlainGaussian:
    def __init__(self, sigma, scale=1.0):
        self.sigma, self.scale = sigma, scale

    def __call__(self, t):
        return self.scale * GaussianPsf(self.sigma)(t)


def _fisher_inputs(c, psf):
    basis = build_basis(SlepianParams(c))
    sigma = default_psf_sigma(c)
    model = TwoPulseModel(psf, tau=sigma, tau0=0.05, nu=0.4)
    dbasis = gram_schmidt(gamma_modes(replace(model, psf=GaussianPsf(sigma)), basis))
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    return basis, model, dbasis, design


def test_superres_fisher_checks_pulse_norm_once(monkeypatch):
    rules = Counter()
    original = superres.real_line_rule

    def counted(*args, **kwargs):
        rules["norm"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(superres, "real_line_rule", counted)
    c = 4.0
    basis, model, dbasis, design = _fisher_inputs(c, PlainGaussian(default_psf_sigma(c)))
    povm = optimal_povm(design, dbasis)
    tau_floor = 1e-4 * default_psf_sigma(c)
    superres_fisher(model, povm, basis, "limited", tau_floor=tau_floor)
    assert rules["norm"] == 1

    unnormalized = replace(model, psf=PlainGaussian(default_psf_sigma(c), scale=1.5))
    with pytest.raises(ValueError, match="not unit-norm"):
        superres_fisher(unnormalized, povm, basis, "limited", tau_floor=tau_floor)


@pytest.mark.parametrize("c, regime", [(3.0, "ideal"), (6.0, "limited"),
                                       (12.0, "truncated")])
def test_superres_row_matches_uncached_projection(monkeypatch, c, regime):
    """CLI row quantities agree with the uncached route to the stated bounds:
    A and the efficiency bounds to 1e-11, F_tautau and the CRBs to 1e-7."""

    def row():
        basis, model, dbasis, design = _fisher_inputs(c, GaussianPsf(default_psf_sigma(c)))
        povm = optimal_povm(design, dbasis)
        a = efficiency_factor(time_limited_design(design, dbasis, basis)
                              if regime == "limited" else design)
        fisher = superres_fisher(model, povm, basis, regime)
        return np.array([a, *efficiency_bounds(dbasis, basis)]), \
            np.array([fisher.matrix[0, 0], *crb(fisher)])

    design_now, fisher_now = row()
    monkeypatch.setattr(superres, "project", uncached_project)
    design_ref, fisher_ref = row()
    assert np.all(np.abs(design_now - design_ref) <= 1e-11 * np.abs(design_ref))
    assert np.all(np.abs(fisher_now - fisher_ref) <= 1e-7 * np.abs(fisher_ref))
