"""Reuse of Gauss-Legendre rules and band blocks.

The reference for the probe rows is the time-domain route the band route
replaced: one real-line rule per shifted pulse and ``extension_matrix``
onto all of its nodes.  Band blocks are checked against a cold basis.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prolate.bandlimited as bandlimited
import prolate.superres as superres
from prolate import (GaussianPsf, ProbeState, SlepianParams, TwoPulseModel,
                     build_basis, crb, default_psf_sigma,
                     design_from_sphere, efficiency_bounds, efficiency_factor,
                     extension_matrix, gamma_modes, gram_schmidt, optimal_povm,
                     project, superres_fisher, time_limited_design)
from prolate.quadrature import _reference_rule, gauss_legendre, real_line_rule


def sech_pulse(w):
    return lambda t: 1.0 / (np.cosh(np.asarray(t, dtype=float) / w) * math.sqrt(2.0 * w))


def time_domain_probe(model, basis, sampled=None):
    """The probe without the band route: a rule per shifted pulse, extended onto its nodes."""
    T = basis.params.T
    rows = []
    for s in (model.tau0 + 0.5 * model.tau, model.tau0 - 0.5 * model.tau):
        rule = real_line_rule(lambda t, _s=s: model.psf(t - _s), T,
                              max_freq=2.0 * basis.params.omega + 16.0 / T)
        assert rule.converged
        rows.append(extension_matrix(basis, rule.nodes) @ (rule.weights * rule.values))
    return ProbeState(weights=np.array([model.nu, 1.0 - model.nu]), modes=np.array(rows),
                      params=basis.params)


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
    assert len(solves) >= 2  # band and panel orders
    assert set(solves.values()) == {1}


def test_cached_rule_and_blocks_are_read_only():
    x, w = _reference_rule(40)
    assert not x.flags.writeable and not w.flags.writeable
    nodes, weights = gauss_legendre(40, -2.0, 3.0)
    assert nodes.flags.writeable and weights.flags.writeable  # caller's own copies


def test_warm_projection_bit_identical_to_cold():
    psf = sech_pulse(default_psf_sigma(3.0))
    cold_basis = build_basis(SlepianParams(3.0))
    cold = project(lambda t: psf(t - 0.4), cold_basis)
    warm_basis = build_basis(SlepianParams(3.0))
    for s in (0.0, 1.1, -0.7):
        project(lambda t, _s=s: psf(t - _s), warm_basis)
    warm = project(lambda t: psf(t - 0.4), warm_basis)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, project(lambda t: psf(t - 0.4), cold_basis))


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
    # the norm comes with the one sampling at tau0, which every step shares,
    # and takes no rule of its own
    rules = Counter()
    original = bandlimited.real_line_rule

    def counted(*args, **kwargs):
        rules["rule"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(bandlimited, "real_line_rule", counted)
    c = 4.0
    basis, model, dbasis, design = _fisher_inputs(c, PlainGaussian(default_psf_sigma(c)))
    povm = optimal_povm(design, dbasis)
    rules.clear()
    tau_floor = 1e-4 * default_psf_sigma(c)
    superres_fisher(model, povm, basis, "limited", tau_floor=tau_floor)
    assert rules["rule"] == 1

    unnormalized = replace(model, psf=PlainGaussian(default_psf_sigma(c), scale=1.5))
    with pytest.raises(ValueError, match="not unit-norm"):
        superres_fisher(unnormalized, povm, basis, "limited", tau_floor=tau_floor)


@pytest.mark.parametrize("c, regime", [(3.0, "ideal"), (6.0, "limited"),
                                       (12.0, "truncated")])
def test_superres_row_matches_uncached_projection(monkeypatch, c, regime):
    """CLI row quantities agree with the time-domain probe to the stated bounds:
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
    probes = Counter()

    def counted_probe(*args, **kwargs):
        probes["probe"] += 1
        return time_domain_probe(*args, **kwargs)

    monkeypatch.setattr(superres, "_probe", counted_probe)
    design_ref, fisher_ref = row()
    assert probes["probe"] == 13  # every probability of the Fisher matrix
    assert np.all(np.abs(design_now - design_ref) <= 1e-11 * np.abs(design_ref))
    assert np.all(np.abs(fisher_now - fisher_ref) <= 1e-7 * np.abs(fisher_ref))


def test_band_blocks_built_once_and_read_only():
    basis = build_basis(SlepianParams(4.0))
    sigma = default_psf_sigma(4.0)
    first = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3), basis).gamma
    (order, blocks), = basis._band_blocks.items()
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 0.0
    # a shifted Gaussian and a wider sech rule share the panel order and the blocks
    gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3, tau0=0.6), basis)
    gamma_modes(TwoPulseModel(sech_pulse(sigma), tau=0.3), basis)
    assert list(basis._band_blocks) == [order]
    assert all(a is b for a, b in zip(basis._band_blocks[order], blocks))
    again = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3), basis).gamma
    cold = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3),
                       build_basis(SlepianParams(4.0))).gamma
    assert np.array_equal(first, again) and np.array_equal(first, cold)


def test_band_blocks_are_private_state():
    a = build_basis(SlepianParams(4.0))
    gamma_modes(TwoPulseModel(GaussianPsf(0.4), tau=0.3), a)
    assert a._band_blocks and "_band_blocks" not in repr(a)
    assert not replace(a)._band_blocks
    assert not build_basis(SlepianParams(4.0))._band_blocks
    with pytest.raises(AttributeError):
        a._band_blocks = {}
