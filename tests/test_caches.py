"""Reuse of Gauss-Legendre rules, band blocks and a basis' last pulse sampling.

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
from prolate import (GaussianPsf, ProbeState, SlepianParams, TwoPulseModel,
                     build_basis, crb, default_psf_sigma,
                     design_from_sphere, efficiency_bounds, efficiency_factor,
                     extension_matrix, fisher_matrix, gamma_modes, gram_schmidt,
                     optimal_povm, probabilities_ideal, probabilities_limited,
                     probabilities_truncated, probe_from_model, project, superres_fisher,
                     time_limited_design)
from prolate.quadrature import _reference_rule, gauss_legendre, real_line_rule


def sech_pulse(w):
    return lambda t: 1.0 / (np.cosh(np.asarray(t, dtype=float) / w) * math.sqrt(2.0 * w))


def _count_rules(monkeypatch):
    calls = Counter()
    original = bandlimited.real_line_rule

    def counted(*args, **kwargs):
        calls["rule"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(bandlimited, "real_line_rule", counted)
    return calls


def time_domain_probe(model, basis):
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
    rules = _count_rules(monkeypatch)
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
def test_superres_row_matches_uncached_projection(c, regime):
    """CLI row quantities agree with the time-domain probe to the stated bounds:
    A and the efficiency bounds to 1e-11, F_tautau and the CRBs to 1e-7."""

    def row(fisher_of):
        basis, model, dbasis, design = _fisher_inputs(c, GaussianPsf(default_psf_sigma(c)))
        povm = optimal_povm(design, dbasis)
        a = efficiency_factor(time_limited_design(design, dbasis, basis)
                              if regime == "limited" else design)
        fisher = fisher_of(model, povm, basis)
        return np.array([a, *efficiency_bounds(dbasis, basis)]), \
            np.array([fisher.matrix[0, 0], *crb(fisher)])

    evals = Counter()

    def time_domain_fisher(model, povm, basis):
        route = {"ideal": lambda probe: probabilities_ideal(probe, povm),
                 "limited": lambda probe: probabilities_limited(probe, povm, basis),
                 "truncated": lambda probe: probabilities_truncated(probe, povm, c)}[regime]

        def reference(theta):
            evals["model"] += 1
            m = replace(model, tau=float(theta[0]), tau0=float(theta[1]), nu=float(theta[2]))
            return route(time_domain_probe(m, basis))

        return fisher_matrix(reference, model.theta)

    design_now, fisher_now = row(lambda *args: superres_fisher(*args, regime))
    design_ref, fisher_ref = row(time_domain_fisher)
    assert evals["model"] == 13  # every probability of the Fisher matrix
    assert np.all(np.abs(design_now - design_ref) <= 1e-11 * np.abs(design_ref))
    assert np.all(np.abs(fisher_now - fisher_ref) <= 1e-7 * np.abs(fisher_ref))


def test_band_blocks_built_once_and_read_only():
    basis = build_basis(SlepianParams(4.0))
    sigma = default_psf_sigma(4.0)
    first = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3), basis).gamma
    (order, ref), = basis._band_blocks.items()
    blocks = (*basis._band_rule[:2], ref)
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 0.0
    # a shifted Gaussian and a wider sech rule share the panel order and the blocks
    gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3, tau0=0.6), basis)
    gamma_modes(TwoPulseModel(sech_pulse(sigma), tau=0.3), basis)
    assert list(basis._band_blocks) == [order]
    assert all(a is b for a, b in zip((*basis._band_rule[:2], basis._band_blocks[order]),
                                      blocks))
    again = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3), basis).gamma
    cold = gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=0.3),
                       build_basis(SlepianParams(4.0))).gamma
    assert np.array_equal(first, again) and np.array_equal(first, cold)


def test_band_blocks_are_private_state():
    a = build_basis(SlepianParams(4.0))
    gamma_modes(TwoPulseModel(GaussianPsf(0.4), tau=0.3), a)
    assert a._band_blocks and "_band_blocks" not in repr(a)
    assert "_band_rule" in vars(a) and "_band_rule" not in repr(a)
    assert a._last_sampling and "_last_sampling" not in repr(a)
    assert not replace(a)._band_blocks and "_band_rule" not in vars(replace(a))
    assert replace(a)._last_sampling is None
    assert not build_basis(SlepianParams(4.0))._band_blocks
    _, sampling = a._last_sampling
    for array in (*sampling.transform[:3], sampling.floor):
        assert not array.flags.writeable
    for name in ("_band_blocks", "_last_sampling"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def _chain(psf, basis, taus, tau_floor):
    """The documented chain: gamma_modes, then superres_fisher once per tau."""
    model = TwoPulseModel(psf, tau=taus[0])
    dbasis = gram_schmidt(gamma_modes(model, basis))
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    povm = optimal_povm(design, dbasis)
    fishers = [superres_fisher(TwoPulseModel(psf, tau=tau), povm, basis, "limited",
                               tau_floor=tau_floor) for tau in taus]
    return dbasis, [f.matrix for f in fishers], [crb(f) for f in fishers]


@pytest.mark.parametrize("pulse", ["gaussian", "sech"])
def test_chain_samples_each_pulse_once_per_basis(monkeypatch, pulse):
    # the basis keeps its last sampling, matched by the psf object: the chain
    # samples once, an equal new psf object or another basis samples again
    c = 4.0
    sigma = default_psf_sigma(c)
    make = {"gaussian": lambda: PlainGaussian(sigma), "sech": lambda: sech_pulse(sigma)}[pulse]
    basis, psf = build_basis(SlepianParams(c)), make()
    calls = _count_rules(monkeypatch)
    taus = (0.2, 0.35, 0.5)
    first = _chain(psf, basis, taus, 1e-4 * sigma)
    assert calls["rule"] == 1 and basis._last_sampling[0] is psf
    probe_from_model(TwoPulseModel(psf, tau=0.3), basis)
    assert calls["rule"] == 1
    again = _chain(make(), basis, taus, 1e-4 * sigma)
    assert calls["rule"] == 2
    cold = _chain(psf, replace(basis), taus, 1e-4 * sigma)
    assert calls["rule"] == 3
    for other in (again, cold):
        assert np.array_equal(first[0].gamma, other[0].gamma)
        assert all(np.array_equal(a, b) for a, b in zip(first[1] + first[2],
                                                         other[1] + other[2]))


def test_interleaved_pulses_match_fresh_bases():
    # two pulses taking turns on one basis each replace the stored sampling,
    # and every result is bit-identical to the same call on a basis of its own
    c = 5.0
    sigma = default_psf_sigma(c)
    basis = build_basis(SlepianParams(c))
    a, b = GaussianPsf(sigma), sech_pulse(sigma)
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    povm = optimal_povm(design, gram_schmidt(gamma_modes(TwoPulseModel(a, tau=sigma),
                                                         build_basis(SlepianParams(c)))))
    calls = [lambda bs, psf: gamma_modes(TwoPulseModel(psf, tau=0.2, tau0=0.1), bs).gamma,
             lambda bs, psf: probe_from_model(TwoPulseModel(psf, tau=0.3), bs).modes,
             lambda bs, psf: superres_fisher(TwoPulseModel(psf, tau=0.25, nu=0.4), povm, bs,
                                             "ideal", tau_floor=1e-4 * sigma).matrix]
    for k, call in enumerate(calls * 2):
        for psf in (a, b) if k % 2 == 0 else (b, a):
            got = call(basis, psf)
            assert basis._last_sampling[0] is psf
            assert np.array_equal(got, call(replace(basis), psf)), (k, psf)


def _complex_pulse(t):
    t = np.asarray(t, dtype=float)
    return GaussianPsf(default_psf_sigma(5.0))(t) * np.exp(3j * t * t)


def _nan_pulse(t):
    return np.where(np.abs(np.asarray(t)) < 1.5, GaussianPsf(default_psf_sigma(5.0))(t), np.nan)


def _constant_pulse(t):
    return 1.0  # one number for the whole array of times


@pytest.mark.parametrize("pulse, message", [(_complex_pulse, "complex samples"),
                                            (_nan_pulse, "non-finite samples"),
                                            (_constant_pulse, r"shape \(\) for times of shape")])
def test_complex_and_non_finite_pulses_refused_and_not_kept(pulse, message):
    # the chirped Gaussian has unit norm; its real part alone (norm^2 0.733)
    # was projected before, with only a ComplexWarning
    basis = build_basis(SlepianParams(5.0))
    kept = GaussianPsf(default_psf_sigma(5.0))
    gamma_modes(TwoPulseModel(kept, tau=0.2), basis)
    stored = basis._last_sampling
    for call in (lambda: project(pulse, basis),
                 lambda: gamma_modes(TwoPulseModel(pulse, tau=0.2), basis)):
        with pytest.raises(ValueError, match=message):
            call()
        assert basis._last_sampling is stored
    unnormalized = PlainGaussian(default_psf_sigma(5.0), scale=1.5)
    with pytest.raises(ValueError, match="not unit-norm"):
        gamma_modes(TwoPulseModel(unnormalized, tau=0.2), basis)
    assert basis._last_sampling is stored

