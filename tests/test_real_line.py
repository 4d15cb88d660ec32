"""Whole-line projections: the paired real-line rule, one sampling per call
and the Fisher rows shared across steps and separations.

The references are the plain formulas these replace: a rule that samples
one panel at a time through ``gauss_legendre``, and ``fisher_matrix`` over
``probe_from_model``.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prolate.bandlimited as bandlimited
import prolate.superres as superres
from prolate import (GaussianPsf, IdentifiabilityError, SlepianParams, TwoPulseModel,
                     build_basis, crb, default_psf_sigma, design_from_sphere,
                     fisher_matrix, gamma_modes, gram_schmidt, optimal_povm, plunge_index,
                     probabilities_ideal, probabilities_limited,
                     probabilities_truncated, probe_from_model, project,
                     superres_fisher)
from prolate.quadrature import RealLineRule, gauss_legendre, panel_order_for, real_line_rule

import oracles


def per_panel_rule(f, core_radius, *, max_freq=None, rel_tol=1e-11):
    """The rule sampled one panel at a time, each panel from gauss_legendre."""
    R = float(core_radius)
    cap = 20.0 * R
    if max_freq is None:
        max_freq = 2.0 * math.pi / R
    order = panel_order_for(max_freq, R)

    def panel(lo, hi):
        x, w = gauss_legendre(order, lo, hi)
        return (lo, hi), x, w, np.asarray(f(x), dtype=float)

    left, right = [panel(-R, 0.0)], [panel(0.0, R)]
    total = sum(float(np.dot(w, v * v)) for _, _, w, v in left + right)
    radius, marginal, converged = R, math.inf, False
    while True:
        if marginal < rel_tol * rel_tol * max(total, 1e-300):
            converged = True
            break
        if radius + R > cap * (1.0 + 1e-12):
            break
        right.append(panel(radius, radius + R))
        left.append(panel(-radius - R, -radius))
        marginal = sum(float(np.dot(w, v * v)) for _, _, w, v in (right[-1], left[-1]))
        total += marginal
        radius += R
    edges, nodes, weights, values = zip(*(left[::-1] + right))
    return RealLineRule(nodes=np.concatenate(nodes), weights=np.concatenate(weights),
                        values=np.concatenate(values), radius=radius,
                        total_energy=total, tail_energy=0.0 if converged else marginal,
                        converged=converged, panel_order=order, panels=edges)


def sech_pulse(w):
    return lambda t: 1.0 / (np.cosh(np.asarray(t, dtype=float) / w) * math.sqrt(2.0 * w))


PULSES = {
    "gaussian": GaussianPsf(0.3),
    "shifted gaussian": lambda t: GaussianPsf(0.45)(np.asarray(t) - 0.8),
    "sech": sech_pulse(0.35),
    "lorentzian": lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
}


@pytest.mark.parametrize("T", [1.0, 0.7, 2.3])
@pytest.mark.parametrize("name", sorted(PULSES))
def test_rule_fields_match_per_panel_sampling(T, name):
    f = PULSES[name]
    calls = Counter()

    def counted(t):
        calls["f"] += 1
        return f(t)

    kwargs = {"max_freq": 2.0 * 5.0 / T + 16.0 / T}
    got = real_line_rule(counted, T, **kwargs)
    want = per_panel_rule(f, T, **kwargs)
    for field in RealLineRule.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b), field
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field
        else:
            assert a == b, field
    assert calls["f"] == len(got.panels) // 2  # one call per panel pair
    if name == "lorentzian":
        assert not got.converged and got.radius == pytest.approx(20.0 * T)


@pytest.mark.parametrize("name", ["gaussian", "sech"])
def test_one_rule_per_call(monkeypatch, name):
    # each call samples its pulse once; a probe's two shifted rows and its
    # norm check come from that one sampling
    basis = build_basis(SlepianParams(5.0))
    psf = PULSES[name]
    rules = Counter()
    original = bandlimited.real_line_rule

    def counted(*args, **kwargs):
        rules["rule"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(bandlimited, "real_line_rule", counted)
    model = TwoPulseModel(psf, tau=0.3, tau0=0.1)
    for call in (lambda: project(psf, basis), lambda: gamma_modes(model, basis),
                 lambda: probe_from_model(model, basis)):
        rules.clear()
        call()
        assert rules["rule"] == 1
    row0 = gamma_modes(replace(model, tau0=0.0), basis).gamma[0]
    assert np.array_equal(row0, project(psf, basis))


def _count_rules(monkeypatch):
    calls = Counter()
    original = bandlimited.real_line_rule

    def counted(*args, **kwargs):
        calls["rule"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(bandlimited, "real_line_rule", counted)
    return calls


@pytest.mark.parametrize("regime", ["ideal", "limited", "truncated"])
def test_superres_fisher_shares_rows_across_nu_steps(monkeypatch, regime):
    c = 6.0
    basis = build_basis(SlepianParams(c))
    sigma = default_psf_sigma(c)
    model = TwoPulseModel(GaussianPsf(sigma), tau=0.8 * sigma, tau0=0.05, nu=0.4)
    dbasis = gram_schmidt(gamma_modes(model, basis))
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    povm = optimal_povm(design, dbasis)
    route = {"ideal": lambda probe: probabilities_ideal(probe, povm),
             "limited": lambda probe: probabilities_limited(probe, povm, basis),
             "truncated": lambda probe: probabilities_truncated(probe, povm, c)}[regime]

    def prob_model(theta):
        m = replace(model, tau=float(theta[0]), tau0=float(theta[1]), nu=float(theta[2]))
        return route(probe_from_model(m, basis))

    want = fisher_matrix(prob_model, model.theta, labels=("tau", "tau0", "nu"))

    # one sampling at tau0 gives the rows of every step; the steps in tau and
    # nu read it with the same shifts as a fresh probe, the steps in tau0 add
    # their offset as a phase where the reference resamples the pulse
    calls = _count_rules(monkeypatch)
    got = superres_fisher(model, povm, basis, regime)
    assert calls["rule"] == 1
    keep = [0, 2]
    assert np.array_equal(got.matrix[np.ix_(keep, keep)], want.matrix[np.ix_(keep, keep)])
    # measured at most 3.5e-10 over c in {1.2, 3, 6, 12, 45}, tau0 in {0, 0.05}
    assert np.max(np.abs(got.matrix[1] - want.matrix[1])) <= 1e-9 * np.max(np.abs(want.matrix))
    assert got.labels == want.labels and np.array_equal(got.steps, want.steps)
    assert got.excluded_outcomes == want.excluded_outcomes


def _sweep_inputs(c):
    basis = build_basis(SlepianParams(c))
    sigma = default_psf_sigma(c)
    model = TwoPulseModel(GaussianPsf(sigma), tau=sigma, tau0=0.05, nu=0.4)
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    return basis, model, optimal_povm(design, gram_schmidt(gamma_modes(model, basis)))


@pytest.mark.parametrize("c, regime", [(1.2, "limited"), (3.0, "ideal"), (6.0, "limited"),
                                       (12.0, "truncated"), (45.0, "ideal")])
def test_superres_fisher_over_taus_equals_single_calls(monkeypatch, c, regime):
    basis, model, povm = _sweep_inputs(c)
    models = [replace(model, tau=f * model.psf.sigma) for f in (0.1, 0.35, 0.8, 1.5)]
    want = [superres_fisher(m, povm, basis, regime) for m in models]
    calls = _count_rules(monkeypatch)
    got = superres_fisher(models, povm, basis, regime)
    assert calls["rule"] == 1  # one at tau0, whatever the tau count
    assert len(got) == len(models)
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w.matrix)
        assert np.array_equal(g.steps, w.steps)
        assert g.excluded_outcomes == w.excluded_outcomes
    calls.clear()
    superres_fisher(models[:1], povm, basis, regime)
    assert calls["rule"] == 1


@pytest.mark.parametrize("c", [1.2, 5.0, 20.0, 45.0])
def test_superres_fisher_matches_per_element_formula(c):
    # the same probes, one sampling at tau0, through the per-element formula of
    # each regime: ideal and limited round alike; truncated adds exact zeros in
    # another order, measured over these rows at most 4.5e-11 of max|F|,
    # 1.7e-10 of F_tautau and 2.8e-6 of a CRB (at c = 1.2, tau = 0.1 sigma,
    # where cond(F) = 5e11)
    basis, model, povm = _sweep_inputs(c)
    sampled = model.tau0, superres._sampled_pulse(model.psf, model.tau0, basis)
    per_regime = {"ideal": {}, "limited": {"scale": basis.lambdas},
                  "truncated": {"n_cut": plunge_index(c)}}
    for f in (0.1, 0.5, 1.0, 2.0):
        at = replace(model, tau=f * model.psf.sigma)
        for regime, kwargs in per_regime.items():
            def reference(theta, kwargs=kwargs):
                m = replace(at, tau=float(theta[0]), tau0=float(theta[1]), nu=float(theta[2]))
                return oracles.per_element_probabilities(superres._probe(m, basis, sampled),
                                                         povm, **kwargs)

            want = fisher_matrix(reference, at.theta)
            got = superres_fisher(at, povm, basis, regime)
            if regime != "truncated":
                assert np.array_equal(got.matrix, want.matrix), (f, regime)
                continue
            gap = np.abs(got.matrix - want.matrix)
            assert np.max(gap) <= 1e-10 * np.max(np.abs(want.matrix))
            assert gap[0, 0] <= 5e-10 * want.matrix[0, 0]
            assert np.all(np.abs(crb(got) / crb(want) - 1.0) <= 1e-5), f


def exact_fisher(model, povm, basis, regime, g_hat):
    """Fisher matrix of theta = (tau, tau0, nu) from closed-form probe rows and gradients.

    The rows of g(t - s) and their order-1 rows come from g's transform, and
    d/ds of g(t - s) is -g'(t - s); with ds/dtau = +-1/2 and ds/dtau0 = 1 the
    gradient of every probability follows without a step.
    """
    shifts = (model.tau0 + 0.5 * model.tau, model.tau0 - 0.5 * model.tau)
    rows = [oracles.transform_rows(basis, g_hat, tau0=s, n_derivs=1) for s in shifts]
    vectors = np.vstack([el.vectors for el in povm.elements])
    if regime == "limited":
        vectors = vectors * basis.lambdas[:vectors.shape[1]]
    elif regime == "truncated":
        vectors = vectors * (np.arange(vectors.shape[1]) <= plunge_index(basis.params.c))
    amp = vectors @ np.array([r[0] for r in rows]).T          # (outcomes, pulses)
    damp = -vectors @ np.array([r[1] for r in rows]).T
    weights = np.array([model.nu, 1.0 - model.nu])
    grads = np.array([(amp * damp) @ (weights * [1.0, -1.0]),
                      (2.0 * amp * damp) @ weights,
                      amp[:, 0] ** 2 - amp[:, 1] ** 2])
    p_click = amp ** 2 @ weights
    probs = np.append(p_click, 1.0 - p_click.sum())
    grads = np.hstack([grads, -grads.sum(axis=1, keepdims=True)])
    keep = probs >= 1e-12
    return oracles.multinomial_fisher(probs[keep], grads[:, keep])


@pytest.mark.parametrize("tau0", [0.0, 0.3])
@pytest.mark.parametrize("c", [3.0, 6.0, 12.0, 45.0])
@pytest.mark.parametrize("pulse", ["gaussian", "sech"])
def test_superres_fisher_matches_exact_gradients(c, tau0, pulse):
    # all nine entries, the tau0 steps included, against the exact matrix;
    # the finite-difference error dominates: measured at most 8.4e-11 of
    # max|F| here, against 7.1e-11 when every tau0 step resampled the pulse
    sigma = default_psf_sigma(c)
    psf, g_hat = {"gaussian": (GaussianPsf(sigma), oracles.gaussian_transform(sigma)),
                  "sech": (sech_pulse(sigma), oracles.sech_transform(sigma))}[pulse]
    basis = build_basis(SlepianParams(c))
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    povm = optimal_povm(design, gram_schmidt(
        gamma_modes(TwoPulseModel(GaussianPsf(sigma), tau=sigma), basis)))
    model = TwoPulseModel(psf, tau=0.8 * sigma, tau0=tau0, nu=0.4)
    for regime in ("ideal", "limited", "truncated"):
        got = superres_fisher(model, povm, basis, regime, tau_floor=1e-4 * sigma).matrix
        want = exact_fisher(model, povm, basis, regime, g_hat)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), regime


def test_superres_fisher_checks_every_tau_before_sampling(monkeypatch):
    basis, model, povm = _sweep_inputs(5.0)
    calls = _count_rules(monkeypatch)
    with pytest.raises(IdentifiabilityError, match="below the floor"):
        superres_fisher([model, replace(model, tau=1e-9)], povm, basis, "ideal")
    with pytest.raises(IdentifiabilityError, match="Fisher step"):
        superres_fisher([model, replace(model, tau=4e-6)], povm, basis, "ideal",
                        tau_floor=0.0)
    assert calls["rule"] == 0


@pytest.mark.parametrize("change", [dict(tau0=0.1), dict(nu=0.5),
                                    dict(psf=GaussianPsf(0.3))])
def test_superres_fisher_models_must_share_pulse(change):
    basis, model, povm = _sweep_inputs(5.0)
    with pytest.raises(ValueError, match="share psf, tau0 and nu"):
        superres_fisher([model, replace(model, tau=0.2, **change)], povm, basis, "ideal")
    with pytest.raises(ValueError, match="no models"):
        superres_fisher([], povm, basis, "ideal")
