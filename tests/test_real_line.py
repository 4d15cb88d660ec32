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
from prolate import (GaussianPsf, IdentifiabilityError, ProbeState, QuadratureError,
                     SlepianParams, TwoPulseModel, build_basis, crb, default_psf_sigma,
                     design_from_sphere, fisher_matrix, gamma_modes, gram_schmidt,
                     optimal_povm, plunge_index, probabilities_ideal, probabilities_limited,
                     probabilities_truncated, probe_from_model, project, superres_fisher)
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
        if marginal < rel_tol * rel_tol * total:
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
def test_superres_fisher_matches_probe_from_model(monkeypatch, regime):
    c = 6.0
    basis = build_basis(SlepianParams(c))
    sigma = default_psf_sigma(c)
    design = design_from_sphere(0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2,
                                row2=(0.55, 0.55, 0.0, 0.0))
    calls = _count_rules(monkeypatch)
    for tau0 in (0.0, 0.05, 0.4):
        model = TwoPulseModel(GaussianPsf(sigma), tau=0.8 * sigma, tau0=tau0, nu=0.4)
        povm = optimal_povm(design, gram_schmidt(gamma_modes(model, basis)))
        route = {"ideal": lambda probe: probabilities_ideal(probe, povm),
                 "limited": lambda probe: probabilities_limited(probe, povm, basis),
                 "truncated": lambda probe: probabilities_truncated(probe, povm, c)}[regime]

        def prob_model(theta):
            m = replace(model, tau=float(theta[0]), tau0=float(theta[1]), nu=float(theta[2]))
            return route(probe_from_model(m, basis))

        want = fisher_matrix(prob_model, model.theta, labels=("tau", "tau0", "nu"))

        # one centred sampling gives the rows of every step, at the same
        # shifts tau0 +/- tau/2 as a fresh probe, so every entry is the same
        calls.clear()
        got = superres_fisher(model, povm, basis, regime)
        assert calls["rule"] == 1
        assert np.array_equal(got.matrix, want.matrix), tau0
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
    # the same probes, one centred sampling, through the per-element formula
    # of each regime: ideal and limited round alike; truncated adds exact
    # zeros in another order, measured over these rows at most 4.5e-11 of
    # max|F|, 1.7e-10 of F_tautau and 2.8e-6 of a CRB (at c = 1.2,
    # tau = 0.1 sigma, where cond(F) = 5e11)
    basis, model, povm = _sweep_inputs(c)
    transform = superres._sampled_pulse(model.psf, basis)
    per_regime = {"ideal": {}, "limited": {"scale": basis.lambdas},
                  "truncated": {"n_cut": plunge_index(c)}}
    for f in (0.1, 0.5, 1.0, 2.0):
        at = replace(model, tau=f * model.psf.sigma)
        for regime, kwargs in per_regime.items():
            def reference(theta, kwargs=kwargs):
                tau, tau0, nu = float(theta[0]), float(theta[1]), float(theta[2])
                rows = bandlimited._pulse_rows(transform,
                                               (tau0 + 0.5 * tau, tau0 - 0.5 * tau), 0)
                probe = ProbeState(weights=np.array([nu, 1.0 - nu]), modes=rows[:, 0],
                                   params=basis.params)
                return oracles.per_element_probabilities(probe, povm, **kwargs)

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
    vectors = povm.vectors
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


@pytest.mark.parametrize("tau0", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("c", [3.0, 6.0, 12.0, 45.0])
@pytest.mark.parametrize("pulse", ["gaussian", "sech"])
def test_superres_fisher_matches_exact_gradients(c, tau0, pulse):
    # all nine entries, the tau0 steps included, against the exact matrix;
    # the finite-difference error dominates: measured at most 6.2e-11 of
    # max|F| here, with every shift a phase of one centred sampling
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
    # only the pulse is sampled, so only the psf must be shared; each model
    # reads its own tau0 and nu from the one transform
    basis, model, povm = _sweep_inputs(5.0)
    models = [model, replace(model, tau=0.2, **change)]
    if "psf" in change:
        with pytest.raises(ValueError, match="share psf"):
            superres_fisher(models, povm, basis, "ideal")
    else:
        for got, m in zip(superres_fisher(models, povm, basis, "ideal"), models):
            assert np.array_equal(got.matrix, superres_fisher(m, povm, basis, "ideal").matrix)
    with pytest.raises(ValueError, match="no models"):
        superres_fisher([], povm, basis, "ideal")


@pytest.mark.parametrize("c", [2.5, 5.0, 20.0, 45.0, 100.0])
@pytest.mark.parametrize("pulse", ["gaussian", "sech"])
def test_rows_at_the_band_rule_reach(c, pulse):
    # every shift is a phase of one centred sampling, resolved up to the reach
    # n_w / omega of the basis' n_w-node band rule.  Errors as a share of each
    # order's largest entry at shift 0, measured at +/- the reach over these
    # c: Gaussian rows 1.1e-12 (2.6e-12 at shift 0), sech rows 9.7e-9.  The
    # rows are read straight from the transform: at c >= 20 they sit near
    # their rounding floor there, which gamma_modes refuses
    sigma = default_psf_sigma(c)
    psf, g_hat = {"gaussian": (GaussianPsf(sigma), oracles.gaussian_transform(sigma)),
                  "sech": (sech_pulse(sigma), oracles.sech_transform(sigma))}[pulse]
    bound = {"gaussian": 5e-12, "sech": 2e-8}[pulse]
    basis = build_basis(SlepianParams(c))
    reach = basis._band_rule[2]
    scale = np.max(np.abs(oracles.transform_rows(basis, g_hat)), axis=1)
    transform = superres._sampled_pulse(psf, basis)
    for s in (reach, -reach):
        got = bandlimited._pulse_rows(transform, (s,), 3)[0]
        want = oracles.transform_rows(basis, g_hat, tau0=s)
        assert np.max(np.max(np.abs(got - want), axis=1) / scale) <= bound, s
    # beyond the reach the phases alias: refused, naming the shift and the reach
    beyond = 1.25 * reach
    for call in (lambda: gamma_modes(TwoPulseModel(psf, tau=0.3, tau0=beyond), basis),
                 lambda: probe_from_model(TwoPulseModel(psf, tau=2.0 * beyond), basis)):
        with pytest.raises(QuadratureError, match=f"shift {beyond:g} beyond the reach "
                                                  f"{reach:g}"):
            call()
