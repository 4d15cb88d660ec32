"""Whole-line projections: the paired real-line rule, the grown extension
block and the Fisher rows shared across steps in nu.

The references are the plain formulas these replace: a rule that samples
one panel at a time through ``gauss_legendre``, the Nystrom extension onto
each panel on its own, and ``fisher_matrix`` over ``probe_from_model``.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prolate.bandlimited as bandlimited
import prolate.superres as superres
from prolate import (GaussianPsf, SlepianParams, TwoPulseModel, build_basis,
                     default_psf_sigma, design_from_sphere, fisher_matrix,
                     gamma_modes, gram_schmidt, optimal_povm,
                     probabilities_ideal, probabilities_limited,
                     probabilities_truncated, probe_from_model, project,
                     superres_fisher)
from prolate.quadrature import RealLineRule, gauss_legendre, panel_order_for, real_line_rule


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


def test_block_grows_outward_and_extends_each_panel_once(monkeypatch):
    basis = build_basis(SlepianParams(5.0))
    extended = Counter()
    original = bandlimited.extension_matrix

    def counted(b, t, indices=None):
        for x in np.atleast_1d(t):
            extended[float(x)] += 1
        return original(b, t, indices)

    monkeypatch.setattr(bandlimited, "extension_matrix", counted)
    narrow, wide = GaussianPsf(0.2), sech_pulse(0.6)
    first = project(narrow, basis).coeffs
    (block,) = basis._extension_blocks.values()
    snapshot = block.copy()
    project(wide, basis)
    (grown,) = basis._extension_blocks.values()
    third = project(narrow, basis).coeffs

    assert grown is not block and grown.shape[1] > block.shape[1]
    assert np.array_equal(block, snapshot)  # the published block was not written
    assert not grown.flags.writeable
    assert set(extended.values()) == {1}
    assert sum(extended.values()) == grown.shape[1]
    assert np.array_equal(third, first)

    # every panel of the grown block is the extension onto that panel alone
    rule = real_line_rule(wide, 1.0, max_freq=2.0 * basis.params.omega + 16.0)
    m = rule.panel_order
    assert rule.nodes.size == grown.shape[1]
    for i in range(len(rule.panels)):
        part = slice(i * m, (i + 1) * m)
        assert np.array_equal(grown[:, part], original(basis, rule.nodes[part]))


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

    calls = Counter()
    original = superres.project

    def counted(*args, **kwargs):
        calls["project"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(superres, "project", counted)
    got = superres_fisher(model, povm, basis, regime)
    assert calls["project"] == 18
    assert np.array_equal(got.matrix, want.matrix)
    assert got.labels == want.labels and np.array_equal(got.steps, want.steps)
    assert got.excluded_outcomes == want.excluded_outcomes
