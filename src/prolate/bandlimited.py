"""Prolate coefficients of functions of time, from one sampling on the real line."""

from __future__ import annotations

import math

import numpy as np

from .basis import ProlateBasis
from .errors import QuadratureError
from .quadrature import gauss_legendre, real_line_rule


def project(f, basis: ProlateBasis) -> np.ndarray:
    """Coefficients <f, psi_n> of a function of time over psi_0..psi_n_max.

    The whole-line inner products with psi_n, so for inputs that are not
    bandlimited this is the orthogonal projection onto the bandlimited
    subspace spanned by the basis.  f, a vectorized real function of time, is
    sampled once on the real-line rule; the result equals row 0 of
    ``gamma_modes`` for the same pulse.

    Raises
    ------
    QuadratureError
        If the energy tail of ``f`` is still above tolerance at the radius cap
        of ``quadrature.RADIUS_CAP`` windows; the achieved tolerance is
        reported.  Slowly decaying inputs, bandlimited ones such as psi_n or a
        sinc among them, hit the cap.
    """
    transform, _ = _pulse_transform(f, basis)
    return _pulse_rows(transform, (0.0,), 0)[0, 0]


def _pulse_transform(f, basis: ProlateBasis):
    """The transform of f at the band nodes, from one sampling, and the energy of f.

    f is sampled once on the real-line rule.  Returns ((w, B, F, reach),
    energy): the basis' band rule (w, B, reach) of ``ProlateBasis._band_rule``
    with F(w_q) = int f(t) exp(-i w_q t) dt at its nodes w_q, ready for
    ``_pulse_rows``.
    """
    T, omega = basis.params.T, basis.params.omega
    rule = real_line_rule(f, T, max_freq=2.0 * omega + 16.0 / T)
    if not rule.converged:
        # no energy found at all is a tail share of 1
        achieved = (math.sqrt(rule.tail_energy / rule.total_energy)
                    if rule.total_energy > 0.0 else 1.0)
        raise QuadratureError(
            f"tail of the integrand still significant at radius {rule.radius:g}",
            achieved=achieved)
    freqs, band, reach = basis._band_rule
    ref = basis._band_blocks.get(rule.panel_order)
    if ref is None:  # R[q, k] = exp(-i w_q s_k), s_k the nodes of a panel [0, T], kept read-only
        ref = np.exp(-1j * np.outer(freqs, gauss_legendre(rule.panel_order, 0.0, T)[0]))
        ref.flags.writeable = False
        basis._band_blocks[rule.panel_order] = ref
    # every panel is [a_p, a_p + T], so F = sum_p exp(-i w a_p) (ref @ wv_p)
    starts = np.array([lo for lo, _ in rule.panels])
    wv = rule.weights * rule.values
    per_panel = ref @ wv.reshape(len(starts), rule.panel_order).T
    F = np.einsum("qp,qp->q", np.exp(-1j * np.outer(freqs, starts)), per_panel)
    return (freqs, band, F, reach), rule.total_energy


def _pulse_rows(transform, shifts, n_derivs: int) -> np.ndarray:
    """Rows <d^m/dt^m f(t - s), psi_n>, indexed [s, m, n], from f's ``_pulse_transform``.

    Every psi_n is bandlimited, so a row is (1/2 pi) int (i w)^m exp(-i w s)
    F(w) conj(Psi_n(w)) dw over the band, taken on the basis' band rule.  One
    matrix-vector product per row: a row comes out the same whatever other
    shifts and orders are asked for.  A shift beyond the reach of the band
    rule, where its phases alias, raises QuadratureError.
    """
    freqs, band, F, reach = transform
    far = max(map(abs, shifts))
    if far > reach:
        raise QuadratureError(f"shift {far:g} beyond the reach {reach:g} of the "
                              f"{freqs.size}-node band rule")
    phases = np.exp(-1j * np.outer(shifts, freqs))[:, None, :]
    powers = (1j * freqs) ** np.arange(n_derivs + 1)[:, None]
    columns = (phases * powers * F).reshape(-1, freqs.size)
    rows = np.array([(band @ col).real for col in columns])
    return rows.reshape(len(shifts), n_derivs + 1, band.shape[0])
