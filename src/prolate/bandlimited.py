"""Prolate coefficients of functions of time, from one sampling on the real line."""

from __future__ import annotations

import math

import numpy as np

from .basis import ProlateBasis, _transforms
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

    f is sampled once on the real-line rule.  Returns ((w, B, F), energy):
    F(w_q) = int f(t) exp(-i w_q t) dt at the band nodes w_q, with the band
    block B of ``_band_blocks``, ready for ``_pulse_rows``.
    """
    T = basis.params.T
    rule = real_line_rule(f, T, max_freq=2.0 * basis.params.omega + 16.0 / T)
    if not rule.converged:
        achieved = math.sqrt(rule.tail_energy / max(rule.total_energy, 1e-300))
        raise QuadratureError(
            f"tail of the integrand still significant at radius {rule.radius:g}",
            achieved=achieved)
    freqs, band, ref = _band_blocks(basis, rule.panel_order)
    # every panel is [a_p, a_p + T], so F = sum_p exp(-i w a_p) (ref @ wv_p)
    starts = np.array([lo for lo, _ in rule.panels])
    wv = rule.weights * rule.values
    per_panel = ref @ wv.reshape(len(starts), rule.panel_order).T
    F = np.einsum("qp,qp->q", np.exp(-1j * np.outer(freqs, starts)), per_panel)
    return (freqs, band, F), rule.total_energy


def _pulse_rows(transform, shifts, n_derivs: int) -> np.ndarray:
    """Rows <d^m/dt^m f(t - s), psi_n>, indexed [s, m, n], from f's ``_pulse_transform``.

    Every psi_n is bandlimited, so a row is (1/2 pi) int (i w)^m exp(-i w s)
    F(w) conj(Psi_n(w)) dw over the band.  One matrix-vector product per row:
    a row comes out the same whatever other shifts and orders are asked for.
    """
    freqs, band, F = transform
    phases = np.exp(-1j * np.outer(shifts, freqs))[:, None, :]
    powers = (1j * freqs) ** np.arange(n_derivs + 1)[:, None]
    columns = (phases * powers * F).reshape(-1, freqs.size)
    rows = np.array([(band @ col).real for col in columns])
    return rows.reshape(len(shifts), n_derivs + 1, band.shape[0])


def _band_blocks(basis: ProlateBasis, order: int):
    """Band nodes w_q, B[n, q] = conj(Psi_n(w_q)) v_q / (2 pi), R[q, k] = exp(-i w_q s_k).

    v_q are the weights of an n_w = max(64, ceil(3c) + 48) point rule on the
    band and s_k the nodes of a panel [0, T].  Built once per basis and panel
    order, read-only, published whole.
    """
    blocks = basis._band_blocks.get(order)
    if blocks is None:
        p = basis.params
        freqs, v = gauss_legendre(max(64, math.ceil(3.0 * p.c) + 48), -p.omega, p.omega)
        band = np.conj(_transforms(basis, freqs)) * (v / (2.0 * math.pi))
        ref = np.exp(-1j * np.outer(freqs, gauss_legendre(order, 0.0, p.T)[0]))
        for a in (freqs, band, ref):
            a.flags.writeable = False
        basis._band_blocks[order] = blocks = freqs, band, ref
    return blocks
