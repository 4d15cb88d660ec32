"""Bandlimited functions as coefficient vectors in the prolate basis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LAMBDA_FLOOR, ProlateBasis, _transforms, _window_values
from .errors import QuadratureError
from .params import SlepianParams
from .quadrature import gauss_legendre, real_line_rule


@dataclass(frozen=True)
class BandlimitedFunction:
    """Expansion coefficients f_n of a function over psi_0..psi_n_max."""

    params: SlepianParams
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.atleast_1d(np.asarray(self.coeffs, dtype=float)))

    def energy(self) -> float:
        """Whole-line energy of the represented function (Parseval)."""
        return float(np.dot(self.coeffs, self.coeffs))


def project(f, basis: ProlateBasis, *, bandlimited: bool = False) -> BandlimitedFunction:
    """Project a function of time onto the prolate basis.

    Coefficients are the whole-line inner products with psi_n, so for inputs
    that are not bandlimited this is the orthogonal projection onto the
    bandlimited subspace spanned by the basis.

    Parameters
    ----------
    f : callable
        Vectorized real function of time.
    bandlimited : bool
        Declare ``f`` exactly bandlimited to the basis bandwidth.  The inner
        products then reduce to window integrals through the eigenvalue
        identity f_n = (1/lambda_n) * int_{-T}^{T} f psi_n on a Gauss-Legendre
        rule of order max(4 n_max, ceil(4c), 64).  The division carries the
        rounding of f's window values into coefficient n as about
        eps / sqrt(lambda_n): projecting psi_0..psi_3
        at c from 2 to 45 gave up to 38 eps / sqrt(lambda_n), and 2.6e-9 in
        coefficient 11 of psi_3 at c = 5, where lambda_11 = 6.3e-13.  Slowly
        decaying bandlimited inputs are hopeless for truncated real-line
        quadrature, so use this whenever it applies.

    Raises
    ------
    QuadratureError
        If the energy tail of a generic ``f`` is still above tolerance at the
        radius cap of ``quadrature.RADIUS_CAP`` windows; the achieved tolerance is
        reported.
    ValueError
        With ``bandlimited=True``, if a mode's eigenvalue is below ``LAMBDA_FLOOR``.
    """
    if bandlimited:
        low = np.flatnonzero(basis.lambdas < LAMBDA_FLOOR)
        if low.size:
            raise ValueError(f"basis holds modes below LAMBDA_FLOOR (n = {low.tolist()}); "
                             f"rebuild with automatic n_max or a smaller index range")
        T, order = basis.params.T, max(4 * basis.n_max, math.ceil(4.0 * basis.params.c), 64)
        nodes, weights = gauss_legendre(order, -T, T)
        fvals = np.asarray(f(nodes), dtype=float)
        coeffs = (_window_values(basis, nodes) * weights) @ fvals / basis.lambdas
        return BandlimitedFunction(params=basis.params, coeffs=coeffs)
    transform, _ = _pulse_transform(f, basis,
                                    hint="; pass bandlimited=True if f is bandlimited")
    return BandlimitedFunction(params=basis.params,
                               coeffs=_pulse_rows(transform, (0.0,), 0)[0, 0])


def _pulse_transform(f, basis: ProlateBasis, hint: str = ""):
    """The transform of f at the band nodes, from one sampling, and the energy of f.

    f is sampled once on the real-line rule.  Returns ((w, B, F), energy):
    F(w_q) = int f(t) exp(-i w_q t) dt at the band nodes w_q, with the band
    block B of ``_band_blocks``, ready for ``_pulse_rows``.  ``hint`` ends the
    message of the QuadratureError raised when the rule does not converge.
    """
    T = basis.params.T
    rule = real_line_rule(f, T, max_freq=2.0 * basis.params.omega + 16.0 / T)
    if not rule.converged:
        achieved = math.sqrt(rule.tail_energy / max(rule.total_energy, 1e-300))
        raise QuadratureError(
            f"tail of the integrand still significant at radius {rule.radius:g}{hint}",
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
