"""Bandlimited functions as coefficient vectors in the prolate basis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ProlateBasis, extension_matrix
from .errors import QuadratureError
from .params import SlepianParams
from .quadrature import gauss_legendre, real_line_rule

#: energy-tail share at which band_energy_fraction stops growing its domain
ENERGY_TOL = 1e-10


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


def _require_same_params(a: SlepianParams, b: SlepianParams) -> None:
    if a != b:
        raise ValueError(f"basis parameter mismatch: {a} vs {b}")


def _require_all_extendable(basis: ProlateBasis) -> None:
    if not np.all(basis.extendable):
        bad = np.nonzero(~basis.extendable)[0]
        raise ValueError(
            f"basis holds modes below the extension floor (n = {bad.tolist()}); "
            f"rebuild with automatic n_max or a smaller index range")


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
        identity f_n = (1/lambda_n) * int_{-T}^{T} f psi_n, which the stored
        rule resolves to machine precision.  Slowly decaying bandlimited
        inputs are hopeless for truncated real-line quadrature, so use this
        whenever it applies.

    Raises
    ------
    QuadratureError
        If the energy tail of a generic ``f`` is still above tolerance at the
        radius cap of ``quadrature.RADIUS_CAP`` windows; the achieved tolerance is
        reported.
    """
    if bandlimited:
        _require_all_extendable(basis)
        fvals = np.asarray(f(basis.nodes), dtype=float)
        coeffs = (basis.samples * basis.weights) @ fvals / basis.lambdas
        return BandlimitedFunction(params=basis.params, coeffs=coeffs)
    coeffs = _real_line_coeffs(f, basis, 0)[0]
    return BandlimitedFunction(params=basis.params, coeffs=coeffs)


def _real_line_coeffs(f, basis: ProlateBasis, n_derivs: int) -> np.ndarray:
    """Rows <f^(m), psi_n> for m = 0..n_derivs, from samples of f alone.

    Row 0 applies the Nystrom extension block.  Every psi_n is bandlimited, so
    row m >= 1 is (1/2 pi) int (i w)^m F(w) conj(Psi_n(w)) dw over the band,
    with F the transform of the samples: no derivative of f is taken.
    """
    _require_all_extendable(basis)
    T = basis.params.T
    rule = real_line_rule(f, T, max_freq=2.0 * basis.params.omega + 16.0 / T)
    if not rule.converged:
        achieved = math.sqrt(rule.tail_energy / max(rule.total_energy, 1e-300))
        raise QuadratureError(
            f"tail of the integrand still significant at radius {rule.radius:g}; "
            "pass bandlimited=True if f is bandlimited",
            achieved=achieved)
    wv = rule.weights * rule.values
    coeffs = _extension_block(basis, rule) @ wv
    if not n_derivs:
        return coeffs[None, :]
    freqs, band, ref = _band_blocks(basis, rule.panel_order)
    # every panel is [a_p, a_p + T], so F = sum_p exp(-i w a_p) (ref @ wv_p)
    starts = np.array([lo for lo, _ in rule.panels])
    per_panel = ref @ wv.reshape(len(starts), rule.panel_order).T
    F = np.einsum("qp,qp->q", np.exp(-1j * np.outer(freqs, starts)), per_panel)
    powers = (1j * freqs[:, None]) ** np.arange(1, n_derivs + 1)
    return np.vstack([coeffs, (band @ (powers * F[:, None])).real.T])


def _band_blocks(basis: ProlateBasis, order: int):
    """Band nodes w_q, B[n, q] = conj(Psi_n(w_q)) v_q / (2 pi), R[q, k] = exp(-i w_q s_k).

    Psi_n(w) = sum_j a_jn exp(-i w z_j), v_q are the weights of an n_w =
    max(64, ceil(3c) + 48) point rule on the band and s_k the nodes of a panel
    [0, T].  Built once per basis and panel order, read-only, published whole.
    """
    blocks = basis._band_blocks.get(order)
    if blocks is None:
        p = basis.params
        freqs, v = gauss_legendre(max(64, math.ceil(3.0 * p.c) + 48), -p.omega, p.omega)
        core = (basis.weights * basis.samples) / basis.lambdas[:, None]
        band = (core @ np.exp(1j * np.outer(basis.nodes, freqs))) * (v / (2.0 * math.pi))
        ref = np.exp(-1j * np.outer(freqs, gauss_legendre(order, 0.0, p.T)[0]))
        for a in (freqs, band, ref):
            a.flags.writeable = False
        basis._band_blocks[order] = blocks = freqs, band, ref
    return blocks


def _extension_block(basis: ProlateBasis, rule) -> np.ndarray:
    """``extension_matrix(basis, rule.nodes)``, cut from one block kept on the basis.

    Every rule ``_real_line_coeffs`` builds on a basis has panels of width T
    and one order, so its panels are the middle ones of any wider rule.  The
    basis keeps one block per panel order, over the widest rule seen so far.
    A wider rule grows it outward into a new array, one new panel at a time;
    a published block is never written to.
    """
    m, n = rule.panel_order, rule.nodes.size
    block = basis._extension_blocks.get(m)
    if block is None or block.shape[1] < n:
        have = 0 if block is None else block.shape[1]
        inner = slice((n - have) // 2, (n + have) // 2)
        grown = np.empty((basis.n_modes, n))
        if have:
            grown[:, inner] = block
        for start in [*range(0, inner.start, m), *range(inner.stop, n, m)]:
            part = slice(start, start + m)
            grown[:, part] = extension_matrix(basis, rule.nodes[part])
        grown.flags.writeable = False
        basis._extension_blocks[m] = block = grown
    lo = (block.shape[1] - n) // 2
    return block[:, lo:lo + n]


def synthesize(g: BandlimitedFunction, basis: ProlateBasis, t):
    """Evaluate sum_n g_n psi_n(t) for scalar or array t."""
    _require_same_params(g.params, basis.params)
    t_arr = np.asarray(t, dtype=float)
    psi = extension_matrix(basis, t_arr.ravel(), np.arange(g.coeffs.size))
    vals = g.coeffs @ psi
    if t_arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(t_arr.shape)


def band_energy_fraction(f, omega: float, *, basis: ProlateBasis | None = None) -> float:
    """Fraction of spectral energy of ``f`` inside the band [-omega, omega].

    Two input forms are supported:

    * a BandlimitedFunction (``basis`` required): its transform is known in
      closed form on the basis band, so the fraction is a finite smooth
      frequency integral against the exact Parseval energy of the
      coefficients -- no real-line truncation enters at all;
    * a generic callable: the transform is taken by quadrature over a domain
      grown in panels of width T (1 without a basis) until the truncated
      energy tail is below ``ENERGY_TOL`` of the total; a QuadratureError
      reports the achieved tolerance when the cap of
      ``quadrature.RADIUS_CAP`` panels cannot meet the budget.
    """
    if not (omega > 0.0):
        raise ValueError("omega must be positive")

    if isinstance(f, BandlimitedFunction):
        if basis is None:
            raise ValueError("basis is required to evaluate a BandlimitedFunction")
        _require_same_params(f.params, basis.params)
        for n in range(f.coeffs.size):
            basis.require_extendable(n)
        omega0 = basis.params.omega
        beta = f.coeffs @ ((basis.weights * basis.samples[: f.coeffs.size])
                           / basis.lambdas[: f.coeffs.size, None])
        band = min(omega, omega0)
        nw = max(96, math.ceil(3.0 * basis.params.c) + 32)
        x, w = gauss_legendre(nw, -band, band)
        transform = np.exp(-1j * np.outer(x, basis.nodes)) @ beta
        e_in = float(np.dot(w, np.abs(transform) ** 2)) / (2.0 * math.pi)
        e_tot = f.energy()
        if e_tot <= 0.0:
            return 0.0
        return float(min(max(e_in / e_tot, 0.0), 1.0))

    core = basis.params.T if basis else 1.0
    rule = real_line_rule(f, core, max_freq=2.0 * omega + 16.0 / core,
                          rel_tol=math.sqrt(ENERGY_TOL))
    if rule.total_energy <= 0.0:
        return 0.0
    if not rule.converged:
        raise QuadratureError(
            "time-domain energy tail still above budget at the radius cap",
            achieved=rule.tail_energy / rule.total_energy)
    nw = max(96, math.ceil(0.8 * omega * rule.radius) + 32)
    x, w = gauss_legendre(nw, -omega, omega)
    transform = np.exp(-1j * np.outer(x, rule.nodes)) @ (rule.weights * rule.values)
    e_in = float(np.dot(w, np.abs(transform) ** 2)) / (2.0 * math.pi)
    return float(min(max(e_in / rule.total_energy, 0.0), 1.0))
