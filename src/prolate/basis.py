"""Prolate spheroidal wave functions from the prolate differential operator.

Inside the window, psi_n(t) = sqrt(lambda_n / T) phi_n(t / T), with phi_n of
unit norm on [-1, 1].  Over the normalized Legendre polynomials
sqrt(k + 1/2) P_k the prolate operator is two symmetric tridiagonal matrices,
one per parity, whose eigenvectors are the coefficients beta_n of phi_n
(Osipov, Rokhlin & Xiao, 2013); their eigenvalues stay well separated where
the lambda_n cluster at 1.  lambda_n = c |mu_n|^2 / (2 pi), with mu_n the
eigenvalue of the finite Fourier transform of phi_n.  Off the window, psi_n
is the band integral of its transform Psi_n(w) = (-i)^n sqrt(2 pi / Omega)
phi_n(w / Omega), |w| <= Omega = c / T, so nothing divides by lambda_n.

Normalization: psi_n carries unit energy on the real line, so its energy
inside the window equals lambda_n.  Signs follow the Hermite-compatible
parity convention sign(psi_n(0)) = (-1)^(n/2) for even n and
sign(psi_n'(0)) = (-1)^((n-1)/2) for odd n, so that psi_n approaches the
n-th Hermite-Gauss mode (not its negative) for large c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigensolverError
from .params import SlepianParams
from .quadrature import gauss_legendre

#: The automatic n_max keeps the modes at or above this eigenvalue.  Nothing
#: divides by lambda_n, so an explicit n_max may reach below it.
LAMBDA_FLOOR = 1e-13

#: Most Legendre terms, 2((n_modes + ceil(c))//2 + 20), that ``build_basis`` solves in;
#: its dense solve peaks near 220 MB there (c = 5, n_max = 2003).  More are refused.
MAX_LEGENDRE_SIZE = 2048

#: Bytes of the band-node tables ``extension_matrix`` holds at once; 601 times always fit
_BLOCK_BYTES = 1 << 24

_PHASES = np.array([1.0, -1j, -1.0, 1j])  # (-i)^n for n mod 4


def plunge_index(c: float) -> int:
    """Index ceil(2c/pi) where the eigenvalue spectrum plunges from ~1 to ~0."""
    if not (c > 0.0):
        raise ValueError("c must be positive")
    # guard against ties sitting one ulp above an integer
    return max(1, math.ceil(2.0 * c / math.pi - 1e-12))


def _legendre_shape(c: float, n_max: int | None = None) -> tuple[int, int]:
    """Modes and Legendre terms ``build_basis`` solves for; the automatic
    n_max (``None``) keeps at most max(ceil(4c), 64) // 4 modes."""
    n_modes = max(math.ceil(4.0 * c), 64) // 4 if n_max is None else n_max + 1
    return n_modes, 2 * ((n_modes + math.ceil(c)) // 2 + 20)


@dataclass(frozen=True, eq=False)
class ProlateBasis:
    """Computed family psi_0..psi_n_max for one (c, T) configuration.

    Immutable after construction; safe to share across threads.  Every value
    of psi_n comes from the modes' Legendre coefficients, kept privately with
    lazily filled read-only arrays: the band rule ``_band_rule``, and per
    panel order the time-to-band map R of ``bandlimited``.  Threads filling
    them at once may each build a copy; the last stored is kept, no result changes.
    ``_last_sampling`` holds the (psf, record) pair of the last pulse sampled
    on the basis, one pair at most, replaced whole, so a reader takes both
    from one tuple.

    Attributes
    ----------
    lambdas : concentration eigenvalues, non-increasing, in [0, 1).
    """

    params: SlepianParams
    n_max: int
    lambdas: np.ndarray
    # Legendre coefficients beta_n of phi_n, one row per mode
    _beta: np.ndarray = field(repr=False)
    _band_blocks: dict = field(default_factory=dict, init=False, repr=False)
    _last_sampling: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n_modes(self) -> int:
        return self.n_max + 1

    @functools.cached_property
    def _band_rule(self) -> tuple:
        """(w, B, reach): band nodes w_q, B[n, q] = conj(Psi_n(w_q)) v_q / (2 pi), n_w / Omega.

        v_q weigh the n_w points of the band rule, sized for the phases of an
        automatic basis and at least K Legendre terms plus n_max // 16 for an
        explicit n_max's degree.  Every mode value and shift up to the reach,
        the largest |t| whose phases exp(i w t) it resolves, reads B.
        """
        c, omega, size = self.params.c, self.params.omega, self._beta.shape[1]
        freqs, v = gauss_legendre(max(64, math.ceil(3.0 * c) + 48, size + self.n_max // 16),
                                  -omega, omega)
        n = np.arange(self.n_modes)  # Psi_n(w) = (-i)^n sqrt(2 pi / Omega) phi_n(w / Omega)
        band = np.conj((_PHASES[n % 4] * math.sqrt(2.0 * math.pi / omega))[:, None] * (
            self._beta @ _legendre_table(freqs / omega, size))) * (v / (2.0 * math.pi))
        freqs.flags.writeable = band.flags.writeable = False
        return freqs, band, freqs.size / omega


def _legendre_table(x, size: int) -> np.ndarray:
    """sqrt(k + 1/2) P_k(x) for k < size, rows k, columns x."""
    x = np.asarray(x, dtype=float)
    table = np.empty((size, x.size))
    table[0] = math.sqrt(0.5)
    table[1] = math.sqrt(1.5) * x
    k = np.arange(1.0, size - 1.0)
    a = np.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0)) / (k + 1.0)
    b = k / (k + 1.0) * np.sqrt((2.0 * k + 3.0) / (2.0 * k - 1.0))
    for j in range(1, size - 1):
        np.multiply(x, table[j], out=table[j + 1])
        table[j + 1] *= a[j - 1]
        table[j + 1] -= b[j - 1] * table[j - 1]
    return table


def _legendre_modes(c: float, n_modes: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients beta (rows n, sign-fixed) and lambda_n of modes 0..n_modes-1.

    mu_n follows from int phi_n = mu_n phi_n(0), or for odd n from
    i c int x phi_n = mu_n phi_n'(0), while lambda_n >= 1/2; below, from the ratio
    identity mu_n <phi_{n+1}, phi_n'> = i c mu_{n+1} <phi_{n+1}, x phi_n>, whose
    bilinear forms in beta keep their relative accuracy down the tail.
    """
    beta = np.zeros((n_modes, size))
    for parity in (0, 1):
        count = len(range(parity, n_modes, 2))
        if count == 0:
            continue
        k = np.arange(parity, size, 2, dtype=float)
        diag = k * (k + 1.0) + c * c * (2.0 * k * (k + 1.0) - 1.0) / (
            (2.0 * k + 3.0) * (2.0 * k - 1.0))
        k = k[:-1]
        off = c * c * (k + 2.0) * (k + 1.0) / (
            (2.0 * k + 3.0) * np.sqrt((2.0 * k + 1.0) * (2.0 * k + 5.0)))
        chi, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # one correction step from the residual, which is accurate row by row:
        # eigh alone leaves errors of eps |A| / gap, 1e-14 in lambda near 1
        v = vecs[:, :count]
        res = (diag[:, None] - chi[:count]) * v
        res[:-1] += off[:, None] * v[1:]
        res[1:] += off[:, None] * v[:-1]
        gaps = chi[:count] - chi[:, None]
        gaps[np.arange(count), np.arange(count)] = np.inf
        v = v + vecs @ ((vecs.T @ res) / gaps)
        beta[parity::2, parity::2] = (v / np.linalg.norm(v, axis=0)).T

    # phi_n(0) for even n, phi_n'(0) for odd n, from P_k(0) and P_k'(0) = k P_{k-1}(0)
    k = np.arange(size)
    p0 = np.zeros(size)
    p0[::2] = np.cumprod(np.r_[1.0, -(k[2::2] - 1.0) / k[2::2]])
    at0 = beta @ (np.sqrt(k + 0.5) * np.where(k % 2, k * np.roll(p0, 1), p0))
    n = np.arange(n_modes)
    beta *= np.where((at0 < 0.0) == ((n // 2) % 2 == 0), -1.0, 1.0)[:, None]
    moment = np.where(n % 2, c * math.sqrt(2.0 / 3.0) * beta[n, n % 2],
                      math.sqrt(2.0) * beta[n, 0])
    lam = c * (moment / at0) ** 2 / (2.0 * math.pi)

    # x p_k = a_{k+1} p_{k+1} + a_k p_{k-1}, and (d/dx) p_k sums
    # sqrt((2j + 1)(2k + 1)) p_j over j < k of the other parity
    a = k[1:] / np.sqrt(4.0 * k[1:] ** 2 - 1.0)
    x_beta = np.zeros_like(beta)
    x_beta[:, 1:] += a * beta[:, :-1]
    x_beta[:, :-1] += a * beta[:, 1:]
    tail = np.cumsum((np.sqrt(2.0 * k + 1.0) * beta)[:, :0:-1], axis=1)[:, ::-1]
    d_beta = np.sqrt(2.0 * k[:-1] + 1.0) * tail
    ratio = (np.einsum("nk,nk->n", beta[1:, :-1], d_beta[:-1])
             / (c * np.einsum("nk,nk->n", beta[1:], x_beta[:-1]))) ** 2
    anchor = max(int(np.argmax(lam < 0.5)) - 1, 0) if np.any(lam < 0.5) else n_modes - 1
    lam[anchor + 1:] = lam[anchor] * np.cumprod(ratio[anchor:])
    lam = np.minimum.accumulate(np.clip(lam, 0.0, np.nextafter(1.0, 0.0)))
    return beta, lam


def build_basis(params: SlepianParams, n_max: int | None = None) -> ProlateBasis:
    """Solve for the prolate modes of the window [-T, T] in the Legendre basis.

    Parameters
    ----------
    params : SlepianParams
        Window half-length T and Slepian frequency c.
    n_max : int or None
        Highest mode index to keep.  ``None`` keeps every mode whose
        eigenvalue is at or above ``LAMBDA_FLOOR``, at most
        max(ceil(4c), 64) // 4 of them.

    Raises
    ------
    ValueError
        If n_max is negative, or the Legendre basis for c and n_max would
        exceed ``MAX_LEGENDRE_SIZE`` terms; nothing is allocated then.
    EigensolverError
        If the automatic n_max finds no eigenvalue at or above the floor.
    """
    if not isinstance(params, SlepianParams):
        raise TypeError("params must be a SlepianParams instance")
    if n_max is not None and n_max < 0:
        raise ValueError("n_max must be >= 0")

    c = params.c
    n_modes, size = _legendre_shape(c, n_max)
    if size > MAX_LEGENDRE_SIZE:
        raise ValueError(f"c={c}, n_max={n_max} needs {size} Legendre terms > MAX_LEGENDRE_SIZE")
    beta, lam = _legendre_modes(c, n_modes, size)
    if n_max is None:
        n_max = int(np.count_nonzero(lam >= LAMBDA_FLOOR)) - 1
        if n_max < 0:
            raise EigensolverError(
                f"no eigenvalue reaches the floor {LAMBDA_FLOOR:.1e} at c={c}")
        beta, lam = beta[: n_max + 1].copy(), lam[: n_max + 1].copy()
    return ProlateBasis(params=params, n_max=n_max, lambdas=lam, _beta=beta)


def extension_matrix(basis: ProlateBasis, t, indices=None) -> np.ndarray:
    """psi_n(t) for the selected modes, rows n, columns t, for every real t.

    The band integral (1/2 pi) int Psi_n(w) exp(i w t) dw: from the rows of the
    basis' band rule ``_band_rule`` while |t| is within its reach n_w / Omega,
    and term by term beyond, sqrt(2 Omega / pi) sum_k i^(k - n) beta_nk
    sqrt(k + 1/2) j_k(Omega t), with the spherical Bessel functions j_k by
    upward recurrence, stable there since every k < K <= n_w < Omega |t|.
    The times are taken in blocks whose band-node tables stay under
    ``_BLOCK_BYTES``, so memory beyond the result does not grow with len(t).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = np.atleast_1d(np.arange(basis.n_modes) if indices is None else np.asarray(indices, int))
    if np.any((n < 0) | (n > basis.n_max)):
        raise ValueError(f"mode index outside computed range 0..{basis.n_max}")
    freqs, band, reach = basis._band_rule
    omega, size = basis.params.omega, basis._beta.shape[1]
    # the nodes pair as +/- w_q, and Psi_n is even and real, or odd and
    # imaginary: the sum folds onto w_q >= 0, one of cos and sin per mode
    top = slice(freqs.size // 2, None)
    half, w = band[n][:, top] * np.where(freqs[top] > 0.0, 2.0, 1.0), freqs[top]
    k = np.arange(size)  # beta_nk = 0 unless k - n is even
    terms = math.sqrt(2.0 * omega / math.pi) * basis._beta[n] * np.sqrt(k + 0.5) * (
        -1.0) ** ((k - n[:, None]) // 2)
    out = np.zeros((n.size, t.size))
    width = max(1, _BLOCK_BYTES // (8 * freqs.size))
    for lo in range(0, t.size, width):
        block, tb = out[:, lo:lo + width], t[lo:lo + width]
        near = np.abs(tb) <= reach
        if np.any(half.real):
            block[:, near] += half.real @ np.cos(np.outer(w, tb[near]))
        if np.any(half.imag):
            block[:, near] += half.imag @ np.sin(np.outer(w, tb[near]))
        if not np.all(near):
            z = omega * tb[~near]
            j = np.empty((size, z.size))
            j[0], j[1] = np.sin(z) / z, (np.sin(z) / z - np.cos(z)) / z
            for m in range(1, size - 1):
                j[m + 1] = (2 * m + 1) / z * j[m] - j[m - 1]
            block[:, ~near] = terms @ j
    return out


def eval_psi(basis: ProlateBasis, n: int, t):
    """Evaluate psi_n at time t (scalar or array)."""
    t_arr = np.asarray(t, dtype=float)
    vals = extension_matrix(basis, t_arr.ravel(), [n])[0]
    if t_arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(t_arr.shape)


def lambda0_curve(c_values, T: float = 1.0) -> np.ndarray:
    """Table of (c, lambda_0(c)) rows for the given c values."""
    c_values = np.atleast_1d(np.asarray(c_values, dtype=float))
    if c_values.size == 0:
        raise ValueError("c_values must be non-empty")
    rows = np.empty((c_values.size, 2))
    for i, c in enumerate(c_values):
        basis = build_basis(SlepianParams(c=float(c), T=T), n_max=0)
        rows[i, 0] = c
        rows[i, 1] = basis.lambdas[0]
    return rows
