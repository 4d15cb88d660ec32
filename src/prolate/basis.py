"""Prolate spheroidal wave functions from the sinc-kernel integral equation.

The band-limiting kernel K(t, z) = sin(omega (t - z)) / (pi (t - z)) restricted
to [-T, T] is discretized on a Gauss-Legendre grid (Nystrom method).  The
eigenvalues of the symmetrized kernel matrix are the concentration ratios
lambda_n; the scaled eigenvectors sample the eigenfunctions psi_n on the grid,
and the Nystrom formula extends them to the whole real line.

Normalization: psi_n carries unit energy on the real line, so its energy
inside the window equals lambda_n.  Signs follow the Hermite-compatible
parity convention sign(psi_n(0)) = (-1)^(n/2) for even n and
sign(psi_n'(0)) = (-1)^((n-1)/2) for odd n, so that psi_n approaches the
n-th Hermite-Gauss mode (not its negative) for large c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigensolverError
from .params import SlepianParams
from .quadrature import gauss_legendre

#: Below this eigenvalue the Nystrom extension (which divides by lambda_n)
#: is no longer trusted in double precision.
LAMBDA_FLOOR = 1e-13

_ZERO_FLOOR = 5e-15       # eigenvalues below are indistinguishable from zero
_SATURATION = 1e-10       # 1 - lambda below this: clustered at unity
_TAIL_CLUSTER = 1e-11     # eigenvalue pairs this small sit in the noise tail
_DEGENERACY_GAP = 1e-12


def sinc_kernel(t, z, omega: float):
    """Band-limiting kernel sin(omega (t - z)) / (pi (t - z)).

    Defined for all real (t, z); the diagonal t = z takes the limit omega/pi.
    """
    if not (omega > 0.0):
        raise ValueError("omega must be positive")
    # the operations of (omega/pi) * np.sinc((omega/pi) * x) in the same order,
    # done in place: two arrays of the output's size plus a mask, not six
    u = np.asarray(np.subtract(t, z, dtype=float))
    u *= omega / np.pi
    u *= np.pi
    u[u == 0.0] = np.finfo(float).eps  # sin(eps)/eps == 1 exactly
    k = np.sin(u)
    k /= u
    k *= omega / np.pi
    return k[()]


def sinc_kernel_dt(t, z, omega: float):
    """Derivative of the kernel with respect to its first argument.

    (omega^2/pi) s'(omega (t - z)) for s(u) = sin(u)/u: (cos u - s(u)) / u for
    |u| > 1, and -int_0^1 x sin(u x) dx on a fixed 12-point rule closer to 0.
    """
    if not (omega > 0.0):
        raise ValueError("omega must be positive")
    u = omega * np.asarray(np.subtract(t, z, dtype=float))
    small = np.abs(u) <= 1.0
    u_big = np.where(small, 1.0, u)
    x, w = gauss_legendre(12, 0.0, 1.0)
    out = np.empty(u.shape)
    out[...] = (np.cos(u_big) - np.sin(u_big) / u_big) / u_big
    out[small] = -((np.sin(np.multiply.outer(u[small], x)) * x) @ w)
    out *= omega ** 2 / np.pi
    return out[()]


def plunge_index(c: float) -> int:
    """Index ceil(2c/pi) where the eigenvalue spectrum plunges from ~1 to ~0."""
    if not (c > 0.0):
        raise ValueError("c must be positive")
    # guard against ties sitting one ulp above an integer
    return max(1, math.ceil(2.0 * c / math.pi - 1e-12))


def default_quad_order(c: float, n_max: int) -> int:
    """Minimum Gauss-Legendre order resolving the kernel and n_max modes."""
    return max(4 * n_max, math.ceil(4.0 * c), 64)


@dataclass(frozen=True)
class ProlateBasis:
    """Computed family psi_0..psi_n_max for one (c, T) configuration.

    Immutable after construction; safe to share across threads.  It carries
    private, lazily filled caches of read-only arrays: the Nystrom extension
    onto the panels of the widest real-line rule ``project`` has used on it,
    one block that a wider rule replaces with a grown copy; and, per panel
    order, the band blocks B and R of ``gamma_modes`` (at c = 45, 126 KB and
    305 KB).  Two threads filling a cache at once each build their own copy
    and the last one stored is kept; no result changes.

    Attributes
    ----------
    nodes, weights : Gauss-Legendre rule of order ``quad_order`` on [-T, T].
    lambdas : concentration eigenvalues, descending, clipped to [0, 1).
    samples : psi_n at the nodes, one row per mode, sign-fixed.
    """

    params: SlepianParams
    n_max: int
    quad_order: int
    nodes: np.ndarray
    weights: np.ndarray
    lambdas: np.ndarray
    samples: np.ndarray
    _extension_blocks: dict = field(default_factory=dict, init=False,
                                    repr=False, compare=False, hash=False)
    _band_blocks: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False, hash=False)

    @property
    def n_modes(self) -> int:
        return self.n_max + 1

    @property
    def extendable(self) -> np.ndarray:
        """Boolean mask of modes whose Nystrom extension is trustworthy."""
        return self.lambdas >= LAMBDA_FLOOR

    def require_extendable(self, n: int) -> None:
        if not (0 <= n <= self.n_max):
            raise ValueError(f"mode index {n} outside computed range 0..{self.n_max}")
        if self.lambdas[n] < LAMBDA_FLOOR:
            raise EigensolverError(
                f"lambda_{n} = {self.lambdas[n]:.3e} is below the extension floor "
                f"{LAMBDA_FLOOR:.1e}; the mode cannot be evaluated off-grid")


def build_basis(params: SlepianParams, n_max: int | None = None,
                quad_order: int | None = None) -> ProlateBasis:
    """Solve the sinc-kernel eigenproblem on [-T, T] by Nystrom discretization.

    Parameters
    ----------
    params : SlepianParams
        Window half-length T and Slepian frequency c.
    n_max : int or None
        Highest mode index to keep.  ``None`` keeps every mode whose
        eigenvalue is at or above ``LAMBDA_FLOOR`` (all extendable), at most
        quad_order/4 of them.
    quad_order : int or None
        Gauss-Legendre order; default max(4*n_max, ceil(4c), 64).  Orders
        below the default are rejected.

    Raises
    ------
    EigensolverError
        If the requested n_max reaches eigenvalues indistinguishable from
        zero at working precision, or a near-degenerate pair is detected
        outside the benign clusters at 1 and 0.
    """
    if not isinstance(params, SlepianParams):
        raise TypeError("params must be a SlepianParams instance")
    if n_max is not None and n_max < 0:
        raise ValueError("n_max must be >= 0")

    c, T, omega = params.c, params.T, params.omega
    min_order = default_quad_order(c, n_max if n_max is not None else 0)
    if quad_order is None:
        quad_order = min_order
    elif quad_order < min_order:
        raise ValueError(
            f"quad_order {quad_order} below the required minimum {min_order} "
            f"for c={c}, n_max={n_max}")

    nodes, weights = gauss_legendre(quad_order, -T, T)
    sqw = np.sqrt(weights)
    # scaled and symmetrized in place: one order x order array lives through eigh
    sym = sinc_kernel(nodes[:, None], nodes[None, :], omega)
    sym *= sqw[:, None]
    sym *= sqw[None, :]
    sym += sym.T
    sym *= 0.5
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1]
    lam_all = np.clip(evals[order], 0.0, np.nextafter(1.0, 0.0))
    vecs_all = evecs[:, order]

    n_usable = int(np.count_nonzero(lam_all > _ZERO_FLOOR))
    if n_max is None:
        n_keep = int(np.count_nonzero(lam_all >= LAMBDA_FLOOR))
        n_keep = min(n_keep, quad_order // 4)
        if n_keep == 0:
            raise EigensolverError(
                f"no eigenvalue reaches the extension floor {LAMBDA_FLOOR:.1e} "
                f"at c={c}; increase quad_order")
        n_max = n_keep - 1
    elif n_max + 1 > n_usable:
        raise EigensolverError(
            f"requested n_max={n_max} but only {n_usable} eigenvalues are "
            f"numerically distinguishable from zero at quad_order={quad_order}")

    lam = lam_all[: n_max + 1].copy()
    _check_degeneracy(lam)

    # eigenvector -> eigenfunction samples with window energy lambda_n,
    # which pins the whole-line norm of the extension to one
    psi = (np.sqrt(lam)[:, None] * vecs_all[:, : n_max + 1].T) / sqw[None, :]

    # parity sign convention without dividing by lambda:
    # sum_j w_j K(0,z_j) psi(z_j) = lambda psi(0), same for d/dt at 0
    wp = weights * psi
    val0 = wp @ sinc_kernel(0.0, nodes, omega)
    slope0 = wp @ sinc_kernel_dt(0.0, nodes, omega)
    for n in range(n_max + 1):
        ref = val0[n] if n % 2 == 0 else slope0[n]
        want = -1.0 if (n // 2) % 2 else 1.0  # Hermite sign pattern at t=0
        if ref * want < 0.0:
            psi[n] = -psi[n]

    return ProlateBasis(params=params, n_max=n_max, quad_order=quad_order,
                        nodes=nodes, weights=weights, lambdas=lam,
                        samples=psi)


def _check_degeneracy(lam: np.ndarray) -> None:
    # the continuous spectrum is simple; a tiny gap away from the benign
    # clusters at 1 (saturated) and 0 (below trust) flags eigenvector mixing
    if lam.size < 2:
        return
    gaps = lam[:-1] - lam[1:]
    saturated = (1.0 - lam) < _SATURATION
    tail = lam < max(100.0 * LAMBDA_FLOOR, _TAIL_CLUSTER)
    benign = (saturated[:-1] & saturated[1:]) | tail[:-1] | tail[1:]
    bad = (gaps < _DEGENERACY_GAP) & ~benign
    if np.any(bad):
        n = int(np.argmax(bad))
        raise EigensolverError(
            f"near-degenerate eigenvalue pair (lambda_{n}={lam[n]:.16e}, "
            f"lambda_{n + 1}={lam[n + 1]:.16e}); eigenvectors would mix")


def extension_matrix(basis: ProlateBasis, t, indices=None) -> np.ndarray:
    """Nystrom extension psi_n(t) for the selected modes, rows n, columns t.

    Valid for every real t, inside and outside the window.
    """
    if indices is None:
        indices = np.arange(basis.n_modes)
    indices = np.atleast_1d(np.asarray(indices, dtype=int))
    for n in indices:
        basis.require_extendable(int(n))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    kernel = sinc_kernel(t[:, None], basis.nodes[None, :], basis.params.omega)
    core = (basis.weights * basis.samples[indices]) / basis.lambdas[indices, None]
    return core @ kernel.T


def eval_psi(basis: ProlateBasis, n: int, t):
    """Evaluate psi_n at time t (scalar or array) via the Nystrom extension."""
    t_arr = np.asarray(t, dtype=float)
    vals = extension_matrix(basis, t_arr.ravel(), [n])[0]
    if t_arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(t_arr.shape)


def lambda0_curve(c_values, T: float = 1.0, quad_order: int | None = None) -> np.ndarray:
    """Table of (c, lambda_0(c)) rows for the given c values.

    A ``quad_order`` below ``default_quad_order(c, 0)`` is raised to it.
    """
    c_values = np.atleast_1d(np.asarray(c_values, dtype=float))
    if c_values.size == 0:
        raise ValueError("c_values must be non-empty")
    rows = np.empty((c_values.size, 2))
    for i, c in enumerate(c_values):
        quad = None if quad_order is None else max(quad_order, default_quad_order(c, 0))
        basis = build_basis(SlepianParams(c=float(c), T=T), n_max=0, quad_order=quad)
        rows[i, 0] = c
        rows[i, 1] = basis.lambdas[0]
    return rows
