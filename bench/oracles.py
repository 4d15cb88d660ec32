"""Independent oracles for the benchmark's output checks.

Nothing here imports ``prolate``.  Every quantity is re-derived through a
route of its own:

* eigenvalues from an oversized Nystrom solve of the sinc kernel, written
  out from scratch;
* mode shapes inside the window from the prolate differential operator in the
  normalized Legendre basis (two symmetric tridiagonal problems, one per
  parity), whose eigenvalues are well separated even where the kernel
  eigenvalues cluster at 1;
* probe rows, derivative modes, probabilities and Fisher matrices in the
  frequency domain, from the pulses' closed-form transforms, with shifts as
  phases and derivatives as factors (i w)^k, so no step size enters.

Everything is for the window [-1, 1] (T = 1, the CLI default), so c is the
bandwidth.  ``self_check`` tests these routes against closed forms; the
benchmark runs it once per process before it trusts any oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

#: the program's documented extension floor, Fisher outcome floor and CRB cap
LAMBDA_FLOOR = 1e-13
P_FLOOR = 1e-12
COND_CAP = 1e12


def plunge(c: float) -> int:
    """ceil(2c/pi), at least 1."""
    return max(1, math.ceil(2.0 * c / math.pi - 1e-12))


def default_order(c: float) -> int:
    """The program's documented default quadrature order for automatic n_max."""
    return max(math.ceil(4.0 * c), 64)


# ---------------------------------------------------------------- kernel solve

@lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class Nystrom:
    """Oversized Nystrom solve: lambdas descending, mode samples on the nodes."""

    nodes: np.ndarray
    weights: np.ndarray
    lambdas: np.ndarray
    samples: np.ndarray  # psi_n at the nodes with window energy lambda_n

    def transforms(self, omega_pts: np.ndarray, n_modes: int) -> np.ndarray:
        """Psi_n(w) on the band, (len(w), n_modes): sum_j a_jn exp(-i w z_j)."""
        a = (self.weights * self.samples[:n_modes]) / self.lambdas[:n_modes, None]
        return np.exp(-1j * np.outer(omega_pts, self.nodes)) @ a.T


def oversized_order(c: float) -> int:
    """Quadrature order of the oracles, well above the program's max(4c, 64)."""
    return max(160, math.ceil(5.0 * c) + 96)


@lru_cache(maxsize=64)
def nystrom(c: float) -> Nystrom:
    order = oversized_order(c)
    x, w = _rule(order)
    diff = x[:, None] - x[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = np.where(diff == 0.0, c / math.pi, np.sin(c * diff) / (math.pi * diff))
    sw = np.sqrt(w)
    sym = kern * sw[:, None] * sw[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    idx = np.argsort(vals)[::-1]
    lam = vals[idx]
    good = lam > 0.0
    samples = np.zeros((order, order))
    samples[good] = (np.sqrt(lam[good])[:, None] * vecs[:, idx[good]].T) / sw[None, :]
    return Nystrom(nodes=x, weights=w, lambdas=lam, samples=samples)


def lambdas(c: float, n_modes: int) -> np.ndarray:
    """lambda_0..lambda_{n_modes-1}(c) from the oversized solve."""
    return nystrom(float(c)).lambdas[:n_modes]


def auto_n_max(c: float) -> tuple[int, bool]:
    """n_max the program's automatic rule picks, and whether it is ambiguous.

    The rule keeps every eigenvalue at or above the floor, at most
    quad_order // 4 modes.  A count decided by an eigenvalue within 5% of
    the floor is reported as ambiguous.
    """
    lam = nystrom(float(c)).lambdas
    cap = default_order(c) // 4
    count = int(np.count_nonzero(lam >= LAMBDA_FLOOR))
    near = bool(np.any(np.abs(np.log(np.maximum(lam[:cap + 1], 1e-300)
                                      / LAMBDA_FLOOR)) < 0.05))
    if count >= cap:
        return cap - 1, near and count == cap
    return count - 1, near


# ------------------------------------------------------- Legendre-basis modes

@lru_cache(maxsize=64)
def legendre_modes(c: float, n_modes: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Prolate modes on [-1, 1] from the differential operator.

    Returns (chi, coeffs): the eigenvalues chi_0 < chi_1 < ... and, per mode,
    coefficients over normalized Legendre polynomials sqrt(k + 1/2) P_k,
    so each mode has unit L2 norm on [-1, 1].
    """
    size = 2 * (math.ceil(c) + 40 + n_modes)
    chi = np.empty(n_modes)
    coeffs = np.zeros((n_modes, size))
    for parity in (0, 1):
        k = np.arange(parity, size, 2, dtype=float)
        diag = k * (k + 1.0) + c * c * (2.0 * k * (k + 1.0) - 1.0) / (
            (2.0 * k + 3.0) * (2.0 * k - 1.0))
        kk = k[:-1]
        off = c * c * (kk + 2.0) * (kk + 1.0) / (
            (2.0 * kk + 3.0) * np.sqrt((2.0 * kk + 1.0) * (2.0 * kk + 5.0)))
        mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        vals, vecs = np.linalg.eigh(mat)
        for j, n in enumerate(range(parity, n_modes, 2)):
            chi[n] = vals[j]
            coeffs[n, parity::2] = vecs[:, j]
    return chi, coeffs


def legendre_mode_values(c: float, n: int, x) -> np.ndarray:
    """Mode n of ``legendre_modes`` at points x in [-1, 1] (unit norm there)."""
    _, coeffs = legendre_modes(float(c), max(8, n + 1))
    k = np.arange(coeffs.shape[1])
    series = coeffs[n] * np.sqrt(k + 0.5)
    return np.polynomial.legendre.legval(np.asarray(x, dtype=float), series)


def mode_on_line(c: float, n: int, t) -> np.ndarray:
    """psi_n(t) with whole-line norm 1, for any real t, sign left open.

    Window values come from the Legendre expansion; lambda_n is its Rayleigh
    quotient with the kernel, and the integral equation extends the mode off
    the window.
    """
    z, wz = _rule(oversized_order(c))
    wu = wz * legendre_mode_values(c, n, z)   # unit norm on the window
    t = np.atleast_1d(np.asarray(t, dtype=float))

    def kernel(a, b):
        return (c / math.pi) * np.sinc((c / math.pi) * (a[:, None] - b[None, :]))

    lam = float(np.dot(wu, kernel(z, z) @ wu) / np.dot(wu, wu / wz))
    # window energy 1 -> window energy lambda, whole-line energy 1
    return (kernel(t, z) @ wu) / math.sqrt(lam)


# ------------------------------------------------------------------- pulses

@dataclass(frozen=True)
class GaussianPulse:
    """(2 pi s^2)^(-1/4) exp(-t^2 / (4 s^2)); transform (8 pi s^2)^(1/4) exp(-s^2 w^2)."""

    sigma: float

    def __call__(self, t):
        s2 = self.sigma * self.sigma
        return (2.0 * math.pi * s2) ** -0.25 * np.exp(-np.asarray(t, dtype=float) ** 2 / (4.0 * s2))

    def transform(self, w):
        s = self.sigma
        return (8.0 * math.pi * s * s) ** 0.25 * np.exp(-(s * np.asarray(w)) ** 2)


@dataclass(frozen=True)
class SechPulse:
    """sech(t / a) / sqrt(2a); transform sqrt(a / 2) pi sech(pi a w / 2)."""

    a: float

    def __call__(self, t):
        return 1.0 / (np.cosh(np.asarray(t, dtype=float) / self.a) * math.sqrt(2.0 * self.a))

    def transform(self, w):
        return math.sqrt(0.5 * self.a) * math.pi / np.cosh(0.5 * math.pi * self.a * np.asarray(w))


def default_sigma(c: float) -> float:
    """The program's documented default width 1/sqrt(2 c kappa), kappa = 1/2."""
    return 1.0 / math.sqrt(c)


# ------------------------------------------------------ frequency-domain rows

class Spectral:
    """Projections onto psi_0..psi_n_max as finite band integrals."""

    def __init__(self, c: float, n_max: int):
        ny = nystrom(float(c))
        x, w = _rule(math.ceil(2.0 * c) + 128)
        self.w_pts = c * x
        self.w_wts = c * w / (2.0 * math.pi)
        self.psi_hat_conj = np.conj(ny.transforms(self.w_pts, n_max + 1))
        self.lambdas = ny.lambdas[: n_max + 1]

    def rows(self, pulse, shift: float, order: int = 0) -> np.ndarray:
        """<d^order/dt^order pulse(t - shift), psi_n> for n = 0..n_max."""
        f = pulse.transform(self.w_pts) * (1j * self.w_pts) ** order \
            * np.exp(-1j * self.w_pts * shift)
        return np.real((self.w_wts * f) @ self.psi_hat_conj)


def gram_schmidt(gamma: np.ndarray) -> np.ndarray:
    """Orthonormal rows; row k spans gamma rows 0..k, positive triangular map."""
    q, r = np.linalg.qr(gamma.T)
    return (q * np.sign(np.diag(r))).T


def design_matrix(design, row2) -> np.ndarray:
    r1, p1, r2, p2 = design
    return np.array([[0.0, r1 * math.sin(p1), r2 * math.sin(p2), 0.0],
                     [0.0, r1 * math.cos(p1), r2 * math.cos(p2), 0.0],
                     list(row2)])


def efficiency(cmat: np.ndarray) -> float:
    num = (cmat[0, 1] * cmat[1, 2] - cmat[1, 1] * cmat[0, 2]) ** 2
    return float(num / (cmat[0, 1] ** 2 + cmat[1, 1] ** 2))


@dataclass(frozen=True)
class SuperresRow:
    A: float
    bound_phi2: float
    bound_lambda0: float
    fisher: np.ndarray
    cond: float
    crb: np.ndarray  # NaN where the matrix is worse conditioned than the cap


class SuperresOracle:
    """Design quantities, probabilities and the exact Fisher matrix of one c.

    The pulses sit around tau0 = 0 with intensities nu = 1 - nu = 1/2, the
    CLI defaults the workloads use.
    """

    def __init__(self, c: float, pulse, *, n_max: int, design, row2, regime: str):
        self.sp = Spectral(c, n_max)
        self.pulse = pulse
        gamma = np.vstack([self.sp.rows(pulse, 0.0, k) for k in range(4)])
        self.phi = gram_schmidt(gamma)
        cmat = design_matrix(design, row2)
        self.povm = cmat @ self.phi                      # (3, modes)
        lam = self.sp.lambdas
        if regime == "limited":
            self.A = efficiency((self.povm * lam) @ self.phi.T)
            weight = lam
        else:
            self.A = efficiency(cmat)
            weight = np.ones_like(lam)
            if regime == "truncated":
                weight = (np.arange(lam.size) <= plunge(c)).astype(float)
        self.weighted_povm = self.povm * weight
        self.bound_phi2 = float(np.dot(self.phi[2] ** 2, lam))
        self.bound_lambda0 = float(lam[0])

    def probabilities(self, theta) -> np.ndarray:
        """Outcome probabilities, leakage last, at theta = (tau, tau0, nu)."""
        tau, tau0, nu = theta
        probe = np.vstack([self.sp.rows(self.pulse, tau0 + 0.5 * tau),
                           self.sp.rows(self.pulse, tau0 - 0.5 * tau)])
        p_click = (self.weighted_povm @ probe.T) ** 2 @ np.array([nu, 1.0 - nu])
        return np.append(p_click, 1.0 - p_click.sum())

    def row(self, tau: float) -> SuperresRow:
        shifts = (0.5 * tau, -0.5 * tau)
        rho = np.array([0.5, 0.5])
        probe = np.vstack([self.sp.rows(self.pulse, s) for s in shifts])
        # d/ds of pulse(t - s) is -pulse'(t - s)
        dprobe = np.vstack([-self.sp.rows(self.pulse, s, 1) for s in shifts])
        amp = self.weighted_povm @ probe.T               # (3, 2)
        damp = self.weighted_povm @ dprobe.T             # per unit shift
        # theta = (tau, tau0, nu): ds/dtau = +-1/2, ds/dtau0 = 1
        ds = np.array([[0.5, -0.5], [1.0, 1.0]])
        grads = np.empty((3, 3))
        for i in range(2):
            grads[i] = (2.0 * amp * damp * ds[i]) @ rho
        grads[2] = amp[:, 0] ** 2 - amp[:, 1] ** 2
        p = self.probabilities((tau, 0.0, 0.5))
        g = np.hstack([grads, -grads.sum(axis=1, keepdims=True)])
        keep = p >= P_FLOOR
        fisher = (g[:, keep] / p[keep]) @ g[:, keep].T
        fisher = 0.5 * (fisher + fisher.T)
        ev = np.linalg.eigvalsh(fisher)
        cond = float(ev[-1] / ev[0]) if ev[0] > 0.0 else math.inf
        if ev[-1] <= 0.0 or ev[0] <= ev[-1] / COND_CAP:
            bounds = np.full(3, math.nan)
        else:
            bounds = np.sqrt(np.diag(np.linalg.inv(fisher)))
        return SuperresRow(self.A, self.bound_phi2, self.bound_lambda0,
                           fisher, cond, bounds)


def hg2(c: float, t) -> np.ndarray:
    """Unit-norm second Hermite-Gauss mode at frequency c, closed form."""
    x = math.sqrt(c) * np.asarray(t, dtype=float)
    return c ** 0.25 * math.pi ** -0.25 * (2.0 * x * x - 1.0) / math.sqrt(2.0) \
        * np.exp(-0.5 * x * x)


# ------------------------------------------------------------- self check

class OracleError(Exception):
    """An oracle disagrees with a closed form and cannot be trusted."""


def _require(ok, what: str) -> None:
    if not ok:
        raise OracleError(what)


def self_check() -> None:
    """Test the oracles against closed forms; raise OracleError if one is off."""
    # trace of the band-time limiting operator is exactly 2c/pi
    for c in (0.5, 5.0, 40.0):
        lam = nystrom(c).lambdas
        _require(abs(lam.sum() - 2.0 * c / math.pi) < 1e-11, f"trace at c={c}")
        _require(lam[0] < 1.0 and np.all(np.diff(lam[lam > 1e-14]) <= 1e-15),
                 f"eigenvalue order at c={c}")
    # the differential operator at c -> 0 has chi_n = n (n + 1), modes P_n
    chi, coeffs = legendre_modes(1e-9, 6)
    _require(np.allclose(chi, [n * (n + 1.0) for n in range(6)], atol=1e-12), "chi_n(0)")
    _require(np.allclose(np.abs(coeffs[:, :6]), np.eye(6), atol=1e-12), "modes at c = 0")
    # scipy's pro_cv is a separate implementation of chi_n
    for c in (1.0, 5.0, 10.0):
        chi, _ = legendre_modes(c, 6)
        ref = [special.pro_cv(0, n, c) for n in range(6)]
        _require(np.allclose(chi, ref, rtol=1e-12, atol=1e-10), f"pro_cv at c={c}")
        # the Rayleigh quotient of the ODE modes reproduces the kernel spectrum
        lam_ode = [mode_window_energy(c, n) for n in range(6)]
        _require(np.allclose(lam_ode, nystrom(c).lambdas[:6], rtol=1e-10, atol=1e-14),
                 f"Rayleigh quotients at c={c}")
    # window energy of a band-projected Gaussian: sum lambda_n g_n^2 equals
    # the window integral of its closed-form band projection (complex erf)
    c, sigma = 5.0, 0.45
    g = GaussianPulse(sigma)
    n_all = int(np.count_nonzero(nystrom(c).lambdas >= 1e-15)) - 1
    sp = Spectral(c, n_all)
    coef = sp.rows(g, 0.2)
    lhs = float(np.dot(sp.lambdas, coef ** 2))
    x, w = _rule(200)
    rhs = float(np.dot(w, gaussian_band_projection(sigma, c, x - 0.2) ** 2))
    _require(abs(lhs - rhs) < 1e-12, f"window energy {lhs!r} vs {rhs!r}")
    # at large c the whole pulse sits in the span: Parseval and the shifted
    # overlap approach their band-limited closed forms
    c, sigma, tau = 40.0, 1.0 / math.sqrt(40.0), 0.1
    n_max, _ = auto_n_max(c)
    sp = Spectral(c, n_max)
    g = GaussianPulse(sigma)
    a, b = sp.rows(g, 0.5 * tau), sp.rows(g, -0.5 * tau)
    band = special.erf(math.sqrt(2.0) * sigma * c)
    _require(abs(np.dot(a, a) - band) < 1e-8, f"Parseval {np.dot(a, a)!r} vs {band!r}")
    overlap = math.exp(-tau * tau / (8.0 * sigma * sigma)) * np.real(
        special.erf(math.sqrt(2.0) * sigma * c + 1j * tau / (2.0 * math.sqrt(2.0) * sigma)))
    _require(abs(np.dot(a, b) - overlap) < 1e-8, f"overlap {np.dot(a, b)!r} vs {overlap!r}")
    # closed-form transforms against a direct quadrature of the pulses
    # trapezoid rule: spectrally accurate for smooth, decaying integrands
    t = np.linspace(-40.0, 40.0, 8001)
    wt = np.full(t.size, t[1] - t[0])
    for pulse in (GaussianPulse(0.3), SechPulse(0.4)):
        for om in (0.0, 2.5, 7.0):
            direct = np.dot(wt, pulse(t) * np.cos(om * t))
            _require(abs(direct - pulse.transform(om)) < 1e-12, f"transform of {pulse} at {om}")
    # the exact Fisher matrix against central differences of the oracle's
    # own probabilities
    orc = SuperresOracle(5.0, GaussianPulse(default_sigma(5.0)), n_max=15,
                         design=(0.7, math.pi / 3, 0.7, math.pi / 3 - 1.2),
                         row2=(0.55, 0.55, 0.0, 0.0), regime="limited")
    _require(orc.A <= orc.bound_phi2 <= orc.bound_lambda0 < 1.0, "bound chain")
    theta, h = np.array([0.3, 0.0, 0.5]), 1e-5
    p = orc.probabilities(theta)
    g = np.array([(orc.probabilities(theta + e) - orc.probabilities(theta - e)) / (2.0 * h)
                  for e in h * np.eye(3)])
    f_exact = orc.row(0.3).fisher
    _require(np.max(np.abs(f_exact - (g / p) @ g.T)) < 1e-6 * np.max(np.abs(f_exact)),
             "exact Fisher matrix against central differences")


def mode_window_energy(c: float, n: int) -> float:
    """Window energy of ``mode_on_line``: its Rayleigh quotient with the kernel."""
    x, w = _rule(max(160, math.ceil(3.0 * c) + 96))
    vals = mode_on_line(c, n, x)
    return float(np.dot(w, vals * vals))


def gaussian_band_projection(sigma: float, c: float, t) -> np.ndarray:
    """Band-limited part of GaussianPulse(sigma) at times t, T = 1 (complex erf)."""
    t = np.asarray(t, dtype=float)
    amp = (8.0 * math.pi * sigma * sigma) ** 0.25
    z = sigma * c + 1j * t / (2.0 * sigma)
    return amp / (2.0 * math.pi) * math.sqrt(math.pi) / sigma \
        * np.exp(-t * t / (4.0 * sigma * sigma)) * np.real(special.erf(z))
