"""Independent numerical oracles used to pin expected values in the tests.

Each oracle re-derives its quantity through a route separate from the code it
checks: a deliberately oversized kernel discretization, the frequency domain,
a finer independent quadrature rule, a high-precision solve, or a closed
form.  None of them import the functions they are used to validate; the
whole-line Gram oracle reads a basis's window values, and checks the band
route of ``extension_matrix`` and ``project`` against them.
"""

import functools
import math

import mpmath as mp
import numpy as np
from scipy import linalg, special


def dense_nystrom_lambdas(c, T=1.0, order=640, n_top=12):
    """Concentration eigenvalues from an oversized kernel discretization.

    Standalone re-derivation: Gauss-Legendre rule, kernel matrix and
    symmetric eigensolve are all written out here from scratch.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x = T * x
    w = T * w
    omega = c / T
    diff = x[:, None] - x[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = np.where(diff == 0.0, omega / math.pi,
                          np.sin(omega * diff) / (math.pi * diff))
    sw = np.sqrt(w)
    sym = kernel * sw[:, None] * sw[None, :]
    vals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return np.sort(vals)[::-1][:n_top]


def _parity_block(c, parity, count):
    """Diagonal and off-diagonal of the prolate operator over sqrt(k + 1/2) P_k, k of one parity."""
    k = np.arange(parity, parity + 2 * count, 2, dtype=float)
    c2 = c * c
    diag = k * (k + 1.0) + c2 * (2.0 * k * (k + 1.0) - 1.0) / ((2.0 * k + 3.0) * (2.0 * k - 1.0))
    k = k[:-1]
    off = c2 * (k + 2.0) * (k + 1.0) / ((2.0 * k + 3.0) * np.sqrt((2.0 * k + 1.0) * (2.0 * k + 5.0)))
    return diag, off


@functools.lru_cache(maxsize=16)
def legendre_coefficients(c, n_modes):
    """Coefficients of phi_0..phi_{n_modes-1} (unit norm on [-1, 1]) over sqrt(k + 1/2) P_k.

    Each parity block of the prolate differential operator is solved by
    LAPACK's MRRR tridiagonal eigensolver (scipy), and the signs follow the
    Hermite convention: phi_n(0) for even n, phi_n'(0) for odd n, has the
    sign (-1)^(n // 2).
    """
    m = n_modes // 2 + math.ceil(c) + 40
    coeffs = np.zeros((n_modes, 2 * m))
    for parity in (0, 1):
        count = len(range(parity, n_modes, 2))
        if count:
            _, vecs = linalg.eigh_tridiagonal(*_parity_block(c, parity, m), select="i",
                                              select_range=(0, count - 1))
            coeffs[parity::2, parity::2] = vecs.T
    for n in range(n_modes):
        series = coeffs[n] * np.sqrt(np.arange(2 * m) + 0.5)
        if n % 2:
            series = np.polynomial.legendre.legder(series)
        if np.polynomial.legendre.legval(0.0, series) * (-1) ** (n // 2) < 0.0:
            coeffs[n] = -coeffs[n]
    return coeffs


def window_mode_values(coeffs, x):
    """phi_n(x) for x in [-1, 1], rows n, from Legendre coefficients."""
    k = np.arange(coeffs.shape[1])
    return np.polynomial.legendre.legval(np.asarray(x, dtype=float),
                                         (coeffs * np.sqrt(k + 0.5)).T).reshape(len(coeffs), -1)


def window_values(basis, t):
    """psi_n(t) = sqrt(lambda_n / T) phi_n(t / T) of every mode of a basis for |t| <= T, rows n."""
    T = basis.params.T
    return np.sqrt(basis.lambdas / T)[:, None] * window_mode_values(basis._beta, np.asarray(t) / T)


def band_transforms(params, n_modes, w):
    """Psi_n(w) = (-i)^n sqrt(2 pi / Omega) phi_n(w / Omega) on the band, (len(w), n_modes).

    psi_n is the finite Fourier transform of phi_n, scaled to unit energy on
    the real line, so its transform is phi_n itself, rescaled to the band.
    """
    om = params.omega
    phi = window_mode_values(legendre_coefficients(params.c, n_modes), np.asarray(w) / om)
    phases = (-1j) ** np.arange(n_modes)
    return (phases[:, None] * math.sqrt(2.0 * math.pi / om) * phi).T


def _mp_solve(diag, off, shift, rhs):
    """(A - shift) y = rhs for a symmetric tridiagonal A, Gaussian elimination with row swaps."""
    m = len(diag)
    sub = [mp.mpf(0)] + list(off)
    mid = [d - shift for d in diag]
    sup = list(off) + [mp.mpf(0)]
    sup2 = [mp.mpf(0)] * m
    y = list(rhs)
    for i in range(m - 1):
        if abs(sub[i + 1]) > abs(mid[i]):
            mid[i], sub[i + 1] = sub[i + 1], mid[i]
            sup[i], mid[i + 1] = mid[i + 1], sup[i]
            sup2[i], sup[i + 1] = sup[i + 1], sup2[i]
            y[i], y[i + 1] = y[i + 1], y[i]
        f = sub[i + 1] / mid[i]
        mid[i + 1] -= f * sup[i]
        sup[i + 1] -= f * sup2[i]
        y[i + 1] -= f * y[i]
    x = [mp.mpf(0)] * (m + 2)
    for i in range(m - 1, -1, -1):
        x[i] = (y[i] - sup[i] * x[i + 1] - sup2[i] * x[i + 2]) / mid[i]
    return x[:m]


@functools.lru_cache(maxsize=16)
def mp_prolate(c, n_modes):
    """(lambdas, deficits, coeffs) of modes 0..n_modes-1 from a high-precision solve.

    Three steps of Rayleigh quotient iteration in mpmath refine each float64
    vector of ``legendre_coefficients``.  Then lambda_n = c |mu_n|^2 / (2 pi),
    with mu_n from the eigenvalue relation at the window edge x = 1:
    mu_n phi_n(1) = sum_k beta_k sqrt(k + 1/2) 2 i^k j_k(c), with j_k the
    spherical Bessel functions.  The deficit 1 - lambda_n is taken in mpmath
    too, where float64 lambda_n would round it away.  The sum cancels down to
    phi_n(1), about sqrt(c (1 - lambda_n)) in the cluster, and 1 - lambda_0
    is near exp(-2c); so 45 + 3c / ln(10) digits leave 1 - lambda_n its
    float64 digits, and cover lambda_n down to 1e-60.  Returns float64 arrays.
    """
    start = legendre_coefficients(c, n_modes)
    m = start.shape[1] // 2
    lambdas, deficits = np.empty(n_modes), np.empty(n_modes)
    coeffs = np.zeros_like(start)
    with mp.workdps(45 + math.ceil(3.0 * c / math.log(10.0))):
        cm = mp.mpf(c)
        half = mp.mpf(1) / 2
        bessel = [mp.sqrt(mp.pi / (2 * cm)) * mp.besselj(k + half, cm) for k in range(2 * m)]
        for parity in (0, 1):
            k = [parity + 2 * j for j in range(m)]
            kk = [mp.mpf(x) for x in k]
            diag = [x * (x + 1) + cm ** 2 * (2 * x * (x + 1) - 1) / ((2 * x + 3) * (2 * x - 1))
                    for x in kk]
            off = [cm ** 2 * (x + 2) * (x + 1) / ((2 * x + 3) * mp.sqrt((2 * x + 1) * (2 * x + 5)))
                   for x in kk[:-1]]
            for n in range(parity, n_modes, 2):
                v = [mp.mpf(float(x)) for x in start[n, parity::2]]
                for _ in range(3):
                    av = [diag[i] * v[i] for i in range(m)]
                    for i in range(m - 1):
                        av[i] += off[i] * v[i + 1]
                        av[i + 1] += off[i] * v[i]
                    chi = mp.fsum(a * b for a, b in zip(av, v))
                    y = _mp_solve(diag, off, chi, v)
                    norm = mp.sqrt(mp.fsum(t * t for t in y))
                    v = [t / norm for t in y]
                if v[0] * start[n, parity] < 0:
                    v = [-t for t in v]
                edge = mp.fsum(b * mp.sqrt(x + half) for b, x in zip(v, kk))
                ft = mp.fsum(b * mp.sqrt(x + half) * 2 * (-1) ** (j // 2) * bessel[j]
                             for b, x, j in zip(v, kk, k))
                lam = cm * (ft / edge) ** 2 / (2 * mp.pi)
                lambdas[n], deficits[n] = float(lam), float(1 - lam)
                coeffs[n, parity::2] = [float(t) for t in v]
    return lambdas, deficits, coeffs


def whole_line_inner(basis, n, m, n_omega=None):
    """<psi_n, psi_m> over the real line, evaluated in the frequency domain.

    Same route as ``whole_line_gram``, for one pair of modes.
    """
    return float(whole_line_gram(basis, max(n, m) + 1, n_omega)[n, m])


def whole_line_gram(basis, n_modes, n_omega=None):
    """All pairwise real-line inner products of psi_0..psi_{n_modes-1}.

    The window identity lambda_n Psi_n(w) = int_{-T}^{T} psi_n(z) exp(-i w z) dz
    gives each transform from the window values of psi_n, taken on this
    oracle's own Gauss-Legendre rule of order max(64, ceil(4c), 4 n_modes);
    Parseval then turns the whole-line integral into a finite smooth one over
    the band.  No radius truncation enters anywhere.  Dividing by lambda_n
    carries the rounding of the window values as about eps / sqrt(lambda_n).
    """
    c, T, om = basis.params.c, basis.params.T, basis.params.omega
    if n_omega is None:
        n_omega = max(64, math.ceil(3.0 * c) + 48)
    x, w = np.polynomial.legendre.leggauss(n_omega)
    x = om * x
    w = om * w
    z, v = np.polynomial.legendre.leggauss(max(64, math.ceil(4.0 * c), 4 * n_modes))
    z = T * z
    v = T * v
    alpha = (v * window_values(basis, z)[:n_modes]
             / basis.lambdas[:n_modes, None])
    transforms = np.exp(-1j * np.outer(x, z)) @ alpha.T
    gram = transforms.conj().T @ (w[:, None] * transforms) / (2.0 * math.pi)
    return np.real(gram)


@functools.lru_cache(maxsize=8)
def _legendre_rule(n):
    return special.roots_legendre(n)


def gaussian_transform(sigma):
    """Transform of the unit-norm Gaussian (2 pi s^2)^(-1/4) exp(-t^2 / (4 s^2))."""
    return lambda w: (8.0 * math.pi * sigma * sigma) ** 0.25 * np.exp(-(sigma * w) ** 2)


def sech_transform(width):
    """Transform pi w sech(pi w omega / 2) / sqrt(2 w) of the unit-norm sech(t / w) / sqrt(2 w)."""
    return lambda w: (math.pi * width / math.sqrt(2.0 * width)
                      / np.cosh(0.5 * math.pi * width * w))


def transform_rows(basis, g_hat, tau0=0.0, n_derivs=3, n_omega=None):
    """<d^m/dt^m g(t - tau0), psi_n> for m = 0..n_derivs, from g's transform g_hat.

    A shift is the phase exp(-i w tau0) and a derivative the factor (i w)^m;
    Parseval against the band transform of psi_n (``band_transforms``)
    leaves a finite integral over the band, taken on an ``n_omega`` point
    Gauss-Legendre rule (scipy's, which stays fast at thousands of points).
    """
    om = basis.params.omega
    if n_omega is None:
        n_omega = 2 * max(64, math.ceil(3.0 * basis.params.c) + 48)
    x, w = _legendre_rule(n_omega)
    x = om * x
    w = om * w
    psi_hat = band_transforms(basis.params, basis.n_modes, x)
    shifted = g_hat(x) * np.exp(-1j * x * tau0)
    rows = [(1j * x) ** m * shifted for m in range(n_derivs + 1)]
    return np.real(np.array(rows) @ (w[:, None] * psi_hat.conj())) / (2.0 * math.pi)


def modified_gram_schmidt(gamma):
    """Orthonormal rows phi and lower-triangular transform with phi = transform @ gamma.

    Row k of phi is row k of gamma less its parts along phi_0..phi_{k-1},
    removed one at a time, then normalized, so the diagonal is positive.
    """
    n = gamma.shape[0]
    phi = np.zeros(gamma.shape)
    transform = np.zeros((n, n))
    for k in range(n):
        v = np.array(gamma[k], dtype=float)
        coeff = np.eye(n)[k]
        for j in range(k):
            r = np.dot(phi[j], v)
            v -= r * phi[j]
            coeff -= r * transform[j]
        norm = np.linalg.norm(v)
        phi[k] = v / norm
        transform[k] = coeff / norm
    return phi, transform


def window_inner(psi_n_vals, psi_m_vals, weights):
    """Window inner product on an externally chosen rule."""
    return float(np.dot(weights, psi_n_vals * psi_m_vals))


def fine_window_rule(T, order):
    x, w = np.polynomial.legendre.leggauss(order)
    return T * x, T * w


def bernoulli_fisher(theta):
    """Closed-form Fisher information of p = (theta, 1 - theta)."""
    return 1.0 / (theta * (1.0 - theta))


def product_model_fisher(t1, t2):
    """Closed form for p = (t1 t2, t1 (1 - t2), 1 - t1), derived by hand:

    F11 = 1/(t1 (1 - t1)),  F22 = t1/(t2 (1 - t2)),  F12 = 0.
    """
    return np.array([[1.0 / (t1 * (1.0 - t1)), 0.0],
                     [0.0, t1 / (t2 * (1.0 - t2))]])


def multinomial_fisher(probs, grads):
    """Generic closed form F_nm = sum_j dp_n dp_m / p_j for analytic models."""
    grads = np.asarray(grads, dtype=float)
    probs = np.asarray(probs, dtype=float)
    return (grads / probs) @ grads.T


def gaussian_second_derivative(t, sigma):
    """d^2/dt^2 of the unit-norm Gaussian (2 pi s^2)^(-1/4) exp(-t^2/(4 s^2))."""
    t = np.asarray(t, dtype=float)
    s2 = sigma * sigma
    base = (2.0 * math.pi * s2) ** -0.25 * np.exp(-t * t / (4.0 * s2))
    return (t * t / (4.0 * s2 * s2) - 1.0 / (2.0 * s2)) * base


def gaussian_overlap(tau, sigma):
    """<Psf(.-tau/2), Psf(.+tau/2)> for the unit-norm Gaussian, closed form."""
    return math.exp(-tau * tau / (8.0 * sigma * sigma))


def per_element_probabilities(probe, povm, scale=None, n_cut=None):
    """Outcome probabilities p_0..p_d one POVM element at a time.

    The regime-forked formula: the probe rows are padded to the POVM's
    width, scaled by ``scale`` (lambda_n for band plus window) or cut after
    column ``n_cut`` (the plunge index), and each element's squared
    amplitudes are summed from its own product.  The leakage entry closes
    the distribution to 1.
    """
    def pad(a, m):
        return a if a.shape[1] == m else np.hstack([a, np.zeros((a.shape[0], m - a.shape[1]))])

    m = max(probe.modes.shape[1], povm.vectors.shape[1])
    psi, vectors = pad(probe.modes, m), pad(povm.vectors, m)
    if scale is not None:
        psi = psi * scale[:m]
    if n_cut is not None:
        psi, vectors = psi[:, : n_cut + 1], vectors[:, : n_cut + 1]
    out = np.empty(len(vectors))
    for i, v in enumerate(vectors):
        amp = v[None, :] @ psi.T
        out[i] = float(np.sum(probe.weights[None, :] * amp * amp))
    return np.append(np.clip(out, 0.0, 1.0), max(1.0 - out.sum(), 0.0))
