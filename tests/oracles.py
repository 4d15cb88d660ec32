"""Independent numerical oracles used to pin expected values in the tests.

Each oracle re-derives its quantity through a route separate from the code it
checks: a deliberately oversized kernel discretization, the frequency domain,
a finer independent quadrature rule, or a closed form.  None of them import
the functions they are used to validate.
"""

import math

import numpy as np


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


def whole_line_inner(basis, n, m, n_omega=None):
    """<psi_n, psi_m> over the real line, evaluated in the frequency domain.

    The extension of psi_n is sum_j a_j K(., z_j); its transform is the band
    indicator times sum_j a_j exp(-i w z_j), so Parseval turns the whole-line
    integral into a finite smooth one that Gauss-Legendre nails.  No radius
    truncation enters anywhere.
    """
    om = basis.params.omega
    if n_omega is None:
        n_omega = max(64, math.ceil(3.0 * basis.params.c) + 48)
    x, w = np.polynomial.legendre.leggauss(n_omega)
    x = om * x
    w = om * w
    a_n = basis.weights * basis.samples[n] / basis.lambdas[n]
    a_m = basis.weights * basis.samples[m] / basis.lambdas[m]
    phases = np.exp(-1j * np.outer(x, basis.nodes))
    fn = phases @ a_n
    fm = phases @ a_m
    return float(np.real(np.dot(w, fn * np.conj(fm))) / (2.0 * math.pi))


def whole_line_gram(basis, n_modes, n_omega=None):
    """All pairwise real-line inner products at once (same route as above)."""
    om = basis.params.omega
    if n_omega is None:
        n_omega = max(64, math.ceil(3.0 * basis.params.c) + 48)
    x, w = np.polynomial.legendre.leggauss(n_omega)
    x = om * x
    w = om * w
    alpha = (basis.weights * basis.samples[:n_modes]
             / basis.lambdas[:n_modes, None])
    transforms = np.exp(-1j * np.outer(x, basis.nodes)) @ alpha.T
    gram = transforms.conj().T @ (w[:, None] * transforms) / (2.0 * math.pi)
    return np.real(gram)


def gaussian_derivative_rows(basis, sigma, tau0=0.0, n_derivs=3, n_omega=None):
    """<d^m/dt^m g(t - tau0), psi_n> for m = 0..n_derivs, g the unit-norm Gaussian.

    The transform of g is (8 pi sigma^2)^(1/4) exp(-sigma^2 w^2) in closed
    form, a shift is the phase exp(-i w tau0) and a derivative the factor
    (i w)^m; Parseval against the band transform of psi_n (see
    ``whole_line_inner``) leaves a finite integral over the band.
    """
    om = basis.params.omega
    if n_omega is None:
        n_omega = 2 * max(64, math.ceil(3.0 * basis.params.c) + 48)
    x, w = np.polynomial.legendre.leggauss(n_omega)
    x = om * x
    w = om * w
    alpha = basis.weights * basis.samples / basis.lambdas[:, None]
    psi_hat = np.exp(-1j * np.outer(x, basis.nodes)) @ alpha.T
    g_hat = ((8.0 * math.pi * sigma * sigma) ** 0.25 * np.exp(-(sigma * x) ** 2)
             * np.exp(-1j * x * tau0))
    rows = [(1j * x) ** m * g_hat for m in range(n_derivs + 1)]
    return np.real(np.array(rows) @ (w[:, None] * psi_hat.conj())) / (2.0 * math.pi)


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
