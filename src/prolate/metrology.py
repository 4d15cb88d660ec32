"""Measurement probabilities under band/time limits, Fisher information, CRB."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ProlateBasis, plunge_index
from .errors import PovmValidityError, SingularFisherError
from .params import SlepianParams

#: tolerance below which negative probabilities are treated as rounding noise
PROB_SLACK = 1e-10
#: slack on norm/positivity checks of probe rows and POVM operators
POVM_SLACK = 1e-9
#: outcomes with probability below this are excluded from Fisher sums
DEFAULT_P_FLOOR = 1e-12
#: a Fisher matrix worse conditioned than this has no Cramer-Rao bound
COND_CAP = 1e12


def _freeze(holder, name: str, ndmin: int) -> np.ndarray:
    """Replace the holder's array field ``name`` by a read-only float copy.

    The copy has at least ``ndmin`` dimensions; a NaN or inf entry raises
    ValueError, so no later check or kernel meets one.
    """
    a = np.array(getattr(holder, name), dtype=float, ndmin=ndmin)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{type(holder).__name__}.{name} has a NaN or inf entry")
    a.flags.writeable = False
    object.__setattr__(holder, name, a)
    return a


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Convex decomposition of a probe: weights rho_k and coefficient rows Psi_kn.

    Rows live in the prolate coefficient space; they need not be mutually
    orthogonal (any convex decomposition of the same operator yields the
    same probabilities).  Weights and rows are stored as finite read-only copies.
    """

    weights: np.ndarray
    modes: np.ndarray
    params: SlepianParams | None = None

    def __post_init__(self):
        w, m = _freeze(self, "weights", 1), _freeze(self, "modes", 2)
        if w.ndim != 1 or m.shape[0] != w.size:
            raise ValueError("modes must have one row per weight")
        if np.any(w < -1e-15):
            raise ValueError("probe weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"probe weights must sum to 1, got {w.sum()!r}")
        norms = np.sum(m * m, axis=1)
        if np.any(norms > 1.0 + POVM_SLACK):
            raise ValueError(f"probe row norm^2 exceeds 1: {norms.max()!r}")


@dataclass(frozen=True, eq=False)
class Povm:
    """Rank-1 monitored elements |pi_j><pi_j|, one read-only row pi_j each.

    ``vectors`` is a finite (d, m) matrix v over the prolate coefficients; the
    leakage element, the identity minus the sum v^T v, is implicit.  Building
    a Povm checks that sum: the d x d Gram v v^T has its nonzero spectrum,
    and a top eigenvalue s above 1 + ``POVM_SLACK`` raises PovmValidityError
    with s and the unit direction v^T u / sqrt(s), u its eigenvector.
    """

    vectors: np.ndarray
    params: SlepianParams | None = None

    def __post_init__(self):
        v = _freeze(self, "vectors", 2)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"POVM needs a non-empty (elements, coefficients) matrix of "
                             f"vectors, got shape {v.shape}")
        evals, evecs = np.linalg.eigh(v @ v.T)
        top = float(evals[-1])
        if top > 1.0 + POVM_SLACK:
            raise PovmValidityError("monitored elements exceed the identity", top,
                                    eigenvector=evecs[:, -1] @ v / np.sqrt(top))


def _check_shared_params(a: SlepianParams | None, b: SlepianParams | None) -> None:
    if a is not None and b is not None and a != b:
        raise ValueError(f"probe/POVM parameter mismatch: {a} vs {b}")


def _column_weight(w: np.ndarray, m: int) -> np.ndarray:
    """The first m entries of a per-column weight such as lambda_n."""
    if w.size < m:
        raise ValueError(f"basis supplies {w.size} eigenvalues but "
                         f"coefficients run to index {m - 1}")
    return w[:m]


def _probabilities(modes: np.ndarray, rho: np.ndarray, povm: Povm, w=None) -> np.ndarray:
    """Outcome probabilities p_0..p_d of probe rows Psi_kn with weights rho_k.

    p_j = sum_k rho_k (sum_n pi_jn w_n Psi_kn)^2 for the monitored elements,
    and the leakage entry closes the distribution to 1.  The column weight w
    picks the regime: None for unlimited time, lambda_n for band plus window,
    1 up to the plunge index and 0 above for the truncated sums.  The rows
    and the POVM's vectors must have the same width.  Each vector's
    amplitudes are one (1, m) @ (m, k) product, which rounds as the product
    of that vector alone.  Rows are not checked (``superres_fisher`` passes
    raw ones) and the probe and POVM slacks can add up, so a probability
    outside [0, 1] or a sum above 1, past ``PROB_SLACK``, raises PovmValidityError.
    """
    vectors = povm.vectors
    m = vectors.shape[1]
    if modes.shape[1] != m:
        raise ValueError(f"probe rows have {modes.shape[1]} coefficients but the "
                         f"POVM's vectors have {m}")
    psi = modes if w is None else modes * _column_weight(w, m)
    amp = (vectors[:, None, :] @ psi.T)[:, 0]  # (elements, k)
    p_click = (rho * amp * amp).sum(axis=1)
    if np.any(p_click < -PROB_SLACK) or np.any(p_click > 1.0 + PROB_SLACK):
        raise PovmValidityError(
            f"monitored probability outside [0, 1]: {p_click.min()!r}..{p_click.max()!r}")
    leak = 1.0 - p_click.sum()
    if leak < -PROB_SLACK:
        raise PovmValidityError(
            f"monitored probabilities sum to {p_click.sum()!r} > 1; probe rows above "
            f"unit norm, or the probe and POVM slacks adding up")
    return np.append(np.clip(p_click, 0.0, 1.0), max(leak, 0.0))


def _plunge_weight(c: float, m: int) -> np.ndarray:
    """Column weight of the truncated sums: 1 up to ceil(2c/pi), 0 above."""
    return (np.arange(m) <= plunge_index(c)).astype(float)


def probabilities_ideal(probe: ProbeState, povm: Povm) -> np.ndarray:
    """Outcome probabilities p_0..p_d with unlimited measurement time.

    p_j = sum_k rho_k |sum_n pi_jn Psi_kn|^2 for the monitored elements; the
    leakage entry closes the distribution to 1.
    """
    _check_shared_params(probe.params, povm.params)
    return _probabilities(probe.modes, probe.weights, povm)


def probabilities_limited(probe: ProbeState, povm: Povm, basis: ProlateBasis) -> np.ndarray:
    """Outcome probabilities with both the band limit and the finite window.

    Every coefficient product inside the squared amplitude picks up the
    concentration eigenvalue lambda_n; the leakage element absorbs whatever
    the finite window fails to capture.
    """
    _check_shared_params(probe.params, povm.params)
    if probe.params is not None and probe.params != basis.params:
        raise ValueError("probe expressed over different basis parameters")
    return _probabilities(probe.modes, probe.weights, povm, basis.lambdas)


def probabilities_truncated(probe: ProbeState, povm: Povm, c: float) -> np.ndarray:
    """Ideal-form probabilities with the coefficient sums cut at ceil(2c/pi).

    Faithful to the limited probabilities once the spectrum has plunged:
    coefficients above the plunge index contribute nothing.
    """
    _check_shared_params(probe.params, povm.params)
    return _probabilities(probe.modes, probe.weights, povm,
                          _plunge_weight(c, povm.vectors.shape[1]))


def time_limit_povm(povm: Povm, basis: ProlateBasis) -> Povm:
    """Compress every monitored element into the measurement window.

    Each vector is damped to pi_jn * lambda_n, so ideal probabilities of the
    result reproduce the limited probabilities of the original.  The result
    is valid whenever the original is: with L = diag(lambda_n),
    sum_j L pi_j pi_j^T L = L (sum_j pi_j pi_j^T) L <= L^2 <= I, as every
    0 <= lambda_n < 1; so its top eigenvalue is at most lambda_0^2 times the
    original's.  Applying the map twice damps by lambda_n^2: the window
    projector is idempotent in time, but its compression onto the
    bandlimited subspace is a strict contraction.
    """
    if povm.params is not None and povm.params != basis.params:
        raise ValueError("POVM expressed over different basis parameters")
    return Povm(povm.vectors * _column_weight(basis.lambdas, povm.vectors.shape[1]),
                params=povm.params)


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Classical Fisher information, kept finite and read-only, with the metadata that shaped it."""

    matrix: np.ndarray
    labels: tuple
    excluded_outcomes: tuple = ()

    def __post_init__(self):
        _freeze(self, "matrix", 2)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "excluded_outcomes", tuple(self.excluded_outcomes))


def _checked_probs(model, theta: np.ndarray) -> np.ndarray:
    p = np.atleast_1d(np.asarray(model(theta), dtype=float))
    if not np.all(np.isfinite(p)):
        raise ValueError(f"model returned non-finite probabilities at theta={theta.tolist()}")
    if np.any(p < -PROB_SLACK) or np.any(p > 1.0 + PROB_SLACK):
        raise ValueError(
            f"model probabilities left [0, 1] at theta={theta.tolist()}; "
            f"finite-difference step too large or model invalid")
    return np.clip(p, 0.0, 1.0)


def _default_steps(theta: np.ndarray) -> np.ndarray:
    """Central-difference steps of ``fisher_matrix``, one per parameter."""
    return 1e-5 * (1.0 + np.abs(theta))


def fisher_matrix(model, theta, *, labels=None) -> FisherMatrix:
    """Classical Fisher information matrix of a probability model.

    Parameters
    ----------
    model : callable
        Maps a parameter vector to a probability vector.  Must be valid in a
        neighborhood of ``theta`` and safe for repeated evaluation.
    theta : array_like
        Evaluation point.

    Notes
    -----
    Each derivative is a central difference with step h = 1e-5 (1 + |theta_i|)
    and one Richardson extrapolation from h/2, so the model must stay valid
    within h of ``theta``.

    The sum runs over every outcome the model reports, except those with
    probability below ``DEFAULT_P_FLOOR`` (their indices are reported on the
    result) -- 1/p is untrustworthy there.  To exclude an outcome (for
    example a leakage channel), wrap the model so it omits it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = theta.size
    steps = _default_steps(theta)
    if labels is None:
        labels = tuple(f"theta{i}" for i in range(n))

    p0 = _checked_probs(model, theta)
    keep = p0 >= DEFAULT_P_FLOOR
    excluded = tuple(int(i) for i in np.nonzero(~keep)[0])

    grads = np.empty((n, p0.size))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0

        def central(h):
            return (_checked_probs(model, theta + h * e)
                    - _checked_probs(model, theta - h * e)) / (2.0 * h)

        d = central(steps[i])
        grads[i] = (4.0 * central(0.5 * steps[i]) - d) / 3.0

    g = grads[:, keep]
    f = (g / p0[keep]) @ g.T
    f = 0.5 * (f + f.T)
    return FisherMatrix(matrix=f, labels=labels, excluded_outcomes=excluded)


def crb(fisher: FisherMatrix) -> np.ndarray:
    """Cramer-Rao lower bounds sqrt((F^-1)_nn) for each parameter.

    Raises SingularFisherError when the matrix is singular or worse
    conditioned than ``COND_CAP``; the error carries the null direction,
    i.e. the parameter combination the data cannot identify.
    """
    f = fisher.matrix
    evals, evecs = np.linalg.eigh(f)
    top = float(evals[-1])
    if top <= 0.0 or evals[0] <= top / COND_CAP:
        direction = evecs[:, 0]
        combo = " + ".join(f"{float(x):+.3g}*{lab}"
                           for x, lab in zip(direction, fisher.labels))
        raise SingularFisherError(
            f"Fisher matrix singular or ill-conditioned (eigenvalues "
            f"{evals.tolist()}); unidentifiable direction: {combo}",
            null_direction=direction)
    inv = evecs @ np.diag(1.0 / evals) @ evecs.T
    return np.sqrt(np.diag(inv))
