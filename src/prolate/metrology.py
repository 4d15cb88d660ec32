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


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Convex decomposition of a probe: weights rho_k and coefficient rows Psi_kn.

    Rows live in the prolate coefficient space; they need not be mutually
    orthogonal (any convex decomposition of the same operator yields the
    same probabilities).
    """

    weights: np.ndarray
    modes: np.ndarray
    params: SlepianParams | None = None

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_2d(np.asarray(self.modes, dtype=float))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "modes", m)
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

    ``vectors`` is a (d, m) matrix over the prolate coefficients; the leakage
    element d, the identity minus their sum, is implicit.  Each row's norm^2
    is at most 1, so each element alone is below the identity.
    """

    vectors: np.ndarray
    params: SlepianParams | None = None

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float, ndmin=2)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"POVM needs a non-empty (elements, coefficients) matrix of "
                             f"vectors, got shape {v.shape}")
        norms = np.sum(v * v, axis=1)
        if np.any(norms > 1.0 + POVM_SLACK):
            raise ValueError(f"POVM vector norm^2 exceeds 1: {norms.max()!r}")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    def completeness_operator(self) -> np.ndarray:
        """Matrix of sum_j |pi_j><pi_j| on the spanned coefficient space."""
        return self.vectors.T @ self.vectors

    def validate(self) -> float:
        """Check that the leakage complement stays positive; returns top eigenvalue."""
        top = float(np.linalg.eigvalsh(self.completeness_operator())[-1])
        if top > 1.0 + POVM_SLACK:
            raise PovmValidityError("monitored elements exceed the identity", top)
        return top


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
    of that vector alone.
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
            f"monitored probabilities sum to {p_click.sum()!r} > 1; POVM is over-complete")
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
    result reproduce the limited probabilities of the original.  Element
    norms can only shrink.  Applying the map twice damps by lambda_n^2: the
    window projector is idempotent in time, but its compression onto the
    bandlimited subspace is a strict contraction.
    """
    if povm.params is not None and povm.params != basis.params:
        raise ValueError("POVM expressed over different basis parameters")
    return Povm(povm.vectors * _column_weight(basis.lambdas, povm.vectors.shape[1]),
                params=povm.params)


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Classical Fisher information with the evaluation metadata that shaped it."""

    matrix: np.ndarray
    labels: tuple
    steps: np.ndarray
    excluded_outcomes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "steps", np.atleast_1d(np.asarray(self.steps, dtype=float)))
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
    """Central-difference steps ``fisher_matrix`` takes when none are given."""
    return 1e-5 * (1.0 + np.abs(theta))


def fisher_matrix(model, theta, steps=None, *, labels=None) -> FisherMatrix:
    """Classical Fisher information matrix of a probability model.

    Parameters
    ----------
    model : callable
        Maps a parameter vector to a probability vector.  Must be valid in a
        neighborhood of ``theta`` and safe for repeated evaluation.
    theta : array_like
        Evaluation point.
    steps : array_like or None
        Per-parameter central-difference steps; default 1e-5 * (1 + |theta|).
        One Richardson extrapolation is applied.

    Notes
    -----
    The sum runs over every outcome the model reports, except those with
    probability below ``DEFAULT_P_FLOOR`` (their indices are reported on the
    result) -- 1/p is untrustworthy there.  To exclude an outcome (for
    example a leakage channel), wrap the model so it omits it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = theta.size
    if steps is None:
        steps = _default_steps(theta)
    else:
        steps = np.broadcast_to(np.asarray(steps, dtype=float), (n,)).copy()
    if np.any(steps <= 0.0):
        raise ValueError("steps must be positive")
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
    return FisherMatrix(matrix=f, labels=labels, steps=steps,
                        excluded_outcomes=excluded)


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
