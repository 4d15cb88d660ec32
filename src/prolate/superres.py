"""Two-pulse superresolution: probe, derivative modes, optimal POVM, efficiency.

The scenario: two incoherent pulses with relative intensities nu and 1 - nu,
separated by tau around centroid tau0, each shaped by a real unit-norm
amplitude point spread function.  The optimal measurement projects onto
combinations of the orthonormalized derivative modes of the point spread
function; band and time limits then cap its efficiency factor by the largest
concentration eigenvalue of the prolate basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import ProlateBasis
from .bandlimited import _pulse_rows, _pulse_transform
from .errors import IdentifiabilityError, PovmValidityError, QuadratureError, RankDeficiencyError
from .metrology import (FisherMatrix, Povm, ProbeState, _check_shared_params, _column_weight,
                        _default_steps, _freeze, _plunge_weight, _probabilities, fisher_matrix)
from .params import SlepianParams

REGIMES = ("ideal", "limited", "truncated")
#: derivative orders 0..N_DERIVS span the optimal measurement's modes
N_DERIVS = 3
#: a squared residual norm below this share of the row's own marks dependence
RANK_TOL = 1e-14
#: largest |energy - 1| a sampled pulse may show: at 1e-6 its rows can be
#: 1e-8 off the closed form, below 1e-10 they were within 2e-12
_NORM_TOL = 1e-10
#: least norm / rounding floor of a derivative row: rows were off by up to 1e4 floor / norm
_FLOOR_FACTOR = 1e12


@dataclass(frozen=True)
class GaussianPsf:
    """Unit-norm Gaussian amplitude (2 pi sigma^2)^(-1/4) exp(-t^2 / (4 sigma^2)).

    ``sigma`` is the standard deviation of the intensity profile |Psf|^2;
    sigma^2 = 1/(2c) reproduces the zeroth Hermite-Gauss mode at frequency c.
    """

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def __call__(self, t):
        s2 = self.sigma * self.sigma
        return (2.0 * math.pi * s2) ** -0.25 * np.exp(-np.asarray(t, dtype=float) ** 2 / (4.0 * s2))


def default_psf_sigma(c: float) -> float:
    """Width tying the default Gaussian pulse to the configured bandwidth.

    sigma = 1/sqrt(c), twice the intensity variance 1/(2c) of the zeroth
    Hermite-Gauss mode: the wider pulse keeps nearly all of its spectral
    energy inside the band once c is a few units or more.
    """
    if not (c > 0.0):
        raise ValueError("c must be positive")
    return 1.0 / math.sqrt(c)


@dataclass(frozen=True)
class TwoPulseModel:
    """Two incoherent shifted copies of a point spread function.

    theta = (tau, tau0, nu): separation, centroid, relative intensity.
    """

    psf: object
    tau: float
    tau0: float = 0.0
    nu: float = 0.5

    def __post_init__(self):
        for name, value in (("tau", self.tau), ("tau0", self.tau0)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")
        if not (0.0 <= self.nu <= 1.0):
            raise ValueError("nu must lie in [0, 1]")

    @property
    def theta(self) -> np.ndarray:
        return np.array([self.tau, self.tau0, self.nu])


@dataclass(frozen=True, eq=False)
class _Sampling:
    """One checked sampling of a pulse on a basis.

    ``transform`` is the band transform (w, B, F, reach) of Psf(t), centred
    at its own origin; every shift is a phase of it.  ``floor`` holds, per
    derivative order m = 0..N_DERIVS, the norm of the rounding floor
    eps sum_q |B_nq| |(i w_q)^m F_q| of a row; a shift only turns the phase
    of F_q, so one floor per order serves every shift.
    """

    transform: tuple
    floor: np.ndarray


def _sampled_pulse(psf, basis: ProlateBasis) -> _Sampling:
    """The basis' sampling of ``psf``: the stored one if ``psf`` is the pulse
    last sampled there, else a new one that replaces it.

    A pulse is matched by identity, so any callable works and nothing is
    hashed.  Its energy shows a pulse that is not unit-norm or too narrow for
    the rule to resolve: such a sampling raises ValueError and is not kept.
    """
    last = basis._last_sampling
    if last is not None and last[0] is psf:
        return last[1]
    transform, energy = _pulse_transform(psf, basis)
    err = abs(energy - 1.0)
    if not err <= _NORM_TOL:
        raise ValueError(f"point spread function is not unit-norm, or narrower than "
                         f"the real-line rule resolves (|energy - 1| = {err:.3e})")
    freqs, band, F, _ = transform
    F.flags.writeable = False
    floor = np.linalg.norm(np.abs(freqs) ** np.arange(N_DERIVS + 1)[:, None] * np.abs(F)
                           @ np.abs(band).T, axis=1) * np.finfo(float).eps
    floor.flags.writeable = False
    sampling = _Sampling(transform, floor)
    object.__setattr__(basis, "_last_sampling", (psf, sampling))
    return sampling


def _rows_above_floor(sampling: _Sampling, shifts, n_derivs: int) -> np.ndarray:
    """``_pulse_rows`` at the shifts, each row checked against its rounding floor.

    A row under ``_FLOOR_FACTOR`` times its order's floor, as for a narrow
    pulse far off the window, raises QuadratureError naming the row and
    carrying the largest floor / norm share.
    """
    rows = _pulse_rows(sampling.transform, shifts, n_derivs)
    share = sampling.floor[:n_derivs + 1] / np.linalg.norm(rows, axis=2)
    if np.any(share * _FLOOR_FACTOR > 1.0):
        s, m = np.unravel_index(np.argmax(share), share.shape)
        raise QuadratureError(f"row of order {m} at shift {shifts[s]:g} is below "
                              f"{_FLOOR_FACTOR:.0e} times its rounding floor", float(share.max()))
    return rows


def _probe_shifts(tau, tau0) -> tuple:
    """Shifts tau0 + tau/2 and tau0 - tau/2 of the two pulses, weighted nu and 1 - nu."""
    return tau0 + 0.5 * tau, tau0 - 0.5 * tau


def probe_from_model(model: TwoPulseModel, basis: ProlateBasis) -> ProbeState:
    """Probe state of the two-pulse mixture in the prolate coefficient space.

    Rows are the projections of the shifted pulses Psf(t - tau0 -/+ tau/2)
    with weights (nu, 1 - nu), both phases of the basis' sampling of Psf(t)
    (``_sampled_pulse``).  The rows overlap for small tau, so this is a
    non-orthogonal convex decomposition -- probabilities do not care.  A pulse that is not
    unit-norm, or too narrow for the real-line rule, raises ValueError; a
    shift beyond the band rule's reach, or a row under ``_FLOOR_FACTOR``
    times its rounding floor, raises QuadratureError.
    """
    modes = _rows_above_floor(_sampled_pulse(model.psf, basis),
                              _probe_shifts(model.tau, model.tau0), 0)[:, 0]
    return ProbeState(weights=np.array([model.nu, 1.0 - model.nu]),
                      modes=modes, params=basis.params)


@dataclass(frozen=True, eq=False)
class DerivativeBasis:
    """Derivative modes of the pulse shape and their orthonormalized form.

    ``gamma``  : projections of d^n/dt^n Psf(t - tau0), one row per order.
    ``phi``    : orthonormal rows spanning the same space, filled by
                 ``gram_schmidt``; row k combines gamma rows 0..k only, so
                 phi @ gamma.T is upper triangular with a positive diagonal.

    Both are stored as finite read-only copies.
    """

    params: SlepianParams
    gamma: np.ndarray
    phi: np.ndarray | None = None

    def __post_init__(self):
        _freeze(self, "gamma", 2)
        if self.phi is not None:
            _freeze(self, "phi", 2)

    def require_phi(self) -> np.ndarray:
        if self.phi is None:
            raise ValueError("orthonormal modes not filled; run gram_schmidt first")
        return self.phi


def gamma_modes(model: TwoPulseModel, basis: ProlateBasis) -> DerivativeBasis:
    """Project the derivative family d^n/dt^n Psf(t - tau0), n = 0..N_DERIVS.

    The pulse is sampled at its own origin, and must be unit-norm and
    resolved by the real-line rule; tau0 is a phase of that transform.  The
    basis keeps the sampling, and later calls with the same psf object, here
    or in ``probe_from_model`` and ``superres_fisher``, read it again.  Row 0
    is the projection of Psf(t - tau0); rows n >= 1 take the transform times
    (i w)^n over the band of the basis: no step size enters and no derivative
    of the pulse is needed.  A row below ``_FLOOR_FACTOR`` times its rounding
    floor, as for a narrow pulse far off the window, raises QuadratureError.
    """
    gamma = _rows_above_floor(_sampled_pulse(model.psf, basis), (model.tau0,), N_DERIVS)[0]
    return DerivativeBasis(params=basis.params, gamma=gamma)


def gram_schmidt(dbasis: DerivativeBasis) -> DerivativeBasis:
    """Orthonormalize the derivative rows by one QR factorization.

    gamma^T = Q R with diag(R) > 0, so phi = Q^T has orthonormal rows, row k
    mixes gamma rows 0..k only, and phi @ gamma^T = R.  Dependent rows raise
    RankDeficiencyError; a zero row, or a row in the span of the previous
    ones, is named by its index.
    """
    gamma = dbasis.gamma
    n, m = gamma.shape
    if m < n:
        raise RankDeficiencyError(f"{n} derivative rows cannot be independent in "
                                  f"{m} coefficient columns")
    q, r = np.linalg.qr(gamma.T)
    norms = np.linalg.norm(r, axis=0)  # |gamma_k|, as Q is orthonormal
    if np.any(norms <= 0.0):
        raise RankDeficiencyError("zero derivative row", index=int(np.argmin(norms)))
    # share of |gamma_k|^2 outside the span of rows 0..k-1; their product is
    # the determinant of the normalized Gram matrix.  Each share is at most 1,
    # so the row test comes first: otherwise the product always fails first.
    kept = (np.diag(r) / norms) ** 2
    if np.any(kept < RANK_TOL):
        k = int(np.argmax(kept < RANK_TOL))
        raise RankDeficiencyError(
            f"derivative row {k} lies in the span of the previous rows", index=k)
    det = float(np.prod(kept))
    if det < RANK_TOL:
        raise RankDeficiencyError(
            f"derivative rows nearly dependent (normalized Gram determinant "
            f"{det:.3e} < {RANK_TOL:.1e})")
    return replace(dbasis, phi=(q * np.sign(np.diag(r))).T)


@dataclass(frozen=True, eq=False)
class MeasurementDesign:
    """Finite read-only coefficient matrix C_jk of the three elements over phi_0..phi_3."""

    C: np.ndarray

    def __post_init__(self):
        c = _freeze(self, "C", 2)
        if c.shape != (3, 4):
            raise ValueError(f"design matrix must be 3x4, got {c.shape}")


def design_from_sphere(r1: float, phi1: float, r2: float, phi2: float, *,
                       row2=(0.0, 0.0, 0.0, 0.0)) -> MeasurementDesign:
    """Build the constrained design entries from sphere coordinates.

    C01 = r1 sin(phi1), C11 = r1 cos(phi1) and likewise for (r2, phi2); the
    angles must stay off the multiples of pi/2 so no constrained entry
    vanishes.  C03 = C13 = 0, and the third element's row is ``row2``.
    """
    if not (r1 > 0.0 and r2 > 0.0):
        raise ValueError("radii must be positive")
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        d = math.remainder(phi, 0.5 * math.pi)
        if abs(d) <= 1e-12:
            raise ValueError(f"{name} = {phi!r} sits on a multiple of pi/2; "
                             f"a constrained coefficient would vanish")
    c = np.array([
        [0.0, r1 * math.sin(phi1), r2 * math.sin(phi2), 0.0],
        [0.0, r1 * math.cos(phi1), r2 * math.cos(phi2), 0.0],
        list(row2),
    ])
    return MeasurementDesign(C=c)


def efficiency_factor(design: MeasurementDesign) -> float:
    """Efficiency factor (C01 C12 - C11 C02)^2 / (C01^2 + C11^2)."""
    c = design.C
    den = c[0, 1] ** 2 + c[1, 1] ** 2
    if den <= 1e-300:
        raise ValueError("degenerate design: C01^2 + C11^2 vanishes")
    num = (c[0, 1] * c[1, 2] - c[1, 1] * c[0, 2]) ** 2
    return float(num / den)


def optimal_povm(design: MeasurementDesign, dbasis: DerivativeBasis) -> Povm:
    """The three projective elements |pi_j><pi_j|, pi_j = sum_k C_jk phi_k.

    The POVM's vectors are the rows of C @ phi; the leakage element is
    implicit.  Linearly dependent active (nonzero) rows of C raise
    PovmValidityError here; ``Povm`` itself checks that the summed elements
    stay below the identity.
    """
    phi = dbasis.require_phi()
    c = design.C
    # a zero row is a deliberately disabled element; independence is required
    # of the active rows only
    row_norms = np.linalg.norm(c, axis=1)
    active = c[row_norms > 1e-12 * max(row_norms.max(), 1.0)]
    if active.shape[0]:
        s = np.linalg.svd(active, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise PovmValidityError("active design rows are linearly dependent")
    return Povm(c @ phi, params=dbasis.params)


def _phi_and_lambdas(dbasis: DerivativeBasis, basis: ProlateBasis):
    """The orthonormal modes and the eigenvalues lambda_n of their columns."""
    phi = dbasis.require_phi()
    if dbasis.params != basis.params:
        raise ValueError("derivative modes built over different basis parameters")
    return phi, _column_weight(basis.lambdas, phi.shape[1])


def time_limited_design(design: MeasurementDesign, dbasis: DerivativeBasis,
                        basis: ProlateBasis) -> MeasurementDesign:
    """Design coefficients after compressing the elements into the window.

    C_jk maps to sum_n phi_kn lambda_n pi_jn with pi_j = sum_m C_jm phi_m;
    the zero pattern of the optimal alignment is generally lost.
    """
    phi, lam = _phi_and_lambdas(dbasis, basis)
    pi = design.C @ phi
    return MeasurementDesign(C=(pi * lam) @ phi.T)


def efficiency_bounds(dbasis: DerivativeBasis, basis: ProlateBasis) -> tuple[float, float]:
    """Upper bounds on the time-limited efficiency factor.

    Returns (sum_n phi_2n^2 lambda_n, lambda_0): the window energy of the
    second orthonormal mode, and its coarser cap by the top eigenvalue.  The
    first is strictly below 1 for any finite window -- a bandlimited function
    cannot be time-limited too.
    """
    phi, lam = _phi_and_lambdas(dbasis, basis)
    if phi.shape[0] < 3:
        raise ValueError("need derivative modes up to order 2")
    bound_phi2 = float(np.dot(phi[2] * phi[2], lam))
    return bound_phi2, float(basis.lambdas[0])


def superres_fisher(model: TwoPulseModel, povm: Povm, basis: ProlateBasis,
                    regime: str = "ideal", *, tau_floor: float | None = None) -> FisherMatrix:
    """Fisher information of theta = (tau, tau0, nu) under the chosen regime.

    ``regime`` weights the probe's coefficient columns: none for "ideal",
    lambda_n for "limited" (band + window), 1 up to the plunge index and 0
    above for "truncated".  Refused before the pulse's sampling is read: a
    separation below ``tau_floor`` (default 1e-4 sigma for Gaussian pulses),
    where the parameters degenerate physically, not numerically; and a
    separation within one finite-difference step of 0, or nu within one of 0
    or 1, where the steps would leave the parameter range.  A NaN or negative
    ``tau_floor`` raises ValueError.  The sampling is the basis' one of the
    psf, made here only if the basis last sampled another object, so calls
    over the separations of one psf share it.  Every stencil point reads the
    rows at tau0 +/- tau/2 as phases of it, checked against the band rule's
    reach; the model's two rows are checked once against ``_FLOOR_FACTOR``
    times their rounding floor.  Either failure raises QuadratureError.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if tau_floor is None:
        sigma = getattr(model.psf, "sigma", None)
        if sigma is None:
            raise ValueError("tau_floor is required for point spread functions "
                             "without a sigma attribute")
        tau_floor = 1e-4 * sigma
    elif not tau_floor >= 0.0:
        raise ValueError(f"tau_floor must be >= 0, got {tau_floor!r}")
    if model.tau < tau_floor:
        raise IdentifiabilityError(
            f"separation tau = {model.tau!r} below the floor {tau_floor!r}; "
            f"parameters are not identifiable in this regime")
    tau_step, _, nu_step = (float(h) for h in _default_steps(model.theta))
    if model.tau - tau_step < 0.0:
        raise IdentifiabilityError(f"separation tau = {model.tau!r} within the Fisher step "
                                   f"{tau_step!r} of 0; the steps in tau would make it negative")
    if model.nu - nu_step < 0.0 or model.nu + nu_step > 1.0:
        raise IdentifiabilityError(
            f"intensity ratio nu = {model.nu!r} within the Fisher step {nu_step!r} "
            f"of 0 or 1; the steps in nu would leave [0, 1]")
    _check_shared_params(basis.params, povm.params)
    w = {"ideal": None, "limited": basis.lambdas,
         "truncated": _plunge_weight(basis.params.c, basis.n_modes)}[regime]
    # every stencil point's probe is two shifts of one sampling of Psf(t)
    sampling = _sampled_pulse(model.psf, basis)
    transform = sampling.transform
    _rows_above_floor(sampling, _probe_shifts(model.tau, model.tau0), 0)

    def probabilities(theta):
        tau, tau0, nu = theta
        rows = _pulse_rows(transform, _probe_shifts(tau, tau0), 0)[:, 0]
        return _probabilities(rows, np.array([nu, 1.0 - nu]), povm, w)

    return fisher_matrix(probabilities, model.theta, labels=("tau", "tau0", "nu"))
