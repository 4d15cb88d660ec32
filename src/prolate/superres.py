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
from .bandlimited import _real_line_coeffs, project
from .errors import IdentifiabilityError, PovmValidityError, RankDeficiencyError
from .hermite import hermite_polynomial
from .metrology import (POVM_SLACK, FisherMatrix, Povm, PovmElement, ProbeState,
                        _default_steps, fisher_matrix, probabilities_ideal,
                        probabilities_limited, probabilities_truncated)
from .params import SlepianParams
from .quadrature import real_line_rule

REGIMES = ("ideal", "limited", "truncated")
#: derivative orders 0..N_DERIVS span the optimal measurement's modes
N_DERIVS = 3
#: a squared residual norm below this share of the row's own marks dependence
RANK_TOL = 1e-14


@dataclass(frozen=True)
class GaussianPsf:
    """Unit-norm Gaussian amplitude (2 pi sigma^2)^(-1/4) exp(-t^2 / (4 sigma^2)).

    ``sigma`` is the standard deviation of the intensity profile |Psf|^2;
    sigma^2 = 1/(2c) reproduces the zeroth Hermite-Gauss mode at frequency c.
    """

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError("sigma must be positive")

    def __call__(self, t):
        s2 = self.sigma * self.sigma
        return (2.0 * math.pi * s2) ** -0.25 * np.exp(-np.asarray(t, dtype=float) ** 2 / (4.0 * s2))

    def derivative(self, n: int):
        """Exact n-th derivative as a callable (Hermite polynomial times self)."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        if n == 0:
            return self
        scale = (-0.5 / self.sigma) ** n

        def dn(t, _s=scale, _n=n):
            x = np.asarray(t, dtype=float) / (2.0 * self.sigma)
            return _s * hermite_polynomial(_n, x) * self(t)

        return dn


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
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")
        if not (0.0 <= self.nu <= 1.0):
            raise ValueError("nu must lie in [0, 1]")

    @property
    def theta(self) -> np.ndarray:
        return np.array([self.tau, self.tau0, self.nu])


def _require_unit_norm(psf, basis: ProlateBasis) -> None:
    if not isinstance(psf, GaussianPsf):
        err = abs(real_line_rule(psf, basis.params.T, rel_tol=1e-9).total_energy - 1.0)
        if err > 1e-6:
            raise ValueError(f"point spread function is not unit-norm (|error| = {err:.3e})")


def _probe(model: TwoPulseModel, basis: ProlateBasis,
           modes: np.ndarray | None = None) -> ProbeState:
    # probe_from_model without the norm check, for callers that made it once;
    # ``modes`` passes rows already projected for the same tau and tau0
    if modes is None:
        shifts = (model.tau0 + 0.5 * model.tau, model.tau0 - 0.5 * model.tau)
        modes = np.vstack([
            project(lambda t, _s=s: np.asarray(model.psf(t - _s), dtype=float),
                    basis).coeffs
            for s in shifts])
    return ProbeState(weights=np.array([model.nu, 1.0 - model.nu]),
                      modes=modes, params=basis.params)


def probe_from_model(model: TwoPulseModel, basis: ProlateBasis) -> ProbeState:
    """Probe state of the two-pulse mixture in the prolate coefficient space.

    Rows are the projections of the shifted pulses Psf(t - tau0 -/+ tau/2)
    with weights (nu, 1 - nu).  The rows overlap for small tau, so this is a
    non-orthogonal convex decomposition -- probabilities do not care.
    """
    _require_unit_norm(model.psf, basis)
    return _probe(model, basis)


@dataclass(frozen=True)
class DerivativeBasis:
    """Derivative modes of the pulse shape and their orthonormalized form.

    ``gamma``  : projections of d^n/dt^n Psf(t - tau0), one row per order.
    ``phi``    : orthonormal rows spanning the same space, filled by
                 ``gram_schmidt``; row k combines gamma rows 0..k only.
    ``transform``: the lower-triangular map with positive diagonal such that
                 phi = transform @ gamma.
    """

    params: SlepianParams
    gamma: np.ndarray
    phi: np.ndarray | None = None
    transform: np.ndarray | None = None

    def require_phi(self) -> np.ndarray:
        if self.phi is None:
            raise ValueError("orthonormal modes not filled; run gram_schmidt first")
        return self.phi


def gamma_modes(model: TwoPulseModel, basis: ProlateBasis) -> DerivativeBasis:
    """Project the derivative family d^n/dt^n Psf(t - tau0), n = 0..N_DERIVS.

    The pulse is sampled once.  Row 0 is its projection; rows n >= 1 take
    the transform of the samples times (i w)^n over the band of the basis:
    no step size enters and no derivative of the pulse is needed.
    """
    gamma = _real_line_coeffs(lambda t: model.psf(t - model.tau0), basis, N_DERIVS)
    return DerivativeBasis(params=basis.params, gamma=gamma)


def gram_schmidt(dbasis: DerivativeBasis) -> DerivativeBasis:
    """Orthonormalize the derivative rows (modified Gram-Schmidt).

    Output rows are orthonormal, row k mixes input rows 0..k only, and the
    triangular transform has a positive diagonal.  Rank deficiency is
    reported with the first offending row index.
    """
    gamma = dbasis.gamma
    n, m = gamma.shape
    norms = np.linalg.norm(gamma, axis=1)
    if np.any(norms <= 0.0):
        raise RankDeficiencyError("zero derivative row", index=int(np.argmin(norms)))
    corr = (gamma / norms[:, None]) @ (gamma / norms[:, None]).T
    if np.linalg.det(corr) < RANK_TOL:
        raise RankDeficiencyError(
            f"derivative rows nearly dependent (normalized Gram determinant "
            f"{np.linalg.det(corr):.3e} < {RANK_TOL:.1e})")

    phi = np.zeros((n, m))
    transform = np.zeros((n, n))
    for k in range(n):
        v = gamma[k].copy()
        coeff = np.zeros(n)
        coeff[k] = 1.0
        for j in range(k):
            r = float(np.dot(phi[j], v))
            v -= r * phi[j]
            coeff -= r * transform[j]
        norm = float(np.linalg.norm(v))
        if norm * norm < RANK_TOL * float(np.dot(gamma[k], gamma[k])):
            raise RankDeficiencyError(
                f"derivative row {k} lies in the span of the previous rows", index=k)
        phi[k] = v / norm
        transform[k] = coeff / norm
    return replace(dbasis, phi=phi, transform=transform)


@dataclass(frozen=True)
class MeasurementDesign:
    """Coefficient matrix C_jk of the three projective elements over phi_0..phi_3.

    ``sphere`` records the (r1, phi1, r2, phi2) parametrization when the
    design was built from it.
    """

    C: np.ndarray
    sphere: tuple | None = None

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        if c.shape != (3, 4):
            raise ValueError(f"design matrix must be 3x4, got {c.shape}")
        object.__setattr__(self, "C", c)

    def meets_optimal_conditions(self) -> bool:
        """Zero pattern required of the quantum-optimal alignment, to 1e-12."""
        c, tol = self.C, 1e-12
        zeros_ok = abs(c[0, 0]) <= tol and abs(c[1, 0]) <= tol
        nonzero_ok = all(abs(x) > tol for x in (c[0, 1], c[1, 1], c[0, 2], c[1, 2]))
        return zeros_ok and nonzero_ok


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
    return MeasurementDesign(C=c, sphere=(r1, phi1, r2, phi2))


def efficiency_factor(design: MeasurementDesign) -> float:
    """Efficiency factor (C01 C12 - C11 C02)^2 / (C01^2 + C11^2)."""
    c = design.C
    den = c[0, 1] ** 2 + c[1, 1] ** 2
    if den <= 1e-300:
        raise ValueError("degenerate design: C01^2 + C11^2 vanishes")
    num = (c[0, 1] * c[1, 2] - c[1, 1] * c[0, 2]) ** 2
    return float(num / den)


def optimal_povm(design: MeasurementDesign, dbasis: DerivativeBasis) -> Povm:
    """Three rank-1 elements |pi_j> = sum_k C_jk |phi_k> plus implicit leakage.

    Validity demands the summed operator stay below the identity (so the
    leakage complement is positive) and the three elements be linearly
    independent.
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
    gram_op = c.T @ c  # operator of sum_j Pi_j in the orthonormal phi frame
    evals, evecs = np.linalg.eigh(gram_op)
    if evals[-1] > 1.0 + POVM_SLACK:
        raise PovmValidityError("leakage complement not positive",
                                top_eigenvalue=float(evals[-1]),
                                eigenvector=evecs[:, -1] @ phi)
    vectors = c @ phi
    elements = tuple(PovmElement(np.array([1.0]), row[None, :]) for row in vectors)
    return Povm(elements, params=dbasis.params)


def _phi_and_lambdas(dbasis: DerivativeBasis, basis: ProlateBasis):
    """The orthonormal modes and the eigenvalues lambda_n of their columns."""
    phi = dbasis.require_phi()
    if dbasis.params != basis.params:
        raise ValueError("derivative modes built over different basis parameters")
    m = phi.shape[1]
    if basis.lambdas.size < m:
        raise ValueError("basis supplies fewer eigenvalues than coefficient columns")
    return phi, basis.lambdas[:m]


def time_limited_design(design: MeasurementDesign, dbasis: DerivativeBasis,
                        basis: ProlateBasis) -> MeasurementDesign:
    """Design coefficients after compressing the elements into the window.

    C_jk maps to sum_n phi_kn lambda_n pi_jn with pi_j = sum_m C_jm phi_m;
    the zero pattern of the optimal alignment is generally lost.
    """
    phi, lam = _phi_and_lambdas(dbasis, basis)
    pi = design.C @ phi
    return MeasurementDesign(C=(pi * lam) @ phi.T, sphere=None)


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
                    regime: str = "ideal", *, include_leakage: bool = True,
                    tau_floor: float | None = None) -> FisherMatrix:
    """Fisher information of theta = (tau, tau0, nu) under the chosen regime.

    ``regime`` selects how outcome probabilities are computed: "ideal",
    "limited" (band + window) or "truncated" (coefficient sums cut at the
    plunge index).  Separations below ``tau_floor`` (default 1e-4 sigma for
    Gaussian pulses) are refused: the parameters degenerate there and the
    singularity is physical, not numerical.  A separation within one
    finite-difference step of 0, or an intensity ratio nu within one of 0
    or 1, is refused too: the steps would leave the parameter range.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if tau_floor is None:
        sigma = getattr(model.psf, "sigma", None)
        if sigma is None:
            raise ValueError("tau_floor is required for point spread functions "
                             "without a sigma attribute")
        tau_floor = 1e-4 * sigma
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
    # every model evaluation below shares this pulse
    _require_unit_norm(model.psf, basis)

    if regime == "ideal":
        def route(probe):
            return probabilities_ideal(probe, povm)
    elif regime == "limited":
        def route(probe):
            return probabilities_limited(probe, povm, basis)
    else:
        def route(probe):
            return probabilities_truncated(probe, povm, basis.params.c)

    # the steps in nu keep theta's shifts, so rows are projected once per (tau, tau0)
    rows = {}

    def prob_model(theta):
        m = replace(model, tau=float(theta[0]), tau0=float(theta[1]), nu=float(theta[2]))
        probe = _probe(m, basis, modes=rows.get((m.tau, m.tau0)))
        rows[m.tau, m.tau0] = probe.modes
        p = route(probe)
        return p if include_leakage else p[:-1]

    return fisher_matrix(prob_model, model.theta, labels=("tau", "tau0", "nu"))
