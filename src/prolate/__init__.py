"""Prolate spheroidal wave functions and metrology under band/time limits.

The package solves the time-frequency concentration problem on a finite window,
expands bandlimited signals over the resulting modes, propagates band and
measurement-time limits into outcome probabilities and Fisher information,
and quantifies how those limits cap the efficiency of the two-pulse
superresolution measurement.
"""

from .bandlimited import project
from .basis import (LAMBDA_FLOOR, ProlateBasis, build_basis, eval_psi,
                    extension_matrix, plunge_index)
from .errors import (EigensolverError, IdentifiabilityError,
                     PovmValidityError, ProlateError, QuadratureError,
                     RankDeficiencyError, SingularFisherError)
from .hermite import hermite_function, hg_eval
from .metrology import (FisherMatrix, Povm, ProbeState, crb, fisher_matrix,
                        probabilities_ideal, probabilities_limited,
                        probabilities_truncated, time_limit_povm)
from .params import SlepianParams
from .superres import (DerivativeBasis, GaussianPsf, MeasurementDesign,
                       TwoPulseModel, default_psf_sigma, design_from_sphere,
                       efficiency_bounds, efficiency_factor, gamma_modes,
                       gram_schmidt, optimal_povm, probe_from_model,
                       superres_fisher, time_limited_design)

__version__ = "0.1.0"

__all__ = [
    "project",
    "LAMBDA_FLOOR", "ProlateBasis", "build_basis", "eval_psi",
    "extension_matrix", "plunge_index",
    "EigensolverError", "IdentifiabilityError",
    "PovmValidityError", "ProlateError", "QuadratureError",
    "RankDeficiencyError", "SingularFisherError",
    "hermite_function", "hg_eval",
    "FisherMatrix", "Povm", "ProbeState", "crb", "fisher_matrix",
    "probabilities_ideal", "probabilities_limited",
    "probabilities_truncated", "time_limit_povm",
    "SlepianParams",
    "DerivativeBasis", "GaussianPsf", "MeasurementDesign", "TwoPulseModel",
    "default_psf_sigma", "design_from_sphere", "efficiency_bounds",
    "efficiency_factor", "gamma_modes", "gram_schmidt", "optimal_povm",
    "probe_from_model", "superres_fisher", "time_limited_design",
]
