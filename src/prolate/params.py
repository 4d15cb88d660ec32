"""Dimensionless control parameters of the band/time-limited setting."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SlepianParams:
    """Time-bandwidth configuration: window [-T, T] and bandwidth omega = c / T.

    Only ``c`` and ``T`` are stored; the bandwidth is always derived, so the
    triple can never drift out of consistency.  All dimensionless outputs
    (eigenvalues, probabilities, efficiency factors) depend on ``c`` alone.
    """

    c: float
    T: float = 1.0

    def __post_init__(self):
        for name, value in (("c", self.c), ("T", self.T)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def omega(self) -> float:
        return self.c / self.T

