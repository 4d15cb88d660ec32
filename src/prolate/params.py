"""Dimensionless control parameters of the band/time-limited setting."""

from __future__ import annotations

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
        if not (self.c > 0.0):
            raise ValueError(f"c must be positive, got {self.c}")
        if not (self.T > 0.0):
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def omega(self) -> float:
        return self.c / self.T

