"""Hermite functions and Hermite-Gauss comparison modes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def hermite_function(n: int, x):
    """Orthonormal Hermite function H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)).

    The normalization is folded into the recurrence step by step, so values
    stay bounded and no factorial is ever formed, even for large n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return h_prev
    h = math.sqrt(2.0) * x * h_prev
    for k in range(1, n):
        h, h_prev = math.sqrt(2.0 / (k + 1.0)) * x * h - math.sqrt(k / (k + 1.0)) * h_prev, h
    return h


@dataclass(frozen=True)
class HermiteGaussMode:
    """Hermite-Gauss mode of index n at Slepian frequency c (intensity variance 1/(2c))."""

    n: int
    c: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("mode index must be >= 0")
        if not (self.c > 0.0):
            raise ValueError("c must be positive")


def hg_eval(mode: HermiteGaussMode, t):
    """Evaluate the unit-norm Hermite-Gauss mode at time t (scalar or array)."""
    x = math.sqrt(mode.c) * np.asarray(t, dtype=float)
    return mode.c ** 0.25 * hermite_function(mode.n, x)
