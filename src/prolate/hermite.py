"""Hermite functions and Hermite-Gauss comparison modes."""

from __future__ import annotations

import math
import numbers

import numpy as np


def hermite_function(n: int, x):
    """Orthonormal Hermite function H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)).

    The normalization is folded into the recurrence step by step, so values
    stay bounded and no factorial is ever formed, even for large n.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"mode index {n!r} is not an integer >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return h_prev
    h = math.sqrt(2.0) * x * h_prev
    for k in range(1, n):
        h, h_prev = math.sqrt(2.0 / (k + 1.0)) * x * h - math.sqrt(k / (k + 1.0)) * h_prev, h
    return h


def hg_eval(n: int, c: float, t):
    """Unit-norm Hermite-Gauss mode n of Slepian frequency c (intensity variance 1/(2c)) at t."""
    if not (c > 0.0):
        raise ValueError(f"c must be positive, got {c!r}")
    x = math.sqrt(c) * np.asarray(t, dtype=float)
    return c ** 0.25 * hermite_function(n, x)
