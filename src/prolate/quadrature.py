"""Gauss-Legendre rules and panel-based integration over the real line."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

#: the rule stops growing once the outermost panel pair holds below
#: _REL_TOL^2 of the energy, and never while it has found none
_REL_TOL = 1e-11
#: the real-line rule stops growing at this many core radii
RADIUS_CAP = 20.0


@functools.lru_cache(maxsize=128)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only, since every caller shares the same arrays
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(order: int, a: float = -1.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b].

    The reference rule on [-1, 1] is computed once per order and kept for
    the 128 orders used most recently.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = _reference_rule(operator.index(order))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_order_for(max_freq: float, width: float) -> int:
    # ~pi nodes per oscillation cycle of exp(i*max_freq*t), plus headroom
    return max(32, math.ceil(0.75 * max_freq * width) + 24)


@dataclass(frozen=True, eq=False)
class RealLineRule:
    """Composite rule for integrals of a concrete function over the real line.

    ``panels`` lists the (lo, hi) edges of the Gauss-Legendre panels from left
    to right; panel ``i`` holds nodes ``i * panel_order`` up to
    ``(i + 1) * panel_order``.  A panel's nodes depend only on its edges and
    ``panel_order``, never on the integrand.
    """

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    radius: float
    total_energy: float
    tail_energy: float
    converged: bool
    panel_order: int
    panels: tuple


def real_line_rule(f, core_radius: float, *, max_freq: float) -> RealLineRule:
    """Grow a symmetric panel rule until the energy tail of ``f`` is negligible.

    Panels of width ``core_radius`` are appended on both sides of
    [-core_radius, core_radius] until the energy (sum of w*f^2) contributed by
    the outermost pair falls below ``_REL_TOL``^2 times the accumulated energy;
    while that energy is 0, as for a pulse far off centre, the rule grows on.
    ``max_freq`` is the highest angular frequency the panels must resolve.
    The radius is capped at ``RADIUS_CAP`` core radii; hitting the cap is
    reported through ``converged`` and left to the caller to enforce.  A
    complex or non-finite sample, or samples not shaped as the times, raise
    ValueError naming the cause.
    """
    if not (core_radius > 0.0):
        raise ValueError("core_radius must be positive")
    R = float(core_radius)
    cap = RADIUS_CAP * R
    order = panel_order_for(max_freq, R)
    x, w = _reference_rule(order)
    x1 = x + 1.0

    def pair(left, right):
        # both panels of one growth step, sampled in one call to f; nodes and
        # weights come out exactly as gauss_legendre(order, lo, hi) makes them
        (a, b), (c, d) = left, right
        hl, hr = 0.5 * (b - a), 0.5 * (d - c)
        xl, xr = a + hl * x1, c + hr * x1
        v = np.asarray(f(t := np.concatenate((xl, xr))))
        if v.shape != t.shape:
            raise ValueError(f"function returned shape {v.shape} for times of shape {t.shape}")
        if np.iscomplexobj(v) or not np.all(np.isfinite(v)):
            kind = "complex" if np.iscomplexobj(v) else "non-finite"
            raise ValueError(f"function returned {kind} samples; only finite real "
                             f"functions of time are taken")
        v = v.astype(float, copy=False)
        return (left, xl, hl * w, v[:order]), (right, xr, hr * w, v[order:])

    def energy(panel):
        _, _, wp, v = panel
        return float(np.dot(wp, v * v))

    # outermost panels last on each side
    left, right = ([p] for p in pair((-R, 0.0), (0.0, R)))
    total = energy(left[0]) + energy(right[0])

    radius = R
    marginal = math.inf
    converged = False
    while True:
        if marginal < _REL_TOL * _REL_TOL * total:
            converged = True
            break
        if radius + R > cap * (1.0 + 1e-12):
            break
        lo, hi = pair((-radius - R, -radius), (radius, radius + R))
        left.append(lo)
        right.append(hi)
        marginal = energy(hi) + energy(lo)
        total += marginal
        radius += R

    # panels are disjoint and each one's nodes ascend, so this is sorted order
    edges, nodes, weights, values = zip(*(left[::-1] + right))
    return RealLineRule(nodes=np.concatenate(nodes), weights=np.concatenate(weights),
                        values=np.concatenate(values), radius=radius,
                        total_energy=total, tail_energy=0.0 if converged else marginal,
                        converged=converged, panel_order=order, panels=edges)
