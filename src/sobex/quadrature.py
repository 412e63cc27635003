"""Gauss-Legendre quadrature helpers used by the norm and bound computations."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _reference_rule(n):
    """The n-point rule on [-1, 1], computed once per ``n`` and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n, a, b):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    if n < 1:
        raise ValueError("need at least one quadrature node")
    x, w = _reference_rule(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def composite_gauss(n_per_segment, breakpoints):
    """Composite Gauss-Legendre rule over consecutive segments.

    ``breakpoints`` is an increasing sequence; each segment between
    neighbours receives an ``n_per_segment``-point rule.  Degenerate
    (zero-length) segments are skipped so callers may pass coincident
    breakpoints without special-casing.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    nodes, weights = [], []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi - lo <= 0.0:
            continue
        x, w = gauss_legendre(n_per_segment, lo, hi)
        nodes.append(x)
        weights.append(w)
    if not nodes:
        raise ValueError("no non-degenerate segments in breakpoints")
    return np.concatenate(nodes), np.concatenate(weights)


def periodic_nodes(n, period=2.0 * np.pi):
    """Uniform nodes and weights on one period (trapezoid = spectral here)."""
    theta = np.arange(n) * (period / n)
    w = np.full(n, period / n)
    return theta, w
