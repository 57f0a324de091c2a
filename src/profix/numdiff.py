"""Brute-force difference quotients used as oracles for analytic derivatives.

Everything analytic in this package is cross-checked against these
routines, so they deliberately know nothing about the operators they
probe: they only evaluate a black-box function at shifted arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleEvalFailure


def _probe(f, x):
    try:
        return np.asarray(f(x), dtype=float)
    except Exception as exc:  # noqa: BLE001 - any model failure ends the probe
        raise OracleEvalFailure(f"probe evaluation failed at {x!r}: {exc}") from exc


def fd_theta(f, theta, step=1e-5):
    """Central differences of f in each component of theta.

    Returns an array of shape (d,) + shape(f(theta)).
    """
    theta = np.asarray(theta, dtype=float)
    rows = []
    for k in range(len(theta)):
        e = np.zeros_like(theta)
        e[k] = step
        rows.append((_probe(f, theta + e) - _probe(f, theta - e)) / (2.0 * step))
    return np.stack(rows, axis=0)


def fd_path(f, step=1e-5):
    """One-sided derivative of f(t) at t = 0 along a path.

    Paths are only defined for t >= 0, so the quotient is forward,
    (f(step) - f(0)) / step, Richardson-combined with the half-step
    quotient as 2 D_{h/2} - D_h.
    """
    f0 = _probe(f, 0.0)
    d_h = (_probe(f, step) - f0) / step
    d_half = (_probe(f, step / 2.0) - f0) / (step / 2.0)
    return 2.0 * d_half - d_h


def fd_bilinear(f, h1, h2, step=1e-4):
    """Mixed second directional difference of a vector-valued map.

    Approximates the bilinear second derivative applied to (h1, h2) by the
    four-point cross quotient
    D(h) = [f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)] / (4 h^2),
    where f(s, t) evaluates the map at base + s*h1 + t*h2.  D(h) is even in
    h with an O(h^2) error, so the result is Richardson-combined with the
    half-step quotient as (4 D(step/2) - D(step)) / 3.
    """
    def cross(h):
        signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
        pp, pm, mp, mm = (_probe(lambda st: f(*st), (a * h, b * h)) for a, b in signs)
        return (pp - pm - mp + mm) / (4.0 * h * h)

    return (4.0 * cross(step / 2.0) - cross(step)) / 3.0
