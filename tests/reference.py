"""Naive loop-based oracles, independent of the vectorized implementations.

Everything here substitutes directly into the defining formulas, one
record at a time, so a disagreement with the package points at the
package's bookkeeping rather than at the formulas.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from profix.errors import InvalidInput, NumericOverflow
from profix.measures import (
    EmpiricalMeasure,
    LinearMap,
    PerturbationDirection,
    mix_path,
)
from profix.prop_odds import LINPRED_BOUND


def step_value(times, sizes, u):
    return sum(s for t, s in zip(times, sizes) if t <= u)


def psi_prop_odds_naive(u, delta, z, w, beta, jump_times, jump_sizes):
    """Direct substitution into the survival self-consistency operator."""
    u = np.asarray(u, float)
    delta = np.asarray(delta, float)
    z = np.atleast_2d(np.asarray(z, float))
    if z.shape[0] != len(u):
        z = z.T
    beta = np.atleast_1d(np.asarray(beta, float))
    event_times = sorted(set(u[delta == 1]))
    jumps = []
    for s in event_times:
        edn = sum(wi for ui, di, wi in zip(u, delta, w) if di == 1 and ui == s)
        ew = 0.0
        for ui, di, zi, wi in zip(u, delta, z, w):
            if ui >= s:
                q = math.exp(float(zi @ beta))
                a_u = step_value(jump_times, jump_sizes, ui)
                ew += wi * (1 + di) * q / (1 + q * a_u)
        jumps.append(edn / ew)
    return np.array(event_times), np.array(jumps)


def loglik_prop_odds_naive(u, delta, z, w, beta, jump_times, jump_sizes):
    u = np.asarray(u, float)
    delta = np.asarray(delta, float)
    z = np.atleast_2d(np.asarray(z, float))
    if z.shape[0] != len(u):
        z = z.T
    beta = np.atleast_1d(np.asarray(beta, float))
    total = 0.0
    for ui, di, zi, wi in zip(u, delta, z, w):
        q = math.exp(float(zi @ beta))
        a_u = step_value(jump_times, jump_sizes, ui)
        term = -(1 + di) * math.log(1 + q * a_u)
        if di == 1:
            jump = dict(zip(jump_times, jump_sizes)).get(ui, 0.0)
            term += float(zi @ beta) + math.log(jump)
        total += wi * term
    return total


def psi_missing_cov_naive(r, y, x, w, support, family, theta, g_masses):
    """Direct substitution into the missing-covariate operator."""
    theta = np.asarray(theta, float)
    support = np.asarray(support, float)
    g = np.asarray(g_masses, float)
    out = []
    incomplete = [(yi, wi) for ri, yi, wi in zip(r, y, w) if ri == 2]
    for j, xj in enumerate(support):
        p1 = sum(
            wi for ri, xi, wi in zip(r, x, w) if ri == 1 and xi == xj
        )
        a = 1.0
        for yi, wi in incomplete:
            fy = sum(
                float(family.density(yi, xk, theta)) * gk
                for xk, gk in zip(support, g)
            )
            a -= wi * float(family.density(yi, xj, theta)) / fy
        out.append(p1 / a)
    return np.array(out)


def normal_fisher_information(theta, x_moment1, x_moment2):
    """Closed-form information of the normal regression family.

    Parametrization (intercept, slope, log sigma); the location block is
    the design second-moment matrix over sigma^2 and the scale component
    is the constant 2.
    """
    sigma2 = math.exp(2.0 * theta[2])
    return np.array([
        [1.0 / sigma2, x_moment1 / sigma2, 0.0],
        [x_moment1 / sigma2, x_moment2 / sigma2, 0.0],
        [0.0, 0.0, 2.0],
    ])


def neumann_apply(d_eta, rhs, terms=200):
    """Geometric-series evaluation of the resolvent, for cross-checks.

    Valid when the operator norm of d_eta is below one; agrees with the
    dense solve up to the truncated tail.
    """
    M = d_eta.matrix if isinstance(d_eta, LinearMap) else np.asarray(d_eta, float)
    rhs = np.asarray(rhs, dtype=float)
    out = rhs.copy()
    term = rhs.copy()
    for _ in range(terms):
        term = M @ term
        out += term
    return out


def step_eval(A, u):
    """Evaluate a step function at u, guarding the domain [0, tau]."""
    return A(u)


def trapezoid_grid(lo, hi, n):
    """Trapezoid nodes and weights on [lo, hi] with n points."""
    if n < 2:
        raise InvalidInput("trapezoid rule needs at least two points")
    nodes = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2
    return nodes, weights


@dataclass(frozen=True)
class SurvivalRecord:
    """One right-censored observation: time u, event flag, covariate row."""

    u: float
    delta: int
    z: tuple


def weight_w(record, s, beta, A):
    """At-risk weight of one record at time s.

    (1 + delta) e^{beta'z} 1{u >= s} / (1 + e^{beta'z} A(u)); positive
    exactly when the record is still at risk at s.
    """
    if not 0.0 <= s <= A.tau:
        raise InvalidInput("time s outside [0, tau]")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    z = np.asarray(record.z, dtype=float)
    lin = float(z @ beta)
    if abs(lin) > LINPRED_BOUND:
        raise NumericOverflow(f"|beta'z| = {abs(lin):.3g} exceeds {LINPRED_BOUND}")
    if record.u < s:
        return 0.0
    q = np.exp(lin)
    return (1.0 + record.delta) * q / (1.0 + q * A(record.u))


def measure_to_json(measure):
    return json.dumps(
        {"points": measure.points.tolist(), "weights": measure.weights.tolist()}
    )


def measure_from_json(text):
    payload = json.loads(text)
    return EmpiricalMeasure(payload["points"], payload["weights"])


def direction_between(F, G):
    """Measure direction G - F on the union of the two supports."""
    union = mix_path(F, G, 0.5)
    rows = union.points if union.points.ndim == 2 else union.points[:, None]
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    signed = np.zeros(len(union))
    for measure, sign in ((F, -1.0), (G, 1.0)):
        pts = (measure.points if measure.points.ndim == 2
               else measure.points[:, None])
        for row, weight in zip(pts, measure.weights):
            try:
                signed[index[row.tobytes()]] += sign * weight
            except KeyError:
                raise InvalidInput("atom lookup failed; support mismatch")
    return PerturbationDirection("measure", union.points, signed)

