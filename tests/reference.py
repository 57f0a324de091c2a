"""Naive loop-based oracles, independent of the vectorized implementations.

Everything here substitutes directly into the defining formulas, one
record at a time, so a disagreement with the package points at the
package's bookkeeping rather than at the formulas.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from profix.errors import (
    InvalidInput,
    NoConvergence,
    NumericOverflow,
    ProfixError,
    RiskSetEmpty,
    SupportViolation,
)
from profix.measures import (
    EmpiricalMeasure,
    LinearMap,
    MaxIndexMap,
    StepFunction,
    gauss_legendre_grid,
)
from profix import prop_odds
from profix.missing_cov import MissingCovProfile, NormalRegression
from profix.prop_odds import LINPRED_BOUND, PropOddsModel, PropOddsProfile


class DegenerateJump(ProfixError):
    """An event time carries a zero jump where the likelihood needs one."""


def expectation(measure, values):
    """Weighted sum of per-atom values (integral against the measure)."""
    values = np.asarray(values, dtype=float)
    return values.T @ measure.weights


def mix_path(F, G, t):
    """Point on the straight-line path (1 - t) F + t G.

    The endpoints are returned exactly; interior points live on the union
    of the two supports.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInput(f"path parameter t={t} outside [0, 1]")
    if t == 0.0:
        return EmpiricalMeasure(F.points, F.weights)
    if t == 1.0:
        return EmpiricalMeasure(G.points, G.weights)
    if F.points.ndim != G.points.ndim:
        raise InvalidInput("measures live on different sample spaces")
    points = np.concatenate([F.points, G.points])
    weights = np.concatenate([(1.0 - t) * F.weights, t * G.weights])
    return EmpiricalMeasure(points, weights)


def same_atoms(F, G):
    """Whether two measures have the same atoms, bit for bit."""
    return np.array_equal(F.points, G.points) and np.array_equal(F.weights, G.weights)


def psi_jumps(model, beta, jumps, F=None):
    """The survival self-consistency operator in jump coordinates."""
    return prop_odds.Operator(model, beta, F)(jumps)


def operator_apply_formula(op, jumps):
    """One application of a bound survival operator, a whole-array step at a
    time, with the grid positions found by binary search: A at the records
    from the zero-padded cumulative jumps, the at-risk sums as a reversed
    cumulative sum read at each event time's first record, and the event
    mass over them where there is any.  Operator.__call__ gives the same
    bits."""
    model = op.model
    jumps = np.asarray(jumps, dtype=float)
    if (jumps.shape != op.edn.shape or not np.all(np.isfinite(jumps))
            or np.any(jumps < 0)):
        raise InvalidInput("need one finite nonnegative jump per event time")
    padded = np.concatenate([[0.0], np.cumsum(jumps)])
    AU = padded[np.searchsorted(model.event_times, model.u, "right")]
    suffix = np.cumsum((op.w * (op.qc / (1.0 + op.q * AU)))[::-1])[::-1]
    ew = suffix[np.searchsorted(model.u, model.event_times, "left")]
    if np.any((op.edn > 0) & (ew <= 0)):
        raise RiskSetEmpty("zero at-risk weight at an event time")
    return op.edn * np.where(op.edn > 0, 1.0 / np.where(ew > 0, ew, 1.0), 0.0)


def canonical_atoms(points, weights):
    """EmpiricalMeasure's atoms from one lexsort over every column (a
    stable argsort of 1-d points) and a row-wise merge of equal neighbours;
    EmpiricalMeasure gives the same bits."""
    points = np.asarray(points, dtype=float) + 0.0
    weights = np.asarray(weights, dtype=float)
    if points.ndim == 1:
        order = np.argsort(points, kind="stable")
    else:
        order = np.lexsort(points[:, ::-1].T)
    points, weights = points[order], weights[order]
    if len(points) == 0:
        return points, weights
    differs = points[1:] != points[:-1]
    if points.ndim == 2:
        differs = np.any(differs, axis=1)
    new_group = np.concatenate(([True], differs))
    return points[new_group], np.add.reduceat(weights, np.flatnonzero(new_group))


def design_baseline(design, t):
    """True baseline odds function of a survival design evaluated at t."""
    t = np.asarray(t, dtype=float)
    if design.is_step:
        times = np.asarray(design.baseline_times, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(design.baseline_jumps)])
        return cum[np.searchsorted(times, t, side="right")]
    return design.baseline_rate * t


def jumps_to_step(model, jumps):
    """The step function with the given jumps at a survival model's event
    times, on [0, tau]."""
    return StepFunction(model.event_times, jumps, model.tau)


def baseline_step(design):
    """The true baseline of a step design as a step function on [0, tau]."""
    if not design.is_step:
        raise InvalidInput("the linear design has no exact step representation")
    return StepFunction(design.baseline_times, design.baseline_jumps, design.tau)


def population_records(design):
    """Exact population atom table for a step-baseline design with C = tau.

    Returns a model whose weights are the exact joint probabilities, so
    every empirical operation doubles as its population version.
    """
    design.validate()
    if not design.is_step:
        raise InvalidInput("exact enumeration needs a step baseline")
    if design.censor_atom < 1.0:
        raise InvalidInput("exact enumeration needs censoring at tau only")
    beta0 = np.atleast_1d(np.asarray(design.beta0, dtype=float))
    times = np.asarray(design.baseline_times, dtype=float)
    cum = np.cumsum(design.baseline_jumps)
    rows, weights = [], []
    for z_val, pz in zip(design.covariate_values, design.covariate_probs):
        q = float(np.exp(np.atleast_1d(z_val) @ beta0))
        surv = 1.0 / (1.0 + q * cum)
        prev = np.concatenate([[1.0], surv[:-1]])
        mass = prev - surv
        for t, m in zip(times, mass):
            rows.append([t, 1.0, z_val])
            weights.append(pz * m)
        rows.append([design.tau, 0.0, z_val])
        weights.append(pz * surv[-1])
    measure = EmpiricalMeasure(np.asarray(rows), np.asarray(weights))
    return PropOddsModel(measure, tau=design.tau)


def at_risk_quadrature(design, t, q, nodes=200):
    """Mean at-risk weight (1 + delta) q / (1 + q A(u)) over records with
    u >= t under a linear design, by Gauss-Legendre quadrature on [t, tau]
    of the event and censoring densities, plus the censoring atom at tau."""
    rate, tau, p_atom = design.baseline_rate, design.tau, design.censor_atom

    def surv(u):
        return 1.0 / (1.0 + q * rate * u)

    def integrand(u):
        event = q * rate * surv(u) ** 2 * (1.0 - (1.0 - p_atom) * u / tau)
        censor = (1.0 - p_atom) / tau * surv(u)
        return event * 2.0 * q * surv(u) + censor * q * surv(u)

    atom = p_atom * q * surv(tau) ** 2
    if t >= tau:
        return atom
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (tau - t)
    return half * float(w @ integrand(t + half * (x + 1.0))) + atom


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


def da_psi_prop_odds_naive(u, delta, z, w, beta, jump_times, jump_sizes):
    """Nuisance derivative of the survival operator in jump coordinates.

    Entry (i, j) is the derivative of output jump i in input jump j: the
    event mass at s_i over the squared at-risk sum, times the sum of
    w (1 + delta) q^2 / (1 + q A(u))^2 over records at risk at both s_i
    and s_j.  Event times without event mass have a zero row.
    """
    z = np.atleast_2d(np.asarray(z, float))
    if z.shape[0] != len(u):
        z = z.T
    beta = np.atleast_1d(np.asarray(beta, float))
    event_times = sorted(set(ui for ui, di in zip(u, delta) if di == 1))
    m = len(event_times)
    out = np.zeros((m, m))
    for i, si in enumerate(event_times):
        edn = sum(wi for ui, di, wi in zip(u, delta, w) if di == 1 and ui == si)
        if edn == 0:
            continue
        ew = 0.0
        for ui, di, zi, wi in zip(u, delta, z, w):
            if ui >= si:
                q = math.exp(float(zi @ beta))
                ew += wi * (1 + di) * q / (1 + q * step_value(jump_times, jump_sizes, ui))
        for j, sj in enumerate(event_times):
            total = 0.0
            for ui, di, zi, wi in zip(u, delta, z, w):
                if ui >= max(si, sj):
                    q = math.exp(float(zi @ beta))
                    a_u = step_value(jump_times, jump_sizes, ui)
                    total += wi * (1 + di) * q**2 / (1 + q * a_u) ** 2
            out[i, j] = edn / ew**2 * total
    return out


def dense(linear_map):
    """The dense matrix of a :class:`LinearMap` or a :class:`MaxIndexMap`,
    the latter from its index formula, for cross-checks."""
    if isinstance(linear_map, MaxIndexMap):
        idx = np.arange(linear_map.dim)
        return linear_map.a[:, None] * linear_map.s[np.maximum(idx[:, None], idx[None, :])]
    return linear_map.matrix


def max_index_dense(a, s):
    """Dense diag(a) K(s), with K(s)[i, j] = s[max(i, j)]."""
    m = len(a)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = a[i] * s[max(i, j)]
    return out


def max_index_spectral_radius(a, s):
    """Spectral radius of diag(a) K(s), from its symmetric similar form
    diag(a)^1/2 K(s) diag(a)^1/2 (real, nonnegative spectrum for s
    nonincreasing)."""
    root = np.sqrt(a)
    K = max_index_dense(np.ones(len(s)), s)
    return np.linalg.eigvalsh(root[:, None] * K * root[None, :]).max(initial=0.0)


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


def loglik(model, beta, A, F=None):
    """Average survival log likelihood of the sample at (beta, A), vectorized.

    Events contribute beta'z plus the log of the jump of A at their time;
    every record contributes -(1 + delta) log(1 + e^{beta'z} A(u)).
    """
    w = model.resolve_weights(F)
    lin = model.z @ np.atleast_1d(np.asarray(beta, dtype=float))
    AU = np.asarray(A(model.u), dtype=float)
    event_rows = model._event_rows
    jump_of = dict(zip(A.jump_times, A.jump_sizes))
    jumps = np.array([jump_of.get(t, 0.0) for t in model.u[event_rows]])
    active = w[event_rows] > 0
    if np.any(active & (jumps <= 0)):
        raise DegenerateJump("an observed event time has no jump in A")
    log_jump = np.zeros(model.n_records)
    safe = np.where(jumps > 0, jumps, 1.0)
    log_jump[event_rows] = np.where(active, np.log(safe), 0.0)
    terms = model.delta * (lin + log_jump) - (1.0 + model.delta) * np.log1p(np.exp(lin) * AU)
    return float(w @ terms)


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


def second_order_loops(ws):
    """Parameter derivatives of the mixture operator at a workspace, one
    parameter or pair at a time: (dot, ddot, mixed matrices)."""
    d, m = ws.model.theta_dim, ws.model.n_support
    fmat, fy, nu, g_m, fdot, fddot = ws.fmat, ws.fy, ws.nu, ws.g, ws.fdot, ws.fddot
    fydot = fdot @ g_m
    adot = np.empty((d, m))
    for a_i in range(d):
        adot[a_i] = -(
            (nu / fy) @ fdot[a_i] - fmat.T @ (nu * fydot[a_i] / fy**2)
        )
    addot = np.empty((d, d, m))
    for a_i in range(d):
        for b_i in range(a_i, d):
            fyddot = fddot[a_i, b_i] @ g_m
            term = (
                (nu / fy) @ fddot[a_i, b_i]
                - fmat.T @ (nu * fyddot / fy**2)
                + 2.0 * (fmat.T @ (nu * fydot[a_i] * fydot[b_i] / fy**3))
                - fdot[a_i].T @ (nu * fydot[b_i] / fy**2)
                - fdot[b_i].T @ (nu * fydot[a_i] / fy**2)
            )
            addot[a_i, b_i] = -term
            addot[b_i, a_i] = -term
    ddot = -ws.p1 * (ws.a * addot - 2.0 * adot[:, None, :] * adot[None, :, :]) / ws.a**3

    dga = fmat.T @ (fmat * (nu / fy**2)[:, None])
    mixed = []
    for a_i in range(d):
        dga_dot = (
            fdot[a_i].T @ (fmat * (nu / fy**2)[:, None])
            + fmat.T @ (fdot[a_i] * (nu / fy**2)[:, None])
            - 2.0 * (fmat.T @ (fmat * (nu * fydot[a_i] / fy**3)[:, None]))
        )
        mixed.append(-ws.p1[:, None] * (
            dga_dot / (ws.a**2)[:, None]
            - 2.0 * (adot[a_i] / ws.a**3)[:, None] * dga
        ))
    return -ws.p1 * adot / ws.a**2, ddot, mixed


def d2g_pairs_loop(ws, H):
    """Second nuisance derivative of the mixture operator at a workspace,
    one pair of rows of H at a time, shape (d, d, m)."""
    def apply(h1, h2):
        u1 = ws.fmat @ h1
        u2 = ws.fmat @ h2
        d2a = -2.0 * (ws.fmat.T @ (ws.nu * u1 * u2 / ws.fy**3))
        da1 = ws.fmat.T @ (ws.nu * u1 / ws.fy**2)
        da2 = ws.fmat.T @ (ws.nu * u2 / ws.fy**2)
        return ws.p1 * (-d2a / ws.a**2 + 2.0 * da1 * da2 / ws.a**3)

    return np.array([[apply(h1, h2) for h2 in H] for h1 in H])


def d2a_pairs_loop(ws, H):
    """Second nuisance derivative of the survival operator at a workspace,
    one pair of rows of H at a time, shape (d, d, m), with the step
    directions and the at-risk sums formed as dense indicator products."""
    model = ws.model
    steps = (model.event_times[None, :] <= model.u[:, None]).astype(float)  # (n, m)
    at_risk = steps.T  # (m, n): record i at risk at event time j
    k2 = 2.0 * (1.0 + model.delta) * ws.q**3 / ws.denom**3

    def apply(h1, h2):
        H1, H2 = steps @ h1, steps @ h2
        second = at_risk @ (ws.w * k2 * H1 * H2)
        first1 = -(at_risk @ (ws.w * ws.k * H1))
        first2 = -(at_risk @ (ws.w * ws.k * H2))
        return (-ws.edn * second * ws.inv_ew**2
                + 2.0 * ws.edn * first1 * first2 * ws.inv_ew**3)

    return np.array([[apply(h1, h2) for h2 in H] for h1 in H])


def mixed_terms_loop(ws, H, magnitudes=False):
    """The two terms of the survival operator's mixed coefficient/nuisance
    derivative at a workspace, one coefficient and one row of H at a time,
    each of shape (d, k, m), with the step directions and the at-risk sums
    formed as dense indicator products: the derivative of k, then that of
    1/EW^2.  With magnitudes, every factor and summand enters by its
    absolute value, which bounds the rounding of the sums."""
    mag = np.abs if magnitudes else (lambda v: v)
    model = ws.model
    steps = (model.event_times[None, :] <= model.u[:, None]).astype(float)  # (n, m)
    at_risk = steps.T
    kd = 2.0 * (1.0 + model.delta) * ws.q**2 / ws.denom**3
    first = np.array([[mag(ws.edn * ws.inv_ew**2)
                       * (at_risk @ mag(ws.w * kd * za * (steps @ mag(h))))
                       for h in H] for za in model.z.T])
    second = np.array([[mag(-2.0 * ws.edn * ew_dot * ws.inv_ew**3)
                        * (at_risk @ mag(ws.w * ws.k * (steps @ mag(h))))
                        for h in H] for ew_dot in ws.ew_dot])
    return first, second


def score_jacobian_per_record(model, ws, eta_dot, eta_ddot):
    """Per-record parameter Jacobian of the profiled score, shape (n, d, d),
    from the bundle ws and the implicit derivatives of its fixed point: the
    score differentiated once more, through the second implicit derivative."""
    if isinstance(model, PropOddsModel):
        return _survival_score_jacobian_per_record(model, ws, eta_dot, eta_ddot)
    g = ws.g
    d = model.theta_dim
    out = np.zeros((model.n_records, d, d))

    fc = ws.op.complete(model.family.density)
    g_at = g[model.slot]
    gdot_at = eta_dot[:, model.slot]
    gddot_at = eta_ddot[:, :, model.slot]
    score_c = ws.op.complete(model.family.dtheta) / fc
    out[model.complete_rows] = (
        ws.op.complete(model.family.d2theta) / fc
        - np.einsum("ai,bi->abi", score_c, score_c)
        + gddot_at / g_at
        - np.einsum("ai,bi->abi", gdot_at / g_at, gdot_at / g_at)
    ).transpose(2, 0, 1)

    if len(model.incomplete_rows):
        fy = ws.fy
        fydot = ws.fdot @ g  # (d, n2)
        fyddot = np.einsum("ablj,j->abl", ws.fddot, g)
        mix_dot = eta_dot @ ws.fmat.T  # (d, n2): d_g f_Y(gdot)
        cross = np.einsum("alj,bj->abl", ws.fdot, eta_dot)  # d_g fdot_Y(gdot)
        mix_ddot = np.einsum("abj,lj->abl", eta_ddot, ws.fmat)
        num_dot = fydot + mix_dot
        out[model.incomplete_rows] = (
            (fyddot + cross + cross.transpose(1, 0, 2) + mix_ddot) / fy
            - np.einsum("al,bl->abl", num_dot, num_dot) / fy**2
        ).transpose(2, 0, 1)
    return out


def _survival_score_jacobian_per_record(model, ws, jump_dot, jump_ddot):
    """The survival score delta (z + J'/J) - c (z A(U) + A'(U)), c = (1 +
    delta) q / (1 + q A(U)), differentiated once more; J is the fixed point's
    image edn / EW, equal to its jumps to the solver's tolerance."""
    jumps = ws.edn * ws.inv_ew
    out = np.zeros((model.n_records, model.theta_dim, model.theta_dim))
    # an event time without event mass has zero J, J' and J''
    for i, k in zip(model._event_rows, model._event_row_slot):
        if jumps[k] > 0:
            ratio = jump_dot[:, k] / jumps[k]
            out[i] = jump_ddot[:, :, k] / jumps[k] - np.outer(ratio, ratio)
    zT = model.z.T
    adot = model.cumulative_at_records(jump_dot)
    addot = model.cumulative_at_records(jump_ddot)
    num = zT * ws.AU + adot  # (d, n)
    hazard = (np.einsum("ai,bi->iab", num, zT) + np.einsum("ai,bi->iab", zT, adot)
              + addot.transpose(2, 0, 1)
              - np.einsum("ai,bi,i->iab", num, num, ws.q / ws.denom))
    return out - ws.c[:, None, None] * hazard


@dataclass(frozen=True)
class MissingCovRecord:
    """One observation: r = 1 when x is observed, 2 when it is missing."""

    r: int
    y: float
    x: float | None = None

    def __post_init__(self):
        if self.r not in (1, 2):
            raise InvalidInput("r must be 1 (complete) or 2 (incomplete)")
        if (self.r == 1) != (self.x is not None):
            raise InvalidInput("x must be present exactly when r = 1")


def log_density(record, theta, g, family=None):
    """Log density of one record under (theta, g), g a pair (support,
    masses) of the covariate law.

    Complete records contribute log f(y|x) + log g(x); incomplete ones the
    log of the mixture density of y.
    """
    family = family or NormalRegression()
    theta = np.asarray(theta, dtype=float)
    support, masses = (np.asarray(v, dtype=float) for v in g)
    if record.r == 1:
        mass = dict(zip(support, masses)).get(record.x, 0.0)
        if mass <= 0.0:
            raise SupportViolation(
                f"complete-case x={record.x} carries no mass"
            )
        f = float(family.density(record.y, record.x, theta))
        return float(np.log(f) + np.log(mass))
    fy = float(family.density(record.y, support, theta) @ masses)
    if fy <= 0.0:
        raise SupportViolation("mixture density vanished at the record outcome")
    return float(np.log(fy))


def normalization_error(family, xs, theta, n_nodes=200, span=10.0):
    """Max over xs of |integral of the family's density in y minus one|."""
    worst = 0.0
    for x in np.atleast_1d(xs):
        lo, hi = family.outcome_interval(x, theta, span)
        nodes, weights = gauss_legendre_grid(lo, hi, n_nodes)
        worst = max(worst, abs(float(weights @ family.density(nodes, x, theta)) - 1.0))
    return worst


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
    M = dense(d_eta)
    rhs = np.asarray(rhs, dtype=float)
    out = rhs.copy()
    term = rhs.copy()
    for _ in range(terms):
        term = M @ term
        out += term
    return out


def da_psi_value_map(model, beta, jumps, F=None):
    """Dense nuisance derivative acting on function values at the event times.

    Similarity-transforms the jump-coordinate matrix with the cumulative
    operator; its max absolute row sum is the norm that
    ``MaxIndexMap.sup_norm`` computes without the matrix.
    """
    M = dense(prop_odds.psi_derivatives(prop_odds.Operator(model, beta, F), jumps).d_eta)
    m = M.shape[0]
    C = np.tri(m)
    Cinv = np.eye(m) - np.eye(m, k=-1)
    return LinearMap(C @ M @ Cinv)


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
    """Measure direction G - F on the union of the two supports, as the
    signed weights of the union's atoms."""
    union = mix_path(F, G, 0.5)
    rows = union.points if union.points.ndim == 2 else union.points[:, None]
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    signed = np.zeros(len(union.weights))
    for measure, sign in ((F, -1.0), (G, 1.0)):
        pts = (measure.points if measure.points.ndim == 2
               else measure.points[:, None])
        for row, weight in zip(pts, measure.weights):
            try:
                signed[index[row.tobytes()]] += sign * weight
            except KeyError:
                raise InvalidInput("atom lookup failed; support mismatch")
    return signed


class PlainWarmStart:
    """Profile mixin: start each nuisance solve from the last point's eta,
    ignoring the derivatives of the nuisance in the parameter."""

    def start(self, theta):
        point = self.last_point
        return None if point is None else point.solution.eta


class PlainPropOddsProfile(PlainWarmStart, PropOddsProfile):
    pass


class PlainMissingCovProfile(PlainWarmStart, MissingCovProfile):
    pass


def sample_missing_cov(design, n, rng):
    """(r, y, x) drawn as ``simulation.gen_missing_cov`` draws them, draw
    for draw, under any w2, also a w2 >= 1/2 that the design refuses."""
    theta0 = np.asarray(design.theta0, dtype=float)
    x = rng.choice(np.asarray(design.support, dtype=float), size=n,
                   p=np.asarray(design.g0, dtype=float))
    y = theta0[0] + theta0[1] * x + np.exp(theta0[2]) * rng.standard_normal(n)
    r = np.where(rng.uniform(size=n) < design.w2, 2.0, 1.0)
    return r, y, np.where(r == 1, x, 0.0)


def variance_condition_sides(ws):
    """Both sides of the survival variance condition at each event time of
    a derivative bundle, E[delta/(1+delta) W^2] and Var(W) over the records
    at risk, summed event time by event time from the bundle's record
    weights w and at-risk weights W = c."""
    model = ws.model
    lhs, rhs = [], []
    for t in model.event_times:
        risk = model.u >= t
        w, c, delta = ws.w[risk], ws.c[risk], model.delta[risk]
        lhs.append(np.sum(w * delta / (1.0 + delta) * c**2))
        rhs.append(np.sum(w * c**2) - np.sum(w * c) ** 2)
    return np.array(lhs), np.array(rhs)


def anderson_iterates(apply, eta0, tol, depth, max_iter=10_000):
    """The iterates, in order, at which the safeguarded Anderson iteration
    applies Psi until the sup-norm residual is within tol, and the number
    of its fallbacks: the solver's loop with the differences kept in lists,
    oldest first, and F F' formed afresh at every step (without the abort
    on a run of growing residuals)."""
    eta = np.asarray(eta0, dtype=float).copy()
    df, dg, iterates, trace = [], [], [], []
    fallbacks = 0
    for _ in range(max_iter):
        iterates.append(eta)
        g = np.asarray(apply(eta), dtype=float)
        f = g - eta
        trace.append(float(np.abs(f).max()))
        if trace[-1] <= tol:
            return iterates, fallbacks
        eta = g
        if len(trace) > 1:
            candidate = None
            if trace[-1] < trace[-2]:
                df.append(f - f_prev)
                dg.append(g - g_prev)
                del df[:-depth], dg[:-depth]
                F = np.array(df)
                try:
                    gamma = np.linalg.solve(F @ F.T, F @ f)
                    candidate = g - gamma @ np.array(dg)
                except np.linalg.LinAlgError:
                    pass
            acceptable = candidate is not None and np.isfinite(candidate).all() and not (
                candidate.min() < 0.0 and np.any((candidate < 0.0) & (g >= 0.0)))
            if acceptable:
                eta = candidate
            else:
                df.clear()
                dg.clear()
                fallbacks += 1
        f_prev, g_prev = f, g
    raise NoConvergence("no fixed point within the iteration budget")
