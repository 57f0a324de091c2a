"""Semiparametric odds-ratio survival model with a step-function nuisance.

Records are right-censored survival observations (time, event indicator,
covariates).  Given the regression coefficients, the baseline odds
function maximizing the likelihood solves a self-consistency equation on
the grid of observed event times: each jump equals the weighted event
mass at that time divided by the weighted mean of an at-risk weight W.
This module implements that operator, the bundle of its derivatives at
one point, the profiled score and its Jacobian, and the variance condition
that makes the operator a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContractionViolation,
    InvalidConfig,
    InvalidInput,
    NumericOverflow,
    RiskSetEmpty,
)
from .estimator import Family, Profile
from .fixed_point import FixedPointProblem, solve_fixed_point
from .measures import (
    BilinearMap,
    EmpiricalMeasure,
    MaxIndexMap,
    RecordTable,
    StepFunction,
    parse_number,
    read_csv,
    suffix_increments,
)
from .numdiff import fd_theta  # noqa: F401 - bench/tracing.py hooks prop_odds.fd_theta

#: Linear predictors beyond this magnitude refuse to exponentiate.
LINPRED_BOUND = 50.0


class PropOddsModel(RecordTable):
    """Survival sample plus the event-time grid the nuisance lives on.  The
    records run in time order, so every at-risk sum is one
    :meth:`suffix_at_events` call over values stacked along leading axes."""

    def __init__(self, measure: EmpiricalMeasure, tau=None, n_obs=None):
        points = measure.points
        if points.ndim != 2 or points.shape[1] < 2:
            raise InvalidInput("records need columns (u, delta, z...)")
        super().__init__(measure, n_obs)
        self.u = points[:, 0]
        delta = points[:, 1]
        if not np.all((delta == 0) | (delta == 1)):
            raise InvalidInput("event indicator must be 0 or 1")
        self.delta = delta
        self.z = points[:, 2:]
        self.tau = float(tau) if tau is not None else float(self.u.max())
        if np.any(self.u < 0) or np.any(self.u > self.tau):
            raise InvalidInput("observed times must lie in [0, tau]")
        event_mask = self.delta == 1
        self.event_times = np.unique(self.u[event_mask])
        if len(self.event_times) and self.event_times[0] <= 0:
            raise InvalidInput("event times must be positive")
        # the record table keeps its rows in canonical lexicographic order,
        # u first, so the records are in time order: those at risk at an
        # event time run from its _event_pos to the end
        self._event_pos = np.searchsorted(self.u, self.event_times, "left")
        # index of the last event time <= u, per record (+1, 0 meaning none)
        self._record_cut = np.searchsorted(self.event_times, self.u, "right")
        # the event records and the slot of each one's event time
        self._event_rows = np.flatnonzero(event_mask)
        self._event_row_slot = np.searchsorted(self.event_times, self.u[event_mask])

    @property
    def n_events(self):
        return len(self.event_times)

    @property
    def covariate_dim(self):
        return self.z.shape[1]

    theta_dim = covariate_dim

    @classmethod
    def from_arrays(cls, u, delta, z, weights=None, tau=None, normalize=True):
        u = np.asarray(u, dtype=float)
        delta = np.asarray(delta, dtype=float)
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[0] != len(u):
            z = z.T
        points = np.column_stack([u, delta, z])
        measure = cls.sample_measure(points, weights, normalize)
        return cls(measure, tau=tau, n_obs=len(u))

    def joined(self, other, measure):
        """Model on a record table holding this sample and other's."""
        return PropOddsModel(measure, tau=max(self.tau, other.tau))

    def jumps_to_step(self, jumps):
        return StepFunction(self.event_times, jumps, self.tau)

    def suffix_at_events(self, values):
        """Sum of values over records with u >= each event time, along the
        last axis, which runs over the records; leading axes stack values."""
        suffix = np.cumsum(values[..., ::-1], axis=-1)[..., ::-1]
        padded = np.concatenate([suffix, np.zeros(suffix.shape[:-1] + (1,))], axis=-1)
        return padded[..., self._event_pos]

    def cumulative_at_records(self, jump_coeffs):
        """h(u_i) for the step directions with the given jump coefficients
        (the last axis runs over event times, and then over records): the
        cumulative sums a :class:`StepFunction` evaluates, bit for bit."""
        cum = np.cumsum(jump_coeffs, axis=-1)
        padded = np.concatenate([np.zeros(cum.shape[:-1] + (1,)), cum], axis=-1)
        return padded[..., self._record_cut]


def _parse_row(row, where):
    return [parse_number(float, text, where, col)
            for col, text in enumerate(row, start=1)]


def load_csv(path, tau=None):
    """Read records from a CSV with columns U, delta, Z1..Zp."""
    data = read_csv(
        path, "U,delta,Z1..Zp",
        lambda names: len(names) >= 3 and names[:2] == ["U", "delta"],
        _parse_row,
    )
    return PropOddsModel.from_arrays(data[:, 0], data[:, 1], data[:, 2:], tau=tau)


def _event_mass(model, values):
    return np.bincount(model._event_row_slot, values[model._event_rows],
                       minlength=model.n_events)


def _inverse_risk(edn, ew):
    """1/EW at the event times carrying event mass, 0 elsewhere."""
    if np.any((edn > 0) & (ew <= 0)):
        raise RiskSetEmpty("zero at-risk weight at an event time")
    # event rows with no event mass contribute nothing; guard the division
    return np.where(edn > 0, 1.0 / np.where(ew > 0, ew, 1.0), 0.0)


class Operator:
    """The self-consistency operator bound to (beta, F): what does not
    depend on A, in the record table's own time order, so that one
    application, jumps to jumps, is O(n) and builds no step function.  The
    fixed-point solve, the derivative bundle and the audits all read this
    one binding."""

    def __init__(self, model, beta, F=None):
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        if beta.shape != (model.covariate_dim,):
            raise InvalidInput("beta does not match the covariate dimension")
        self.lin = model.z @ beta
        if np.any(np.abs(self.lin) > LINPRED_BOUND):
            raise NumericOverflow(
                f"|beta'Z| exceeds {LINPRED_BOUND}; refusing to exponentiate"
            )
        self.model = model
        self.dim = model.n_events
        self.w = w = model.resolve_weights(F)
        self.q = np.exp(self.lin)
        self.qc = (1.0 + model.delta) * self.q
        self.edn = _event_mass(model, w)

    def __call__(self, jumps):
        return self.jumps_at(self.model.cumulative_at_records(self.checked(jumps)))

    def checked(self, jumps):
        """jumps as an array, refused unless one finite nonnegative jump per
        event time."""
        jumps = np.asarray(jumps, dtype=float)
        if (jumps.shape != self.edn.shape or not np.all(np.isfinite(jumps))
                or np.any(jumps < 0)):
            raise InvalidInput("need one finite nonnegative jump per event time")
        return jumps

    def jumps_at(self, AU):
        """Output jumps given A at the records."""
        ew = self.model.suffix_at_events(self.w * (self.qc / (1.0 + self.q * AU)))
        return self.edn * _inverse_risk(self.edn, ew)

    def cold_start(self):
        """Psi(0), where a solve without a start begins."""
        return self(np.zeros(self.dim))


class _Workspace:
    """The derivative bundle of the bound operator at one A (see
    :mod:`implicit_diff`), with the first-order weights its fields, the
    scores and the condition checks share, in record order."""

    def __init__(self, op, jumps):
        model = self.model = op.model
        self.w, self.q, self.qc, self.edn = op.w, op.q, op.qc, op.edn
        self.AU = model.cumulative_at_records(op.checked(jumps))
        self.denom = 1.0 + self.q * self.AU
        self.c = self.qc / self.denom
        self.wdot = self.qc / self.denom**2
        self.k = (1.0 + model.delta) * self.q**2 / self.denom**2
        self.ew = model.suffix_at_events(self.w * self.c)
        self.inv_ew = _inverse_risk(self.edn, self.ew)
        suffix = model.suffix_at_events
        self.ew_dot = suffix(self.w * self.wdot * model.z.T)
        self.dot_psi = -self.edn * self.ew_dot * self.inv_ew**2
        # the derivative in the nuisance, in jump coordinates: the direction
        # enters only through its cumulative value at each record time, so
        # the entry for output jump i and input jump j is driven by the
        # at-risk sum beyond the later of event times i and j, which makes
        # the map diag(coef) K(k_suffix) in MaxIndexMap form
        self.k_suffix = suffix(self.w * self.k)
        self.d_eta = MaxIndexMap([(self.edn * self.inv_ew**2, self.k_suffix)])

    def contracts(self):
        """Whether d_eta has spectral radius below one, read off the
        Cholesky factor of its tridiagonal form (see :class:`MaxIndexMap`),
        which the resolvent solves at this point then reuse."""
        return self.d_eta.contracts()

    @cached_property
    def _second_order(self):
        """The second coefficient derivative and the mixed maps, from the
        at-risk sums of the first."""
        model, w, edn, inv_ew = self.model, self.w, self.edn, self.inv_ew
        ew_dot, z, suffix = self.ew_dot, model.z, model.suffix_at_events
        wddot = self.qc * (1.0 - self.q * self.AU) / self.denom**3
        kd = 2.0 * (1.0 + model.delta) * self.q**2 / self.denom**3
        ew_ddot = suffix(w * wddot * z.T[:, None, :] * z.T[None, :, :])
        ddot = (-edn * ew_ddot * inv_ew**2
                + 2.0 * edn * ew_dot[:, None, :] * ew_dot[None, :, :] * inv_ew**3)
        # entry (a, b) multiplies by z_a before z_b, so the two triangles
        # round apart: copy the upper onto the lower to keep it symmetric
        lower = np.tril_indices(model.covariate_dim, -1)
        ddot[lower] = ddot[lower[::-1]]

        mixed = tuple(
            MaxIndexMap([
                (edn * inv_ew**2, kd_suffix),
                (-2.0 * edn * ew_dot_a * inv_ew**3, self.k_suffix),
            ])
            for kd_suffix, ew_dot_a in zip(suffix(w * kd * z.T), ew_dot)
        )
        return ddot, mixed

    @property
    def ddot_psi(self):
        return self._second_order[0]

    @property
    def d_eta_dot(self):
        return self._second_order[1]

    @cached_property
    def d2_eta(self):
        """Second derivative in the nuisance as a bilinear map on jump
        vectors, evaluated at every pair of a stack of directions at once.
        pairs reads the arrays, never the bundle, which would then hold
        itself through its own cache."""
        model, w, k, edn, inv_ew = self.model, self.w, self.k, self.edn, self.inv_ew
        k2 = 2.0 * (1.0 + model.delta) * self.q**3 / self.denom**3
        suffix = model.suffix_at_events

        def pairs(H):
            HU = model.cumulative_at_records(H)  # (d, n)
            second = suffix(w * k2 * HU[:, None, :] * HU[None, :, :])
            first = -suffix(w * k * HU)  # (d, m)
            return (
                -edn * second * inv_ew**2
                + 2.0 * edn * first[:, None, :] * first[None, :, :] * inv_ew**3
            )

        return BilinearMap(pairs, model.n_events)

    def d_f(self, h):
        """Derivative of the operator in the distribution, in direction h.

        h is a signed weight vector over the record table; the result is the
        jump vector of the derivative step function.
        """
        hw = self.model.resolve_direction(h)
        h_edn = _event_mass(self.model, hw)
        h_ew = self.model.suffix_at_events(hw * self.c)
        # the first term needs 1/EW wherever the direction carries event mass,
        # even at event times where the base measure has none
        if np.any((h_edn != 0) & (self.ew <= 0)):
            raise RiskSetEmpty("direction carries event mass with empty risk set")
        inv_ew_full = np.where(self.ew > 0, 1.0 / np.where(self.ew > 0, self.ew, 1.0), 0.0)
        return h_edn * inv_ew_full - self.edn * h_ew * self.inv_ew**2


def psi_apply(model, beta, A, F=None):
    """One application of the self-consistency operator.

    Returns the step function whose jump at each event time is the
    weighted event mass there over the weighted mean at-risk weight.
    """
    AU = np.asarray(A(model.u), dtype=float)
    return model.jumps_to_step(Operator(model, beta, F).jumps_at(AU))


def solve_nuisance(op, tol=1e-10, eta0=None):
    """Solve for the baseline odds jumps of a bound operator."""
    eta0 = op.cold_start() if eta0 is None else eta0
    return solve_fixed_point(FixedPointProblem(op, op.dim), eta0, tol=tol)


def _sup_norm(d_eta):
    """Sup norm of the nuisance derivative on values at the event times.

    The cumulative operator C = U' conjugates diag(coef) U diag(t) U' to
    the value map C diag(coef) U diag(t), whose entry (i, j) is
    t_j cumsum(coef)_min(i, j); its absolute row sums, the norm the
    contraction requirement refers to, come from cumulative sums in O(m).
    """
    ((coef, s),) = d_eta.terms
    t = np.abs(suffix_increments(s))
    cc = np.abs(np.cumsum(coef))
    before = np.concatenate([[0.0], np.cumsum(t * cc)[:-1]])
    rows = before + cc * np.cumsum(t[::-1])[::-1]
    if not np.all(np.isfinite(rows)):
        raise InvalidInput("nuisance derivative has non-finite entries")
    return float(rows.max(initial=0.0))


def psi_derivatives(op, jumps):
    """The derivative bundle of the bound operator at the given jumps."""
    return _Workspace(op, jumps)


@dataclass
class VarianceConditionReport:
    """Per-event-time margins of the at-risk weight variance condition."""

    event_times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    satisfied: bool

    @property
    def margins(self):
        return self.lhs - self.rhs


def _variance_condition(ws):
    """Compare E[delta/(1+delta) W^2] with Var(W) at every event time.

    The left side dominating everywhere is the empirical analogue of the
    condition that makes the nuisance operator contract in the sup norm.
    """
    model = ws.model
    frac = model.delta / (1.0 + model.delta)
    lhs = model.suffix_at_events(ws.w * frac * ws.c**2)
    ew2 = model.suffix_at_events(ws.w * ws.c**2)
    rhs = ew2 - ws.ew**2
    # with no events the left side is identically zero: nothing certifies
    # the contraction, so the report cannot come back satisfied
    satisfied = bool(model.n_events and np.all(lhs > rhs))
    return VarianceConditionReport(model.event_times, lhs, rhs, satisfied)


class PropOddsProfile(Profile):
    """Profile-likelihood view: score and Jacobian of the estimating equation.

    Differentiates the plugged-in log density per record.  The Jacobian of
    the mean score is the envelope form, in closed form from the first
    coefficient derivative of the fixed point alone.  A covariate
    that is constant over the weighted records makes the coefficient
    unidentified, as e^{beta z} then only rescales the baseline odds, so
    such a sample is refused.
    """

    def __init__(self, model, F=None, solver_tol=1e-10):
        super().__init__(model, F, solver_tol)
        z = model.z[self.weights > 0]
        constant = np.flatnonzero(np.ptp(z, axis=0) == 0) if len(z) else []
        if len(constant):
            names = ", ".join(f"Z{k + 1}" for k in constant)
            raise InvalidInput(
                f"covariate {names} is constant over the sample; "
                "its coefficient is confounded with the scale of the baseline odds"
            )

    def point_scores(self, jumps, derivs, jump_dot):
        """Per-record derivative of the profiled log density, shape (n, p):
        delta (z + J'/J) - (1 + delta) q (z A(U) + A'(U)) / (1 + q A(U))."""
        model, ws = self.model, derivs
        slot = model._event_row_slot
        safe = np.where(jumps > 0, jumps, 1.0)[slot]  # J' = 0 where J = 0
        ratio = np.zeros((self.dim, model.n_records))
        ratio[:, model._event_rows] = jump_dot[:, slot] / safe
        zT = model.z.T
        hazard = ws.q * (zT * ws.AU + model.cumulative_at_records(jump_dot)) / ws.denom
        score = model.delta * (zT + ratio) - (1.0 + model.delta) * hazard
        return score.T

    def score(self, beta):
        return self.point(beta).scores

    def mean_score(self, beta):
        return self.score(beta).T @ self.weights

    def jacobian(self, point):
        """Jacobian of the mean score at a point: rows are score components,
        columns coefficient components.  The jumps solve d l / d J = 0, so
        the mean score is the beta-derivative of the log-likelihood,
        sum_i w_i (delta z - (1 + delta) q z A(U) / (1 + q A(U))), and its
        total beta_b-derivative is -sum_i w_i wdot z (z_b A(U) + A'_b(U)),
        with wdot = (1 + delta) q / (1 + q A(U))^2."""
        model, ws = self.model, point.derivs
        zT = model.z.T
        num = zT * ws.AU + model.cumulative_at_records(point.eta_dot)
        return -(zT * (self.weights * ws.wdot)) @ num.T

    def precheck(self, beta):
        """Verify the contraction prerequisites at beta's point, from which
        the fit's first score then starts."""
        derivs = self.point(beta).derivs
        report = _variance_condition(derivs)
        norm = _sup_norm(derivs.d_eta)
        if not report.satisfied or norm >= 1.0:
            raise ContractionViolation(
                f"variance condition satisfied={report.satisfied}, "
                f"nuisance-derivative sup norm {norm:.4f}"
            )
        return report, norm


def _fit_payload(profile, beta):
    point = profile.last_point
    jumps = point.solution.eta.tolist()
    report = _variance_condition(point.derivs)
    return {
        "beta_hat": beta.tolist(),
        "jumps": jumps,
        "nuisance": {
            "jump_times": profile.model.event_times.tolist(),
            "jumps": jumps,
        },
        "condition": {
            "satisfied": bool(report.satisfied),
            "min_margin": float(report.margins.min()) if len(report.margins) else None,
        },
        "diagnostics": {"nuisance": {"sup_norm": _sup_norm(point.derivs.d_eta)}},
    }


@dataclass(frozen=True)
class PropOddsDesign:
    """Sampling design for the survival model.

    The baseline odds function is either a step function (baseline_times
    and baseline_jumps) or linear (baseline_rate); censoring is uniform on
    [0, tau] with an atom at tau.  The default is a step baseline whose
    last failure time carries the dominant mass: that keeps the at-risk
    weight variance condition satisfied at every event time, which a
    continuous baseline cannot do near the horizon.
    """

    beta0: tuple = (0.5,)
    baseline_times: tuple | None = (0.5, 1.0, 1.5)
    baseline_jumps: tuple | None = (0.05, 0.12, 1.4)
    baseline_rate: float | None = None
    tau: float = 3.0
    censor_atom: float = 1.0
    covariate_values: tuple = (-0.5, 0.5)
    covariate_probs: tuple = (0.5, 0.5)

    @property
    def is_step(self):
        return self.baseline_times is not None

    def validate(self):
        if self.is_step:
            if self.baseline_jumps is None or self.baseline_rate is not None:
                raise InvalidConfig(
                    "specify either a step baseline (times and jumps) or a "
                    "linear rate, not both"
                )
            times = np.asarray(self.baseline_times, dtype=float)
            jumps = np.asarray(self.baseline_jumps, dtype=float)
            if len(times) == 0 or len(times) != len(jumps):
                raise InvalidConfig("baseline times and jumps must match")
            if np.any(np.diff(times) <= 0) or times[0] <= 0 or times[-1] > self.tau:
                raise InvalidConfig("baseline times must increase within (0, tau]")
            if np.any(jumps < 0) or jumps.sum() <= 0:
                raise InvalidConfig("baseline odds at tau must be positive")
        else:
            if self.baseline_rate is None or self.baseline_rate <= 0:
                raise InvalidConfig("baseline odds at tau must be positive")
        if not 0 < self.censor_atom <= 1:
            raise InvalidConfig("censoring atom probability must be in (0, 1]")
        if abs(sum(self.covariate_probs) - 1.0) > 1e-12:
            raise InvalidConfig("covariate probabilities must sum to one")


class _PopulationLaw:
    """Joint densities of (u, delta) given the covariate under a linear design."""

    def __init__(self, design):
        design.validate()
        if design.is_step:
            raise InvalidInput("the quadrature law needs a linear baseline")
        self.design = design
        self.beta0 = np.atleast_1d(np.asarray(design.beta0, dtype=float))

    def per_covariate(self):
        for z_val, pz in zip(self.design.covariate_values,
                             self.design.covariate_probs):
            q = float(np.exp(np.atleast_1d(z_val) @ self.beta0))
            yield z_val, pz, q

    def event_density(self, t, q):
        """Density of an observed event at t: failure density times P(c >= t)."""
        rate, tau, p_atom = (self.design.baseline_rate, self.design.tau,
                             self.design.censor_atom)
        surv_t = 1.0 / (1.0 + q * rate * t)
        surv_c = 1.0 - (1.0 - p_atom) * t / tau
        return q * rate * surv_t**2 * surv_c

    def censor_density(self, t, q):
        rate, tau, p_atom = (self.design.baseline_rate, self.design.tau,
                             self.design.censor_atom)
        surv_t = 1.0 / (1.0 + q * rate * t)
        return (1.0 - p_atom) / tau * surv_t

    def atrisk_integrand(self, t, q):
        """Density of the at-risk weight carried by records observed at t."""
        rate = self.design.baseline_rate
        c_event = 2.0 * q / (1.0 + q * rate * t)
        c_censor = q / (1.0 + q * rate * t)
        return (self.event_density(t, q) * c_event
                + self.censor_density(t, q) * c_censor)

    def atrisk_atom(self, q):
        rate, tau, p_atom = (self.design.baseline_rate, self.design.tau,
                             self.design.censor_atom)
        surv_t = 1.0 / (1.0 + q * rate * tau)
        return p_atom * surv_t * q / (1.0 + q * rate * tau)


def population_self_consistency(design=None, cells=2000, order=5):
    """Sup distance between the population operator output at truth and truth.

    Only meaningful for a linear (continuous) baseline, where the truth
    maximizes the population version of the working likelihood.  The
    operator's value at u integrates the ratio of the population event
    density to the population mean at-risk weight up to u; the tail
    integrals defining the denominator and the outer integral are computed
    by composite Gauss rules on a uniform partition of [0, tau], the tail
    from an interior node being the partial piece of its own cell plus
    whole cells beyond.
    """
    from .measures import composite_gauss_grid, gauss_legendre_grid

    if design is None:
        design = LINEAR_DESIGN
    law = _PopulationLaw(design)
    tau, rate = design.tau, design.baseline_rate
    nodes, qw, boundaries = composite_gauss_grid(0.0, tau, cells, order)
    cell_end = np.repeat(boundaries[1:], order)

    # per-node partial tails over [node, end of its cell]
    base_nodes, base_weights = gauss_legendre_grid(0.0, 1.0, order)
    span = cell_end - nodes
    sub_nodes = nodes[:, None] + span[:, None] * base_nodes[None, :]
    sub_weights = span[:, None] * base_weights[None, :]

    ew = np.zeros_like(nodes)
    edn_density = np.zeros_like(nodes)
    for _, pz, q in law.per_covariate():
        partial = (law.atrisk_integrand(sub_nodes, q) * sub_weights).sum(axis=1)
        cell_mass = np.add.reduceat(
            law.atrisk_integrand(nodes, q) * qw, np.arange(0, len(nodes), order)
        )
        beyond = np.concatenate([np.cumsum(cell_mass[::-1])[::-1], [0.0]])[1:]
        tail = partial + np.repeat(beyond, order) + law.atrisk_atom(q)
        ew += pz * tail
        edn_density += pz * law.event_density(nodes, q)

    ratio = edn_density / ew
    cell_sums = np.add.reduceat(ratio * qw, np.arange(0, len(nodes), order))
    psi_at_boundaries = np.cumsum(cell_sums)
    target = rate * boundaries[1:]
    return {
        "sup_error": float(np.abs(psi_at_boundaries - target).max()),
        "grid": boundaries[1:],
        "psi": psi_at_boundaries,
        "truth": target,
    }


#: The linear-baseline variant used for quadrature-based population checks
#: and distribution-shape tests of the generator.
LINEAR_DESIGN = PropOddsDesign(
    baseline_times=None, baseline_jumps=None, baseline_rate=1.0,
    censor_atom=0.2,
)


def _build(u, delta, z):
    return PropOddsModel.from_arrays(u, delta, z)


FAMILY = Family(
    name="prop_odds",
    model=PropOddsModel,
    profile=PropOddsProfile,
    design=PropOddsDesign,
    load_csv=load_csv,
    build=_build,
    truth=lambda design: design.beta0,
    default_start=lambda model: np.zeros(model.covariate_dim),
    labels=lambda model: [f"beta_{k + 1}" for k in range(model.covariate_dim)],
    fit_payload=_fit_payload,
    audit_rows=("da_psi", "d2a_psi", "dbeta_psi"),
    audit_seed_offset=17,
    audit_theta=lambda model: [0.5] * model.covariate_dim,
    audit_design=LINEAR_DESIGN,
)
