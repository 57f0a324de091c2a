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
    EmpiricalMeasure,
    MaxIndexMap,
    RecordTable,
    StepFunction,
    check_covariate_law,
    composite_gauss_grid,
    parse_number,
    read_csv,
    run_starts,
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
        # the record table keeps its rows in canonical lexicographic order,
        # u first, so the records are in time order: the first and last
        # bound them, and the event records' distinct times are the grid
        u, n = self.u, self.n_records
        self.tau = float(tau) if tau is not None else float(u.max())
        if n and (u[0] < 0 or u[-1] > self.tau):
            raise InvalidInput("observed times must lie in [0, tau]")
        self._event_rows = np.flatnonzero(delta == 1)
        new_time = run_starts(u[self._event_rows])
        self.event_times = u[self._event_rows[new_time]]
        if len(self.event_times) and self.event_times[0] <= 0:
            raise InvalidInput("event times must be positive")
        # the slot of each event record's event time
        self._event_row_slot = np.cumsum(new_time) - 1
        # those at risk at an event time run from the first record at that
        # time to the end; counted from the end, the reversed records run
        # up to _event_rpos, where a reversed cumulative sum reads the sum
        new_u = run_starts(u)
        first_at = np.flatnonzero(new_u)[np.cumsum(new_u) - 1]
        event_pos = first_at[self._event_rows[new_time]]
        self._event_rpos = n - 1 - event_pos
        # index of the last event time <= u, per record (+1, 0 meaning none):
        # the count of event times whose first record comes no later
        marks = np.zeros(n, dtype=np.intp)
        marks[event_pos] = 1
        self._record_cut = np.cumsum(marks)

    @property
    def n_events(self):
        return len(self.event_times)

    @property
    def covariate_dim(self):
        return self.z.shape[1]

    theta_dim = covariate_dim

    @classmethod
    def from_arrays(cls, u, delta, z, weights=None):
        u = np.asarray(u, dtype=float)
        delta = np.asarray(delta, dtype=float)
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[0] != len(u):
            z = z.T
        points = np.column_stack([u, delta, z])
        return cls(cls.sample_measure(points, weights), n_obs=len(u))

    def joined(self, other, measure):
        """Model on a record table holding this sample and other's."""
        return PropOddsModel(measure, tau=max(self.tau, other.tau))

    def suffix_at_events(self, values):
        """Sum of values over records with u >= each event time, along the
        last axis, which runs over the records; leading axes stack values.
        The gathers here and in :meth:`cumulative_at_records` use take: an
        index behind an Ellipsis costs several times as much on stacks."""
        return np.cumsum(values[..., ::-1], axis=-1).take(self._event_rpos, axis=-1)

    def cumulative_at_records(self, jump_coeffs):
        """h(u_i) for the step directions with the given jump coefficients
        (the last axis runs over event times, and then over records): the
        cumulative sums a :class:`StepFunction` evaluates, bit for bit."""
        padded = np.zeros(jump_coeffs.shape[:-1] + (self.n_events + 1,))
        np.cumsum(jump_coeffs, axis=-1, out=padded[..., 1:])
        return padded.take(self._record_cut, axis=-1)


def _parse_row(row, where):
    return [parse_number(float, text, where, col)
            for col, text in enumerate(row, start=1)]


def load_csv(path):
    """Read records from a CSV with columns U, delta, Z1..Zp; the horizon
    tau is the largest observed time."""
    data = read_csv(
        path, "U,delta,Z1..Zp",
        lambda names: len(names) >= 3 and names[:2] == ["U", "delta"],
        _parse_row,
    )
    return PropOddsModel.from_arrays(data[:, 0], data[:, 1], data[:, 2:])


def _event_mass(model, values):
    return np.bincount(model._event_row_slot, values[model._event_rows],
                       minlength=model.n_events)


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
        # the event times carrying event mass
        self._massed = self.edn > 0
        self._last = None, None  # the jumps last applied to, and their at_risk

    def __call__(self, jumps):
        jumps = self.checked(jumps)
        self._last = jumps, self.at_risk(self.model.cumulative_at_records(jumps))
        return self.edn * self._last[1][-1]

    def checked(self, jumps):
        """jumps as an array, refused unless one finite nonnegative jump per
        event time (a NaN fails both bounds)."""
        jumps = np.asarray(jumps, dtype=float)
        if not (jumps.shape == self.edn.shape and jumps.min(initial=np.inf) >= 0.0
                and jumps.max(initial=0.0) < np.inf):
            raise InvalidInput("need one finite nonnegative jump per event time")
        return jumps

    def at_risk(self, AU):
        """Given A at the records: A(U), 1 + q A(U), the at-risk weight c =
        (1 + delta) q / (1 + q A(U)), its sums EW at the event times, 1/EW."""
        denom = self.q * AU
        denom += 1.0
        c = self.qc / denom
        ew = self.model.suffix_at_events(c * self.w)
        return AU, denom, c, ew, self.inverse_risk(ew)

    def at_risk_of(self, jumps):
        """:meth:`at_risk` at jumps: the last application's if it was to this
        very array, as to the solve's returned iterate, else checked anew."""
        last, state = self._last
        if jumps is last:
            return state
        return self.at_risk(self.model.cumulative_at_records(self.checked(jumps)))

    def inverse_risk(self, ew):
        """1/EW at the event times carrying event mass, 0 elsewhere; those
        need positive at-risk weight."""
        if not ew.min(initial=np.inf, where=self._massed) > 0.0:
            raise RiskSetEmpty("zero at-risk weight at an event time")
        inv = np.zeros(ew.shape)
        np.divide(1.0, ew, out=inv, where=self._massed)
        return inv

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
        self.AU, self.denom, self.c, self.ew, self.inv_ew = op.at_risk_of(jumps)
        self.wdot = self.qc / self.denom**2
        self.k = (1.0 + model.delta) * self.q**2 / self.denom**2
        self.ew_dot = model.suffix_at_events(self.w * self.wdot * model.z.T)
        self.dot_psi = -self.edn * self.ew_dot * self.inv_ew**2
        # the derivative in the nuisance, in jump coordinates: the direction
        # enters only through its cumulative value at each record time, so
        # the entry for output jump i and input jump j is driven by the
        # at-risk sum beyond the later of event times i and j, which makes
        # the map diag(coef) K(k_suffix) in MaxIndexMap form
        self.k_suffix = model.suffix_at_events(self.w * self.k)
        self.d_eta = MaxIndexMap(self.edn * self.inv_ew**2, self.k_suffix)

    def contracts(self):
        """Whether d_eta has spectral radius below one, read off the
        pivots of its tridiagonal form's odd-even reduction (see
        :class:`MaxIndexMap`), which the resolvent solves at this point then
        reuse."""
        return self.d_eta.contracts()

    @cached_property
    def ddot_psi(self):
        """The second coefficient derivative, from the at-risk sums of the
        first."""
        edn, inv_ew, ew_dot, zT = self.edn, self.inv_ew, self.ew_dot, self.model.z.T
        wddot = self.qc * (1.0 - self.q * self.AU) / self.denom**3
        ew_ddot = self.model.suffix_at_events(self.w * wddot * zT[:, None, :] * zT[None, :, :])
        ddot = (-edn * ew_ddot * inv_ew**2
                + 2.0 * edn * ew_dot[:, None, :] * ew_dot[None, :, :] * inv_ew**3)
        # entry (a, b) multiplies by z_a before z_b, so the two triangles
        # round apart: copy the upper onto the lower to keep it symmetric
        lower = np.tril_indices(len(ddot), -1)
        ddot[lower] = ddot[lower[::-1]]
        return ddot

    def mixed(self, H):
        """The coefficient derivative of d_eta at each row of H, shape
        (d, k, m): the at-risk sums of k and of its coefficient derivative
        kd z_a against the directions' cumulative values, one stacked
        suffix sum."""
        model, edn, inv_ew = self.model, self.edn, self.inv_ew
        kd = 2.0 * (1.0 + model.delta) * self.q**2 / self.denom**3
        HU = model.cumulative_at_records(H)  # (k, n)
        weights = np.concatenate([kd * model.z.T, self.k[None, :]])  # (d + 1, n)
        sums = model.suffix_at_events(self.w * weights[:, None, :] * HU)
        return (edn * inv_ew**2 * sums[:-1]
                - 2.0 * edn * (self.ew_dot * inv_ew**3)[:, None, :] * sums[-1])

    def d2_eta(self, H):
        """The second derivative in the nuisance at every pair of rows of H,
        shape (k, k, m)."""
        model, edn, inv_ew = self.model, self.edn, self.inv_ew
        k2 = 2.0 * (1.0 + model.delta) * self.q**3 / self.denom**3
        HU = model.cumulative_at_records(H)  # (k, n)
        second = model.suffix_at_events(self.w * k2 * HU[:, None, :] * HU[None, :, :])
        first = -model.suffix_at_events(self.w * self.k * HU)  # (k, m)
        return (-edn * second * inv_ew**2
                + 2.0 * edn * first[:, None, :] * first[None, :, :] * inv_ew**3)

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


def psi_apply(model, beta, A):
    """One application of the self-consistency operator.

    Returns the step function whose jump at each event time is the
    weighted event mass there over the weighted mean at-risk weight.
    """
    op = Operator(model, beta)
    jumps = op.edn * op.at_risk(np.asarray(A(model.u), dtype=float))[-1]
    return StepFunction(model.event_times, jumps, model.tau)


def solve_nuisance(op, tol=1e-10, eta0=None):
    """Solve for the baseline odds jumps of a bound operator."""
    eta0 = op.cold_start() if eta0 is None else eta0
    return solve_fixed_point(FixedPointProblem(op, op.dim), eta0, tol=tol)


def psi_derivatives(op, jumps):
    """The derivative bundle of the bound operator at the given jumps."""
    return _Workspace(op, jumps)


def _variance_condition(ws):
    """Compare E[delta/(1+delta) W^2] with Var(W) at every event time: the
    fit JSON's condition object, whether the left side dominates everywhere
    and the smallest margin (None with no event times).

    The left side dominating everywhere is the empirical analogue of the
    condition that makes the nuisance operator contract in the sup norm.
    """
    model = ws.model
    frac = model.delta / (1.0 + model.delta)
    lhs = model.suffix_at_events(ws.w * frac * ws.c**2)
    ew2 = model.suffix_at_events(ws.w * ws.c**2)
    rhs = ew2 - ws.ew**2
    # with no events the left side is identically zero: nothing certifies
    # the contraction, so the condition cannot come back satisfied
    satisfied = bool(model.n_events and np.all(lhs > rhs))
    margins = lhs - rhs
    return {"satisfied": satisfied,
            "min_margin": float(margins.min()) if len(margins) else None}


class PropOddsProfile(Profile):
    """Profile-likelihood view: score and Jacobian of the estimating equation.

    Differentiates the plugged-in log density per record.  The Jacobian of
    the mean score is the envelope form, in closed form from the first
    coefficient derivative of the fixed point alone.  A covariate
    that is constant over the weighted records makes the coefficient
    unidentified, as e^{beta z} then only rescales the baseline odds, so
    such a sample is refused.
    """

    def __init__(self, model, solver_tol=1e-10):
        super().__init__(model, solver_tol)
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
        ratio[:, model._event_rows] = jump_dot.take(slot, axis=1) / safe
        zT = model.z.T
        # z A(U) + A'(U), which the Newton Jacobian at this point reads too
        ws.hazard_num = zT * ws.AU + model.cumulative_at_records(jump_dot)
        hazard = ws.q * ws.hazard_num / ws.denom
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
        ws, zT = point.derivs, self.model.z.T
        return -(zT * (self.weights * ws.wdot)) @ ws.hazard_num.T

    def precheck(self, beta):
        """Verify the contraction prerequisites at beta's point, from which
        the fit's first score then starts."""
        derivs = self.point(beta).derivs
        satisfied = _variance_condition(derivs)["satisfied"]
        norm = derivs.d_eta.sup_norm()
        if not satisfied or norm >= 1.0:
            raise ContractionViolation(
                f"variance condition satisfied={satisfied}, "
                f"nuisance-derivative sup norm {norm:.4f}"
            )


def _fit_payload(profile, beta):
    point = profile.last_point
    jumps = point.solution.eta.tolist()
    return {
        "beta_hat": beta.tolist(),
        "jumps": jumps,
        "nuisance": {"jump_times": profile.model.event_times.tolist(), "jumps": jumps},
        "condition": _variance_condition(point.derivs),
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
        if np.size(self.beta0) != 1:
            raise InvalidConfig("beta0 needs one entry: the generator draws a scalar covariate")
        check_covariate_law(self.covariate_values, self.covariate_probs)


class _PopulationLaw:
    """Joint densities of (u, delta) given the covariate under a linear design:
    given odds factor q, failure survival S(u) = 1/(1 + b u), b = q rate, and
    censoring uniform on [0, tau], density k = (1 - p_atom)/tau, atom p_atom."""

    def __init__(self, design):
        design.validate()
        if design.is_step:
            raise InvalidInput("the population law needs a linear baseline")
        self.design = design
        self.beta0 = np.atleast_1d(np.asarray(design.beta0, dtype=float))

    def per_covariate(self):
        """(p_z, q) for each covariate value."""
        for z_val, pz in zip(self.design.covariate_values,
                             self.design.covariate_probs):
            yield pz, float(np.exp(np.atleast_1d(z_val) @ self.beta0))

    def event_density(self, t, q):
        """Density of an observed event at t: failure density times P(c >= t)."""
        rate, tau, p_atom = (self.design.baseline_rate, self.design.tau,
                             self.design.censor_atom)
        surv_t = 1.0 / (1.0 + q * rate * t)
        surv_c = 1.0 - (1.0 - p_atom) * t / tau
        return q * rate * surv_t**2 * surv_c

    def at_risk(self, t, q):
        """Mean at-risk weight (1 + delta) q S(u) over records with u >= t:
        events and censoring give the integrand 2 q (b + k) S^3 - q k S^2
        (by u = (1/S - 1)/b), which dS/du = -b S^2 integrates in closed
        form, and the atom adds p_atom q S(tau)^2."""
        rate, tau, p_atom = (self.design.baseline_rate, self.design.tau,
                             self.design.censor_atom)
        b, k = q * rate, (1.0 - p_atom) / tau
        surv_t, surv_tau = 1.0 / (1.0 + b * t), 1.0 / (1.0 + b * tau)
        return (q / b * ((b + k) * (surv_t**2 - surv_tau**2) - k * (surv_t - surv_tau))
                + p_atom * q * surv_tau**2)


def population_self_consistency(design=None):
    """Sup distance between the population operator output at truth and truth.

    Only meaningful for a linear (continuous) baseline, where the truth
    maximizes the population version of the working likelihood.  The
    operator's value at u integrates the ratio of the population event
    density to the closed-form mean at-risk weight up to u, by a composite
    Gauss rule of 2000 cells of order 5 on [0, tau].  At the truth the ratio
    is the baseline rate, so the error is rounding alone.
    """
    if design is None:
        design = LINEAR_DESIGN
    law = _PopulationLaw(design)
    cells, order = 2000, 5
    nodes, qw, boundaries = composite_gauss_grid(0.0, design.tau, cells, order)
    ew = np.zeros_like(nodes)
    edn_density = np.zeros_like(nodes)
    for pz, q in law.per_covariate():
        ew += pz * law.at_risk(nodes, q)
        edn_density += pz * law.event_density(nodes, q)

    ratio = edn_density / ew
    cell_sums = np.add.reduceat(ratio * qw, np.arange(0, len(nodes), order))
    psi_at_boundaries = np.cumsum(cell_sums)
    target = design.baseline_rate * boundaries[1:]
    return {
        "sup_error": float(np.abs(psi_at_boundaries - target).max()),
        "grid": boundaries[1:],
        "psi": psi_at_boundaries,
        "truth": target,
    }


#: The linear-baseline variant used for the population check and
#: distribution-shape tests of the generator.
LINEAR_DESIGN = PropOddsDesign(
    baseline_times=None, baseline_jumps=None, baseline_rate=1.0,
    censor_atom=0.2,
)


def _build(u, delta, z):
    return PropOddsModel.from_arrays(u, delta, z)


FAMILY = Family(
    name="prop_odds",
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
