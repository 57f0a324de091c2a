"""Semiparametric odds-ratio survival model with a step-function nuisance.

Records are right-censored survival observations (time, event indicator,
covariates).  Given the regression coefficients, the baseline odds
function maximizing the likelihood solves a self-consistency equation on
the grid of observed event times: each jump equals the weighted event
mass at that time divided by the weighted mean of an at-risk weight W.
This module implements that operator, its derivatives in every argument,
the log likelihood, and the variance condition that makes the operator a
contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionViolation,
    DegenerateJump,
    InvalidConfig,
    InvalidInput,
    NumericOverflow,
    RiskSetEmpty,
)
from .estimator import Family, Profile
from .fixed_point import (
    FixedPointProblem,
    estimate_operator_norm,
    solve_fixed_point,
)
from .implicit_diff import PsiDerivatives, dtheta_eta
from .measures import (
    BilinearMap,
    EmpiricalMeasure,
    LinearMap,
    RecordTable,
    StepFunction,
    parse_number,
    read_csv,
)
from .numdiff import FdConfig, fd_theta

#: Linear predictors beyond this magnitude refuse to exponentiate.
LINPRED_BOUND = 50.0


class PropOddsModel(RecordTable):
    """Survival sample plus the event-time grid the nuisance lives on."""

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
        # record ordering by time, used for all at-risk suffix sums
        self._order = np.argsort(self.u, kind="stable")
        self._u_sorted = self.u[self._order]
        # position of each event time in the sorted records (first index at risk)
        self._event_pos = np.searchsorted(self._u_sorted, self.event_times, "left")
        # index of the last event time <= u, per record (+1, 0 meaning none)
        self._record_cut = np.searchsorted(self.event_times, self.u, "right")
        # event mass per event time under the model's own weights is computed
        # per-call since paths change the weights
        ev_idx = np.searchsorted(self.event_times, self.u[event_mask])
        self._event_rows = np.flatnonzero(event_mask)
        self._event_row_slot = ev_idx

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

    as_nuisance = jumps_to_step


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


class _Workspace:
    """Per-(beta, A, weights) caches shared by the operator derivatives."""

    def __init__(self, model, beta, A, w):
        self.model = model
        self.w = w
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        if beta.shape != (model.covariate_dim,):
            raise InvalidInput("beta does not match the covariate dimension")
        lin = model.z @ beta
        if np.any(np.abs(lin) > LINPRED_BOUND):
            raise NumericOverflow(
                f"|beta'Z| exceeds {LINPRED_BOUND}; refusing to exponentiate"
            )
        self.q = np.exp(lin)
        self.AU = np.asarray(A(model.u), dtype=float)
        self.denom = 1.0 + self.q * self.AU
        one_plus = 1.0 + model.delta
        self.c = one_plus * self.q / self.denom
        self.wdot = one_plus * self.q / self.denom**2
        self.wddot = one_plus * self.q * (1.0 - self.q * self.AU) / self.denom**3
        self.k = one_plus * self.q**2 / self.denom**2
        self.k2 = 2.0 * one_plus * self.q**3 / self.denom**3
        self.kd = 2.0 * one_plus * self.q**2 / self.denom**3
        self.edn = self._event_mass(w)
        self.ew = self.suffix_at_events(w * self.c)
        if np.any((self.edn > 0) & (self.ew <= 0)):
            raise RiskSetEmpty("zero at-risk weight at an event time")
        # event rows with no event mass contribute nothing; guard the division
        self.inv_ew = np.where(self.edn > 0, 1.0 / np.where(self.ew > 0, self.ew, 1.0), 0.0)

    def _event_mass(self, values):
        out = np.zeros(self.model.n_events)
        np.add.at(out, self.model._event_row_slot, values[self.model._event_rows])
        return out

    def suffix_at_events(self, values):
        """Sum of values over records with u >= each event time."""
        sorted_vals = values[self.model._order]
        suffix = np.concatenate([np.cumsum(sorted_vals[::-1])[::-1], [0.0]])
        return suffix[self.model._event_pos]

    def cumulative_at_records(self, jump_coeffs):
        """h(u_i) for the step direction with the given jump coefficients."""
        cum = np.concatenate([[0.0], np.cumsum(jump_coeffs)])
        return cum[self.model._record_cut]


def _workspace(model, beta, A, F):
    return _Workspace(model, beta, A, model.resolve_weights(F))


def psi_apply(model, beta, A, F=None):
    """One application of the self-consistency operator.

    Returns the step function whose jump at each event time is the
    weighted event mass there over the weighted mean at-risk weight.
    """
    ws = _workspace(model, beta, A, F)
    jumps = ws.edn * ws.inv_ew
    return model.jumps_to_step(jumps)


def psi_jumps(model, beta, jumps, F=None):
    """Operator in jump coordinates; convenience for fixed-point iteration."""
    A = model.jumps_to_step(jumps)
    return psi_apply(model, beta, A, F).jump_sizes


def fixed_point_problem(model, beta, F=None):
    return FixedPointProblem(
        apply=lambda v: psi_jumps(model, beta, v, F),
        dimension=model.n_events,
        norm_kind="sup",
    )


def solve_nuisance(model, beta, F=None, tol=1e-10, max_iter=10_000, eta0=None):
    """Solve for the baseline odds jumps at the given coefficients."""
    if eta0 is None:
        eta0 = psi_jumps(model, beta, np.zeros(model.n_events), F)
    problem = fixed_point_problem(model, beta, F)
    return solve_fixed_point(problem, eta0, tol=tol, max_iter=max_iter)


def da_psi(model, beta, A, F=None):
    """Derivative of the operator in the nuisance, in jump coordinates.

    The direction enters only through its cumulative value at each record
    time, so the matrix entry for output jump m and input jump j is driven
    by the at-risk sum beyond max(s_m, t_j).
    """
    ws = _workspace(model, beta, A, F)
    m = model.n_events
    if m == 0:
        return LinearMap(np.zeros((0, 0)))
    k_suffix = ws.suffix_at_events(ws.w * ws.k)
    pair = np.maximum(np.arange(m)[:, None], np.arange(m)[None, :])
    coef = ws.edn * ws.inv_ew**2
    return LinearMap(coef[:, None] * k_suffix[pair])


def da_psi_value_map(model, beta, A, F=None):
    """Nuisance derivative acting on function values at the event times.

    Similarity-transforms the jump-coordinate matrix with the cumulative
    operator; the sup norm of this matrix is the operator norm on function
    values, which is the norm the contraction requirement refers to.
    """
    M = da_psi(model, beta, A, F).matrix
    m = M.shape[0]
    if m == 0:
        return LinearMap(M)
    C = np.tri(m)
    Cinv = np.eye(m) - np.eye(m, k=-1)
    return LinearMap(C @ M @ Cinv)


def da_psi_sup_norm(model, beta, A, F=None):
    return estimate_operator_norm(da_psi_value_map(model, beta, A, F), "sup")


def d2a_psi(model, beta, A, F=None):
    """Second derivative in the nuisance as a bilinear map on jump vectors."""
    ws = _workspace(model, beta, A, F)

    def apply(h1, h2):
        H1 = ws.cumulative_at_records(h1)
        H2 = ws.cumulative_at_records(h2)
        second = ws.suffix_at_events(ws.w * ws.k2 * H1 * H2)
        first1 = -ws.suffix_at_events(ws.w * ws.k * H1)
        first2 = -ws.suffix_at_events(ws.w * ws.k * H2)
        return (
            -ws.edn * second * ws.inv_ew**2
            + 2.0 * ws.edn * first1 * first2 * ws.inv_ew**3
        )

    return BilinearMap(apply, model.n_events)


def dbeta_psi(model, beta, A, F=None):
    """First and second coefficient derivatives and the mixed derivative.

    Returns (dot, ddot, mixed): dot has shape (p, m), ddot (p, p, m), and
    mixed is one jump-coordinate linear map per coefficient component.
    """
    ws = _workspace(model, beta, A, F)
    p, m = model.covariate_dim, model.n_events
    z = model.z
    ew_dot = np.stack(
        [ws.suffix_at_events(ws.w * ws.wdot * z[:, a]) for a in range(p)]
    )
    dot = -ws.edn * ew_dot * ws.inv_ew**2

    ddot = np.empty((p, p, m))
    for a in range(p):
        for b in range(a, p):
            ew_ddot = ws.suffix_at_events(ws.w * ws.wddot * z[:, a] * z[:, b])
            val = (
                -ws.edn * ew_ddot * ws.inv_ew**2
                + 2.0 * ws.edn * ew_dot[a] * ew_dot[b] * ws.inv_ew**3
            )
            ddot[a, b] = val
            ddot[b, a] = val

    mixed = []
    if m:
        pair = np.maximum(np.arange(m)[:, None], np.arange(m)[None, :])
        k_suffix = ws.suffix_at_events(ws.w * ws.k)
        for a in range(p):
            kd_suffix = ws.suffix_at_events(ws.w * ws.kd * z[:, a])
            mat = (
                (ws.edn * ws.inv_ew**2)[:, None] * kd_suffix[pair]
                - 2.0
                * (ws.edn * ew_dot[a] * ws.inv_ew**3)[:, None]
                * k_suffix[pair]
            )
            mixed.append(LinearMap(mat))
    else:
        mixed = [LinearMap(np.zeros((0, 0))) for _ in range(p)]
    return dot, ddot, tuple(mixed)


def df_psi(model, beta, A, F=None, h=None):
    """Derivative of the operator in the distribution, in direction h.

    h is a signed weight vector over the record table; the result is the
    jump vector of the derivative step function.
    """
    ws = _workspace(model, beta, A, F)
    hw = model.resolve_direction(h)
    h_edn = ws._event_mass(hw)
    h_ew = ws.suffix_at_events(hw * ws.c)
    # the first term needs 1/EW wherever the direction carries event mass,
    # even at event times where the base measure has none
    if np.any((h_edn != 0) & (ws.ew <= 0)):
        raise RiskSetEmpty("direction carries event mass with empty risk set")
    inv_ew_full = np.where(ws.ew > 0, 1.0 / np.where(ws.ew > 0, ws.ew, 1.0), 0.0)
    return h_edn * inv_ew_full - ws.edn * h_ew * ws.inv_ew**2


def psi_derivatives(model, beta, A, F=None):
    """All operator derivatives at (beta, A, F), bundled for resolvent use."""
    return PsiDerivatives.at((model, beta, A, F), dbeta_psi, da_psi, d2a_psi, df_psi)


def loglik(model, beta, A, F=None):
    """Average log likelihood of the sample at (beta, A).

    Events contribute beta'z plus the log of the jump of A at their time;
    every record contributes -(1 + delta) log(1 + e^{beta'z} A(u)).
    """
    w = model.resolve_weights(F)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    lin = model.z @ beta
    if np.any(np.abs(lin) > LINPRED_BOUND):
        raise NumericOverflow(f"|beta'Z| exceeds {LINPRED_BOUND}")
    q = np.exp(lin)
    AU = np.asarray(A(model.u), dtype=float)
    event_rows = model._event_rows
    jumps = np.array([A.jump_at(t) for t in model.u[event_rows]])
    active = w[event_rows] > 0
    if np.any(active & (jumps <= 0)):
        raise DegenerateJump("an observed event time has no jump in A")
    log_jump = np.zeros(model.n_records)
    safe = np.where(jumps > 0, jumps, 1.0)
    log_jump[event_rows] = np.where(active, np.log(safe), 0.0)
    terms = model.delta * (lin + log_jump) - (1.0 + model.delta) * np.log1p(q * AU)
    return float(w @ terms)


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

    def to_dict(self):
        return {
            "event_times": self.event_times.tolist(),
            "lhs": self.lhs.tolist(),
            "rhs": self.rhs.tolist(),
            "margins": self.margins.tolist(),
            "satisfied": bool(self.satisfied),
        }


def check_variance_condition(model, beta, A, F=None):
    """Compare E[delta/(1+delta) W^2] with Var(W) at every event time.

    The left side dominating everywhere is the empirical analogue of the
    condition that makes the nuisance operator contract in the sup norm.
    """
    ws = _workspace(model, beta, A, F)
    frac = model.delta / (1.0 + model.delta)
    lhs = ws.suffix_at_events(ws.w * frac * ws.c**2)
    ew2 = ws.suffix_at_events(ws.w * ws.c**2)
    rhs = ew2 - ws.ew**2
    # with no events the left side is identically zero: nothing certifies
    # the contraction, so the report cannot come back satisfied
    satisfied = bool(model.n_events and np.all(lhs > rhs))
    return VarianceConditionReport(model.event_times, lhs, rhs, satisfied)


class PropOddsProfile(Profile):
    """Profile-likelihood view: score and Jacobian of the estimating equation.

    Differentiates the plugged-in log density per record.  The Jacobian of
    the mean score is taken by central differences of the analytic score.
    """

    solve_nuisance = staticmethod(solve_nuisance)

    def __init__(self, model, F=None, solver_tol=1e-10, solver_max_iter=10_000,
                 jacobian_step=1e-5):
        super().__init__(model, F, solver_tol, solver_max_iter)
        self.jacobian_step = jacobian_step

    def score(self, beta):
        """Per-record derivative of the profiled log density, shape (n, p)."""
        model = self.model
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        jumps = self.solve(beta).eta
        A = model.jumps_to_step(jumps)
        derivs = psi_derivatives(model, beta, A, self.weights)
        jump_dot = dtheta_eta(derivs)  # (p, m)
        ws = _Workspace(model, beta, A, self.weights)
        cum_dot = np.cumsum(jump_dot, axis=1)
        padded = np.concatenate([np.zeros((self.dim, 1)), cum_dot], axis=1)
        Adot_u = padded[:, model._record_cut]  # (p, n)
        ratio = np.zeros((self.dim, model.n_records))
        rows = model._event_rows
        slot = model._event_row_slot
        safe = np.where(jumps > 0, jumps, 1.0)
        ratio[:, rows] = jump_dot[:, slot] / safe[slot]
        zT = model.z.T
        hazard = ws.q * (zT * ws.AU + Adot_u) / ws.denom
        score = model.delta * (zT + ratio) - (1.0 + model.delta) * hazard
        return score.T

    def mean_score(self, beta):
        return self.score(beta).T @ self.weights

    def jacobian(self, beta):
        cfg = FdConfig(step=self.jacobian_step, scheme="central")
        return fd_theta(self.mean_score, np.atleast_1d(beta), cfg)

    def precheck(self, beta):
        """Solve at beta and verify the contraction prerequisites."""
        A = self.nuisance(beta)
        report = check_variance_condition(self.model, beta, A, self.weights)
        norm = da_psi_sup_norm(self.model, beta, A, self.weights)
        if not report.satisfied or norm >= 1.0:
            raise ContractionViolation(
                f"variance condition satisfied={report.satisfied}, "
                f"nuisance-derivative sup norm {norm:.4f}"
            )
        return report, norm

    def condition_report(self, beta):
        A = self.nuisance(beta)
        return check_variance_condition(self.model, beta, A, self.weights)


def _fit_payload(profile, beta):
    step = profile.nuisance(beta)
    report = profile.condition_report(beta)
    return {
        "beta_hat": beta.tolist(),
        "jumps": step.jump_sizes.tolist(),
        "nuisance": {
            "jump_times": step.jump_times.tolist(),
            "jumps": step.jump_sizes.tolist(),
        },
        "condition": {
            "satisfied": bool(report.satisfied),
            "min_margin": float(report.margins.min()) if len(report.margins) else None,
        },
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

    def baseline(self, t):
        """True baseline odds function evaluated at t."""
        t = np.asarray(t, dtype=float)
        if self.is_step:
            times = np.asarray(self.baseline_times, dtype=float)
            cum = np.concatenate([[0.0], np.cumsum(self.baseline_jumps)])
            return cum[np.searchsorted(times, t, side="right")]
        return self.baseline_rate * t

    def baseline_step(self):
        """The true baseline as a step function on [0, tau] (step designs)."""
        if not self.is_step:
            raise InvalidInput("the linear design has no exact step representation")
        return StepFunction(self.baseline_times, self.baseline_jumps, self.tau)


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
