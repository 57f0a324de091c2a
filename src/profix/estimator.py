"""Profile-likelihood point estimation and information-based inference.

The parameter estimate solves the estimating equation "mean profiled
score equals zero" by a damped Newton iteration; the asymptotic variance
is the inverse of the averaged outer product of the per-record scores.
Model specifics enter through a profile object exposing dim, n, weights,
score, mean_score, jacobian, precheck, last_point and the solve counters
solves, solve_iterations and solves_started: each score call records the
:class:`Point` it evaluated, and the Newton Jacobian and the information
read the accepted point instead of solving again.  Both model families build
theirs on :class:`Profile`, and describe themselves to the command line,
the Monte Carlo harness and the audits through one :class:`Family`
record each.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import (
    ContractionViolation,
    InvalidInput,
    NoConvergence,
    ProfixError,
    SingularInformation,
    SingularJacobian,
)
from .implicit_diff import dtheta_eta

#: Condition number beyond which the information matrix is declared singular.
INFO_COND_LIMIT = 1e10

MAX_HALVINGS = 20

#: Confidence level of an interval when none is given, ``profix fit``'s too.
LEVEL = 0.95

#: Failures that make a Newton candidate a bad step rather than a bug.
NUMERICAL_FAILURES = (ProfixError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class Family:
    """What the command line, the harness and the audits know of one family.

    The family module's ``Operator``, ``solve_nuisance`` and
    ``psi_derivatives`` are not stored here but looked up through
    :attr:`module` when called; the solve, the bundle and the audits share
    one operator bound per point.  The harness draws samples with
    ``simulation.gen_<name>``; the population audit is
    ``audits.POPULATION_AUDITS[name]``.  ``audit_rows`` labels the audit
    rows of the bundle's nuisance, second nuisance and parameter
    derivatives, in audit order.
    """

    name: str
    profile: type
    design: type
    load_csv: Callable  # path -> model
    build: Callable  # the generator's columns -> model
    truth: Callable  # design -> true parameter
    default_start: Callable  # model -> starting point of a fit
    labels: Callable  # model -> parameter labels of the fit table
    fit_payload: Callable  # (fitted profile, theta_hat) -> the family's top-level fit JSON keys
    audit_rows: tuple
    audit_seed_offset: int
    audit_theta: Callable  # model -> parameter the audits run at
    audit_design: object  # design of the audits' synthetic samples

    @property
    def module(self):
        return sys.modules[self.profile.__module__]


@dataclass(frozen=True)
class Point:
    """One evaluation of a profile at theta: the nuisance fixed point's
    ``FixedPointSolution``, the derivative bundle there (the family's
    workspace, whose fields :mod:`implicit_diff` names), the fixed point's
    implicit derivative eta_dot and the per-record scores.  The fixed point
    is stationary in the nuisance, so the Newton Jacobian reads eta_dot
    alone and no point computes the second implicit derivative."""

    theta: np.ndarray
    solution: object
    derivs: object
    eta_dot: np.ndarray
    scores: np.ndarray


class Profile:
    """Profile-likelihood view of a sample: the nuisance solved per parameter.

    The records weigh as ``model.weights``: a weighted sample is a weighted model.

    :meth:`point` binds the family's ``Operator`` once at a parameter, solves
    its fixed point to solver_tol (within ``fixed_point.DEFAULT_MAX_ITER``
    iterations), builds the derivative bundle from the same operator,
    certifies there that the nuisance derivative has spectral radius below
    one and evaluates the scores, recording the point as last_point, from
    which jacobian reads.  Each solve starts from the Taylor prediction
    off last_point and the point before it (see :meth:`start`), adds one to
    ``solves_started`` (a bind that raises included) and, if it completes,
    one to ``solves`` and its iterations to ``solve_iterations``.  A
    family's subclass supplies ``point_scores`` and precheck, and defines
    score, mean_score and jacobian in its own body, where
    ``bench/tracing.py`` wraps them.  The fixed point is stationary in the
    nuisance: the log-likelihood l has l_eta[eta_dot] = 0 along the whole
    path (the mixture's eta_dot has zero total, the direction its l_eta
    vanishes on), so the Jacobian of the mean score is the envelope form
    l_theta,theta + l_theta,eta[eta_dot], and a point does one resolvent
    solve, for eta_dot.
    """

    def __init__(self, model, solver_tol=1e-10):
        self.model = model
        self.weights = model.weights
        self.solver_tol = solver_tol
        self.last_point = None
        # (theta, eta_dot) of the point evaluated before last_point
        self.previous = None
        self.solves = 0
        self.solve_iterations = 0
        self.solves_started = 0

    @property
    def module(self):
        """The family module, where Operator, solve_nuisance and
        psi_derivatives are looked up when called."""
        return sys.modules[type(self.model).__module__]

    @property
    def dim(self):
        return self.model.theta_dim

    @property
    def n(self):
        return self.model.n_obs

    def start(self, theta):
        """Starting nuisance of the solve at theta, None for the family's own.

        The nuisance is differentiable in theta, so from last_point the start
        is the first-order prediction eta + s eta_dot, s = theta - point.theta,
        plus the secant second-order term (s.d / d.d) s (eta_dot - eta_dot_prev) / 2
        off the point before, at point.theta - d, d nonzero.  A prediction
        with a negative or non-finite entry, which the operator would refuse,
        falls back to the point's eta.
        """
        point = self.last_point
        if point is None:
            return None
        eta, step = point.solution.eta, theta - point.theta
        guess = eta + step @ point.eta_dot
        if self.previous is not None:
            d = point.theta - self.previous[0]
            dd = d @ d
            if dd > 0.0:
                curve = step @ (point.eta_dot - self.previous[1])
                guess += 0.5 * (step @ d) / dd * curve
        # a NaN fails both bounds
        if not (guess.min(initial=np.inf) >= 0.0 and guess.max(initial=0.0) < np.inf):
            return eta
        return guess

    def solve(self, theta):
        """The family's operator bound at theta, and its fixed point."""
        self.solves_started += 1
        op = self.module.Operator(self.model, theta)
        sol = self.module.solve_nuisance(op, tol=self.solver_tol, eta0=self.start(theta))
        self.solves += 1
        self.solve_iterations += sol.iterations
        return op, sol

    def point(self, theta):
        """Solve at theta, evaluate the :class:`Point` there and record it
        as last_point; a failed evaluation leaves last_point as it was.

        The accelerated solve can converge to a fixed point at which Psi
        does not contract, so a point whose bundle does not certify that
        the nuisance derivative has spectral radius below one (its
        ``contracts()``) raises :class:`ContractionViolation`, before any
        resolvent solve."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        op, solution = self.solve(theta)
        derivs = self.module.psi_derivatives(op, solution.eta)
        if not derivs.contracts():
            raise ContractionViolation(
                "I - d_eta Psi is not positive definite at the fixed point: the "
                "nuisance derivative has spectral radius >= 1"
            )
        eta_dot = dtheta_eta(derivs)
        scores = self.point_scores(solution.eta, derivs, eta_dot)
        if self.last_point is not None:
            self.previous = self.last_point.theta, self.last_point.eta_dot
        self.last_point = Point(theta, solution, derivs, eta_dot, scores)
        return self.last_point


@dataclass
class FitResult:
    """Point estimate with efficient-information inference."""

    theta_hat: np.ndarray
    info_hat: np.ndarray
    se: np.ndarray
    iterations: int
    score_norm: float
    n: int
    info_condition: float = np.nan
    diagnostics: dict = field(default_factory=dict)


def plain_fields(record):
    """The fields of a dataclass record as JSON values, arrays as lists."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in values.items()}


def to_json(data):
    """The text of a fit or study JSON file: keys sorted, so the bytes do
    not depend on the order in which the keys were added."""
    return json.dumps(data, sort_keys=True, indent=2)


def efficient_information(profile, point):
    """Averaged outer product of the per-record scores of a point.

    Raises :class:`SingularInformation` when the matrix is too
    ill-conditioned to trust its inverse.
    """
    scores = point.scores
    info = scores.T @ (profile.weights[:, None] * scores)
    info = 0.5 * (info + info.T)
    cond = float(np.linalg.cond(info))
    if not np.isfinite(cond) or cond > INFO_COND_LIMIT:
        raise SingularInformation(
            f"information matrix condition number {cond:.3g} exceeds "
            f"{INFO_COND_LIMIT:.0e}"
        )
    return info, cond


def _sup(v):
    return float(np.abs(v).max())


def profile_mle(profile, theta0, tol=1e-8, max_newton=50, force=False):
    """Damped Newton solve of the profiled estimating equation.

    Each candidate is one evaluation point of the profile; step halving
    accepts only candidates that reduce the sup norm of the mean score, and
    the Jacobian of each step and the information at the estimate are read
    from the accepted point.  The returned standard errors are
    inverse-information based.  The diagnostics hold the nuisance solve at
    the estimate and, under "nuisance_solves", the count and total
    iterations of the fit's completed nuisance solves, the number it
    started, and the number of those that raised, started minus count.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidInput("tolerance must be finite and positive")
    if max_newton < 0:
        raise InvalidInput("max_newton must be nonnegative")
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    if theta.shape != (profile.dim,):
        raise InvalidInput("starting point does not match the parameter dimension")
    solves, solve_iterations = profile.solves, profile.solve_iterations
    started = profile.solves_started
    if not force:
        profile.precheck(theta)

    score = profile.mean_score(theta)
    point = profile.last_point
    norm = _sup(score)
    iterations = 0
    for iterations in range(1, max_newton + 1):
        if norm < tol:
            iterations -= 1
            break
        jac = profile.jacobian(point)
        try:
            step = np.linalg.solve(jac, score)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Newton step is not finite")
        lam = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta - lam * step
            try:
                cand_score = profile.mean_score(candidate)
                cand_norm = _sup(cand_score)
            except NUMERICAL_FAILURES:
                cand_norm = np.inf
            if cand_norm < norm:
                theta, score, norm = candidate, cand_score, cand_norm
                point = profile.last_point
                break
            lam /= 2.0
        else:
            raise NoConvergence(
                f"no score-reducing step after {MAX_HALVINGS} halvings "
                f"(score norm {norm:.3g})",
                residual=norm,
                iterations=iterations,
            )
    else:
        # budget exhausted; the final accepted step may still have landed
        if norm >= tol:
            raise NoConvergence(
                f"estimating equation not solved in {max_newton} Newton steps "
                f"(score norm {norm:.3g})",
                residual=norm,
                iterations=max_newton,
            )

    info, cond = efficient_information(profile, point)
    se = np.sqrt(np.diag(np.linalg.inv(info)) / profile.n)
    nuisance = point.solution.diagnostics()
    del nuisance["residual_trace"]
    count, started = profile.solves - solves, profile.solves_started - started
    return FitResult(
        theta_hat=theta,
        info_hat=info,
        se=se,
        iterations=iterations,
        score_norm=norm,
        n=profile.n,
        info_condition=cond,
        diagnostics={
            "nuisance": nuisance,
            "nuisance_solves": {
                "count": count,
                "iterations": profile.solve_iterations - solve_iterations,
                "started": started,
                "failed": started - count,
            },
        },
    )


def check_level(level):
    """Refuse a confidence level outside (0, 1), NaN included."""
    if not 0.0 < level < 1.0:
        raise InvalidInput("level must lie in (0, 1)")


def confidence_interval(fit, level=LEVEL):
    """Per-component normal-theory intervals at the given level."""
    check_level(level)
    z = _ndtri(0.5 * (1.0 + level))
    return [
        (float(t - z * s), float(t + z * s))
        for t, s in zip(fit.theta_hat, fit.se)
    ]


# Coefficients of the rational approximations of cephes ndtri: P0/Q0 for
# |p - 1/2| <= 1/2 - exp(-2), then P1/Q1 and P2/Q2 in 1/sqrt(-2 log p) for
# sqrt(-2 log p) below and above 8.  Q's leading coefficient is one.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x, coef, monic=False):
    """Horner's rule on coef, highest power first, after an implied leading
    one when monic: cephes polevl and p1evl, operation for operation."""
    value = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def _ndtri(p):
    """The standard normal quantile: cephes ndtri, the quantile the usual
    numerical libraries evaluate, ported in the same floating-point
    operations, so it returns the same bits.  Outside [0, 1] it is NaN."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, monic=True))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p_tail, q_tail = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p_tail) / _polevl(z, q_tail, monic=True)
    return x if upper else -x
