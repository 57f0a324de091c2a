"""Profile-likelihood point estimation and information-based inference.

The parameter estimate solves the estimating equation "mean profiled
score equals zero" by a damped Newton iteration; the asymptotic variance
is the inverse of the averaged outer product of the per-record scores.
Model specifics enter through a profile object exposing dim, n, weights,
score, mean_score, jacobian, precheck and last_solution.  Both model
families build theirs on :class:`Profile`, and describe themselves to the
command line, the Monte Carlo harness and the audits through one
:class:`Family` record each.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats

from .errors import (
    InvalidInput,
    InvalidState,
    NoConvergence,
    ProfixError,
    SingularInformation,
    SingularJacobian,
)

#: Condition number beyond which the information matrix is declared singular.
INFO_COND_LIMIT = 1e10

MAX_HALVINGS = 20

#: Failures that make a Newton candidate a bad step rather than a bug.
NUMERICAL_FAILURES = (ProfixError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class Family:
    """What the command line, the harness and the audits know of one family.

    The family module's operators are not stored here but looked up through
    :attr:`module` when called.  The harness draws samples with
    ``simulation.gen_<name>``; the population audit is
    ``audits.audit_population_<name>``.  ``audit_rows`` names the audited
    operators as the family module does, in audit order, and lists
    "score_jacobian" where the profile Jacobian is analytic.
    """

    name: str
    model: type
    profile: type
    design: type
    load_csv: Callable  # path -> model
    build: Callable  # the generator's columns -> model
    truth: Callable  # design -> true parameter
    default_start: Callable  # model -> starting point of a fit
    labels: Callable  # model -> parameter labels of the fit table
    fit_payload: Callable  # (profile, theta_hat) -> family fields of the fit JSON
    audit_rows: tuple
    audit_seed_offset: int
    audit_theta: Callable  # model -> parameter the audits run at
    audit_design: object  # design of the audits' synthetic samples

    @property
    def module(self):
        return sys.modules[self.model.__module__]


class Profile:
    """Profile-likelihood view of a sample: the nuisance solved per parameter.

    Solves the family's nuisance fixed point at each requested parameter,
    warm-started from the previous solve, and keeps the last solution.  A
    family's subclass sets ``solve_nuisance`` to its module's solver and
    defines score, mean_score, jacobian and precheck in its own body.
    """

    def __init__(self, model, F=None, solver_tol=1e-10, solver_max_iter=10_000):
        self.model = model
        self.weights = model.resolve_weights(F)
        self.solver_tol = solver_tol
        self.solver_max_iter = solver_max_iter
        self._warm = None
        self.last_solution = None

    @property
    def dim(self):
        return self.model.theta_dim

    @property
    def n(self):
        return self.model.n_obs

    def solve(self, theta):
        sol = self.solve_nuisance(
            self.model, theta, self.weights,
            tol=self.solver_tol, max_iter=self.solver_max_iter, eta0=self._warm,
        )
        self._warm = sol.eta
        self.last_solution = sol
        return sol

    def nuisance(self, theta):
        return self.model.as_nuisance(self.solve(theta).eta)


@dataclass
class FitResult:
    """Point estimate with efficient-information inference."""

    theta_hat: np.ndarray
    info_hat: np.ndarray
    se: np.ndarray
    iterations: int
    converged: bool
    score_norm: float
    n: int
    info_condition: float = np.nan
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "theta_hat": self.theta_hat.tolist(),
            "info_hat": self.info_hat.tolist(),
            "se": self.se.tolist(),
            "iterations": self.iterations,
            "converged": bool(self.converged),
            "score_norm": self.score_norm,
            "n": self.n,
            "info_condition": self.info_condition,
            "diagnostics": self.diagnostics,
        }


def efficient_information(profile, theta):
    """Averaged outer product of per-record scores at theta.

    Raises :class:`SingularInformation` when the matrix is too
    ill-conditioned to trust its inverse.
    """
    scores = profile.score(np.asarray(theta, dtype=float))
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

    Each step re-solves the nuisance fixed point inside the profile; step
    halving accepts only iterates that reduce the sup norm of the mean
    score.  The returned standard errors are inverse-information based.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    if theta.shape != (profile.dim,):
        raise InvalidInput("starting point does not match the parameter dimension")
    if not force:
        profile.precheck(theta)

    score = profile.mean_score(theta)
    norm = _sup(score)
    iterations = 0
    for iterations in range(1, max_newton + 1):
        if norm < tol:
            iterations -= 1
            break
        jac = profile.jacobian(theta)
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

    # the last solve was at theta_hat; efficient_information re-solves warm
    last = profile.last_solution
    info, cond = efficient_information(profile, theta)
    se = np.sqrt(np.diag(np.linalg.inv(info)) / profile.n)
    diagnostics = {}
    if last is not None:
        diagnostics["nuisance"] = {
            "residual": last.residual,
            "iterations": last.iterations,
            "contraction_estimate": last.contraction_estimate,
        }
    return FitResult(
        theta_hat=theta,
        info_hat=info,
        se=se,
        iterations=iterations,
        converged=True,
        score_norm=norm,
        n=profile.n,
        info_condition=cond,
        diagnostics=diagnostics,
    )


def confidence_interval(fit, level=0.95):
    """Per-component normal-theory intervals at the given level."""
    if not fit.converged:
        raise InvalidState("confidence intervals need a converged fit")
    if not 0.0 < level < 1.0:
        raise InvalidInput("level must lie in (0, 1)")
    z = stats.norm.ppf(0.5 * (1.0 + level))
    return [
        (float(t - z * s), float(t + z * s))
        for t, s in zip(fit.theta_hat, fit.se)
    ]
