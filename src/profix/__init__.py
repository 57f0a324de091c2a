"""Profile likelihood estimation with fixed-point nuisance parameters.

The package solves semiparametric estimation problems in which the
infinite-dimensional nuisance parameter, given the parameter of interest,
maximizes the likelihood as the solution of a fixed-point equation.  It
differentiates those implicit solutions through resolvent formulas, forms
the profiled score and efficient information, and ships two worked model
families (an odds-ratio survival regression and a missing-covariate
mixture), plus finite-difference audits and a Monte Carlo harness that
verify the whole chain numerically.
"""

from . import (
    audits,
    errors,
    estimator,
    fixed_point,
    implicit_diff,
    measures,
    missing_cov,
    numdiff,
    prop_odds,
    simulation,
)
from .estimator import FitResult, confidence_interval, efficient_information, profile_mle
from .fixed_point import (
    FixedPointProblem,
    FixedPointSolution,
    estimate_operator_norm,
    solve_fixed_point,
)
from .implicit_diff import PsiDerivatives, d2theta_eta, df_eta, dtheta_eta, resolvent_apply
from .measures import (
    BilinearMap,
    EmpiricalMeasure,
    GridDensity,
    LinearMap,
    PerturbationDirection,
    StepFunction,
    empirical_from_sample,
)
from .numdiff import FdConfig, fd_path, fd_theta
from .simulation import McReport, SimConfig, gen_missing_cov, gen_prop_odds, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "audits",
    "errors",
    "estimator",
    "fixed_point",
    "implicit_diff",
    "measures",
    "missing_cov",
    "numdiff",
    "prop_odds",
    "simulation",
    "BilinearMap",
    "EmpiricalMeasure",
    "FdConfig",
    "FitResult",
    "FixedPointProblem",
    "FixedPointSolution",
    "GridDensity",
    "LinearMap",
    "McReport",
    "PerturbationDirection",
    "PsiDerivatives",
    "SimConfig",
    "StepFunction",
    "confidence_interval",
    "d2theta_eta",
    "df_eta",
    "dtheta_eta",
    "efficient_information",
    "empirical_from_sample",
    "estimate_operator_norm",
    "fd_path",
    "fd_theta",
    "gen_missing_cov",
    "gen_prop_odds",
    "monte_carlo",
    "profile_mle",
    "resolvent_apply",
    "solve_fixed_point",
]
