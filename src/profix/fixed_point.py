"""Contraction iteration for nuisance operator equations.

The nuisance parameter is characterized as the fixed point of an operator
on a finite-dimensional coefficient space.  Plain successive substitution
is used on purpose: its difference ratios double as an estimate of the
local contraction factor, which is the quantity the surrounding theory
needs to be below one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractionViolation, InvalidInput, NoConvergence
from .measures import LinearMap

#: Consecutive non-contracting difference ratios tolerated before giving up.
VIOLATION_STREAK = 10

#: Trailing difference ratios averaged into the tail contraction.
TAIL_RATIOS = 3

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


def vector_norm(vec, norm_kind):
    vec = np.asarray(vec, dtype=float)
    if norm_kind == "sup":
        return float(np.abs(vec).max()) if vec.size else 0.0
    if norm_kind == "l1":
        return float(np.abs(vec).sum())
    raise InvalidInput(f"unknown norm kind {norm_kind!r}")


@dataclass(frozen=True)
class FixedPointProblem:
    """An operator on coefficient vectors together with its ambient norm."""

    apply: Callable[[np.ndarray], np.ndarray]
    dimension: int
    norm_kind: str = "sup"


@dataclass
class FixedPointSolution:
    """Solution of eta = Psi(eta) with convergence diagnostics."""

    eta: np.ndarray
    residual: float
    iterations: int
    contraction_estimate: float
    tail_contraction: float
    residual_trace: list = field(default_factory=list, repr=False)

    def diagnostics(self):
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "contraction_estimate": self.contraction_estimate,
            "tail_contraction": self.tail_contraction,
            "residual_trace": list(self.residual_trace),
        }


def _geometric_mean(values):
    return float(np.prod(values)) ** (1.0 / len(values)) if values else 0.0


def solve_fixed_point(problem, eta0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Iterate eta <- Psi(eta) until the residual norm drops below tol.

    The contraction estimate is the largest ratio of successive difference
    norms seen over the run, the residual taken as the difference after
    the last; a warm start can make an early ratio exceed one in a run that
    converges.  The tail contraction, the geometric mean of the last (at
    most three) ratios, is the rate near the fixed point.  A run whose
    first difference is zero has no ratio and reports 0.0 for both.
    Ten consecutive ratios at or above one abort the run with
    :class:`ContractionViolation`; exhausting the iteration budget raises
    :class:`NoConvergence` carrying the best residual.
    """
    if not tol > 0:
        raise InvalidInput("tolerance must be positive")
    eta = np.asarray(eta0, dtype=float).copy()
    if eta.shape != (problem.dimension,):
        raise InvalidInput(
            f"starting point has dimension {eta.shape}, expected "
            f"({problem.dimension},)"
        )
    norm = problem.norm_kind
    trace = []
    ratios = []
    prev_diff = None
    streak = 0
    best = np.inf
    for iteration in range(1, max_iter + 1):
        nxt = np.asarray(problem.apply(eta), dtype=float)
        if nxt.shape != eta.shape:
            raise InvalidInput("operator changed the coefficient dimension")
        diff = vector_norm(nxt - eta, norm)
        trace.append(diff)
        best = min(best, diff)
        if prev_diff is not None and prev_diff > 0.0:
            ratio = diff / prev_diff
            ratios.append(ratio)
            streak = streak + 1 if ratio >= 1.0 else 0
            if streak >= VIOLATION_STREAK:
                raise ContractionViolation(
                    f"difference ratios stayed >= 1 for {streak} iterations "
                    f"(last ratio {ratio:.3g}); the operator does not contract"
                )
        if diff <= tol:
            eta = nxt
            residual = vector_norm(problem.apply(eta) - eta, norm)
            if diff > 0.0:
                ratios.append(residual / diff)
            return FixedPointSolution(
                eta=eta,
                residual=residual,
                iterations=iteration,
                contraction_estimate=max(ratios, default=0.0),
                tail_contraction=_geometric_mean(ratios[-TAIL_RATIOS:]),
                residual_trace=trace,
            )
        eta = nxt
        prev_diff = diff
    raise NoConvergence(
        f"no fixed point within {max_iter} iterations "
        f"(best residual {best:.3g}, tol {tol:.3g})",
        residual=best,
        iterations=max_iter,
    )


def estimate_operator_norm(linear_map, norm_kind="sup"):
    """Exact induced norm of a dense linear map.

    Max absolute row sum for the sup norm, max absolute column sum for L1.
    """
    matrix = linear_map.matrix if isinstance(linear_map, LinearMap) else (
        np.asarray(linear_map, dtype=float)
    )
    if not np.all(np.isfinite(matrix)):
        raise InvalidInput("operator matrix has non-finite entries")
    if norm_kind == "sup":
        return float(np.abs(matrix).sum(axis=1).max())
    if norm_kind == "l1":
        return float(np.abs(matrix).sum(axis=0).max())
    raise InvalidInput(f"unknown norm kind {norm_kind!r}")
