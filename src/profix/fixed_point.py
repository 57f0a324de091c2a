"""Accelerated fixed-point iteration for nuisance operator equations.

The nuisance parameter is characterized as the fixed point of an operator
on a finite-dimensional coefficient space.  The solver runs a safeguarded
Anderson iteration (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)
1715-1735): each step extrapolates from the last few residual and image
differences, and falls back to the plain step Psi(eta) whenever the
extrapolation is not to be trusted.  The solve returns the first iterate
whose measured sup-norm residual is within the tolerance, with that
residual; every application of Psi is one iteration.  What the
surrounding theory needs, that Psi contract at its fixed point, is not
read off the iteration: the profile certifies the spectral radius of the
nuisance derivative at every point it solves (``Profile.point``), and
Anderson converges to repelling fixed points too.  The iteration itself
still aborts a run whose residual keeps growing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractionViolation, InvalidInput, NoConvergence

#: Consecutive iterations with a growing residual tolerated before giving up.
VIOLATION_STREAK = 10

#: Residual and image differences the Anderson extrapolation keeps.
ANDERSON_DEPTH = 5

#: Trailing residual ratios averaged into the tail contraction.
TAIL_RATIOS = 3

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


def _sup(vec):
    return float(np.abs(vec).max(initial=0.0))


@dataclass(frozen=True)
class FixedPointProblem:
    """An operator on coefficient vectors of the given dimension; the solver
    measures its residuals in the sup norm, the norm in which the nuisance
    operators are required to contract.  Each family passes its bound
    ``Operator`` as ``apply``."""

    apply: Callable[[np.ndarray], np.ndarray]
    dimension: int


@dataclass
class FixedPointSolution:
    """Solution of eta = Psi(eta) with convergence diagnostics.

    ``eta`` is the iterate whose residual sup|Psi(eta) - eta| was measured
    as ``residual``, the last entry of ``residual_trace``, which holds one
    measured residual per iteration.  ``contraction_estimate`` and
    ``tail_contraction`` are the largest and the trailing (geometric mean
    of the last three) ratios of successive entries of the trace, 0.0 with
    fewer than two.  They measure how fast the accelerated solve converged,
    not the contraction factor of Psi, which the plain iteration's ratios
    would approach; the certificate at the solution is the contraction
    evidence.  ``fallbacks`` counts the steps that took the plain image
    instead of the extrapolation: restarts after a residual that did not
    decrease or a Gram system that could not be solved, and extrapolates
    refused as non-finite or negative.
    """

    eta: np.ndarray
    residual: float
    iterations: int
    fallbacks: int = 0
    residual_trace: list = field(default_factory=list, repr=False)

    @property
    def contraction_estimate(self):
        trace = self.residual_trace
        return max((b / a for a, b in zip(trace, trace[1:])), default=0.0)

    @property
    def tail_contraction(self):
        # the geometric mean of successive ratios telescopes
        trace = self.residual_trace[-TAIL_RATIOS - 1:]
        if len(trace) < 2:
            return 0.0
        return (trace[-1] / trace[0]) ** (1.0 / (len(trace) - 1))

    def diagnostics(self):
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "contraction_estimate": self.contraction_estimate,
            "tail_contraction": self.tail_contraction,
            "fallbacks": self.fallbacks,
            "residual_trace": list(self.residual_trace),
        }


def _acceptable(candidate, g):
    """Finite, and negative nowhere the plain image is not: the nuisance
    operators refuse negative jumps and masses."""
    if not np.isfinite(candidate).all():
        return False
    return not (candidate.min() < 0.0 and np.any((candidate < 0.0) & (g >= 0.0)))


def solve_fixed_point(problem, eta0, tol=DEFAULT_TOL):
    """Solve eta = Psi(eta) by safeguarded Anderson iteration until the
    sup-norm residual drops below tol.

    Each iteration applies Psi once at the current iterate, giving the
    image g and the residual f = g - eta; the first iterate whose residual
    is within tol is the solution.  Otherwise the next iterate extrapolates
    from the last ``ANDERSON_DEPTH`` differences of f and g, stacked as the
    rows of F and G: it is g - G'gamma with (F F')gamma = F f.  F and G
    are kept in place, a new difference overwriting the oldest, and F F'
    gains one row of products per step.  It is the plain image g instead,
    and the history restarts, when the residual did not decrease, when the
    Gram system is singular, or when the extrapolate has a non-finite
    entry or a negative one where g has none.
    ``VIOLATION_STREAK`` consecutive growing residuals abort the run with
    :class:`ContractionViolation`; exhausting the budget of
    ``DEFAULT_MAX_ITER`` iterations, read when called, raises
    :class:`NoConvergence` carrying the best residual.  See
    :class:`FixedPointSolution` for the diagnostics.
    """
    if not tol > 0:
        raise InvalidInput("tolerance must be positive")
    eta = np.asarray(eta0, dtype=float).copy()
    if eta.shape != (problem.dimension,):
        raise InvalidInput(
            f"starting point has dimension {eta.shape}, expected "
            f"({problem.dimension},)"
        )
    # more differences than the dimension make F F' singular by construction
    depth = min(ANDERSON_DEPTH, problem.dimension)
    # the rows of F and G in ring order: of `count` differences since the last
    # restart the first min(count, depth) rows are live; gram holds their F F'
    F, G = np.empty((2, depth, problem.dimension))
    gram = np.empty((depth, depth))
    trace = []
    streak = fallbacks = count = 0
    for iteration in range(1, DEFAULT_MAX_ITER + 1):
        g = np.asarray(problem.apply(eta), dtype=float)
        if g.shape != eta.shape:
            raise InvalidInput("operator changed the coefficient dimension")
        f = g - eta
        diff = _sup(f)
        trace.append(diff)
        if diff <= tol:
            return FixedPointSolution(eta, diff, iteration, fallbacks, trace)
        eta = g
        if iteration > 1:
            candidate = None
            if diff >= trace[-2]:
                streak += 1
                if streak >= VIOLATION_STREAK:
                    raise ContractionViolation(
                        f"the residual grew for {streak} consecutive iterations "
                        f"(last ratio {diff / trace[-2]:.3g}); the operator does "
                        "not contract"
                    )
            else:
                streak = 0
                row = count % depth
                count += 1
                live = min(count, depth)
                rows, new = F[:live], F[row]
                np.subtract(f, f_prev, out=new)
                np.subtract(g, g_prev, out=G[row])
                gram[row, :live] = gram[:live, row] = rows @ new
                try:
                    gamma = np.linalg.solve(gram[:live, :live], rows @ f)
                    candidate = g - gamma @ G[:live]
                except np.linalg.LinAlgError:
                    pass
            if candidate is not None and _acceptable(candidate, g):
                eta = candidate
            else:
                count = 0
                fallbacks += 1
        f_prev, g_prev = f, g
    raise NoConvergence(
        f"no fixed point within {DEFAULT_MAX_ITER} iterations "
        f"(best residual {min(trace):.3g}, tol {tol:.3g})",
        residual=min(trace),
        iterations=DEFAULT_MAX_ITER,
    )

