"""Accelerated fixed-point iteration for nuisance operator equations.

The nuisance parameter is characterized as the fixed point of an operator
on a finite-dimensional coefficient space.  The solver runs a safeguarded
Anderson iteration (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)
1715-1735): each step extrapolates from the last few residual and image
differences, and falls back to the plain step Psi(eta) whenever the
extrapolation is not to be trusted.  What the surrounding theory needs,
that Psi contract at its fixed point, is not read off the iteration: the
profile certifies the spectral radius of the nuisance derivative at every
point it solves (``Profile.point``), and Anderson converges to repelling
fixed points too.  The iteration itself still aborts a run whose residual
keeps growing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractionViolation, InvalidInput, NoConvergence
from .measures import LinearMap

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

    ``contraction_estimate`` and ``tail_contraction`` are the largest and
    the trailing (geometric mean of the last three) ratios of successive
    sup-norm residuals of the accelerated iteration, the last taken after
    convergence.  They measure how fast the solve converged, not the
    contraction factor of Psi, which the plain iteration's ratios would
    approach; the certificate at the solution is the contraction evidence.
    ``fallbacks`` counts the steps that took the plain image instead of the
    extrapolation: restarts after a residual that did not decrease or a
    Gram system that could not be solved, and extrapolates refused as
    non-finite or negative.
    """

    eta: np.ndarray
    residual: float
    iterations: int
    contraction_estimate: float
    tail_contraction: float
    fallbacks: int = 0
    residual_trace: list = field(default_factory=list, repr=False)

    def diagnostics(self):
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "contraction_estimate": self.contraction_estimate,
            "tail_contraction": self.tail_contraction,
            "fallbacks": self.fallbacks,
            "residual_trace": list(self.residual_trace),
        }


def _geometric_mean(values):
    return float(np.prod(values)) ** (1.0 / len(values)) if values else 0.0


class _History:
    """The last residual and image differences in ring buffers, with the
    Gram matrix of the residual differences updated one row at a time.
    More differences than the dimension would make the Gram system
    singular by construction, so the depth never exceeds it."""

    def __init__(self, dim):
        depth = max(min(ANDERSON_DEPTH, dim), 1)
        self.df = np.empty((depth, dim))
        self.dg = np.empty((depth, dim))
        self.gram = np.empty((depth, depth))
        self.size = self.slot = 0

    def clear(self):
        self.size = self.slot = 0

    def push(self, f, f_prev, g, g_prev):
        """Store f - f_prev and g - g_prev in place of the oldest pair."""
        slot, depth = self.slot, len(self.df)
        np.subtract(f, f_prev, out=self.df[slot])
        np.subtract(g, g_prev, out=self.dg[slot])
        self.size = size = min(self.size + 1, depth)
        row = self.df[:size] @ self.df[slot]
        self.gram[slot, :size] = row
        self.gram[:size, slot] = row
        self.slot = (slot + 1) % depth

    def extrapolate(self, f, g):
        """g minus the image differences weighted by the least-squares fit
        of f by the residual differences; None when the Gram system cannot
        be solved."""
        size = self.size
        try:
            gamma = np.linalg.solve(self.gram[:size, :size], self.df[:size] @ f)
        except np.linalg.LinAlgError:
            return None
        return g - gamma @ self.dg[:size]


def _acceptable(candidate, g):
    """Finite, and negative nowhere the plain image is not: the nuisance
    operators refuse negative jumps and masses."""
    if not np.isfinite(candidate).all():
        return False
    return not (candidate.min() < 0.0 and np.any((candidate < 0.0) & (g >= 0.0)))


def solve_fixed_point(problem, eta0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve eta = Psi(eta) by safeguarded Anderson iteration until the
    sup-norm residual drops below tol.

    Each iteration applies Psi once at the current iterate, giving the
    image g and the residual f = g - eta.  The next iterate extrapolates
    from the last ``ANDERSON_DEPTH`` differences of f and g, solving their
    depth x depth Gram system; it is the plain image g instead, and the
    history restarts, when the residual did not decrease, when the Gram
    system is singular, or when the extrapolate has a non-finite entry or
    a negative one where g has none.  At convergence the solution is the
    last image, and one more application measures its residual.
    ``VIOLATION_STREAK`` consecutive growing residuals abort the run with
    :class:`ContractionViolation`; exhausting the iteration budget raises
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
    history = _History(problem.dimension)
    trace = []
    ratios = []
    prev = None  # (residual norm, residual, image) of the last iteration
    streak = fallbacks = 0
    best = np.inf
    for iteration in range(1, max_iter + 1):
        g = np.asarray(problem.apply(eta), dtype=float)
        if g.shape != eta.shape:
            raise InvalidInput("operator changed the coefficient dimension")
        f = g - eta
        diff = _sup(f)
        trace.append(diff)
        best = min(best, diff)
        if diff <= tol:
            residual = _sup(problem.apply(g) - g)
            if prev is not None:
                ratios.append(diff / prev[0])
            if diff > 0.0:
                ratios.append(residual / diff)
            return FixedPointSolution(
                eta=g,
                residual=residual,
                iterations=iteration,
                contraction_estimate=max(ratios, default=0.0),
                tail_contraction=_geometric_mean(ratios[-TAIL_RATIOS:]),
                fallbacks=fallbacks,
                residual_trace=trace,
            )
        eta = g
        if prev is not None:
            ratio = diff / prev[0]
            ratios.append(ratio)
            if ratio >= 1.0:
                streak += 1
                if streak >= VIOLATION_STREAK:
                    raise ContractionViolation(
                        f"the residual grew for {streak} consecutive iterations "
                        f"(last ratio {ratio:.3g}); the operator does not contract"
                    )
                history.clear()
                fallbacks += 1
            else:
                streak = 0
                history.push(f, prev[1], g, prev[2])
                candidate = history.extrapolate(f, g)
                if candidate is not None and _acceptable(candidate, g):
                    eta = candidate
                else:
                    history.clear()
                    fallbacks += 1
        prev = diff, f, g
    raise NoConvergence(
        f"no fixed point within {max_iter} iterations "
        f"(best residual {best:.3g}, tol {tol:.3g})",
        residual=best,
        iterations=max_iter,
    )


def estimate_operator_norm(linear_map, norm="sup"):
    """Exact induced norm of a dense linear map.

    Max absolute row sum for the sup norm, max absolute column sum for L1.
    """
    matrix = linear_map.matrix if isinstance(linear_map, LinearMap) else (
        np.asarray(linear_map, dtype=float)
    )
    if not np.all(np.isfinite(matrix)):
        raise InvalidInput("operator matrix has non-finite entries")
    if norm == "sup":
        return float(np.abs(matrix).sum(axis=1).max())
    if norm == "l1":
        return float(np.abs(matrix).sum(axis=0).max())
    raise InvalidInput(f"unknown norm {norm!r}")
