"""Derivatives of implicitly defined nuisance parameters.

When the nuisance solves eta = Psi(eta), its derivatives in the
finite-dimensional parameter and in the underlying distribution are
resolvent formulas: every one of them is [I - d_eta Psi]^{-1} applied to a
combination of the partial derivatives of Psi at the fixed point.

The formulas read those partials from a derivative bundle, which each
family's ``psi_derivatives(op, eta)`` returns: its workspace at the fixed
point.  The fields read here are

- ``d_eta``, the derivative in the nuisance itself: a dense
  :class:`LinearMap`, or a structured map with ``apply`` and
  ``resolvent_solve``;
- ``dot_psi``, the first parameter derivative, shape (d, m);
- ``ddot_psi``, the second parameter derivative, shape (d, d, m);
- ``d_eta_dot``, one linear map per parameter component for the mixed
  derivative;
- ``d2_eta``, the second nuisance derivative as a :class:`BilinearMap`,
  whose ``pairs`` evaluates it at every pair of a stack of directions;
- ``d_f(h)``, the distribution derivative in direction h as a coefficient
  vector.

``d_eta`` and ``dot_psi`` are built with the bundle; ``ddot_psi``,
``d_eta_dot`` and ``d2_eta`` are built on first read, as only the second
parameter derivative of the fixed point reads them, and only the audits
compute that: the fixed point is stationary in the nuisance, so the
families' Newton Jacobians read the first derivative alone.  A bundle's
``contracts()`` tells whether ``d_eta`` has spectral radius below one; the
profile asks it at every point before the first resolvent solve there.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, SingularResolvent

#: Relative residual above which a resolvent solve is declared singular.
_SOLVE_RESIDUAL_TOL = 1e-6


def resolvent_apply(d_eta, rhs):
    """Solve (I - d_eta) v = rhs and verify the residual.

    A map with a ``resolvent_solve`` of its own (the survival family's
    :class:`MaxIndexMap`) solves in O(m) and is checked through its
    ``apply``; any other map is solved by a dense LU factorization.  rhs
    may be a vector or a matrix of stacked right-hand sides (columns).
    """
    rhs = np.asarray(rhs, dtype=float)
    structured = getattr(d_eta, "resolvent_solve", None)
    try:
        if structured is not None:
            v = structured(rhs)
            check = v - d_eta.apply(v) - rhs
        else:
            M = d_eta.matrix
            system = np.eye(M.shape[0]) - M
            v = np.linalg.solve(system, rhs)
            check = system @ v - rhs
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from exc
    scale = max(float(np.abs(rhs).max(initial=0.0)), 1e-300)
    # written so that a NaN residual fails it
    if not (np.all(np.isfinite(v)) and np.all(np.abs(check) <= _SOLVE_RESIDUAL_TOL * scale)):
        raise SingularResolvent("resolvent solve did not verify; system is singular")
    return v


def dtheta_eta(derivs):
    """First parameter derivative of the fixed point, one row per component."""
    rhs = derivs.dot_psi
    return resolvent_apply(derivs.d_eta, rhs.T).T


def d2theta_eta(derivs, eta_dot):
    """Second parameter derivative of the fixed point, which the audits
    check against difference quotients; no fit computes it.

    Assembles, for every component pair (j, k), the sum of the pure second
    parameter derivative, both mixed parameter/nuisance terms evaluated at
    the first derivative, and the second nuisance derivative at the first
    derivative pair, then applies the resolvent.  The second nuisance
    derivative comes from ``d2_eta.pairs(eta_dot)``, one call for all
    pairs; the right-hand side of each pair j < k is copied onto (k, j),
    so the result is exactly symmetric in (j, k).
    """
    eta_dot = np.asarray(eta_dot, dtype=float)
    d = derivs.dot_psi.shape[0]
    if eta_dot.shape != derivs.dot_psi.shape:
        raise InvalidInput("eta_dot does not match the derivative shapes")
    # mixed[j, k] = d_eta_dot[j] applied to eta_dot[k]
    mixed = np.stack([m.apply(eta_dot.T).T for m in derivs.d_eta_dot])
    rhs = (derivs.ddot_psi + mixed + mixed.transpose(1, 0, 2)
           + derivs.d2_eta.pairs(eta_dot))
    for j in range(d):
        rhs[j + 1:, j] = rhs[j, j + 1:]
    flat = resolvent_apply(derivs.d_eta, rhs.reshape(d * d, -1).T).T
    return flat.reshape(d, d, -1)


def df_eta(derivs, h):
    """Distribution derivative of the fixed point in direction h."""
    return resolvent_apply(derivs.d_eta, derivs.d_f(h))
