"""Derivatives of implicitly defined nuisance parameters.

When the nuisance solves eta = Psi(eta), its derivatives in the
finite-dimensional parameter and in the underlying distribution are
resolvent formulas: every one of them is [I - d_eta Psi]^{-1} applied to a
combination of the partial derivatives of Psi at the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput, SingularResolvent
from .measures import BilinearMap, LinearMap

#: Relative residual above which a dense resolvent solve is declared singular.
_SOLVE_RESIDUAL_TOL = 1e-6


@dataclass
class PsiDerivatives:
    """Partial derivatives of the nuisance operator at a fixed point.

    d_eta is the derivative in the nuisance itself; dot_psi and ddot_psi
    are the first and second parameter derivatives (shapes (d, m) and
    (d, d, m)); d_eta_dot holds one linear map per parameter component for
    the mixed derivative; d2_eta is the second nuisance derivative as a
    bilinear map; d_f maps a distribution perturbation to a coefficient
    vector.
    """

    d_eta: LinearMap
    dot_psi: np.ndarray
    ddot_psi: np.ndarray
    d_eta_dot: Sequence[LinearMap]
    d2_eta: BilinearMap
    d_f: Callable

    @classmethod
    def at(cls, point, dtheta_psi, d_eta_psi, d2_eta_psi, df_psi):
        """Bundle a family's partial derivatives at point = (model, theta, eta, F)."""
        dot, ddot, mixed = dtheta_psi(*point)
        return cls(
            d_eta=d_eta_psi(*point),
            dot_psi=dot,
            ddot_psi=ddot,
            d_eta_dot=mixed,
            d2_eta=d2_eta_psi(*point),
            d_f=lambda h: df_psi(*point, h),
        )

    @property
    def theta_dim(self):
        return self.dot_psi.shape[0]

    @property
    def eta_dim(self):
        return self.dot_psi.shape[1]


def _as_matrix(d_eta):
    return d_eta.matrix if isinstance(d_eta, LinearMap) else np.asarray(d_eta, float)


def resolvent_apply(d_eta, rhs):
    """Solve (I - d_eta) v = rhs by a dense LU factorization.

    rhs may be a vector or a matrix of stacked right-hand sides (columns).
    """
    M = _as_matrix(d_eta)
    rhs = np.asarray(rhs, dtype=float)
    system = np.eye(M.shape[0]) - M
    try:
        v = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from exc
    check = system @ v - rhs
    scale = max(float(np.abs(rhs).max(initial=0.0)), 1e-300)
    if not np.all(np.isfinite(v)) or np.abs(check).max() > _SOLVE_RESIDUAL_TOL * scale:
        raise SingularResolvent("resolvent solve did not verify; system is singular")
    return v


def dtheta_eta(derivs):
    """First parameter derivative of the fixed point, one row per component."""
    rhs = derivs.dot_psi
    return resolvent_apply(derivs.d_eta, rhs.T).T


def d2theta_eta(derivs, eta_dot):
    """Second parameter derivative of the fixed point.

    Assembles, for every component pair (j, k), the sum of the pure second
    parameter derivative, both mixed parameter/nuisance terms evaluated at
    the first derivative, and the second nuisance derivative at the first
    derivative pair, then applies the resolvent.  The result is symmetric
    in (j, k) up to roundoff.
    """
    eta_dot = np.asarray(eta_dot, dtype=float)
    d = derivs.theta_dim
    if eta_dot.shape != (d, derivs.eta_dim):
        raise InvalidInput("eta_dot does not match the derivative shapes")
    mixed = [derivs.d_eta_dot[j].apply(eta_dot.T) for j in range(d)]
    rhs = np.empty((d, d, derivs.eta_dim))
    for j in range(d):
        for k in range(j, d):
            total = (
                derivs.ddot_psi[j, k]
                + mixed[j][:, k]
                + mixed[k][:, j]
                + derivs.d2_eta.apply(eta_dot[j], eta_dot[k])
            )
            rhs[j, k] = total
            rhs[k, j] = total
    flat = resolvent_apply(derivs.d_eta, rhs.reshape(d * d, -1).T).T
    return flat.reshape(d, d, -1)


def df_eta(derivs, h):
    """Distribution derivative of the fixed point in direction h."""
    return resolvent_apply(derivs.d_eta, derivs.d_f(h))
