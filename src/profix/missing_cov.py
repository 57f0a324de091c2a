"""Continuous outcome with a sometimes-missing covariate.

Complete records carry (y, x); incomplete records carry only y.  The
covariate distribution is treated as probability masses on the observed
complete-case values, and its likelihood maximizer given the regression
parameter solves a self-consistency equation: each mass equals the
complete-case mass at that point divided by one minus the incomplete-case
average of the conditional-to-mixture density ratio.  This module
implements the operator, its derivatives, the log density and efficient
score machinery, and quadrature-based population versions of all checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionViolation,
    DenominatorCollapse,
    InvalidInput,
    SupportViolation,
)
from .estimator import Family, Profile
from .fixed_point import FixedPointProblem, solve_fixed_point
from .implicit_diff import PsiDerivatives, d2theta_eta, dtheta_eta
from .measures import (
    BilinearMap,
    EmpiricalMeasure,
    GridDensity,
    LinearMap,
    RecordTable,
    TwoSampleMeasure,
    gauss_legendre_grid,
    parse_number,
    read_csv,
)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class ConditionalDensity:
    """Parametric conditional density of the outcome given the covariate.

    Implementations provide the density and its first two parameter
    derivatives, all broadcasting over (y, x) arrays.
    """

    dim = 0

    def density(self, y, x, theta):
        raise NotImplementedError

    def dtheta(self, y, x, theta):
        raise NotImplementedError

    def d2theta(self, y, x, theta):
        raise NotImplementedError

    def outcome_interval(self, x, theta, span=8.0):
        """Interval carrying essentially all mass of y given x."""
        raise NotImplementedError

    def normalization_error(self, xs, theta, n_nodes=200, span=10.0):
        """Max over xs of |integral of the density in y minus one|."""
        worst = 0.0
        for x in np.atleast_1d(xs):
            lo, hi = self.outcome_interval(x, theta, span)
            nodes, weights = gauss_legendre_grid(lo, hi, n_nodes)
            worst = max(worst, abs(float(weights @ self.density(nodes, x, theta)) - 1.0))
        return worst


class NormalRegression(ConditionalDensity):
    """y | x ~ Normal(theta0 + theta1 x, exp(2 theta2))."""

    dim = 3

    def _moments(self, y, x, theta):
        mu = theta[0] + theta[1] * np.asarray(x, dtype=float)
        sigma = np.exp(theta[2])
        r = (np.asarray(y, dtype=float) - mu) / sigma
        return sigma, r

    def density(self, y, x, theta):
        sigma, r = self._moments(y, x, theta)
        return np.exp(-0.5 * r * r) / (sigma * _SQRT_2PI)

    def _log_score(self, y, x, theta):
        sigma, r = self._moments(y, x, theta)
        x = np.asarray(x, dtype=float)
        s0 = r / sigma
        s1 = r * x / sigma
        s2 = r * r - 1.0
        return sigma, r, np.stack(np.broadcast_arrays(s0, s1, s2))

    def dtheta(self, y, x, theta):
        _, _, s = self._log_score(y, x, theta)
        return self.density(y, x, theta) * s

    def d2theta(self, y, x, theta):
        sigma, r, s = self._log_score(y, x, theta)
        x = np.asarray(x, dtype=float)
        h00 = -1.0 / sigma**2
        h01 = -x / sigma**2
        h02 = -2.0 * r / sigma
        h11 = -(x * x) / sigma**2
        h12 = -2.0 * r * x / sigma
        h22 = -2.0 * r * r
        rows = [[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]]
        hess = np.stack(
            [np.stack(np.broadcast_arrays(*row)) for row in rows]
        )
        outer = np.einsum("a...,b...->ab...", s, s)
        return self.density(y, x, theta) * (outer + hess)

    def outcome_interval(self, x, theta, span=8.0):
        mu = theta[0] + theta[1] * float(x)
        sigma = np.exp(theta[2])
        return mu - span * sigma, mu + span * sigma


@dataclass(frozen=True)
class MissingCovRecord:
    """One observation: r = 1 when x is observed, 2 when it is missing."""

    r: int
    y: float
    x: float | None = None

    def __post_init__(self):
        if self.r not in (1, 2):
            raise InvalidInput("r must be 1 (complete) or 2 (incomplete)")
        if (self.r == 1) != (self.x is not None):
            raise InvalidInput("x must be present exactly when r = 1")


class MissingCovModel(RecordTable):
    """Sample with sometimes-missing covariate plus its mass-point support.

    The atom table stores rows (r, y, x_or_zero); the covariate support is
    the set of distinct complete-case x values.
    """

    def __init__(self, measure: EmpiricalMeasure, family: ConditionalDensity,
                 n_obs=None):
        points = measure.points
        if points.ndim != 2 or points.shape[1] != 3:
            raise InvalidInput("records need columns (r, y, x)")
        super().__init__(measure, n_obs)
        self.family = family
        r = points[:, 0]
        if not np.all((r == 1) | (r == 2)):
            raise InvalidInput("r must be 1 or 2")
        self.r = r
        self.y = points[:, 1]
        self.complete_rows = np.flatnonzero(r == 1)
        self.incomplete_rows = np.flatnonzero(r == 2)
        if len(self.complete_rows) == 0:
            raise InvalidInput("need at least one complete record")
        self.x_complete = points[self.complete_rows, 2]
        self.support = np.unique(self.x_complete)
        self.slot = np.searchsorted(self.support, self.x_complete)
        self.y_incomplete = self.y[self.incomplete_rows]

    @property
    def n_support(self):
        return len(self.support)

    @property
    def theta_dim(self):
        return self.family.dim

    @classmethod
    def from_arrays(cls, r, y, x, family, weights=None, normalize=True):
        r = np.asarray(r, dtype=float)
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        xfill = np.where(r == 1, x, 0.0)
        points = np.column_stack([r, y, xfill])
        measure = cls.sample_measure(points, weights, normalize)
        return cls(measure, family, n_obs=len(r))

    def joined(self, other, measure):
        """Model on a record table holding this sample and other's."""
        return MissingCovModel(measure, self.family)

    def resolve_masses(self, g):
        if isinstance(g, GridDensity):
            if not np.array_equal(g.support, self.support):
                raise InvalidInput("density support does not match the model")
            return g.masses
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n_support,):
            raise InvalidInput("mass vector does not match the support size")
        return g

    def masses_to_density(self, masses):
        return GridDensity(self.support, masses, kind="pmf")

    as_nuisance = masses_to_density

    def two_sample(self, F=None):
        """The (complete, incomplete) split of a weight vector as measures."""
        w = self.resolve_weights(F)
        complete = EmpiricalMeasure(
            np.column_stack([self.y[self.complete_rows],
                             self.points[self.complete_rows, 2]]),
            w[self.complete_rows],
        )
        if len(self.incomplete_rows):
            incomplete = EmpiricalMeasure(
                self.y_incomplete, w[self.incomplete_rows]
            )
        else:
            incomplete = EmpiricalMeasure(np.zeros((0,)), np.zeros((0,)))
        return TwoSampleMeasure(complete, incomplete)


def _parse_row(row, where):
    r = parse_number(int, row[0], where, 1)
    y = parse_number(float, row[1], where, 2)
    text_x = row[2].strip()
    if r == 1:
        if not text_x:
            raise InvalidInput(f"{where}, column 3: X required when R=1")
        x = parse_number(float, text_x, where, 3)
    elif r == 2:
        if text_x:
            raise InvalidInput(f"{where}, column 3: X must be blank when R=2")
        x = 0.0
    else:
        raise InvalidInput(f"{where}, column 1: R must be 1 or 2")
    return (float(r), y, x)


def load_csv(path, family=None):
    """Read records from a CSV with columns R, Y, X (X blank when R = 2)."""
    family = family or NormalRegression()
    data = read_csv(path, "R,Y,X", lambda names: names == ["R", "Y", "X"],
                    _parse_row)
    return MissingCovModel.from_arrays(data[:, 0], data[:, 1], data[:, 2], family)


class _Workspace:
    """Per-(theta, g, weights) caches shared by the operator derivatives."""

    def __init__(self, model, theta, g, w):
        self.model = model
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (model.theta_dim,):
            raise InvalidInput("theta does not match the family dimension")
        self.theta = theta
        self.g = model.resolve_masses(g)
        self.w = w
        self.p1 = np.zeros(model.n_support)
        np.add.at(self.p1, model.slot, w[model.complete_rows])
        self.nu = w[model.incomplete_rows]
        self.w1 = float(w[model.complete_rows].sum())
        self.w2 = float(self.nu.sum())
        y2 = model.y_incomplete[:, None]
        xs = model.support[None, :]
        self.fmat = model.family.density(y2, xs, theta)
        self.fy = self.fmat @ self.g
        if np.any(self.fy <= 0.0):
            # an incomplete-case outcome outside the support of the fitted
            # mixture is reported, never trimmed
            raise SupportViolation(
                "mixture density vanished at an incomplete-case outcome"
            )
        self.a = 1.0 - (self.nu / self.fy) @ self.fmat
        self._fdot = None
        self._fddot = None

    @property
    def fdot(self):
        if self._fdot is None:
            y2 = self.model.y_incomplete[:, None]
            xs = self.model.support[None, :]
            self._fdot = self.model.family.dtheta(y2, xs, self.theta)
        return self._fdot

    @property
    def fddot(self):
        if self._fddot is None:
            y2 = self.model.y_incomplete[:, None]
            xs = self.model.support[None, :]
            self._fddot = self.model.family.d2theta(y2, xs, self.theta)
        return self._fddot

    def require_positive_denominator(self):
        if np.any(self.a <= 0.0):
            raise DenominatorCollapse(
                "self-consistency denominator dropped to zero or below"
            )

    def dg_a_matrix(self):
        return self.fmat.T @ (self.fmat * (self.nu / self.fy**2)[:, None])


def _workspace(model, theta, g, F):
    return _Workspace(model, theta, g, model.resolve_weights(F))


def psi_apply(model, theta, g, F=None):
    """One application of the self-consistency operator; not renormalized."""
    return model.masses_to_density(psi_masses(model, theta, g, F))


def psi_masses(model, theta, masses, F=None):
    """The operator on mass vectors, the map the fixed-point iteration runs."""
    ws = _workspace(model, theta, masses, F)
    ws.require_positive_denominator()
    return ws.p1 / ws.a


def fixed_point_problem(model, theta, F=None, norm_kind="sup"):
    return FixedPointProblem(
        apply=lambda v: psi_masses(model, theta, v, F),
        dimension=model.n_support,
        norm_kind=norm_kind,
    )


def solve_nuisance(model, theta, F=None, tol=1e-10, max_iter=10_000, eta0=None):
    """Solve for the covariate masses at the given theta."""
    if eta0 is None:
        w = model.resolve_weights(F)
        p1 = np.zeros(model.n_support)
        np.add.at(p1, model.slot, w[model.complete_rows])
        total = p1.sum()
        if total <= 0:
            raise InvalidInput("no complete-case mass to start from")
        eta0 = p1 / total
    problem = fixed_point_problem(model, theta, F)
    return solve_fixed_point(problem, eta0, tol=tol, max_iter=max_iter)


def dg_psi(model, theta, g, F=None):
    """Derivative of the operator in the covariate masses."""
    ws = _workspace(model, theta, g, F)
    ws.require_positive_denominator()
    return LinearMap(-(ws.p1 / ws.a**2)[:, None] * ws.dg_a_matrix())


def d2g_psi(model, theta, g, F=None):
    """Second derivative in the covariate masses as a bilinear map."""
    ws = _workspace(model, theta, g, F)
    ws.require_positive_denominator()

    def apply(h1, h2):
        u1 = ws.fmat @ h1
        u2 = ws.fmat @ h2
        d2a = -2.0 * (ws.fmat.T @ (ws.nu * u1 * u2 / ws.fy**3))
        da1 = ws.fmat.T @ (ws.nu * u1 / ws.fy**2)
        da2 = ws.fmat.T @ (ws.nu * u2 / ws.fy**2)
        return ws.p1 * (-d2a / ws.a**2 + 2.0 * da1 * da2 / ws.a**3)

    return BilinearMap(apply, model.n_support)


def dtheta_psi(model, theta, g, F=None):
    """First and second parameter derivatives and the mixed derivative.

    Returns (dot, ddot, mixed) with shapes (d, m), (d, d, m) and one
    mass-coordinate linear map per parameter component.
    """
    ws = _workspace(model, theta, g, F)
    ws.require_positive_denominator()
    d, m = model.theta_dim, model.n_support
    fmat, fy, nu, g_m = ws.fmat, ws.fy, ws.nu, ws.g
    fdot = ws.fdot
    fydot = fdot @ g_m  # (d, n2)

    adot = np.empty((d, m))
    for a_i in range(d):
        adot[a_i] = -(
            (nu / fy) @ fdot[a_i] - fmat.T @ (nu * fydot[a_i] / fy**2)
        )
    dot = -ws.p1 * adot / ws.a**2

    fddot = ws.fddot
    addot = np.empty((d, d, m))
    for a_i in range(d):
        for b_i in range(a_i, d):
            fyddot = fddot[a_i, b_i] @ g_m
            term = (
                (nu / fy) @ fddot[a_i, b_i]
                - fmat.T @ (nu * fyddot / fy**2)
                + 2.0 * (fmat.T @ (nu * fydot[a_i] * fydot[b_i] / fy**3))
                - fdot[a_i].T @ (nu * fydot[b_i] / fy**2)
                - fdot[b_i].T @ (nu * fydot[a_i] / fy**2)
            )
            addot[a_i, b_i] = -term
            addot[b_i, a_i] = -term
    ddot = -ws.p1 * (ws.a * addot - 2.0 * adot[:, None, :] * adot[None, :, :]) / ws.a**3

    dga = ws.dg_a_matrix()
    mixed = []
    for a_i in range(d):
        dga_dot = (
            fdot[a_i].T @ (fmat * (nu / fy**2)[:, None])
            + fmat.T @ (fdot[a_i] * (nu / fy**2)[:, None])
            - 2.0 * (fmat.T @ (fmat * (nu * fydot[a_i] / fy**3)[:, None]))
        )
        mat = -ws.p1[:, None] * (
            dga_dot / (ws.a**2)[:, None]
            - 2.0 * (adot[a_i] / ws.a**3)[:, None] * dga
        )
        mixed.append(LinearMap(mat))
    return dot, ddot, tuple(mixed)


def df_psi(model, theta, g, F=None, h=None):
    """Derivative of the operator in the distribution, in direction h."""
    ws = _workspace(model, theta, g, F)
    ws.require_positive_denominator()
    hw = model.resolve_direction(h)
    dp1 = np.zeros(model.n_support)
    np.add.at(dp1, model.slot, hw[model.complete_rows])
    hnu = hw[model.incomplete_rows]
    second = ws.fmat.T @ (hnu / ws.fy)
    return (dp1 * ws.a + ws.p1 * second) / ws.a**2


def psi_derivatives(model, theta, g, F=None):
    """All operator derivatives at (theta, g, F), bundled for resolvent use."""
    return PsiDerivatives.at((model, theta, g, F), dtheta_psi, dg_psi, d2g_psi, df_psi)


def log_density(record, theta, g, family=None):
    """Log density of one record under (theta, g).

    Complete records contribute log f(y|x) + log g(x); incomplete ones the
    log of the mixture density of y.
    """
    family = family or NormalRegression()
    theta = np.asarray(theta, dtype=float)
    if not isinstance(g, GridDensity):
        raise InvalidInput("g must be a GridDensity")
    if record.r == 1:
        mass = g.mass_at(record.x)
        if mass <= 0.0:
            raise SupportViolation(
                f"complete-case x={record.x} carries no mass"
            )
        f = float(family.density(record.y, record.x, theta))
        return float(np.log(f) + np.log(mass))
    fy = float(family.density(record.y, g.support, theta) @ g.masses)
    if fy <= 0.0:
        raise SupportViolation("mixture density vanished at the record outcome")
    return float(np.log(fy))


def _complete_case(model, theta, g):
    """Complete-record rows, outcomes, covariates, densities and masses."""
    rows = model.complete_rows
    yc = model.y[rows]
    xc = model.points[rows, 2]
    fc = model.family.density(yc, xc, theta)
    if np.any(fc <= 0.0):
        raise SupportViolation("conditional density vanished at a complete record")
    g_at = g[model.slot]
    if np.any(g_at <= 0.0):
        raise SupportViolation("complete-case x carries no mass")
    return rows, yc, xc, fc, g_at


def efficient_score(model, theta, F=None, g=None, eta_dot=None):
    """Per-record parameter score of the profiled log density, shape (n, d).

    g and eta_dot default to the fixed point at (theta, F) and its
    parameter derivative.
    """
    theta = np.asarray(theta, dtype=float)
    if g is None:
        g = solve_nuisance(model, theta, F).eta
    g = model.resolve_masses(g)
    if eta_dot is None:
        eta_dot = dtheta_eta(psi_derivatives(model, theta, g, F))
    ws = _workspace(model, theta, g, F)
    d = model.theta_dim
    out = np.zeros((model.n_records, d))

    rows, yc, xc, fc, g_at = _complete_case(model, theta, g)
    fdot_c = model.family.dtheta(yc, xc, theta)
    out[rows] = (fdot_c / fc + eta_dot[:, model.slot] / g_at).T

    if len(model.incomplete_rows):
        fydot = ws.fdot @ g  # (d, n2)
        mix_dot = eta_dot @ ws.fmat.T  # (d, n2)
        out[model.incomplete_rows] = ((fydot + mix_dot) / ws.fy).T
    return out


def score_jacobian(model, theta, F=None, g=None, eta_dot=None, eta_ddot=None):
    """Per-record parameter Jacobian of the score, shape (n, d, d).

    Defaults re-solve the fixed point and both implicit derivatives at
    (theta, F).  Each record's matrix is symmetric up to roundoff.
    """
    theta = np.asarray(theta, dtype=float)
    if g is None:
        g = solve_nuisance(model, theta, F).eta
    g = model.resolve_masses(g)
    derivs = None
    if eta_dot is None or eta_ddot is None:
        derivs = psi_derivatives(model, theta, g, F)
    if eta_dot is None:
        eta_dot = dtheta_eta(derivs)
    if eta_ddot is None:
        eta_ddot = d2theta_eta(derivs, eta_dot)
    ws = _workspace(model, theta, g, F)
    d = model.theta_dim
    out = np.zeros((model.n_records, d, d))

    rows, yc, xc, fc, g_at = _complete_case(model, theta, g)
    fdot_c = model.family.dtheta(yc, xc, theta)
    fddot_c = model.family.d2theta(yc, xc, theta)
    gdot_at = eta_dot[:, model.slot]
    gddot_at = eta_ddot[:, :, model.slot]
    score_c = fdot_c / fc
    out[rows] = (
        fddot_c / fc
        - np.einsum("ai,bi->abi", score_c, score_c)
        + gddot_at / g_at
        - np.einsum("ai,bi->abi", gdot_at / g_at, gdot_at / g_at)
    ).transpose(2, 0, 1)

    if len(model.incomplete_rows):
        fy = ws.fy
        fydot = ws.fdot @ g  # (d, n2)
        fyddot = np.einsum("ablj,j->abl", ws.fddot, g)
        mix_dot = eta_dot @ ws.fmat.T  # (d, n2): d_g f_Y(gdot)
        cross = np.einsum("alj,bj->abl", ws.fdot, eta_dot)  # d_g fdot_Y(gdot)
        mix_ddot = np.einsum("abj,lj->abl", eta_ddot, ws.fmat)
        num_dot = fydot + mix_dot
        out[model.incomplete_rows] = (
            (fyddot + cross + cross.transpose(1, 0, 2) + mix_ddot) / fy
            - np.einsum("al,bl->abl", num_dot, num_dot) / fy**2
        ).transpose(2, 0, 1)
    return out


@dataclass
class MissingFractionReport:
    """Complete/incomplete mass split and whether the contraction bound holds."""

    w1: float
    w2: float
    satisfied: bool

    @property
    def ratio(self):
        return self.w2 / self.w1 if self.w1 > 0 else np.inf

    def to_dict(self):
        return {
            "w1": self.w1,
            "w2": self.w2,
            "ratio": self.ratio,
            "satisfied": bool(self.satisfied),
        }


def check_missing_fraction(F):
    """Report whether incomplete mass is strictly below complete mass."""
    if isinstance(F, MissingCovModel):
        F = F.two_sample()
    if not isinstance(F, TwoSampleMeasure):
        raise InvalidInput("need a TwoSampleMeasure or a model")
    w1, w2 = F.w1, F.w2
    return MissingFractionReport(w1, w2, satisfied=bool(w2 < w1))


class MissingCovProfile(Profile):
    """Profile-likelihood view: score and analytic Jacobian per record."""

    solve_nuisance = staticmethod(solve_nuisance)

    def score(self, theta):
        g = self.solve(theta).eta
        return efficient_score(self.model, theta, self.weights, g=g)

    def mean_score(self, theta):
        return self.score(theta).T @ self.weights

    def jacobian(self, theta):
        g = self.solve(theta).eta
        derivs = psi_derivatives(self.model, theta, g, self.weights)
        eta_dot = dtheta_eta(derivs)
        eta_ddot = d2theta_eta(derivs, eta_dot)
        per_record = score_jacobian(
            self.model, theta, self.weights, g=g,
            eta_dot=eta_dot, eta_ddot=eta_ddot,
        )
        return np.einsum("i,iab->ab", self.weights, per_record)

    def precheck(self, theta):
        report = check_missing_fraction(self.model.two_sample(self.weights))
        if not report.satisfied:
            raise ContractionViolation(
                f"incomplete mass w2={report.w2:.3f} is not below complete "
                f"mass w1={report.w1:.3f}"
            )
        return report


def _fit_payload(profile, theta):
    density = profile.nuisance(theta)
    return {
        "g_masses": density.masses.tolist(),
        "nuisance": {
            "support": density.support.tolist(),
            "g_masses": density.masses.tolist(),
        },
        "condition": check_missing_fraction(profile.model).to_dict(),
    }


def _complete_case_start(model):
    """Complete-case least squares start for the normal regression family."""
    rows = model.complete_rows
    y = model.y[rows]
    x = model.points[rows, 2]
    design = np.column_stack([np.ones(len(rows)), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    sigma = max(float(resid.std()), 1e-3)
    return np.array([coef[0], coef[1], np.log(sigma)])


@dataclass(frozen=True)
class MissingCovDesign:
    """Sampling design: discrete covariate law, normal outcome, MCAR missingness."""

    theta0: tuple = (0.0, 1.0, 0.0)
    support: tuple = tuple(np.linspace(-2.0, 2.0, 9))
    g0: tuple = tuple(np.full(9, 1.0 / 9.0))
    w2: float = 0.3

    def validate(self):
        if len(self.support) != len(self.g0):
            raise InvalidInput("support and g0 must have equal length")
        if abs(sum(self.g0) - 1.0) > 1e-12:
            raise InvalidInput("g0 must sum to one")
        if not 0.0 <= self.w2 < 1.0:
            raise InvalidInput("w2 must lie in [0, 1)")


@dataclass(frozen=True)
class MissingCovPopulation:
    """Quadrature discretization of the population law of (r, y, x)."""

    model: MissingCovModel
    design: MissingCovDesign
    g0: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray


def population_model(design=MissingCovDesign(), family=None, y_grid=2000,
                     y_grid_complete=400, span=8.0):
    """Discretize the population distribution on outcome quadrature grids.

    The incomplete part puts one atom per Gauss-Legendre node of a grid
    covering the mixture outcome range, weighted by the true mixture
    density; the complete part expands each support point over its own
    outcome grid weighted by the true joint density.  Every empirical
    operation then doubles as its population version.
    """
    family = family or NormalRegression()
    design.validate()
    theta0 = np.asarray(design.theta0, dtype=float)
    support = np.asarray(design.support, dtype=float)
    g0 = np.asarray(design.g0, dtype=float)
    w2 = design.w2
    w1 = 1.0 - w2

    intervals = [family.outcome_interval(x, theta0, span) for x in support]
    lo = min(iv[0] for iv in intervals)
    hi = max(iv[1] for iv in intervals)
    y_nodes, y_weights = gauss_legendre_grid(lo, hi, y_grid)
    fy0 = family.density(y_nodes[:, None], support[None, :], theta0) @ g0

    rows = [np.column_stack([
        np.full(y_grid, 2.0), y_nodes, np.zeros(y_grid)
    ])]
    weights = [w2 * fy0 * y_weights]
    for j, x in enumerate(support):
        nodes_j, weights_j = gauss_legendre_grid(*intervals[j], y_grid_complete)
        dens_j = family.density(nodes_j, x, theta0)
        rows.append(np.column_stack([
            np.ones(y_grid_complete), nodes_j, np.full(y_grid_complete, x)
        ]))
        weights.append(w1 * g0[j] * dens_j * weights_j)

    measure = EmpiricalMeasure(np.vstack(rows), np.concatenate(weights))
    model = MissingCovModel(measure, family)
    return MissingCovPopulation(model, design, g0, y_nodes, y_weights)


def population_self_consistency(pop, theta=None):
    """Sup distance between the operator output at truth and the truth."""
    theta = np.asarray(
        pop.design.theta0 if theta is None else theta, dtype=float
    )
    out = psi_apply(pop.model, theta, pop.g0, None)
    return {
        "sup_error": float(np.abs(out.masses - pop.g0).max()),
        "psi": out.masses,
        "truth": pop.g0,
    }


def nuisance_stationarity(pop, theta, directions):
    """Directional derivative of the population mean profiled log density.

    For each mass direction with zero total, differentiates the expected
    log density in the nuisance at the profiled fixed point; the values
    should vanish because the profile is a stationary point.
    """
    theta = np.asarray(theta, dtype=float)
    model = pop.model
    sol = solve_nuisance(model, theta, None)
    ws = _Workspace(model, theta, sol.eta, model.weights)
    ws.require_positive_denominator()
    # weight of each nuisance coordinate in the derivative of the expected
    # log density: complete-case mass over fitted mass, plus the mixture term
    coeff = ws.p1 / sol.eta + (ws.nu / ws.fy) @ ws.fmat
    values = []
    for alpha in directions:
        alpha = np.asarray(alpha, dtype=float)
        if abs(alpha.sum()) > 1e-10 * max(np.abs(alpha).sum(), 1.0):
            raise InvalidInput("direction must have zero total mass")
        values.append(float(coeff @ alpha))
    return np.asarray(values)


def score_orthogonality(pop, directions, theta=None):
    """Population covariance of the profiled score with nuisance scores.

    Returns one d-vector per direction; all should vanish at the truth.
    """
    model = pop.model
    theta = np.asarray(
        pop.design.theta0 if theta is None else theta, dtype=float
    )
    sol = solve_nuisance(model, theta, None)
    g = sol.eta
    derivs = psi_derivatives(model, theta, g, None)
    eta_dot = dtheta_eta(derivs)
    scores = efficient_score(model, theta, None, g=g, eta_dot=eta_dot)

    # nuisance score per record for a direction alpha: alpha/g at the
    # complete-case x, mixture ratio for incomplete records
    ws = _workspace(model, theta, g, None)
    out = []
    for alpha in directions:
        alpha = np.asarray(alpha, dtype=float)
        nuis = np.zeros(model.n_records)
        nuis[model.complete_rows] = alpha[model.slot] / g[model.slot]
        if len(model.incomplete_rows):
            nuis[model.incomplete_rows] = (ws.fmat @ alpha) / ws.fy
        out.append(scores.T @ (model.weights * nuis))
    return np.asarray(out)


def _build(r, y, x):
    return MissingCovModel.from_arrays(r, y, x, NormalRegression())


FAMILY = Family(
    name="missing_cov",
    model=MissingCovModel,
    profile=MissingCovProfile,
    design=MissingCovDesign,
    load_csv=load_csv,
    build=_build,
    truth=lambda design: design.theta0,
    default_start=_complete_case_start,
    labels=lambda model: ["intercept", "slope", "log_sigma"],
    fit_payload=_fit_payload,
    audit_rows=("dg_psi", "d2g_psi", "dtheta_psi", "score_jacobian"),
    audit_seed_offset=29,
    audit_theta=lambda model: (0.05, 0.9, 0.05),
    audit_design=MissingCovDesign(),
)
