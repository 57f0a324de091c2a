"""Continuous outcome with a sometimes-missing covariate.

Complete records carry (y, x); incomplete records carry only y.  The
covariate distribution is treated as probability masses on the observed
complete-case values, and its likelihood maximizer given the regression
parameter solves a self-consistency equation: each mass equals the
complete-case mass at that point divided by one minus the incomplete-case
average of the conditional-to-mixture density ratio.  This module
implements the operator, the bundle of its derivatives at one point, the
profiled score and its Jacobian, and population versions of all checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContractionViolation,
    DenominatorCollapse,
    InvalidConfig,
    InvalidInput,
    SupportViolation,
)
from .estimator import Family, Profile
from .fixed_point import FixedPointProblem, solve_fixed_point
from .implicit_diff import dtheta_eta
from .measures import (
    EmpiricalMeasure,
    LinearMap,
    RecordTable,
    check_covariate_law,
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


class NormalRegression(ConditionalDensity):
    """y | x ~ Normal(theta0 + theta1 x, exp(2 theta2))."""

    dim = 3

    def _moments(self, y, x, theta):
        """sigma, the standardized residual r and the density."""
        mu = theta[0] + theta[1] * np.asarray(x, dtype=float)
        sigma = np.exp(theta[2])
        r = (np.asarray(y, dtype=float) - mu) / sigma
        return sigma, r, np.exp(-0.5 * r * r) / (sigma * _SQRT_2PI)

    def density(self, y, x, theta):
        return self._moments(y, x, theta)[2]

    def dtheta(self, y, x, theta):
        sigma, r, f = self._moments(y, x, theta)
        x = np.asarray(x, dtype=float)
        score = (r / sigma, r * x / sigma, r * r - 1.0)
        return f * np.stack(np.broadcast_arrays(*score))

    def d2theta(self, y, x, theta):
        # f (s_a s_b + h_ab), with s the score and h the Hessian of log f,
        # simplified: the entries are f (r^2 - 1) / sigma^2, f r (r^2 - 3) /
        # sigma and f ((r^2 - 1)^2 - 2 r^2), times one power of x per slope
        sigma, r, f = self._moments(y, x, theta)
        x = np.asarray(x, dtype=float)
        r2 = r * r
        location = f * (r2 - 1.0) / sigma**2
        scale = f * r * (r2 - 3.0) / sigma
        # filled pair by pair: full-size outer-product and Hessian temporaries
        # tripled the allocation, which glibc then returns and faults back in
        out = np.empty((3, 3) + f.shape)
        out[0, 0] = location
        out[0, 1] = out[1, 0] = location * x
        out[1, 1] = location * (x * x)
        out[0, 2] = out[2, 0] = scale
        out[1, 2] = out[2, 1] = scale * x
        out[2, 2] = f * ((r2 - 1.0) ** 2 - 2.0 * r2)
        return out

    def outcome_interval(self, x, theta, span=8.0):
        mu = theta[0] + theta[1] * float(x)
        sigma = np.exp(theta[2])
        return mu - span * sigma, mu + span * sigma


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
    def from_arrays(cls, r, y, x, family, weights=None):
        r = np.asarray(r, dtype=float)
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        xfill = np.where(r == 1, x, 0.0)
        points = np.column_stack([r, y, xfill])
        return cls(cls.sample_measure(points, weights), family, n_obs=len(r))

    def joined(self, other, measure):
        """Model on a record table holding this sample and other's."""
        return MissingCovModel(measure, self.family)

    def resolve_masses(self, g):
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n_support,):
            raise InvalidInput("mass vector does not match the support size")
        return g


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


def load_csv(path):
    """Read records from a CSV with columns R, Y, X (X blank when R = 2)
    under the :class:`NormalRegression` family."""
    data = read_csv(path, "R,Y,X", lambda names: names == ["R", "Y", "X"],
                    _parse_row)
    return _build(data[:, 0], data[:, 1], data[:, 2])


class Operator:
    """The self-consistency operator bound to (theta, F): the
    incomplete-case density matrix is evaluated once, so that one
    application, masses to masses, is O(n2 m) and evaluates no density.
    The fixed-point solve, the derivative bundle and the audits all read
    this one binding."""

    def __init__(self, model, theta, F=None):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (model.theta_dim,):
            raise InvalidInput("theta does not match the family dimension")
        self.model = model
        self.theta = theta
        self.dim = model.n_support
        self.w = w = model.resolve_weights(F)
        self.p1 = np.bincount(model.slot, w[model.complete_rows], minlength=model.n_support)
        self.nu = w[model.incomplete_rows]
        self.fmat = self.incomplete(model.family.density)

    def incomplete(self, f):
        """f at the incomplete-case outcomes (rows) and the support (columns)."""
        model = self.model
        return f(model.y_incomplete[:, None], model.support[None, :], self.theta)

    def complete(self, f):
        """f at the complete records."""
        model = self.model
        return f(model.y[model.complete_rows], model.x_complete, self.theta)

    def mixture(self, g):
        """The masses g, the mixture density fmat @ g at the incomplete-case
        outcomes, and the denominator a of the operator's output p1 / a."""
        g = self.model.resolve_masses(g)
        fy = self.fmat @ g
        if np.any(fy <= 0.0):
            # an incomplete-case outcome outside the support of the fitted
            # mixture is reported, never trimmed
            raise SupportViolation(
                "mixture density vanished at an incomplete-case outcome"
            )
        a = 1.0 - (self.nu / fy) @ self.fmat
        if np.any(a <= 0.0):
            raise DenominatorCollapse(
                "self-consistency denominator dropped to zero or below"
            )
        return g, fy, a

    def __call__(self, g):
        return self.p1 / self.mixture(g)[2]

    def cold_start(self):
        """The normalized complete-case masses, where a solve without a
        start begins."""
        total = self.p1.sum()
        if total <= 0:
            raise InvalidInput("no complete-case mass to start from")
        return self.p1 / total


class _Workspace:
    """The derivative bundle of the bound operator at one g (see
    :mod:`implicit_diff`), with the caches its fields and the scores share;
    the density derivatives are evaluated on first read."""

    def __init__(self, op, g):
        self.op, self.model, self.w = op, op.model, op.w
        self.p1, self.nu, self.fmat = op.p1, op.nu, op.fmat
        self.g, self.fy, self.a = op.mixture(g)
        self.c2 = self.nu / self.fy**2
        self.adot = (self.c2 * self.fydot) @ self.fmat - (self.nu / self.fy) @ self.fdot
        self.dot_psi = -self.p1 * self.adot / self.a**2  # (d, m)
        self.d_eta = LinearMap(-(self.p1 / self.a**2)[:, None] * self.dg_a)

    def contracts(self):
        """Whether d_eta has spectral radius below one.  An induced norm
        below one bounds it: the L1 norm,
        the largest absolute column sum, in which the population operator
        contracts by w2 / w1, settles most points.  Otherwise the test is
        exact: d_eta = -diag(r^2) S with r = sqrt(p1) / a and S = dg_a
        positive semidefinite, so its eigenvalues are minus those of
        T = diag(r) S diag(r), real and nonpositive, and the radius is below
        one exactly when I - T is positive definite, which its Cholesky
        factorization tests."""
        if self.d_eta.l1_norm() < 1.0:
            return True
        r = np.sqrt(self.p1) / self.a
        system = -(r[:, None] * self.dg_a * r)
        system.flat[:: len(r) + 1] += 1.0
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            return False
        return True

    @cached_property
    def fdot(self):
        return self.op.incomplete(self.model.family.dtheta)

    @cached_property
    def fydot(self):
        """First parameter derivative of the mixture density, (d, n2)."""
        return self.fdot @ self.g

    @cached_property
    def fddot(self):
        return self.op.incomplete(self.model.family.d2theta)

    @cached_property
    def fyddot(self):
        """Second parameter derivative of the mixture density, (d, d, n2)."""
        return self.fddot @ self.g

    @cached_property
    def fc(self):
        return self.op.complete(self.model.family.density)

    @cached_property
    def fdot_c(self):
        return self.op.complete(self.model.family.dtheta)

    @cached_property
    def dg_a(self):
        return self.fmat.T @ (self.fmat * (self.nu / self.fy**2)[:, None])

    @cached_property
    def ddot_psi(self):
        """The second parameter derivative, every parameter pair at once."""
        fmat, fy, nu, fdot, fydot = self.fmat, self.fy, self.nu, self.fdot, self.fydot
        c2, adot, a = self.c2, self.adot, self.a
        v = c2 * self.fyddot - 2.0 * (nu / fy**3) * fydot[:, None, :] * fydot[None, :, :]
        t3 = (c2 * fydot) @ fdot  # t3[a, b] = fdot[a].T @ (c2 fydot[b])
        addot = -((nu / fy) @ self.fddot - v @ fmat - t3 - t3.transpose(1, 0, 2))
        ddot = -self.p1 * (a * addot - 2.0 * adot[:, None, :] * adot[None, :, :]) / a**3
        # pairs (a, b) and (b, a) round apart: copy the upper onto the lower
        lower = np.tril_indices(len(ddot), -1)
        ddot[lower] = ddot[lower[::-1]]
        return ddot

    def mixed(self, H):
        """The parameter derivative of d_eta at each row of H, shape
        (d, k, m), from products with fmat and fdot: no m x m array.  It
        differentiates d_eta = -diag(p1 / a^2) dg_a, where
        dg_a = fmat' diag(c2) fmat."""
        fmat, fdot, c2, a = self.fmat, self.fdot, self.c2, self.a
        u = H @ fmat.T  # (k, n2)
        dga = (c2 * u) @ fmat  # (k, m)
        dga_dot = ((c2 * u) @ fdot
                   + np.swapaxes(fmat.T @ (c2[:, None] * (fdot @ H.T)), 1, 2)
                   - 2.0 * ((self.nu / self.fy**3) * self.fydot[:, None, :] * u) @ fmat)
        return -self.p1 * (dga_dot / a**2 - 2.0 * (self.adot / a**3)[:, None, :] * dga)

    def d2_eta(self, H):
        """The second derivative in the covariate masses at every pair of
        rows of H, shape (k, k, m): two products with fmat in all."""
        fmat, nu, fy, a = self.fmat, self.nu, self.fy, self.a
        u = H @ fmat.T  # (k, n2)
        d2a = -2.0 * ((u[:, None, :] * u[None, :, :] * (nu / fy**3)) @ fmat)
        da = (u * (nu / fy**2)) @ fmat  # (k, m)
        return self.p1 * (-d2a / a**2 + 2.0 * da[:, None, :] * da[None, :, :] / a**3)

    def d_f(self, h):
        """Derivative of the operator in the distribution, in direction h."""
        model = self.model
        hw = model.resolve_direction(h)
        dp1 = np.bincount(model.slot, hw[model.complete_rows], minlength=model.n_support)
        hnu = hw[model.incomplete_rows]
        second = self.fmat.T @ (hnu / self.fy)
        return (dp1 * self.a + self.p1 * second) / self.a**2


def psi_masses(model, theta, masses):
    """One application of the self-consistency operator on mass vectors;
    not renormalized."""
    return Operator(model, theta)(masses)


#: bench/tracing.py wraps psi_apply and psi_masses by name, each on its own
psi_apply = psi_masses


def solve_nuisance(op, tol=1e-10, eta0=None):
    """Solve for the covariate masses of a bound operator."""
    eta0 = op.cold_start() if eta0 is None else eta0
    return solve_fixed_point(FixedPointProblem(op, op.dim), eta0, tol=tol)


def psi_derivatives(op, g):
    """The derivative bundle of the bound operator at the masses g."""
    return _Workspace(op, g)


def _complete_case(ws):
    """Complete-record densities and fitted masses, checked positive."""
    fc = ws.fc
    if np.any(fc <= 0.0):
        raise SupportViolation("conditional density vanished at a complete record")
    g_at = ws.g[ws.model.slot]
    if np.any(g_at <= 0.0):
        raise SupportViolation("complete-case x carries no mass")
    return fc, g_at


def efficient_score(ws, eta_dot):
    """Per-record parameter score of the profiled log density, shape (n, d),
    from the derivative bundle at a fixed point and its implicit derivative."""
    model = ws.model
    out = np.zeros((model.n_records, model.theta_dim))

    fc, g_at = _complete_case(ws)
    out[model.complete_rows] = (ws.fdot_c / fc + eta_dot[:, model.slot] / g_at).T

    if len(model.incomplete_rows):
        mix_dot = eta_dot @ ws.fmat.T  # (d, n2)
        out[model.incomplete_rows] = ((ws.fydot + mix_dot) / ws.fy).T
    return out


def score_jacobian(point):
    """Parameter Jacobian of the mean score at a profile point, shape (d, d).

    The model and the weights are those of the point's derivative bundle.
    The masses solve d l / d g = 1 with their total fixed, so eta_dot has
    zero total and the Jacobian is the envelope form l_theta,theta +
    l_theta,g[eta_dot], where only the incomplete records' mixture
    densities depend on both theta and g.  Each block of per-record terms, record axis last, is contracted
    with the weights as it is formed, so no per-record matrix is built.
    """
    ws = point.derivs
    model, w, eta_dot = ws.model, ws.w, point.eta_dot

    fc, _ = _complete_case(ws)
    w_c = w[model.complete_rows]
    score_c = ws.fdot_c / fc
    out = (
        ws.op.complete(model.family.d2theta) @ (w_c / fc)
        - (score_c * w_c) @ score_c.T
    )

    if len(model.incomplete_rows):
        w_f = w[model.incomplete_rows] / ws.fy
        # d_g fdot_Y(gdot), contracted: cross[a, b] = sum_l w_f fdot[a] @ gdot[b]
        cross = (w_f @ ws.fdot) @ eta_dot.T
        num_dot = ws.fydot + eta_dot @ ws.fmat.T  # (d, n2)
        out += ws.fyddot @ w_f + cross - (ws.fydot * (w_f / ws.fy)) @ num_dot.T
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


def check_missing_fraction(model, weights):
    """Report whether incomplete mass is strictly below complete mass."""
    w1 = float(weights[model.complete_rows].sum())
    w2 = float(weights[model.incomplete_rows].sum())
    return MissingFractionReport(w1, w2, satisfied=bool(w2 < w1))


class MissingCovProfile(Profile):
    """Profile-likelihood view: per-record scores and the analytic Jacobian
    of the mean score, in the envelope form of :func:`score_jacobian`.  A
    covariate that takes one value over the weighted
    complete records leaves the slope unidentified, as it then only shifts
    the intercept, so such a sample is refused."""

    def __init__(self, model, solver_tol=1e-10):
        super().__init__(model, solver_tol)
        x = model.x_complete[self.weights[model.complete_rows] > 0]
        if len(x) and np.ptp(x) == 0:
            raise InvalidInput(
                "covariate X is constant over the complete records; "
                "its slope is confounded with the intercept"
            )

    def point_scores(self, g, derivs, eta_dot):
        return efficient_score(derivs, eta_dot)

    def score(self, theta):
        return self.point(theta).scores

    def mean_score(self, theta):
        return self.score(theta).T @ self.weights

    def jacobian(self, point):
        """Jacobian of the mean score at a point, from its bundle."""
        return score_jacobian(point)

    def precheck(self, theta):
        report = check_missing_fraction(self.model, self.weights)
        if not report.satisfied:
            raise ContractionViolation(
                f"incomplete mass w2={report.w2:.3f} is not below complete "
                f"mass w1={report.w1:.3f}"
            )
        return report


def _fit_payload(profile, theta):
    point = profile.last_point
    masses = point.solution.eta.tolist()
    return {
        "g_masses": masses,
        "nuisance": {
            "support": profile.model.support.tolist(),
            "g_masses": masses,
        },
        "condition": check_missing_fraction(profile.model, profile.weights).to_dict(),
        "diagnostics": {
            "nuisance": {"sup_norm": point.derivs.d_eta.sup_norm()},
        },
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
        if np.size(self.theta0) != NormalRegression.dim:
            raise InvalidConfig("theta0 needs an intercept, a slope and a log sigma")
        check_covariate_law(self.support, self.g0)
        if not 0.0 <= self.w2 < 1.0:
            raise InvalidConfig("w2 must lie in [0, 1)")


@dataclass(frozen=True)
class MissingCovPopulation:
    """Quadrature discretization of the population law of (r, y, x)."""

    model: MissingCovModel
    design: MissingCovDesign
    g0: np.ndarray


def population_model(design=MissingCovDesign(), y_grid=2000, y_grid_complete=400):
    """Discretize the population distribution on outcome quadrature grids.

    The incomplete part puts one atom per Gauss-Legendre node of a grid
    covering the mixture outcome range, weighted by the true mixture
    density; the complete part expands each support point over its own
    outcome grid weighted by the true joint density.  Every empirical
    operation then doubles as its population version.  The outcome law is
    :class:`NormalRegression`.
    """
    family = NormalRegression()
    design.validate()
    theta0 = np.asarray(design.theta0, dtype=float)
    support = np.asarray(design.support, dtype=float)
    g0 = np.asarray(design.g0, dtype=float)
    w2 = design.w2
    w1 = 1.0 - w2

    intervals = [family.outcome_interval(x, theta0) for x in support]
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
    return MissingCovPopulation(model, design, g0)


def population_self_consistency(pop):
    """Sup distance between the operator output at truth and the truth."""
    out = psi_apply(pop.model, np.asarray(pop.design.theta0, dtype=float), pop.g0)
    return {
        "sup_error": float(np.abs(out - pop.g0).max()),
        "psi": out,
        "truth": pop.g0,
    }


def nuisance_stationarity(pop, theta, directions):
    """Directional derivative of the population mean profiled log density.

    For each mass direction with zero total, differentiates the expected
    log density in the nuisance at the profiled fixed point; the values
    should vanish because the profile is a stationary point.
    """
    op = Operator(pop.model, theta)
    g, fy, _ = op.mixture(solve_nuisance(op).eta)
    # weight of each nuisance coordinate in the derivative of the expected
    # log density: complete-case mass over fitted mass, plus the mixture term
    coeff = op.p1 / g + (op.nu / fy) @ op.fmat
    values = []
    for alpha in directions:
        alpha = np.asarray(alpha, dtype=float)
        if abs(alpha.sum()) > 1e-10 * max(np.abs(alpha).sum(), 1.0):
            raise InvalidInput("direction must have zero total mass")
        values.append(float(coeff @ alpha))
    return np.asarray(values)


def score_orthogonality(pop, directions):
    """Population covariance of the profiled score with nuisance scores.

    Returns one d-vector per direction at the truth, where all should vanish.
    """
    model = pop.model
    op = Operator(model, np.asarray(pop.design.theta0, dtype=float))
    g = solve_nuisance(op).eta
    ws = psi_derivatives(op, g)
    scores = efficient_score(ws, dtheta_eta(ws))

    # nuisance score per record for a direction alpha: alpha/g at the
    # complete-case x, mixture ratio for incomplete records
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
    profile=MissingCovProfile,
    design=MissingCovDesign,
    load_csv=load_csv,
    build=_build,
    truth=lambda design: design.theta0,
    default_start=_complete_case_start,
    labels=lambda model: ["intercept", "slope", "log_sigma"],
    fit_payload=_fit_payload,
    audit_rows=("dg_psi", "d2g_psi", "dtheta_psi"),
    audit_seed_offset=29,
    audit_theta=lambda model: (0.05, 0.9, 0.05),
    audit_design=MissingCovDesign(),
)
