"""Analytic-versus-brute-force audits of every derivative operator.

Each audit evaluates one analytic derivative and an independent
finite-difference oracle of the same quantity, and reports the worst
relative disagreement.  The CLI's check command and the test suite both
run these; tolerances are pinned here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import missing_cov, prop_odds, simulation
from .fixed_point import estimate_operator_norm
from .implicit_diff import d2theta_eta, df_eta, dtheta_eta
from .measures import EmpiricalMeasure
from .numdiff import FdConfig, fd_bilinear, fd_path, fd_theta

FIRST_ORDER_TOL = 1e-5
SECOND_ORDER_TOL = 1e-3
ETA_DOT_TOL = 1e-4
ETA_DDOT_TOL = 1e-3
DF_ETA_TOL = 1e-4
POPULATION_TOL = 1e-6
NORM_BOUND_SLACK = 1e-6
#: Error that ``corrupt`` injects into the named row, relative to the
#: analytic value (added to the value of a population row, which is itself
#: an error): a decade above the loosest tolerance, so that a corrupted row
#: fails by a margin and not by the sign of the audit's own error.
CORRUPTION = 1e-2

_N_DIRECTIONS = 3
#: Zero-sum nuisance directions and parameter points of the population audit.
_N_POPULATION_DIRECTIONS = 10
_N_POPULATION_THETAS = 5


@dataclass
class AuditRow:
    """One audited quantity: its worst error and the pinned tolerance."""

    name: str
    value: float
    tol: float

    @property
    def passed(self):
        return bool(self.value < self.tol)


def rel_err(analytic, reference):
    analytic = np.asarray(analytic, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = max(float(np.abs(reference).max(initial=0.0)), 1e-10)
    return float(np.abs(analytic - reference).max(initial=0.0)) / denom


def _maybe_corrupt(value, name, corrupt):
    if corrupt == name:
        return np.asarray(value) * (1.0 + CORRUPTION)
    return value


def _row(name, analytic, reference, tol, corrupt):
    """Audit row comparing an analytic value with its difference oracle."""
    analytic = _maybe_corrupt(analytic, name, corrupt)
    return AuditRow(name, rel_err(analytic, reference), tol)


def _population_row(name, error, tol, corrupt):
    """Audit row of an absolute error; corrupting it adds CORRUPTION."""
    if corrupt == name:
        error = error + CORRUPTION
    return AuditRow(name, float(error), tol)


def seeded_model(kind, n=20, seed=0):
    """Deterministic synthetic dataset from the family's audit design (the
    survival audit draws from the linear baseline so the event grid has
    n-scale resolution)."""
    family = simulation.get_family(kind)
    rng = simulation.replication_rng(seed, 0)
    return simulation.draw_model(family, family.audit_design, n, rng)


def union_with_resample(model, kind, seed=1000, n=None):
    """Embed the model and an independent resample in one record table.

    Returns (union_model, base_weights, target_weights); straight-line
    reweighting between the two weight vectors realizes the mixture path
    toward the resample.
    """
    other = seeded_model(kind, n or model.n_obs, seed)
    points = np.vstack([model.points, other.points])
    w_base = np.concatenate([model.weights, np.zeros(len(other.points))])
    w_target = np.concatenate([np.zeros(len(model.points)), other.weights])
    base = EmpiricalMeasure(points, w_base)
    target = EmpiricalMeasure(points, w_target)
    return model.joined(other, base), base.weights, target.weights


def _scaled_directions(rng, base, count=_N_DIRECTIONS):
    """Random directions proportional to the base coefficients."""
    return [base * rng.uniform(-0.5, 0.5, size=len(base)) for _ in range(count)]


def audit_operators(family, model, theta=None, seed=0, corrupt=None):
    """Operator-derivative audits of one family on one dataset.

    The nuisance, parameter and mixed derivatives are the family module's
    functions named by ``family.audit_rows``; the operator in coefficient
    coordinates is the map of the family's fixed-point problem.
    """
    mod = family.module
    d_eta_name, d2_eta_name, dtheta_name = family.audit_rows[:3]
    rng = np.random.default_rng(seed + family.audit_seed_offset)
    theta = np.atleast_1d(np.asarray(
        family.audit_theta(model) if theta is None else theta, dtype=float
    ))
    eta = mod.solve_nuisance(model, theta, tol=1e-12).eta
    nuisance = model.as_nuisance(eta)
    rows = []

    def psi_of_eta(v):
        return mod.fixed_point_problem(model, theta).apply(v)

    def psi_of_theta(t):
        return mod.fixed_point_problem(model, t).apply(eta)

    dirs = _scaled_directions(rng, eta)

    d_eta = getattr(mod, d_eta_name)(model, theta, nuisance)
    worst = 0.0
    for h in dirs:
        step = 1e-5
        fd = (psi_of_eta(eta + step * h) - psi_of_eta(eta - step * h)) / (
            2.0 * step
        )
        analytic = _maybe_corrupt(d_eta.apply(h), d_eta_name, corrupt)
        worst = max(worst, rel_err(analytic, fd))
    rows.append(AuditRow(d_eta_name, worst, FIRST_ORDER_TOL))

    d2_eta = getattr(mod, d2_eta_name)(model, theta, nuisance)
    worst = 0.0
    for h1, h2 in zip(dirs, dirs[1:] + dirs[:1]):
        fd = fd_bilinear(
            lambda s, t: psi_of_eta(eta + s * h1 + t * h2), h1, h2, step=1e-4
        )
        analytic = _maybe_corrupt(d2_eta.apply(h1, h2), d2_eta_name, corrupt)
        worst = max(worst, rel_err(analytic, fd))
    rows.append(AuditRow(d2_eta_name, worst, SECOND_ORDER_TOL))

    dtheta_psi = getattr(mod, dtheta_name)
    dot, ddot, mixed = dtheta_psi(model, theta, nuisance)
    fd_dot = fd_theta(psi_of_theta, theta, FdConfig(step=1e-5))
    rows.append(_row(f"{dtheta_name}.dot", dot, fd_dot, FIRST_ORDER_TOL, corrupt))

    def dot_of_theta(t):
        return dtheta_psi(model, t, nuisance)[0]

    fd_ddot = fd_theta(dot_of_theta, theta, FdConfig(step=1e-4))
    rows.append(_row(f"{dtheta_name}.ddot", ddot, fd_ddot.transpose(1, 0, 2),
                     SECOND_ORDER_TOL, corrupt))

    worst = 0.0
    name = f"{dtheta_name}.mixed"
    for h in dirs:
        def dot_along(t, h=h):
            return dtheta_psi(model, theta, model.as_nuisance(eta + t * h))[0]

        step = 1e-4
        fd = (dot_along(step) - dot_along(-step)) / (2.0 * step)
        analytic = np.stack([m.apply(h) for m in mixed])
        analytic = _maybe_corrupt(analytic, name, corrupt)
        worst = max(worst, rel_err(analytic, fd))
    rows.append(AuditRow(name, worst, SECOND_ORDER_TOL))

    union, w_base, w_target = union_with_resample(model, family.name, seed + 1000)
    eta_u = mod.solve_nuisance(union, theta, w_base, tol=1e-12).eta
    h_dir = w_target - w_base
    analytic = mod.df_psi(union, theta, union.as_nuisance(eta_u), w_base, h_dir)

    def psi_at_path(t):
        F = (1.0 - t) * w_base + t * w_target
        return mod.fixed_point_problem(union, theta, F).apply(eta_u)

    fd = fd_path(psi_at_path, FdConfig(step=1e-5, scheme="forward", richardson=True))
    rows.append(_row("df_psi", analytic, fd, FIRST_ORDER_TOL, corrupt))

    if "score_jacobian" in family.audit_rows:
        # score Jacobian versus differences of the analytic score
        profile = family.profile(model, solver_tol=1e-12)
        jac = profile.jacobian(profile.point(theta))
        fd_jac = fd_theta(profile.mean_score, theta, FdConfig(step=1e-4))
        rows.append(_row("score_jacobian", jac, fd_jac.T, SECOND_ORDER_TOL, corrupt))

    rows.extend(
        _audit_implicit(mod, model, theta, eta, union, w_base, w_target, corrupt)
    )
    return rows


def _audit_implicit(mod, model, theta, eta, union, w_base, w_target, corrupt):
    """Resolvent-formula derivatives versus re-solve difference quotients."""
    rows = []
    warm = {"eta": eta}

    def solved_eta(t):
        sol = mod.solve_nuisance(model, t, tol=1e-12, eta0=warm["eta"])
        warm["eta"] = sol.eta
        return sol.eta

    derivs = mod.psi_derivatives(model, theta, model.as_nuisance(eta))
    eta_dot = dtheta_eta(derivs)
    fd_dot = fd_theta(solved_eta, theta, FdConfig(step=1e-5))
    rows.append(_row("eta_dot", eta_dot, fd_dot, ETA_DOT_TOL, corrupt))

    def dot_at(t):
        d = mod.psi_derivatives(model, t, model.as_nuisance(solved_eta(t)))
        return dtheta_eta(d)

    eta_ddot = d2theta_eta(derivs, eta_dot)
    fd_ddot = fd_theta(dot_at, theta, FdConfig(step=1e-4))
    rows.append(_row("eta_ddot", eta_ddot, fd_ddot.transpose(1, 0, 2),
                     ETA_DDOT_TOL, corrupt))

    sol_u = mod.solve_nuisance(union, theta, w_base, tol=1e-12)
    derivs_u = mod.psi_derivatives(
        union, theta, union.as_nuisance(sol_u.eta), w_base
    )
    h_dir = w_target - w_base
    analytic = df_eta(derivs_u, h_dir)
    warm_u = {"eta": sol_u.eta}

    def eta_at_path(t):
        sol = mod.solve_nuisance(
            union, theta, (1.0 - t) * w_base + t * w_target,
            tol=1e-12, eta0=warm_u["eta"],
        )
        warm_u["eta"] = sol.eta
        return sol.eta

    fd = fd_path(eta_at_path, FdConfig(step=1e-5, scheme="forward", richardson=True))
    rows.append(_row("df_eta", analytic, fd, DF_ETA_TOL, corrupt))
    return rows


def audit_population_prop_odds(seed, corrupt):
    """Population self-consistency of the survival operator at the truth.

    The check is deterministic; it takes the seed for the signature it
    shares with the other population audit.
    """
    check = prop_odds.population_self_consistency()
    return [_population_row("self_consistency", check["sup_error"],
                            POPULATION_TOL, corrupt)]


def audit_population_missing_cov(seed, corrupt):
    """Population checks: self-consistency, contraction bound, efficiency."""
    rng = np.random.default_rng(seed + 41)
    pop = missing_cov.population_model()
    design = pop.design
    theta0 = np.asarray(design.theta0, dtype=float)
    rows = []

    check = missing_cov.population_self_consistency(pop)
    rows.append(_population_row("self_consistency", check["sup_error"],
                                POPULATION_TOL, corrupt))

    bound = design.w2 / (1.0 - design.w2)
    norm = estimate_operator_norm(
        missing_cov.dg_psi(pop.model, theta0, pop.g0), "l1"
    )
    rows.append(_population_row("dg_psi_l1_norm_excess", norm - bound,
                                NORM_BOUND_SLACK, corrupt))

    def zero_sum_directions():
        dirs = []
        for _ in range(_N_POPULATION_DIRECTIONS):
            raw = rng.standard_normal(len(pop.g0))
            raw -= raw.mean()
            dirs.append(raw / np.abs(raw).sum())
        return dirs

    dirs = zero_sum_directions()
    thetas = [theta0] + [
        theta0 + rng.uniform(-0.1, 0.1, size=len(theta0))
        for _ in range(_N_POPULATION_THETAS - 1)
    ]
    worst = 0.0
    for th in thetas:
        vals = missing_cov.nuisance_stationarity(pop, th, dirs)
        worst = max(worst, float(np.abs(vals).max()))
    rows.append(_population_row("nuisance_stationarity", worst,
                                POPULATION_TOL, corrupt))

    orth = missing_cov.score_orthogonality(pop, dirs)
    rows.append(_population_row("score_orthogonality", np.abs(orth).max(),
                                POPULATION_TOL, corrupt))
    return rows


def run_audits(kind, model=None, theta=None, seed=0, n=20, population=False,
               corrupt=None):
    """Full audit battery for one model kind; returns AuditRow list."""
    family = simulation.get_family(kind)
    if population:
        return globals()[f"audit_population_{family.name}"](seed, corrupt)
    if model is None:
        model = seeded_model(kind, n=n, seed=seed)
    return audit_operators(family, model, theta=theta, seed=seed, corrupt=corrupt)
