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
from .errors import InvalidConfig
from .implicit_diff import d2theta_eta, df_eta, dtheta_eta
from .measures import EmpiricalMeasure
from .numdiff import fd_bilinear, fd_path, fd_theta

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


def union_with_resample(model, kind, seed=1000):
    """Embed the model and an independent resample in one record table.

    Returns (union_model, base_weights, target_weights); straight-line
    reweighting between the two weight vectors realizes the mixture path
    toward the resample.  The resample, of the model's size, is drawn from
    the family's audit design; record columns the design does not draw (a
    survival model's covariates past the first) are copied from model
    records chosen by ``np.random.default_rng(seed)``.
    """
    other = seeded_model(kind, model.n_obs, seed)
    width = other.points.shape[1]
    rows = np.random.default_rng(seed).integers(model.n_records, size=len(other.points))
    resample = np.hstack([other.points, model.points[rows, width:]])
    points = np.vstack([model.points, resample])
    w_base = np.concatenate([model.weights, np.zeros(len(other.points))])
    w_target = np.concatenate([np.zeros(len(model.points)), other.weights])
    base = EmpiricalMeasure(points, w_base)
    target = EmpiricalMeasure(points, w_target)
    return model.joined(other, base), base.weights, target.weights


def _scaled_directions(rng, base):
    """Random directions proportional to the base coefficients."""
    return [base * rng.uniform(-0.5, 0.5, size=len(base)) for _ in range(_N_DIRECTIONS)]


def audit_operators(family, model, seed=0, corrupt=None):
    """Operator-derivative audits of one family on one dataset at its audit_theta.

    The nuisance, parameter, mixed and distribution derivatives are the
    fields of the family's derivative bundle (``psi_derivatives``), in rows
    labelled by ``family.audit_rows``; their difference oracles apply the
    family's bound ``Operator``, the same one the bundle is built from.
    """
    mod = family.module
    d_eta_name, d2_eta_name, dtheta_name = family.audit_rows
    rng = np.random.default_rng(seed + family.audit_seed_offset)
    theta = np.atleast_1d(np.asarray(family.audit_theta(model), dtype=float))
    psi_of_eta = mod.Operator(model, theta)
    eta = mod.solve_nuisance(psi_of_eta, tol=1e-12).eta
    derivs = mod.psi_derivatives(psi_of_eta, eta)
    rows = []
    dirs = _scaled_directions(rng, eta)

    worst = 0.0
    for h in dirs:
        step = 1e-5
        fd = (psi_of_eta(eta + step * h) - psi_of_eta(eta - step * h)) / (
            2.0 * step
        )
        analytic = _maybe_corrupt(derivs.d_eta.apply(h), d_eta_name, corrupt)
        worst = max(worst, rel_err(analytic, fd))
    rows.append(AuditRow(d_eta_name, worst, FIRST_ORDER_TOL))

    worst = 0.0
    pairs = derivs.d2_eta(np.stack(dirs))
    for j, (h1, h2) in enumerate(zip(dirs, dirs[1:] + dirs[:1])):
        fd = fd_bilinear(
            lambda s, t: psi_of_eta(eta + s * h1 + t * h2), h1, h2, step=2e-2
        )
        analytic = _maybe_corrupt(pairs[j, (j + 1) % len(dirs)], d2_eta_name, corrupt)
        worst = max(worst, rel_err(analytic, fd))
    rows.append(AuditRow(d2_eta_name, worst, SECOND_ORDER_TOL))

    def dot_at(t, at):
        return mod.psi_derivatives(mod.Operator(model, t), at).dot_psi

    fd_dot = fd_theta(lambda t: mod.Operator(model, t)(eta), theta, step=1e-5)
    rows.append(_row(f"{dtheta_name}.dot", derivs.dot_psi, fd_dot,
                     FIRST_ORDER_TOL, corrupt))
    fd_ddot = fd_theta(lambda t: dot_at(t, eta), theta, step=1e-4)
    rows.append(_row(f"{dtheta_name}.ddot", derivs.ddot_psi,
                     fd_ddot.transpose(1, 0, 2), SECOND_ORDER_TOL, corrupt))

    worst = 0.0
    name = f"{dtheta_name}.mixed"
    mixed = derivs.mixed(np.stack(dirs))
    for j, h in enumerate(dirs):
        step = 1e-4
        fd = (dot_at(theta, eta + step * h) - dot_at(theta, eta - step * h)) / (2.0 * step)
        analytic = _maybe_corrupt(mixed[:, j], name, corrupt)
        worst = max(worst, rel_err(analytic, fd))
    rows.append(AuditRow(name, worst, SECOND_ORDER_TOL))

    union, w_base, w_target = union_with_resample(model, family.name, seed + 1000)

    def on_path(t):
        return mod.Operator(union, theta, (1.0 - t) * w_base + t * w_target)

    op_u = mod.Operator(union, theta, w_base)
    eta_u = mod.solve_nuisance(op_u, tol=1e-12).eta
    derivs_u = mod.psi_derivatives(op_u, eta_u)
    fd = fd_path(lambda t: on_path(t)(eta_u), step=1e-5)
    rows.append(_row("df_psi", derivs_u.d_f(w_target - w_base), fd, FIRST_ORDER_TOL,
                     corrupt))

    # score Jacobian versus differences of the analytic score
    profile = family.profile(model, solver_tol=1e-12)
    jac = profile.jacobian(profile.point(theta))
    fd_jac = fd_theta(profile.mean_score, theta, step=1e-4)
    rows.append(_row("score_jacobian", jac, fd_jac.T, SECOND_ORDER_TOL, corrupt))

    # resolvent-formula derivatives versus re-solve difference quotients
    solved_eta = _warm_solves(mod, lambda t: mod.Operator(model, t), eta)
    eta_dot = dtheta_eta(derivs)
    fd_dot = fd_theta(solved_eta, theta, step=1e-4)
    rows.append(_row("eta_dot", eta_dot, fd_dot, ETA_DOT_TOL, corrupt))

    def eta_dot_at(t):
        return dtheta_eta(mod.psi_derivatives(mod.Operator(model, t), solved_eta(t)))

    fd_ddot = fd_theta(eta_dot_at, theta, step=1e-4)
    rows.append(_row("eta_ddot", d2theta_eta(derivs, eta_dot),
                     fd_ddot.transpose(1, 0, 2), ETA_DDOT_TOL, corrupt))

    fd = fd_path(_warm_solves(mod, on_path, eta_u), step=1e-5)
    rows.append(_row("df_eta", df_eta(derivs_u, w_target - w_base), fd, DF_ETA_TOL,
                     corrupt))
    return rows


def _warm_solves(mod, bind, eta):
    """t -> the fixed point of the operator bind(t), each solve starting
    from the solution before it."""
    warm = {"eta": eta}

    def solved(t):
        warm["eta"] = mod.solve_nuisance(bind(t), tol=1e-12, eta0=warm["eta"]).eta
        return warm["eta"]

    return solved


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
    op = missing_cov.Operator(pop.model, theta0)
    norm = missing_cov.psi_derivatives(op, pop.g0).d_eta.l1_norm()
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


#: Each family's population audit, by model name.
POPULATION_AUDITS = {"prop_odds": audit_population_prop_odds,
                     "missing_cov": audit_population_missing_cov}


def run_audits(kind, model=None, seed=0, n=20, population=False, corrupt=None):
    """Full audit battery for one model kind; returns AuditRow list."""
    family = simulation.get_family(kind)
    for name, value in (("seed", seed), ("n", n)):
        if value < 0:
            raise InvalidConfig(f"{name} must be nonnegative")
    if population:
        return POPULATION_AUDITS[family.name](seed, corrupt)
    if model is None:
        model = seeded_model(kind, n=n, seed=seed)
    return audit_operators(family, model, seed=seed, corrupt=corrupt)
