"""Data generators and the Monte Carlo harness.

Replications are independent tasks seeded by counter-based substreams, so
results are byte-identical for a fixed configuration regardless of how
many workers execute them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import estimator, missing_cov, prop_odds
from .errors import HarnessAlarm, InvalidConfig

#: Two-sided 95% normal quantile, the normal quantile of 0.975 to the bit
#: (``estimator._ndtri``, cephes ndtri).
Z95 = 1.959963984540054

#: Every model family's record, by model name.
FAMILIES = {f.name: f for f in (prop_odds.FAMILY, missing_cov.FAMILY)}


def get_family(name):
    """The family record registered under name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidConfig(f"model must be one of {tuple(FAMILIES)}") from None


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo study: generator design, sample size, fit options."""

    model: str
    n: int
    replications: int
    seed: int = 0
    design: object = None
    theta_start: tuple | None = None
    fit_tol: float = 1e-8
    max_newton: int = 50
    solver_tol: float = 1e-10

    def __post_init__(self):
        family = get_family(self.model)
        if self.n < 10:
            raise InvalidConfig("n must be at least 10")
        if self.replications < 1:
            raise InvalidConfig("replications must be at least 1")
        for name in ("seed", "max_newton"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be nonnegative")
        for name in ("fit_tol", "solver_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise InvalidConfig(f"{name} must be finite and positive")
        if self.design is None:
            object.__setattr__(self, "design", family.design())
        self.design.validate()
        if self.theta_start is not None and len(self.theta_start) != len(self.theta0):
            raise InvalidConfig("theta_start does not match the parameter dimension")

    @property
    def family(self):
        return get_family(self.model)

    @property
    def theta0(self):
        return np.asarray(self.family.truth(self.design), dtype=float)


def replication_rng(seed, index):
    """Counter-based substream for one replication."""
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence((seed, index)))
    )


def gen_prop_odds(design, n, rng):
    """Draw (u, delta, z) from the survival design.

    Failure times invert the survival function given the covariate (for a
    step baseline the failure lands on the first time whose cumulative
    odds reaches the drawn threshold, or never); censoring is uniform on
    [0, tau] with an atom at tau.
    """
    design.validate()
    beta0 = np.atleast_1d(np.asarray(design.beta0, dtype=float))
    z = rng.choice(design.covariate_values, size=n, p=design.covariate_probs)
    q = np.exp(z * beta0[0])
    v = rng.uniform(size=n)
    threshold = (1.0 / v - 1.0) / q
    if design.is_step:
        times = np.asarray(design.baseline_times, dtype=float)
        cum = np.cumsum(design.baseline_jumps)
        idx = np.searchsorted(cum, threshold, side="left")
        t = np.where(idx < len(times), times[np.minimum(idx, len(times) - 1)],
                     np.inf)
    else:
        t = threshold / design.baseline_rate
    atom = rng.uniform(size=n) < design.censor_atom
    c = np.where(atom, design.tau, rng.uniform(0.0, design.tau, size=n))
    u = np.minimum(t, c)
    delta = (t <= c).astype(float)
    return u, delta, z


def gen_missing_cov(design, n, rng):
    """Draw (r, y, x) from the missing-covariate design.

    The covariate is discrete, the outcome conditionally normal, and
    missingness is completely at random with probability w2.
    """
    design.validate()
    theta0 = np.asarray(design.theta0, dtype=float)
    support = np.asarray(design.support, dtype=float)
    g0 = np.asarray(design.g0, dtype=float)
    x = rng.choice(support, size=n, p=g0)
    sigma = np.exp(theta0[2])
    y = theta0[0] + theta0[1] * x + sigma * rng.standard_normal(n)
    r = np.where(rng.uniform(size=n) < design.w2, 2.0, 1.0)
    x = np.where(r == 1, x, 0.0)
    return r, y, x


def draw_model(family, design, n, rng):
    """A sample of n records from design, drawn by ``gen_<family name>``."""
    # looked up when called, so a replaced module attribute takes effect
    generate = globals()[f"gen_{family.name}"]
    return family.build(*generate(design, n, rng))


def build_model(config, rng):
    return draw_model(config.family, config.design, config.n, rng)


def build_profile(config, model):
    return config.family.profile(model, solver_tol=config.solver_tol)


@dataclass
class Replication:
    """Outcome of one generate-fit-record cycle."""

    index: int
    converged: bool
    error: str = ""
    theta_hat: np.ndarray | None = None
    se: np.ndarray | None = None
    standardized: np.ndarray | None = None
    covered: np.ndarray | None = None


def run_replication(config, index):
    """One generate-fit-record cycle.

    Replication fits skip the conservative condition gate: the contraction
    certificate at every evaluation point (and the solver's abort of a
    growing residual) still refuses genuinely non-contracting cases, and
    those refusals are tallied as failures.
    """
    rng = replication_rng(config.seed, index)
    theta0 = config.theta0
    start = (
        np.asarray(config.theta_start, dtype=float)
        if config.theta_start is not None else theta0
    )
    try:
        model = build_model(config, rng)
        profile = build_profile(config, model)
        fit = estimator.profile_mle(
            profile, start, tol=config.fit_tol, max_newton=config.max_newton,
            force=True,
        )
    except estimator.NUMERICAL_FAILURES as exc:
        return Replication(index=index, converged=False,
                           error=type(exc).__name__)
    diff = fit.theta_hat - theta0
    root = _matrix_sqrt(fit.info_hat)
    standardized = np.sqrt(fit.n) * (root @ diff)
    covered = np.abs(diff) <= Z95 * fit.se
    return Replication(
        index=index,
        converged=True,
        theta_hat=fit.theta_hat,
        se=fit.se,
        standardized=standardized,
        covered=covered,
    )


def _matrix_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _ks_normal(x):
    """Two-sided Kolmogorov-Smirnov distance of the sample x from N(0, 1),
    by the D+/D- formula of the one-sample test."""
    from scipy.special import ndtr  # here: replications never call it, only the report

    cdf = ndtr(np.sort(x))
    n = len(cdf)
    d_plus = (np.arange(1, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0, n) / n).max()
    return max(d_plus, d_minus)


@dataclass
class McReport:
    """Aggregate Monte Carlo diagnostics for one configuration."""

    model: str
    n: int
    replications: int
    seed: int
    n_success: int
    bias: np.ndarray
    empirical_sd: np.ndarray
    mean_se: np.ndarray
    coverage95: np.ndarray
    sd_to_se_ratio: np.ndarray
    ks_statistic: float
    failure_counts: dict
    records: list = field(default_factory=list, repr=False)

    def to_json(self):
        """The study report, every field but the per-replication records."""
        data = estimator.plain_fields(self)
        del data["records"]
        return estimator.to_json(data)

    def write_records_csv(self, path):
        d = len(self.bias)
        header = (
            ["replication", "converged", "error"]
            + [f"theta_hat_{k + 1}" for k in range(d)]
            + [f"se_{k + 1}" for k in range(d)]
            + [f"covered_{k + 1}" for k in range(d)]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rep in self.records:
                if rep.converged:
                    row = (
                        [rep.index, 1, ""]
                        + [repr(float(v)) for v in rep.theta_hat]
                        + [repr(float(v)) for v in rep.se]
                        + [int(v) for v in rep.covered]
                    )
                else:
                    row = [rep.index, 0, rep.error] + [""] * (3 * d)
                writer.writerow(row)


#: Share of failed replications beyond which a study raises HarnessAlarm.
ALARM_FRACTION = 0.05


def monte_carlo(config, jobs=1):
    """Run the study and aggregate; raise HarnessAlarm if over ALARM_FRACTION fail.

    The alarm carries the finished report so callers can still persist it.
    """
    indices = list(range(config.replications))
    if jobs > 1:
        # here: multiprocessing would cost every fit and serial study ~1.4 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reps = list(pool.map(run_replication, [config] * len(indices),
                                 indices, chunksize=8))
    else:
        reps = [run_replication(config, i) for i in indices]
    reps.sort(key=lambda r: r.index)

    theta0 = config.theta0
    d = len(theta0)
    ok = [r for r in reps if r.converged]
    failures = {}
    for r in reps:
        if not r.converged:
            failures[r.error] = failures.get(r.error, 0) + 1

    if ok:
        estimates = np.array([r.theta_hat for r in ok])
        ses = np.array([r.se for r in ok])
        covered = np.array([r.covered for r in ok])
        standardized = np.array([r.standardized for r in ok])
        bias = estimates.mean(axis=0) - theta0
        sd = estimates.std(axis=0, ddof=1) if len(ok) > 1 else np.zeros(d)
        mean_se = ses.mean(axis=0)
        coverage = covered.mean(axis=0)
        ratio = np.where(mean_se > 0, sd / np.where(mean_se > 0, mean_se, 1.0), np.nan)
        ks = max(_ks_normal(standardized[:, k]) for k in range(d))
    else:
        bias = sd = mean_se = coverage = ratio = np.full(d, np.nan)
        ks = np.nan

    report = McReport(
        model=config.model,
        n=config.n,
        replications=config.replications,
        seed=config.seed,
        n_success=len(ok),
        bias=bias,
        empirical_sd=sd,
        mean_se=mean_se,
        coverage95=coverage,
        sd_to_se_ratio=ratio,
        ks_statistic=float(ks),
        failure_counts=failures,
        records=reps,
    )
    n_failed = config.replications - len(ok)
    if n_failed > ALARM_FRACTION * config.replications:
        raise HarnessAlarm(
            f"{n_failed} of {config.replications} replications failed",
            report=report,
        )
    return report
