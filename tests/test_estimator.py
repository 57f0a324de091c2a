import gc
import weakref

import numpy as np
import pytest
from scipy import special, stats

from profix import estimator, implicit_diff, missing_cov, prop_odds, simulation
from profix.errors import (
    InvalidInput,
    NoConvergence,
    NumericOverflow,
    RiskSetEmpty,
    SingularInformation,
)
from profix.estimator import (
    Point,
    confidence_interval,
    efficient_information,
    profile_mle,
)
from profix.fixed_point import FixedPointSolution
from profix.implicit_diff import d2theta_eta
from profix.measures import LinearMap, StepFunction
from profix.missing_cov import MissingCovModel, MissingCovProfile, NormalRegression

from reference import (
    PlainMissingCovProfile,
    PlainPropOddsProfile,
    normal_fisher_information,
    score_jacobian_per_record,
)

THETA0 = np.array([0.0, 1.0, 0.0])


def ex2_model(n, seed, design=None):
    rng = simulation.replication_rng(seed, 0)
    design = design or missing_cov.MissingCovDesign()
    r, y, x = simulation.gen_missing_cov(design, n, rng)
    return MissingCovModel.from_arrays(r, y, x, NormalRegression())


def linear_survival_model(n, seed):
    rng = simulation.replication_rng(seed, 0)
    u, delta, z = simulation.gen_prop_odds(prop_odds.LINEAR_DESIGN, n, rng)
    return prop_odds.PropOddsModel.from_arrays(u, delta, z)


class TestProfileMle:
    def test_example2_run_record(self):
        model = ex2_model(500, 1)
        fit = profile_mle(MissingCovProfile(model), THETA0)
        assert fit.score_norm < 1e-8
        assert np.abs(fit.theta_hat - THETA0).max() < 0.2

    def test_w2_zero_equals_parametric_mle(self):
        design = missing_cov.MissingCovDesign(w2=0.0)
        model = ex2_model(200, 5, design)
        fit = profile_mle(MissingCovProfile(model), np.array([0.1, 0.8, 0.1]),
                          tol=1e-12)
        y = model.y
        x = model.points[:, 2]
        X = np.column_stack([np.ones(len(y)), x])
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        sigma = np.sqrt(np.mean((y - X @ coef) ** 2))
        closed = np.array([coef[0], coef[1], np.log(sigma)])
        assert np.abs(fit.theta_hat - closed).max() < 1e-8

    def test_population_grid_recovers_truth(self, missing_cov_population):
        profile = MissingCovProfile(missing_cov_population.model,
                                    solver_tol=1e-12)
        fit = profile_mle(profile, THETA0 + 0.05, tol=1e-10)
        assert np.abs(fit.theta_hat - THETA0).max() < 1e-6

    def test_newton_invariance_to_start(self):
        model = ex2_model(300, 9)
        fits = [
            profile_mle(MissingCovProfile(model), start, tol=1e-10)
            for start in (THETA0 + 0.4, THETA0 - 0.3)
        ]
        assert np.abs(fits[0].theta_hat - fits[1].theta_hat).max() < 1e-7

    def test_no_convergence_budget(self):
        model = ex2_model(200, 3)
        with pytest.raises(NoConvergence):
            profile_mle(MissingCovProfile(model), THETA0 + 2.0, max_newton=1)

    def test_start_dimension_guard(self):
        model = ex2_model(50, 3)
        with pytest.raises(InvalidInput):
            profile_mle(MissingCovProfile(model), np.zeros(2))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_guard(self, tol):
        profile = MissingCovProfile(ex2_model(50, 3))
        with pytest.raises(InvalidInput, match="tolerance"):
            profile_mle(profile, THETA0, tol=tol)
        assert profile.last_point is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_newton", [-1, -3])
    def test_newton_budget_guard(self, max_newton):
        profile = MissingCovProfile(ex2_model(50, 3))
        with pytest.raises(InvalidInput, match="max_newton must be nonnegative"):
            profile_mle(profile, THETA0, max_newton=max_newton)
        assert profile.last_point is None

    def test_prop_odds_fit(self):
        rng = simulation.replication_rng(12, 0)
        design = prop_odds.PropOddsDesign()
        u, delta, z = simulation.gen_prop_odds(design, 400, rng)
        model = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        fit = profile_mle(prop_odds.PropOddsProfile(model), np.array([0.0]))
        assert fit.score_norm < 1e-8

    def test_jacobian_agreement_at_the_estimate(self):
        from profix.numdiff import fd_theta

        model = ex2_model(300, 14)
        profile = MissingCovProfile(model, solver_tol=1e-12)
        fit = profile_mle(profile, THETA0, tol=1e-10)
        analytic = profile.jacobian(profile.point(fit.theta_hat))
        fd = fd_theta(profile.mean_score, fit.theta_hat, step=1e-4)
        denom = max(np.abs(fd).max(), 1e-10)
        assert np.abs(analytic - fd.T).max() / denom < 1e-3

    def test_diagnostics_carry_nuisance_solve(self):
        # the diagnostics are those of the solve at theta_hat, not of the
        # start's solve or of a later re-solve
        model = ex2_model(100, 4)
        profile = MissingCovProfile(model)
        fit = profile_mle(profile, THETA0)
        point = profile.last_point
        assert np.array_equal(point.theta, fit.theta_hat)
        expected = point.solution.diagnostics()
        del expected["residual_trace"]
        nuisance = fit.diagnostics["nuisance"]
        assert nuisance == expected
        assert nuisance["residual"] <= profile.solver_tol
        assert nuisance["iterations"] >= 1
        # the residual is that of the returned nuisance itself
        eta = point.solution.eta
        image = missing_cov.Operator(model, point.theta, profile.weights)(eta)
        assert nuisance["residual"] == np.abs(image - eta).max()

    def test_failed_solves_are_counted(self):
        # from this far start four Newton candidates raise inside their solve
        fit = profile_mle(MissingCovProfile(ex2_model(200, 4)), np.array([1.0, 1.0, 0.0]))
        solves = fit.diagnostics["nuisance_solves"]
        assert (solves["started"], solves["failed"], solves["count"]) == (12, 4, 8)

    def test_numerical_failure_of_a_candidate_is_halved_past(self):
        profile = LineSearchStub(RiskSetEmpty("empty risk set"))
        fit = profile_mle(profile, np.zeros(1))
        assert profile.evaluated == [0.0, 1.0, 0.5, 1.0]
        assert fit.theta_hat[0] == 1.0

    def test_programming_error_in_a_candidate_propagates(self):
        with pytest.raises(TypeError):
            profile_mle(LineSearchStub(TypeError("bug")), np.zeros(1))


def recording(profile_cls):
    """profile_cls recording each parameter it solves at, and how many of
    those solves started from the last point's eta itself."""

    class Recording(profile_cls):
        def __init__(self, model):
            super().__init__(model)
            self.evaluated = []
            self.fallbacks = 0

        def start(self, theta):
            self.evaluated.append(theta)
            guess = super().start(theta)
            if guess is not None and np.array_equal(guess, self.last_point.solution.eta):
                self.fallbacks += 1
            return guess

    return Recording


def fit_both(model, start):
    """Fits with the Taylor-predicted start and with the plain warm start."""
    if isinstance(model, MissingCovModel):
        classes = MissingCovProfile, PlainMissingCovProfile
    else:
        classes = prop_odds.PropOddsProfile, PlainPropOddsProfile
    profiles = [recording(cls)(model) for cls in classes]
    fits = [profile_mle(p, start, force=True) for p in profiles]
    return profiles, fits


def assert_same_fit(fits, profiles):
    fit, plain = fits
    assert fit.iterations == plain.iterations
    assert len(profiles[0].evaluated) == len(profiles[1].evaluated)
    for a, b in zip(*(p.evaluated for p in profiles)):
        assert np.abs(a - b).max() <= 1e-8 * plain.se.min()
    assert np.abs(fit.theta_hat - plain.theta_hat).max() <= 1e-8 * plain.se.min()
    assert np.abs(fit.se / plain.se - 1.0).max() <= 1e-8


class TestNuisanceStart:
    @pytest.mark.parametrize("make, n, seed, start, iterations", [
        (linear_survival_model, 300, 32, np.zeros(1), 23),
        (ex2_model, 500, 1, THETA0, 22),
    ], ids=["prop_odds", "missing_cov"])
    def test_prediction_saves_iterations(self, make, n, seed, start, iterations):
        profiles, fits = fit_both(make(n, seed), start)
        assert_same_fit(fits, profiles)
        solves = [f.diagnostics["nuisance_solves"] for f in fits]
        assert solves[0]["count"] == solves[1]["count"] == len(profiles[0].evaluated)
        assert solves[0]["iterations"] == iterations
        assert solves[0]["iterations"] < solves[1]["iterations"]
        assert profiles[0].fallbacks == 0

    @pytest.mark.parametrize("make, n, seed, start", [
        (linear_survival_model, 300, 32, np.array([4.0])),
        (ex2_model, 200, 4, THETA0 + [1.0, 0.0, 0.0]),
    ], ids=["prop_odds", "missing_cov"])
    def test_negative_prediction_falls_back(self, make, n, seed, start):
        # a far start's first Newton candidate predicts a negative jump or
        # mass, which the operator would refuse as a bad step
        profiles, fits = fit_both(make(n, seed), start)
        assert profiles[0].fallbacks > 0
        assert_same_fit(fits, profiles)

    def test_precheck_point_starts_the_first_score(self):
        rng = simulation.replication_rng(12, 0)
        u, delta, z = simulation.gen_prop_odds(prop_odds.PropOddsDesign(), 400, rng)
        profile = prop_odds.PropOddsProfile(
            prop_odds.PropOddsModel.from_arrays(u, delta, z))
        profile.precheck(np.zeros(1))
        cold = profile.solve_iterations
        profile.mean_score(np.zeros(1))
        assert profile.solves == 2
        assert profile.solve_iterations == cold + 1


def count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestOneBindPerPoint:
    """A point binds its family's operator once: the solve and the
    derivative bundle share it."""

    @pytest.mark.parametrize("name, make", [
        ("prop_odds", linear_survival_model), ("missing_cov", ex2_model),
    ])
    def test_one_operator_per_point(self, name, make, monkeypatch):
        family = simulation.get_family(name)
        model = make(200, 3)
        profile = family.profile(model)
        start = np.asarray(family.default_start(model), dtype=float)
        binds = count_calls(monkeypatch, family.module.Operator, "__init__")
        profile.point(start)
        assert len(binds) == 1
        profile.point(start + 0.01)
        assert len(binds) == 2

    def test_mixture_point_evaluates_the_density_twice(self, monkeypatch):
        # once for the bound operator's incomplete-case matrix, once at the
        # complete records for the score
        profile = MissingCovProfile(ex2_model(200, 3))
        calls = count_calls(monkeypatch, NormalRegression, "density")
        profile.point(THETA0)
        assert len(calls) == 2

    def test_survival_fit_builds_no_step_function(self, monkeypatch):
        profile = prop_odds.PropOddsProfile(linear_survival_model(200, 3))
        steps = count_calls(monkeypatch, StepFunction, "__init__")
        profile_mle(profile, np.zeros(1), force=True)
        assert steps == []

    @pytest.mark.parametrize("theta, error", [
        ([1.0], NumericOverflow), ([0.1, 0.2], InvalidInput),
    ])
    def test_refused_bind_counts_as_a_failed_solve(self, theta, error):
        model = prop_odds.PropOddsModel.from_arrays(
            [1.0, 2.0, 1.5], [1, 0, 1], [60.0, -1.0, 0.5])
        profile = prop_odds.PropOddsProfile(model)
        with pytest.raises(error):
            profile.point(theta)
        assert (profile.solves_started, profile.solves) == (1, 0)


BOTH_FAMILIES = pytest.mark.parametrize("name, make", [
    ("prop_odds", linear_survival_model), ("missing_cov", ex2_model),
])


class TestDerivativeBundle:
    """A fit reads no second-order part of a point's derivative bundle and
    does one resolvent solve per point; the bundle is freed with the point."""

    @BOTH_FAMILIES
    def test_freed_without_the_cycle_collector(self, name, make):
        # a value cached on the bundle that held the bundle would keep
        # every point's arrays alive until the cyclic collector ran
        family = simulation.get_family(name)
        model = make(200, 3)
        profile = family.profile(model)
        point = profile.point(family.default_start(model))
        profile.jacobian(point)
        d2theta_eta(point.derivs, point.eta_dot)
        bundle = weakref.ref(point.derivs)
        gc.disable()
        try:
            del point
            profile.last_point = None
            assert bundle() is None
        finally:
            gc.enable()

    @BOTH_FAMILIES
    def test_fit_reads_first_order_parts_only(self, name, make, monkeypatch):
        family = simulation.get_family(name)
        model = make(200, 3)
        profile = family.profile(model)
        reads = []
        for attr in ("ddot_psi", "mixed", "d2_eta"):
            monkeypatch.setattr(family.module._Workspace, attr,
                                property(lambda ws, attr=attr: reads.append(attr)))
        resolvents = count_calls(monkeypatch, implicit_diff, "resolvent_apply")
        fit = profile_mle(profile, family.default_start(model), force=True)
        assert fit.iterations > 0
        assert reads == []
        assert len(resolvents) == profile.solves
        if name == "missing_cov":
            linear = count_calls(monkeypatch, LinearMap, "__init__")
            profile.jacobian(profile.point(fit.theta_hat))
            assert len(linear) == 1  # the nuisance derivative itself


    @BOTH_FAMILIES
    def test_second_order_members(self, name, make, rng):
        # ddot_psi is exactly symmetric, mixed(H) is linear in H, and
        # d2_eta(H) is symmetric in its pair and bilinear
        family = simulation.get_family(name)
        model = make(200, 3)
        derivs = family.profile(model).point(family.default_start(model)).derivs
        ddot = derivs.ddot_psi
        assert np.array_equal(ddot, ddot.transpose(1, 0, 2))

        def assert_near(lhs, rhs):
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

        m = ddot.shape[-1]
        H1, H2 = rng.normal(size=(2, 3, m))
        a, b = 1.7, -0.4
        mixed = derivs.mixed(a * H1 + b * H2)
        assert mixed.shape == (len(ddot), 3, m)
        assert_near(mixed, a * derivs.mixed(H1) + b * derivs.mixed(H2))

        pairs = derivs.d2_eta(H1)
        assert pairs.shape == (3, 3, m)
        assert_near(pairs, pairs.transpose(1, 0, 2))
        h1, h1p, h2 = H1
        lhs = derivs.d2_eta(np.stack([a * h1 + b * h1p, h2]))[0, 1]
        assert_near(lhs, a * pairs[0, 2] + b * pairs[1, 2])


def survival_profile(p, solver_tol):
    """A survival profile with p covariates: the linear design's and a
    deterministic second column."""
    model = linear_survival_model(300, 5)
    z = np.column_stack([model.z[:, 0], np.cos(np.arange(model.n_records))])[:, :p]
    model = prop_odds.PropOddsModel.from_arrays(model.u, model.delta, z,
                                                weights=model.weights)
    return prop_odds.PropOddsProfile(model, solver_tol=solver_tol)


ENVELOPE_CASES = pytest.mark.parametrize("make, theta", [
    (lambda tol: survival_profile(1, tol), np.array([0.4])),
    (lambda tol: survival_profile(2, tol), np.array([0.4, -0.2])),
    (lambda tol: MissingCovProfile(ex2_model(300, 5), solver_tol=tol), THETA0 + 0.05),
], ids=["prop_odds-p1", "prop_odds-p2", "missing_cov"])


class TestEnvelopeJacobian:
    """The fixed point is stationary in the nuisance, so the Jacobian of the
    mean score needs eta_dot alone: it equals the score differentiated once
    more through eta_ddot."""

    @ENVELOPE_CASES
    def test_eta_dot_part_of_mean_score_vanishes(self, make, theta):
        profile = make(1e-10)
        point = profile.point(theta)
        plain = profile.point_scores(point.solution.eta, point.derivs,
                                     np.zeros_like(point.eta_dot))
        eta_part = (point.scores - plain).T @ profile.weights
        scale = (np.abs(plain).T @ profile.weights).max()
        assert np.abs(eta_part).max() <= 10 * profile.solver_tol * scale

    def test_mixture_eta_dot_has_zero_total(self):
        point = MissingCovProfile(ex2_model(300, 5)).point(THETA0 + 0.05)
        assert np.abs(point.eta_dot.sum(axis=1)).max() <= 1e-9 * np.abs(point.eta_dot).max()

    @ENVELOPE_CASES
    def test_jacobian_equals_second_derivative_oracle(self, make, theta):
        profile = make(1e-12)
        point = profile.point(theta)
        eta_ddot = d2theta_eta(point.derivs, point.eta_dot)
        per_record = score_jacobian_per_record(profile.model, point.derivs,
                                               point.eta_dot, eta_ddot)
        oracle = np.einsum("i,iab->ab", profile.weights, per_record)
        jac = profile.jacobian(point)
        assert np.abs(jac - oracle).max() <= 1e-12 * np.abs(oracle).max()


class LineSearchStub:
    """Mean score theta - 1 whose first Newton candidate raises exc."""

    dim = 1
    n = 4
    weights = np.full(4, 0.25)
    solves = solve_iterations = solves_started = 0
    solution = FixedPointSolution(eta=np.zeros(1), residual=0.0, iterations=1)
    scores = np.array([[1.0], [-1.0], [1.0], [-1.0]])

    def __init__(self, exc):
        self.exc = exc
        self.evaluated = []
        self.last_point = None

    def precheck(self, theta):
        pass

    def mean_score(self, theta):
        self.evaluated.append(float(theta[0]))
        if len(self.evaluated) == 2:
            raise self.exc
        self.last_point = Point(theta, self.solution, None, None, self.scores)
        return theta - 1.0

    def jacobian(self, point):
        return np.eye(1)


class TestEfficientInformation:
    def test_single_record_rank_one(self):
        model = MissingCovModel.from_arrays(
            [1, 1], [0.3, 0.9], [0.0, 1.0], NormalRegression()
        )
        profile = MissingCovProfile(model)
        scores = profile.score(THETA0)
        info = scores.T @ (model.weights[:, None] * scores)
        assert np.linalg.matrix_rank(info, tol=1e-12) <= 2

    def test_w2_zero_matches_fisher_information(self):
        design = missing_cov.MissingCovDesign(w2=0.0)
        n = 500
        model = ex2_model(n, 8, design)
        profile = MissingCovProfile(model)
        fit = profile_mle(profile, THETA0, tol=1e-10)
        info, _ = efficient_information(profile, profile.point(fit.theta_hat))
        x = model.points[model.complete_rows, 2]
        fisher = normal_fisher_information(
            fit.theta_hat, x.mean(), np.mean(x * x)
        )
        rel = np.abs(info - fisher).max() / np.abs(fisher).max()
        assert rel < 2.0 / np.sqrt(n)

    def test_permutation_invariance(self, rng):
        design = missing_cov.MissingCovDesign()
        r, y, x = simulation.gen_missing_cov(
            design, 80, simulation.replication_rng(21, 0)
        )
        perm = rng.permutation(len(r))
        m1 = MissingCovModel.from_arrays(r, y, x, NormalRegression())
        m2 = MissingCovModel.from_arrays(r[perm], y[perm], x[perm],
                                         NormalRegression())
        p1, p2 = MissingCovProfile(m1), MissingCovProfile(m2)
        i1, _ = efficient_information(p1, p1.point(THETA0))
        i2, _ = efficient_information(p2, p2.point(THETA0))
        assert np.array_equal(i1, i2)

    def test_singular_information(self):
        # a parameter-free family yields an identically zero score
        from test_missing_cov import UniformOutcome

        model = MissingCovModel.from_arrays(
            [1, 1], [0.2, 1.2], [0.0, 1.0], UniformOutcome()
        )
        profile = MissingCovProfile(model)
        with pytest.raises(SingularInformation):
            efficient_information(profile, profile.point(np.zeros(2)))


class TestConfidenceInterval:
    def _fit(self, se=0.1, theta=1.0):
        return estimator.FitResult(
            theta_hat=np.array([theta]),
            info_hat=np.eye(1),
            se=np.array([se]),
            iterations=3,
            score_norm=0.0,
            n=100,
        )

    def test_normal_quantile(self):
        lo, hi = confidence_interval(self._fit(), 0.95)[0]
        assert lo == pytest.approx(1.0 - 1.959964 * 0.1, abs=1e-6)
        assert hi == pytest.approx(1.0 + 1.959964 * 0.1, abs=1e-6)

    def test_shrinks_to_point(self):
        lo, hi = confidence_interval(self._fit(), 1e-12)[0]
        assert hi - lo < 1e-10

    def test_level_domain(self):
        with pytest.raises(InvalidInput):
            confidence_interval(self._fit(), 1.0)

    @pytest.mark.parametrize("level", [1e-12, 0.5, 0.9, 0.95, 0.99, 1 - 1e-12])
    def test_bitwise_equal_to_scipy_stats(self, level):
        fit = estimator.FitResult(
            theta_hat=np.array([1.0, -0.3, 7.25]), info_hat=np.eye(3),
            se=np.array([0.1, 2.5e-3, 3.0]), iterations=3, score_norm=0.0,
            n=100,
        )
        z = stats.norm.ppf(0.5 * (1.0 + level))
        expected = [(float(t - z * s), float(t + z * s))
                    for t, s in zip(fit.theta_hat, fit.se)]
        assert confidence_interval(fit, level) == expected


class TestNdtriPort:
    """estimator._ndtri is cephes ndtri operation for operation, so it
    returns the bits of scipy.special.ndtri."""

    @staticmethod
    def sweep():
        rng = np.random.default_rng(20261020)
        branches = np.array([np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0),
                             estimator._EXP_M2, 1.0 - estimator._EXP_M2])
        return np.concatenate([
            rng.uniform(size=20000),
            10.0 ** rng.uniform(-300.0, -1.0, 20000),
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
            branches, np.nextafter(branches, 0.0), np.nextafter(branches, 1.0),
            [0.0, 0.5, 0.975, 1.0, 5e-324, 1e-310, -0.5, 1.5, np.nan],
        ])

    def test_bitwise_equal_to_scipy_special(self):
        p = self.sweep()
        ported = np.array([estimator._ndtri(float(q)) for q in p])
        expected = special.ndtri(p)
        same = (ported == expected) | (np.isnan(ported) & np.isnan(expected))
        assert same.all(), p[~same][:5]

    def test_z95(self):
        assert simulation.Z95 == estimator._ndtri(0.975)
