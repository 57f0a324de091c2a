import numpy as np
import pytest

from profix import estimator, missing_cov, prop_odds, simulation
from profix.errors import (
    InvalidInput,
    InvalidState,
    NoConvergence,
    RiskSetEmpty,
    SingularInformation,
)
from profix.estimator import confidence_interval, efficient_information, profile_mle
from profix.missing_cov import MissingCovModel, MissingCovProfile, NormalRegression

from reference import normal_fisher_information

THETA0 = np.array([0.0, 1.0, 0.0])


def ex2_model(n, seed, design=None):
    rng = simulation.replication_rng(seed, 0)
    design = design or missing_cov.MissingCovDesign()
    r, y, x = simulation.gen_missing_cov(design, n, rng)
    return MissingCovModel.from_arrays(r, y, x, NormalRegression())


class TestProfileMle:
    def test_example2_run_record(self):
        model = ex2_model(500, 1)
        fit = profile_mle(MissingCovProfile(model), THETA0)
        assert fit.converged
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

    def test_prop_odds_fit(self):
        rng = simulation.replication_rng(12, 0)
        design = prop_odds.PropOddsDesign()
        u, delta, z = simulation.gen_prop_odds(design, 400, rng)
        model = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        fit = profile_mle(prop_odds.PropOddsProfile(model), np.array([0.0]))
        assert fit.converged and fit.score_norm < 1e-8

    def test_jacobian_agreement_at_the_estimate(self):
        from profix.numdiff import FdConfig, fd_theta

        model = ex2_model(300, 14)
        profile = MissingCovProfile(model, solver_tol=1e-12)
        fit = profile_mle(profile, THETA0, tol=1e-10)
        analytic = profile.jacobian(fit.theta_hat)
        fd = fd_theta(profile.mean_score, fit.theta_hat, FdConfig(step=1e-4))
        denom = max(np.abs(fd).max(), 1e-10)
        assert np.abs(analytic - fd.T).max() / denom < 1e-3

    def test_diagnostics_carry_nuisance_solve(self):
        # the start is away from theta_hat, so the solve at theta_hat is a
        # real warm-started iteration, not a one-step re-solve
        model = ex2_model(100, 4)
        fit = profile_mle(MissingCovProfile(model), THETA0)
        nuisance = fit.diagnostics["nuisance"]
        assert nuisance["residual"] < 1e-10
        assert nuisance["iterations"] > 1
        assert nuisance["contraction_estimate"] > 0

    def test_numerical_failure_of_a_candidate_is_halved_past(self):
        profile = LineSearchStub(RiskSetEmpty("empty risk set"))
        fit = profile_mle(profile, np.zeros(1))
        assert profile.evaluated == [0.0, 1.0, 0.5, 1.0]
        assert fit.theta_hat[0] == 1.0

    def test_programming_error_in_a_candidate_propagates(self):
        with pytest.raises(TypeError):
            profile_mle(LineSearchStub(TypeError("bug")), np.zeros(1))


class LineSearchStub:
    """Mean score theta - 1 whose first Newton candidate raises exc."""

    dim = 1
    n = 4
    weights = np.full(4, 0.25)
    last_solution = None

    def __init__(self, exc):
        self.exc = exc
        self.evaluated = []

    def precheck(self, theta):
        pass

    def mean_score(self, theta):
        self.evaluated.append(float(theta[0]))
        if len(self.evaluated) == 2:
            raise self.exc
        return theta - 1.0

    def jacobian(self, theta):
        return np.eye(1)

    def score(self, theta):
        return np.array([[1.0], [-1.0], [1.0], [-1.0]])


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
        info, _ = efficient_information(profile, fit.theta_hat)
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
        i1, _ = efficient_information(MissingCovProfile(m1), THETA0)
        i2, _ = efficient_information(MissingCovProfile(m2), THETA0)
        assert np.array_equal(i1, i2)

    def test_singular_information(self):
        # a parameter-free family yields an identically zero score
        from test_missing_cov import UniformOutcome

        model = MissingCovModel.from_arrays(
            [1, 1], [0.2, 1.2], [0.0, 1.0], UniformOutcome()
        )
        profile = MissingCovProfile(model)
        with pytest.raises(SingularInformation):
            efficient_information(profile, np.zeros(2))


class TestConfidenceInterval:
    def _fit(self, se=0.1, theta=1.0):
        return estimator.FitResult(
            theta_hat=np.array([theta]),
            info_hat=np.eye(1),
            se=np.array([se]),
            iterations=3,
            converged=True,
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

    def test_needs_convergence(self):
        fit = self._fit()
        fit.converged = False
        with pytest.raises(InvalidState):
            confidence_interval(fit)

    def test_level_domain(self):
        with pytest.raises(InvalidInput):
            confidence_interval(self._fit(), 1.0)
