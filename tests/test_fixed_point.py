import numpy as np
import pytest

from profix import fixed_point, prop_odds
from profix.errors import ContractionViolation, InvalidInput, NoConvergence
from profix.fixed_point import FixedPointProblem, solve_fixed_point
from profix.measures import LinearMap

from reference import psi_prop_odds_naive


def scalar_problem(fn):
    return FixedPointProblem(apply=lambda v: np.array([fn(v[0])]), dimension=1)


class TestSolveFixedPoint:
    def test_affine_scalar(self):
        sol = solve_fixed_point(scalar_problem(lambda e: 1.0 + 0.5 * e),
                                np.zeros(1), tol=1e-12)
        assert sol.eta[0] == pytest.approx(2.0, abs=1e-10)
        assert sol.residual < 1e-12

    def test_linear_scalar_to_zero(self):
        sol = solve_fixed_point(scalar_problem(lambda e: 0.9 * e),
                                np.array([5.0]), tol=1e-12)
        assert abs(sol.eta[0]) < 1e-10

    def test_contraction_violation(self):
        with pytest.raises(ContractionViolation):
            solve_fixed_point(scalar_problem(lambda e: 2.0 * e), np.array([1.0]))

    def test_no_convergence_reports_best_residual(self, monkeypatch):
        # twenty distinct rates up to 0.99: the accelerated iteration needs
        # about a hundred applications, five times the budget set here
        rates = np.linspace(0.5, 0.99, 20)
        problem = FixedPointProblem(apply=lambda v: 1.0 + rates * v, dimension=20)
        with monkeypatch.context() as patch:
            patch.setattr(fixed_point, "DEFAULT_MAX_ITER", 20)
            with pytest.raises(NoConvergence) as err:
                solve_fixed_point(problem, np.zeros(20), tol=1e-12)
        assert err.value.residual is not None and err.value.residual > 0
        assert err.value.iterations == 20
        assert solve_fixed_point(problem, np.zeros(20), tol=1e-12).iterations > 20

    def test_linear_problems_match_direct_solve(self, rng):
        for _ in range(25):
            dim = rng.integers(2, 21)
            M = rng.normal(size=(dim, dim))
            M *= 0.8 / LinearMap(M).sup_norm()
            b = rng.normal(size=dim)
            problem = FixedPointProblem(
                apply=lambda v, M=M, b=b: b + M @ v, dimension=int(dim)
            )
            tol = 1e-10
            sol = solve_fixed_point(problem, np.zeros(dim), tol=tol)
            direct = np.linalg.solve(np.eye(dim) - M, b)
            assert np.abs(sol.eta - direct).max() < 10 * tol

    def test_idempotent_restart(self, rng):
        M = rng.normal(size=(6, 6))
        M *= 0.7 / LinearMap(M).sup_norm()
        b = rng.normal(size=6)
        problem = FixedPointProblem(apply=lambda v: b + M @ v, dimension=6)
        sol = solve_fixed_point(problem, np.zeros(6))
        again = solve_fixed_point(problem, sol.eta)
        assert again.iterations <= 2

    def test_dimension_guard(self):
        problem = scalar_problem(lambda e: e)
        with pytest.raises(InvalidInput):
            solve_fixed_point(problem, np.zeros(2))
        with pytest.raises(InvalidInput):
            solve_fixed_point(problem, np.zeros(1), tol=-1.0)
        with pytest.raises(InvalidInput):
            solve_fixed_point(problem, np.zeros(1), tol=np.nan)

    def test_diagnostics_json_ready(self):
        import json

        sol = solve_fixed_point(scalar_problem(lambda e: 1 + 0.5 * e), np.zeros(1))
        payload = json.dumps(sol.diagnostics())
        assert "residual_trace" in payload

    def test_tail_contraction_reads_the_last_ratios(self):
        # the ratios are those of the accelerated residual, not Psi's factor:
        # on an affine map of slope 0.5 the first extrapolation lands on
        # the fixed point, so the tail reads roundoff where plain
        # substitution would read 0.5; a short first step still makes the
        # first ratio large, and the plain step after it is a fallback
        calls = []

        def apply(v):
            calls.append(v[0])
            return np.array([0.1 if len(calls) == 1 else 1.0 + 0.5 * v[0]])

        sol = solve_fixed_point(FixedPointProblem(apply, 1), np.zeros(1), tol=1e-12)
        assert sol.eta[0] == pytest.approx(2.0, abs=1e-12)
        assert sol.iterations == 4 and sol.fallbacks == 1
        assert sol.contraction_estimate > 1.0
        assert sol.tail_contraction < 1e-4
        assert sol.diagnostics()["tail_contraction"] == sol.tail_contraction
        assert sol.diagnostics()["fallbacks"] == 1

    def test_accelerated_rate_is_below_the_contraction_factor(self):
        # rates up to 0.55, the factor of a survival operator: plain
        # substitution would take 47 steps to 1e-12, each shrinking the
        # residual by 0.55
        rates = np.array([0.55, 0.4, 0.25, 0.1])
        problem = FixedPointProblem(apply=lambda v: 1.0 + rates * v, dimension=4)
        sol = solve_fixed_point(problem, np.zeros(4), tol=1e-12)
        assert np.abs(sol.eta - 1.0 / (1.0 - rates)).max() < 1e-12
        assert sol.iterations <= 8 and sol.fallbacks == 0
        assert sol.tail_contraction < 0.01

    def test_negative_extrapolate_takes_the_plain_step(self):
        # Psi(x) = 0.01 + x^2 from 0.4: the secant through the first two
        # residuals extrapolates to about -0.135, which the operator, like
        # the nuisance operators, refuses
        seen = []

        def apply(v):
            seen.append(v[0])
            if v[0] < 0.0:
                raise InvalidInput("negative input")
            return np.array([0.01 + v[0] ** 2])

        g0, g1 = 0.01 + 0.4**2, 0.01 + (0.01 + 0.4**2) ** 2
        f0, f1 = g0 - 0.4, g1 - g0
        assert g1 - (g1 - g0) * f1 / (f1 - f0) < 0.0
        sol = solve_fixed_point(FixedPointProblem(apply, 1), np.array([0.4]), tol=1e-12)
        assert min(seen) >= 0.0
        assert sol.fallbacks >= 1
        assert sol.eta[0] == pytest.approx((1.0 - np.sqrt(0.96)) / 2.0, abs=1e-12)

    def test_singular_gram_system_restarts(self):
        # residuals 3u, 2u, u, 0 whatever the input: the two residual
        # differences are equal, their Gram system is singular, and the
        # solve takes the plain step instead of raising
        u = np.ones(2)
        calls = []

        def apply(v):
            calls.append(1)
            return v + max(4 - len(calls), 0) * u

        sol = solve_fixed_point(FixedPointProblem(apply, 2), np.zeros(2))
        assert sol.iterations == 4 and sol.fallbacks == 1
        assert sol.residual_trace == [3.0, 2.0, 1.0, 0.0]

    def test_one_iteration_solve_returns_its_start(self):
        # a start within tol of the fixed point is the solution: its
        # residual is the one measured, and one residual gives no ratio
        problem = scalar_problem(lambda e: 0.5 * e)
        start = np.array([2.0**-30])
        sol = solve_fixed_point(problem, start, tol=1e-6)
        assert sol.iterations == 1
        assert np.array_equal(sol.eta, start)
        assert sol.residual == sol.residual_trace[0] == 2.0**-31
        assert sol.contraction_estimate == sol.tail_contraction == 0.0

    def test_returns_the_iterate_whose_residual_it_measured(self, rng):
        # every application of Psi is an iteration, and the reported
        # residual is that of the returned nuisance
        M = rng.normal(size=(8, 8))
        M *= 0.6 / LinearMap(M).sup_norm()
        b = rng.normal(size=8)
        calls = []

        def apply(v):
            calls.append(1)
            return b + M @ v

        sol = solve_fixed_point(FixedPointProblem(apply, 8), np.zeros(8))
        assert len(calls) == sol.iterations == len(sol.residual_trace)
        residual = np.abs(apply(sol.eta) - sol.eta).max()
        assert residual == sol.residual == sol.residual_trace[-1] <= 1e-10

    def test_survival_operator_five_records(self):
        # event/censor mix at beta=0; residual certified by naive substitution
        u = np.array([0.4, 0.9, 1.3, 2.1, 2.8])
        delta = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        z = np.array([0.5, -0.5, 0.5, -0.5, 0.5])
        model = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        sol = prop_odds.solve_nuisance(prop_odds.Operator(model, [0.0]))
        assert sol.residual < 1e-10
        times, jumps = psi_prop_odds_naive(
            u, delta, z, model.weights, [0.0], model.event_times, sol.eta
        )
        assert np.array_equal(times, model.event_times)
        assert np.abs(jumps - sol.eta).max() < 1e-10
