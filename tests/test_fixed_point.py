import numpy as np
import pytest

from profix import prop_odds
from profix.errors import ContractionViolation, InvalidInput, NoConvergence
from profix.fixed_point import (
    FixedPointProblem,
    estimate_operator_norm,
    solve_fixed_point,
    vector_norm,
)
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

    def test_no_convergence_reports_best_residual(self):
        problem = scalar_problem(lambda e: 1.0 + 0.999999 * e)
        with pytest.raises(NoConvergence) as err:
            solve_fixed_point(problem, np.zeros(1), tol=1e-14, max_iter=20)
        assert err.value.residual is not None and err.value.residual > 0

    def test_linear_problems_match_direct_solve(self, rng):
        for _ in range(25):
            dim = rng.integers(2, 21)
            M = rng.normal(size=(dim, dim))
            M *= 0.8 / estimate_operator_norm(M, "sup")
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
        M *= 0.7 / estimate_operator_norm(M, "sup")
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
        # an affine map with slope 0.5 contracts at exactly 0.5 per step;
        # a short first step makes the first ratio large but not the tail
        calls = []

        def apply(v):
            calls.append(v[0])
            return np.array([0.1 if len(calls) == 1 else 1.0 + 0.5 * v[0]])

        sol = solve_fixed_point(FixedPointProblem(apply, 1), np.zeros(1), tol=1e-12)
        assert sol.contraction_estimate > 1.0
        assert sol.tail_contraction == pytest.approx(0.5, rel=1e-3)
        assert sol.diagnostics()["tail_contraction"] == sol.tail_contraction

    def test_one_iteration_solve_reads_the_residual_ratio(self):
        # the residual check is the difference after the last, so a start
        # one step from the fixed point still measures the rate; a start at
        # the fixed point has no nonzero difference to divide by
        problem = scalar_problem(lambda e: 0.5 * e)
        sol = solve_fixed_point(problem, np.array([2.0**-30]), tol=1e-6)
        assert sol.iterations == 1
        assert sol.contraction_estimate == sol.tail_contraction == 0.5
        exact = solve_fixed_point(problem, np.zeros(1), tol=1e-6)
        assert exact.contraction_estimate == exact.tail_contraction == 0.0

    def test_survival_operator_five_records(self):
        # event/censor mix at beta=0; residual certified by naive substitution
        u = np.array([0.4, 0.9, 1.3, 2.1, 2.8])
        delta = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        z = np.array([0.5, -0.5, 0.5, -0.5, 0.5])
        model = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        sol = prop_odds.solve_nuisance(model, [0.0])
        assert sol.residual < 1e-10
        times, jumps = psi_prop_odds_naive(
            u, delta, z, model.weights, [0.0], model.event_times, sol.eta
        )
        assert np.array_equal(times, model.event_times)
        assert np.abs(jumps - sol.eta).max() < 1e-10


class TestOperatorNorm:
    def test_diagonal(self):
        assert estimate_operator_norm(LinearMap(np.diag([0.3, 0.3])), "sup") == (
            pytest.approx(0.3)
        )

    def test_row_sums(self):
        M = LinearMap(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert estimate_operator_norm(M, "sup") == pytest.approx(0.5)

    def test_l1_column_sums(self):
        M = LinearMap(np.array([[0.1, 0.7], [0.3, 0.1]]))
        assert estimate_operator_norm(M, "l1") == pytest.approx(0.8)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            estimate_operator_norm(LinearMap(np.array([[np.nan]])), "sup")

    def test_unknown_norm(self):
        with pytest.raises(InvalidInput):
            vector_norm(np.ones(2), "l2")
