import math

import numpy as np
import pytest

from profix import prop_odds, simulation
from profix.errors import (
    ContractionViolation,
    DegenerateJump,
    InvalidInput,
    NumericOverflow,
)
from profix.measures import StepFunction
from profix.prop_odds import (
    LINEAR_DESIGN,
    PropOddsDesign,
    PropOddsModel,
    PropOddsProfile,
    check_variance_condition,
    da_psi,
    da_psi_sup_norm,
    d2a_psi,
    df_psi,
    load_csv,
    loglik,
    population_records,
    population_self_consistency,
    psi_apply,
    solve_nuisance,
)

from reference import (
    SurvivalRecord,
    loglik_prop_odds_naive,
    psi_prop_odds_naive,
    weight_w,
)


def zero_step(tau=3.0):
    return StepFunction([], [], tau)


class TestWeightW:
    def test_event_at_risk(self):
        rec = SurvivalRecord(u=2.0, delta=1, z=(0.0,))
        assert weight_w(rec, 1.0, [0.0], zero_step()) == pytest.approx(2.0)

    def test_not_at_risk(self):
        rec = SurvivalRecord(u=0.5, delta=1, z=(0.0,))
        assert weight_w(rec, 1.0, [0.0], zero_step()) == 0.0

    def test_censored_with_odds(self):
        A = StepFunction([0.5], [1.0], tau=3.0)
        rec = SurvivalRecord(u=1.0, delta=0, z=(1.0,))
        value = weight_w(rec, 0.75, [math.log(2.0)], A)
        assert value == pytest.approx(2.0 / 3.0)

    def test_overflow_guard(self):
        rec = SurvivalRecord(u=1.0, delta=0, z=(100.0,))
        with pytest.raises(NumericOverflow):
            weight_w(rec, 0.5, [1.0], zero_step())

    def test_domain(self):
        rec = SurvivalRecord(u=1.0, delta=0, z=(0.0,))
        with pytest.raises(InvalidInput):
            weight_w(rec, 5.0, [0.0], zero_step())


class TestPsiApply:
    def test_two_record_hand_value(self):
        # event at 1 with W=2, censored at 2 with W=1: jump (1/2)/(3/2) = 1/3
        model = PropOddsModel.from_arrays(
            [1.0, 2.0], [1.0, 0.0], [0.0, 0.0]
        )
        psi = psi_apply(model, [0.0], zero_step(model.tau))
        assert np.array_equal(psi.jump_times, [1.0])
        assert psi.jump_sizes[0] == pytest.approx(1.0 / 3.0)

    def test_no_events_zero_step(self):
        model = PropOddsModel.from_arrays(
            [0.5, 1.0, 1.5], [0.0, 0.0, 0.0], [0.1, -0.2, 0.0]
        )
        psi = psi_apply(model, [0.3], zero_step(model.tau))
        assert psi.total == 0.0 and len(psi.jump_times) == 0

    def test_tied_events_merged(self):
        model = PropOddsModel.from_arrays(
            [1.0, 1.0, 2.0], [1.0, 1.0, 0.0], [0.5, -0.5, 0.0]
        )
        psi = psi_apply(model, [0.0], zero_step(model.tau))
        assert len(psi.jump_times) == 1
        # both events carry dN mass 1/3 each; at-risk weight 2+2+1 thirds
        assert psi.jump_sizes[0] == pytest.approx((2.0 / 3.0) / (5.0 / 3.0))

    def test_matches_naive_oracle(self, prop_odds_data):
        u, delta, z = prop_odds_data
        model = PropOddsModel.from_arrays(u, delta, z)
        for beta in ([0.0], [0.5], [-0.3]):
            A = prop_odds.psi_apply(model, beta, zero_step(model.tau))
            out = psi_apply(model, beta, A)
            times, jumps = psi_prop_odds_naive(
                model.u, model.delta, model.z, model.weights, beta,
                A.jump_times, A.jump_sizes,
            )
            assert np.array_equal(times, out.jump_times)
            assert np.abs(jumps - out.jump_sizes).max() < 1e-12


class TestDerivativeOperators:
    def test_single_record_nuisance_derivative(self):
        # one event at 1, beta=0, A=0: output jump responds at rate 1/2
        model = PropOddsModel.from_arrays([1.0], [1.0], [0.0])
        mat = da_psi(model, [0.0], zero_step(model.tau)).matrix
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(0.5)

    def test_zero_direction(self, prop_odds_model):
        model = prop_odds_model
        A = psi_apply(model, [0.5], zero_step(model.tau))
        mat = da_psi(model, [0.5], A)
        assert np.allclose(mat.apply(np.zeros(model.n_events)), 0.0)

    def test_second_derivative_symmetry(self, prop_odds_model, rng):
        model = prop_odds_model
        beta = [0.5]
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        form = d2a_psi(model, beta, A)
        for _ in range(5):
            h1 = rng.normal(size=model.n_events)
            h2 = rng.normal(size=model.n_events)
            left = form.apply(h1, h2)
            right = form.apply(h2, h1)
            assert np.abs(left - right).max() <= 1e-12 * max(
                np.abs(left).max(), 1.0
            )

    def test_covariate_free_data_has_zero_dot(self):
        model = PropOddsModel.from_arrays(
            [0.5, 1.0, 1.5], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]
        )
        sol = solve_nuisance(model, [0.0])
        A = model.jumps_to_step(sol.eta)
        dot, _, _ = prop_odds.dbeta_psi(model, [0.0], A)
        assert np.abs(dot).max() < 1e-15

    def test_df_accepts_direction_objects(self, prop_odds_model, rng):
        from profix.measures import PerturbationDirection

        model = prop_odds_model
        beta = [0.5]
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        coeffs = rng.normal(size=model.n_records) * model.weights
        direction = PerturbationDirection("measure", model.points, coeffs)
        via_object = df_psi(model, beta, A, None, direction)
        via_array = df_psi(model, beta, A, None, coeffs)
        assert np.array_equal(via_object, via_array)

    def test_df_zero_and_self_direction(self, prop_odds_model):
        model = prop_odds_model
        beta = [0.5]
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        zero = df_psi(model, beta, A, None, np.zeros(model.n_records))
        assert np.allclose(zero, 0.0)
        self_dir = model.weights - model.weights
        assert np.allclose(df_psi(model, beta, A, None, self_dir), 0.0)


class TestLoglik:
    def test_single_censored_zero(self):
        model = PropOddsModel.from_arrays([1.0], [0.0], [0.0])
        assert loglik(model, [0.0], zero_step(model.tau)) == pytest.approx(0.0)

    def test_single_event_value(self):
        model = PropOddsModel.from_arrays([1.0], [1.0], [0.0])
        A = StepFunction([1.0], [1.0], tau=1.0)
        assert loglik(model, [0.0], A) == pytest.approx(-2.0 * math.log(2.0))

    def test_degenerate_jump(self):
        model = PropOddsModel.from_arrays([1.0, 2.0], [1.0, 0.0], [0.0, 0.0])
        A = StepFunction([2.0], [0.5], tau=2.0)  # no jump at the event time
        with pytest.raises(DegenerateJump):
            loglik(model, [0.0], A)

    def test_matches_naive(self, prop_odds_model):
        model = prop_odds_model
        beta = [0.4]
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        mine = loglik(model, beta, A)
        ref = loglik_prop_odds_naive(
            model.u, model.delta, model.z, model.weights, beta,
            A.jump_times, A.jump_sizes,
        )
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_profile_maximality(self, prop_odds_model, rng):
        # the solved nuisance beats random nonnegative perturbations of it
        model = prop_odds_model
        beta = [0.5]
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        best = loglik(model, beta, A)
        for _ in range(20):
            scale = 1.0 + rng.uniform(-0.5, 0.5, size=model.n_events)
            other = model.jumps_to_step(sol.eta * scale)
            assert loglik(model, beta, other) <= best + 1e-12


class TestVarianceCondition:
    def test_degenerate_all_events_satisfied(self):
        # every record an event at the same time: W constant 2, variance 0
        model = PropOddsModel.from_arrays(
            [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]
        )
        report = check_variance_condition(model, [0.0], zero_step(model.tau))
        assert report.satisfied
        assert report.lhs[0] == pytest.approx(2.0)
        assert report.rhs[0] == pytest.approx(0.0)

    def test_all_censored_unsatisfied(self):
        model = PropOddsModel.from_arrays(
            [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]
        )
        report = check_variance_condition(model, [0.0], zero_step(model.tau))
        assert not report.satisfied

    def test_default_design_satisfied_n500(self):
        rng = simulation.replication_rng(42, 0)
        u, delta, z = simulation.gen_prop_odds(PropOddsDesign(), 500, rng)
        model = PropOddsModel.from_arrays(u, delta, z)
        beta = np.asarray(PropOddsDesign().beta0)
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        report = check_variance_condition(model, beta, A)
        assert report.satisfied
        # conclusion of the contraction argument: sup norm below one
        assert da_psi_sup_norm(model, beta, A) < 1.0

    def test_condition_implies_norm_below_one(self):
        # exact population version of the same implication
        design = PropOddsDesign()
        pop = population_records(design)
        beta = np.asarray(design.beta0)
        sol = solve_nuisance(pop, beta)
        A = pop.jumps_to_step(sol.eta)
        report = check_variance_condition(pop, beta, A)
        assert report.satisfied
        assert da_psi_sup_norm(pop, beta, A) < 1.0


class TestFixedPointInvariants:
    def test_solution_residual(self, prop_odds_model):
        for seed, beta in ((0, [0.5]), (1, [0.2]), (2, [-0.4])):
            rng = simulation.replication_rng(seed, 7)
            u, delta, z = simulation.gen_prop_odds(LINEAR_DESIGN, 40, rng)
            model = PropOddsModel.from_arrays(u, delta, z)
            sol = solve_nuisance(model, beta)
            psi = psi_apply(model, beta, model.jumps_to_step(sol.eta))
            assert np.abs(psi.jump_sizes - sol.eta).max() < 1e-10

    def test_value_norm_vs_jump_norm_conjugation(self, prop_odds_model):
        model = prop_odds_model
        beta = [0.5]
        sol = solve_nuisance(model, beta)
        A = model.jumps_to_step(sol.eta)
        M = da_psi(model, beta, A).matrix
        V = prop_odds.da_psi_value_map(model, beta, A).matrix
        # same spectrum under the similarity transform
        ev_m = np.sort(np.abs(np.linalg.eigvals(M)))
        ev_v = np.sort(np.abs(np.linalg.eigvals(V)))
        assert np.abs(ev_m - ev_v).max() < 1e-8


class TestProfile:
    def test_precheck_raises_on_linear_design(self):
        rng = simulation.replication_rng(3, 0)
        u, delta, z = simulation.gen_prop_odds(LINEAR_DESIGN, 200, rng)
        model = PropOddsModel.from_arrays(u, delta, z)
        profile = PropOddsProfile(model)
        with pytest.raises(ContractionViolation):
            profile.precheck(np.array([0.5]))

    def test_score_matches_loglik_gradient(self, prop_odds_model):
        # mean profiled score equals the derivative of the profiled log
        # likelihood (envelope theorem makes the nuisance term drop out)
        model = prop_odds_model
        profile = PropOddsProfile(model, solver_tol=1e-13)

        def profiled_loglik(beta):
            sol = solve_nuisance(model, beta, tol=1e-13)
            return loglik(model, beta, model.jumps_to_step(sol.eta))

        beta = np.array([0.3])
        from profix.numdiff import FdConfig, fd_theta

        fd = fd_theta(profiled_loglik, beta, FdConfig(step=1e-6))
        analytic = profile.mean_score(beta)
        assert np.abs(fd - analytic).max() < 1e-6


class TestOperatorAuditsAcrossSeeds:
    def test_all_operators_match_oracles_on_three_seeds(self):
        from profix import audits

        for seed in (0, 1, 2):
            rows = audits.run_audits("prop_odds", seed=seed, n=20)
            failing = [r.name for r in rows if not r.passed]
            assert not failing, f"seed {seed}: {failing}"


class TestPopulation:
    def test_linear_self_consistency(self):
        res = population_self_consistency(cells=400, order=5)
        assert res["sup_error"] < 1e-8

    def test_low_order_rule_at_grid_2000(self):
        res = population_self_consistency(cells=2000, order=1)
        assert res["sup_error"] < 1e-6

    def test_population_records_mass(self):
        pop = population_records(PropOddsDesign())
        assert pop.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_step_design_rejected_for_quadrature_check(self):
        with pytest.raises(InvalidInput):
            population_self_consistency(PropOddsDesign())


class TestCsv:
    def test_roundtrip(self, tmp_path, prop_odds_data):
        u, delta, z = prop_odds_data
        path = tmp_path / "data.csv"
        lines = ["U,delta,Z1"] + [
            f"{ui},{int(di)},{zi}" for ui, di, zi in zip(u, delta, z)
        ]
        path.write_text("\n".join(lines) + "\n")
        model = load_csv(path)
        direct = PropOddsModel.from_arrays(u, delta, z)
        assert np.array_equal(model.points, direct.points)

    def test_bad_number_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("U,delta,Z1\n1.0,1,abc\n")
        with pytest.raises(InvalidInput, match="line 2, column 3"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,event\n")
        with pytest.raises(InvalidInput, match="line 1"):
            load_csv(path)
