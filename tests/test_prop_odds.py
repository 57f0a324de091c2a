import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profix import estimator, prop_odds, simulation
from profix.errors import (
    ContractionViolation,
    InvalidInput,
    NumericOverflow,
    RiskSetEmpty,
    SingularResolvent,
)
from profix.audits import union_with_resample
from profix.numdiff import fd_theta
from profix.implicit_diff import df_eta, dtheta_eta
from profix.measures import MaxIndexMap, StepFunction
from profix.prop_odds import (
    LINEAR_DESIGN,
    PropOddsDesign,
    PropOddsModel,
    Operator,
    PropOddsProfile,
    load_csv,
    population_self_consistency,
    psi_apply,
    psi_derivatives,
    solve_nuisance,
)

from reference import (
    DegenerateJump,
    SurvivalRecord,
    at_risk_quadrature,
    dense,
    da_psi_prop_odds_naive,
    d2a_pairs_loop,
    da_psi_value_map,
    jumps_to_step,
    loglik,
    loglik_prop_odds_naive,
    mixed_terms_loop,
    operator_apply_formula,
    population_records,
    psi_prop_odds_naive,
    variance_condition_sides,
    weight_w,
)


def zero_step(tau=3.0):
    return StepFunction([], [], tau)


def bundle(model, beta, jumps, F=None):
    """The derivative bundle of the operator bound at (beta, F), at jumps."""
    return psi_derivatives(Operator(model, beta, F), jumps)


def solved(model, beta, **kwargs):
    """The fixed-point jumps of the operator bound at beta."""
    return solve_nuisance(Operator(model, beta), **kwargs).eta


def variance_condition(model, beta, jumps):
    """The variance condition read from the bundle at (beta, jumps)."""
    return prop_odds._variance_condition(bundle(model, beta, jumps))


def sup_norm(model, beta, jumps):
    """The O(m) sup norm of the bundle's nuisance derivative at (beta, jumps)."""
    return bundle(model, beta, jumps).d_eta.sup_norm()


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
        assert psi(psi.tau) == 0.0 and len(psi.jump_times) == 0

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
        mat = dense(bundle(model, [0.0], np.zeros(1)).d_eta)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(0.5)

    def test_zero_direction(self, prop_odds_model):
        model = prop_odds_model
        A = psi_apply(model, [0.5], zero_step(model.tau))
        d_eta = bundle(model, [0.5], A.jump_sizes).d_eta
        assert np.allclose(d_eta.apply(np.zeros(model.n_events)), 0.0)

    def test_second_derivative_symmetry(self, prop_odds_model, rng):
        model = prop_odds_model
        beta = [0.5]
        form = bundle(model, beta, solved(model, beta)).d2_eta
        for _ in range(5):
            h1 = rng.normal(size=model.n_events)
            h2 = rng.normal(size=model.n_events)
            left = form(np.stack([h1, h2]))[0, 1]
            right = form(np.stack([h2, h1]))[0, 1]
            assert np.abs(left - right).max() <= 1e-12 * max(
                np.abs(left).max(), 1.0
            )

    def test_covariate_free_data_has_zero_dot(self):
        model = PropOddsModel.from_arrays(
            [0.5, 1.0, 1.5], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]
        )
        dot = bundle(model, [0.0], solved(model, [0.0])).dot_psi
        assert np.abs(dot).max() < 1e-15

    def test_df_zero_and_self_direction(self, prop_odds_model):
        model = prop_odds_model
        beta = [0.5]
        d_f = bundle(model, beta, solved(model, beta)).d_f
        assert np.allclose(d_f(np.zeros(model.n_records)), 0.0)
        self_dir = model.weights - model.weights
        assert np.allclose(d_f(self_dir), 0.0)


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
        A = jumps_to_step(model, solved(model, beta))
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
        jumps = solved(model, beta)
        best = loglik(model, beta, jumps_to_step(model, jumps))
        for _ in range(20):
            scale = 1.0 + rng.uniform(-0.5, 0.5, size=model.n_events)
            other = jumps_to_step(model, jumps * scale)
            assert loglik(model, beta, other) <= best + 1e-12


class TestVarianceCondition:
    def test_degenerate_all_events_satisfied(self):
        # every record an event at the same time: W constant 2, variance 0
        model = PropOddsModel.from_arrays(
            [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]
        )
        condition = variance_condition(model, [0.0], np.zeros(1))
        assert condition["satisfied"]
        lhs, rhs = variance_condition_sides(bundle(model, [0.0], np.zeros(1)))
        assert lhs[0] == pytest.approx(2.0)
        assert rhs[0] == pytest.approx(0.0)
        assert condition["min_margin"] == pytest.approx(2.0)
        assert condition["min_margin"] == pytest.approx((lhs - rhs).min())

    def test_all_censored_unsatisfied(self):
        model = PropOddsModel.from_arrays(
            [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]
        )
        condition = variance_condition(model, [0.0], np.zeros(0))
        assert not condition["satisfied"] and condition["min_margin"] is None

    def test_default_design_satisfied_n500(self):
        rng = simulation.replication_rng(42, 0)
        u, delta, z = simulation.gen_prop_odds(PropOddsDesign(), 500, rng)
        model = PropOddsModel.from_arrays(u, delta, z)
        beta = np.asarray(PropOddsDesign().beta0)
        jumps = solved(model, beta)
        condition = variance_condition(model, beta, jumps)
        assert condition["satisfied"]
        lhs, rhs = variance_condition_sides(bundle(model, beta, jumps))
        assert condition["min_margin"] == pytest.approx((lhs - rhs).min(), rel=1e-12)
        # conclusion of the contraction argument: sup norm below one
        assert sup_norm(model, beta, jumps) < 1.0

    def test_condition_implies_norm_below_one(self):
        # exact population version of the same implication
        design = PropOddsDesign()
        pop = population_records(design)
        beta = np.asarray(design.beta0)
        jumps = solved(pop, beta)
        assert variance_condition(pop, beta, jumps)["satisfied"]
        assert sup_norm(pop, beta, jumps) < 1.0


class TestFixedPointInvariants:
    def test_solution_residual(self, prop_odds_model):
        for seed, beta in ((0, [0.5]), (1, [0.2]), (2, [-0.4])):
            rng = simulation.replication_rng(seed, 7)
            u, delta, z = simulation.gen_prop_odds(LINEAR_DESIGN, 40, rng)
            model = PropOddsModel.from_arrays(u, delta, z)
            jumps = solved(model, beta)
            psi = psi_apply(model, beta, jumps_to_step(model, jumps))
            assert np.abs(psi.jump_sizes - jumps).max() < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_cold_solve_reports_its_own_residual(self, k):
        # the solve returns the iterate whose residual it measured, so the
        # residual meets the tolerance and the residual ratios are those of
        # a converging solve, not roundoff divided by roundoff
        rng = simulation.replication_rng(20260810, k)
        model = PropOddsModel.from_arrays(*simulation.gen_prop_odds(LINEAR_DESIGN, 3000, rng))
        op = Operator(model, [0.0])
        sol = solve_nuisance(op, tol=1e-10)
        assert sol.residual <= 1e-10
        assert sol.residual == np.abs(op(sol.eta) - sol.eta).max()
        assert sol.contraction_estimate < 1.0

    def test_value_norm_vs_jump_norm_conjugation(self, prop_odds_model):
        model = prop_odds_model
        beta = [0.5]
        jumps = solved(model, beta)
        M = dense(bundle(model, beta, jumps).d_eta)
        V = da_psi_value_map(model, beta, jumps).matrix
        # same spectrum under the similarity transform
        ev_m = np.sort(np.abs(np.linalg.eigvals(M)))
        ev_v = np.sort(np.abs(np.linalg.eigvals(V)))
        assert np.abs(ev_m - ev_v).max() < 1e-8


@st.composite
def survival_samples(draw, p=1):
    """Tiny weighted samples on a coarse time grid: tied times, possibly a
    single event time or none, and zero-weight events (event times without
    event mass, as in the audits' union model); p covariates."""
    n = draw(st.integers(1, 7))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    u = column(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    delta = column(st.sampled_from([0.0, 1.0]))
    z = np.column_stack([
        column(st.sampled_from([-1.0, -0.3, 0.0, 0.4, 1.0])) for _ in range(p)
    ])
    w = column(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    if sum(w) == 0:
        w[0] = 1.0
    beta = [draw(st.sampled_from([-0.8, 0.0, 0.5])) for _ in range(p)]
    return survival_sample(u, delta, z, w, beta)


def survival_sample(u, delta, z, w, beta):
    """The sample with these columns, beta, and the first iterate of Psi."""
    model = PropOddsModel.from_arrays(u, delta, z, weights=w)
    beta = np.asarray(beta, dtype=float)
    A = psi_apply(model, beta, zero_step(model.tau))
    return model, beta, A


def dense_solve(d_eta, rhs):
    return np.linalg.solve(np.eye(d_eta.dim) - dense(d_eta), rhs)


def rel_diff(a, b, scale=None):
    if scale is None:
        scale = np.abs(b).max(initial=0.0)
    return np.abs(a - b).max(initial=0.0) / max(scale, 1e-300)


class TestStructuredDerivatives:
    """The O(m) nuisance-derivative maps against their dense formulas."""

    @given(sample=survival_samples())
    @settings(max_examples=60, deadline=None)
    # one event time at beta = 0, tau = 0.5, jump 1/7: the covariate sums
    # cancel and mixed is rounding alone
    @example(sample=survival_sample([0.5] * 3, [0.0, 0.0, 1.0], [[-1.0], [0.4], [-0.3]],
                                    [0.5, 2.0, 0.5], [0.0]))
    def test_maps_and_resolvent_match_dense(self, sample):
        model, beta, A = sample
        derivs = bundle(model, beta, A.jump_sizes)
        d_eta = derivs.d_eta
        naive = da_psi_prop_odds_naive(
            model.u, model.delta, model.z, model.weights, beta,
            A.jump_times, A.jump_sizes,
        )
        assert dense(d_eta).shape == (model.n_events,) * 2
        assert rel_diff(dense(d_eta), naive) <= 1e-12
        h = np.random.default_rng(model.n_records).normal(size=(model.n_events, 2))
        assert rel_diff(d_eta.apply(h), naive @ h) <= 1e-12

        assert rel_diff(dtheta_eta(derivs), dense_solve(d_eta, derivs.dot_psi.T).T) <= 1e-10
        direction = model.weights * np.linspace(-1.0, 1.0, model.n_records)
        assert rel_diff(df_eta(derivs, direction),
                        dense_solve(d_eta, derivs.d_f(direction))) <= 1e-10
        # the mixed derivative's two terms can cancel exactly: compare on
        # their scale, floored at the suffix sums' rounding, eps times the
        # sum of the summands' magnitudes (the sums themselves can cancel)
        first, second = mixed_terms_loop(derivs, h.T)
        scale = (np.abs(first) + np.abs(second)).max(initial=0.0)
        summands = sum(mixed_terms_loop(derivs, h.T, magnitudes=True)).max(initial=0.0)
        error = np.abs(derivs.mixed(h.T) - (first + second)).max(initial=0.0)
        assert error <= max(1e-12 * scale, 4.0 * np.finfo(float).eps * summands)

        norm = d_eta.sup_norm()
        dense_norm = np.abs(da_psi_value_map(model, beta, A.jump_sizes).matrix).sum(axis=1)
        assert norm == pytest.approx(dense_norm.max(initial=0.0), rel=1e-12, abs=0)

    def test_no_events(self):
        model = PropOddsModel.from_arrays([1.0, 2.0], [0.0, 0.0], [0.3, -0.3])
        derivs = bundle(model, [0.5], np.zeros(0))
        assert dtheta_eta(derivs).shape == (1, 0)
        assert sup_norm(model, [0.5], np.zeros(0)) == 0.0

    def test_sup_norm_matches_dense_value_map(self, prop_odds_model):
        pop = population_records(PropOddsDesign())
        for model in (prop_odds_model, pop):
            beta = [0.5]
            jumps = solved(model, beta)
            expected = da_psi_value_map(model, beta, jumps).sup_norm()
            assert sup_norm(model, beta, jumps) == pytest.approx(expected, rel=1e-13)

    def test_dtheta_eta_matches_dense_at_n3000(self):
        rng = simulation.replication_rng(20260810, 1)
        model = PropOddsModel.from_arrays(
            *simulation.gen_prop_odds(LINEAR_DESIGN, 3000, rng)
        )
        beta = [0.5]
        derivs = bundle(model, beta, solved(model, beta))
        expected = dense_solve(derivs.d_eta, derivs.dot_psi.T).T
        assert rel_diff(dtheta_eta(derivs), expected) <= 1e-12

    def test_large_fit_allocates_no_m_by_m_matrix(self):
        # m is about 11,600 at n = 20000: one dense m x m matrix is ~1 GB
        rng = simulation.replication_rng(20260810, 2)
        model = PropOddsModel.from_arrays(
            *simulation.gen_prop_odds(LINEAR_DESIGN, 20000, rng)
        )
        tracemalloc.start()
        try:
            fit = estimator.profile_mle(PropOddsProfile(model), np.zeros(1),
                                        force=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.n_events > 10_000
        assert peak < 64 * 2**20


def assert_records_in_time_order(model, seed):
    """The records run in time order, so one suffix sum over them is every
    at-risk sum and one cumulative sum every step-function value."""
    u, times = model.u, model.event_times
    assert np.all(np.diff(u) >= 0)
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(2, 3, model.n_records))
    at_risk = (u[:, None] >= times[None, :]).astype(float)
    expected = V @ at_risk
    scale = (np.abs(V) @ at_risk).max(initial=0.0)
    assert rel_diff(model.suffix_at_events(V), expected, scale) <= 1e-12
    J = rng.uniform(0.0, 1.0, model.n_events)
    assert np.array_equal(model.cumulative_at_records(J),
                          StepFunction(times, J, model.tau)(u))


class TestRecordOrder:
    """The record table's canonical order is the survival records' time
    order, which the at-risk sums and the operator rely on."""

    @given(sample=st.sampled_from([1, 2]).flatmap(lambda p: survival_samples(p=p)))
    @settings(max_examples=60, deadline=None)
    def test_at_risk_sums_read_the_table_order(self, sample):
        model, _, _ = sample
        assert_records_in_time_order(model, model.n_records)

    @given(sample=st.sampled_from([1, 2]).flatmap(lambda p: survival_samples(p=p)),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_joined_model_reads_the_table_order(self, sample, seed):
        model, _, _ = sample
        union, _, _ = union_with_resample(model, "prop_odds", seed)
        assert union.n_records > model.n_records
        assert_records_in_time_order(union, seed)


def tied_sample(p):
    """Tied event and censoring times and an event record of zero weight."""
    u = [1.0, 1.0, 1.5, 1.5, 2.0, 0.5, 2.0]
    delta = [1, 1, 1, 0, 1, 1, 0]
    w = [1.0, 2.0, 0.0, 1.0, 0.5, 1.0, 1.0]
    z = np.column_stack([np.linspace(-1.0, 1.0, 7), np.cos(np.arange(7.0))])[:, :p]
    model = PropOddsModel.from_arrays(u, delta, z, weights=w)
    beta = np.full(p, 0.5)
    return model, beta, psi_apply(model, beta, zero_step(model.tau))


def analytic_and_difference_jacobian(sample):
    """The closed-form Jacobian at the sample's beta, the transposed central
    differences of the mean score, and the scale both are compared on."""
    model, beta, _ = sample
    try:
        profile = PropOddsProfile(model, solver_tol=1e-13)
    except InvalidInput:  # a covariate constant over the weighted records
        return None
    jac = profile.jacobian(profile.point(beta))
    fd = fd_theta(profile.mean_score, beta, step=1e-5).T
    # a sample can make the Jacobian vanish identically; its summands are
    # on the scale of the covariates' weighted second moment
    scale = max(np.abs(fd).max(), float(model.weights @ (model.z**2).sum(axis=1)))
    return jac, fd, scale


class TestSecondNuisanceDerivativePairs:
    """The batched second nuisance derivative against a pair-by-pair loop,
    with one and with two covariates."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_pairs_match_apply_loop(self, p, rng):
        u, delta, z = simulation.gen_prop_odds(
            LINEAR_DESIGN, 60, simulation.replication_rng(103, 0))
        z = np.column_stack([z, np.cos(np.arange(60.0))])[:, :p]
        point = PropOddsProfile(PropOddsModel.from_arrays(u, delta, z)).point(
            np.full(p, 0.3))
        form, m = point.derivs.d2_eta, point.derivs.model.n_events
        for H in (point.eta_dot, rng.normal(size=(4, m))):
            loop = d2a_pairs_loop(point.derivs, H)
            pairs = form(H)
            assert pairs.shape == (len(H), len(H), m)
            assert rel_diff(pairs, loop) <= 1e-12
            for j, k in zip(*np.triu_indices(len(H), 1)):
                assert np.array_equal(form(H[[j, k]])[0, 1], pairs[j, k])


class TestAnalyticJacobian:
    """The survival Jacobian in closed form against differences of the score."""

    @given(sample=st.sampled_from([1, 2]).flatmap(lambda p: survival_samples(p=p)))
    @example(sample=tied_sample(1))
    @example(sample=tied_sample(2))
    @settings(max_examples=80, deadline=None)
    def test_matches_differences_of_mean_score(self, sample):
        result = analytic_and_difference_jacobian(sample)
        if result is None:
            return
        jac, fd, scale = result
        assert jac.shape == fd.shape == (len(sample[1]),) * 2
        assert rel_diff(jac, fd, scale) <= 1e-6

    @given(sample=survival_samples(p=2))
    @example(sample=tied_sample(2))
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, sample):
        result = analytic_and_difference_jacobian(sample)
        if result is None:
            return
        jac, _, scale = result
        assert rel_diff(jac, jac.T, scale) <= 1e-10

    def test_profile_weights_of_its_own(self, prop_odds_data, rng):
        # a sample with unequal weights F: the profile's Jacobian and its
        # mean score both weigh the records by the model's weights
        u, delta, z = prop_odds_data
        F = rng.uniform(0.2, 1.8, size=len(u))
        model = PropOddsModel.from_arrays(u, delta, z, weights=F)
        profile = PropOddsProfile(model, solver_tol=1e-13)
        beta = np.array([0.5])
        jac = profile.jacobian(profile.point(beta))
        fd = fd_theta(profile.mean_score, beta, step=1e-5).T
        assert rel_diff(jac, fd) <= 1e-6

    def test_refused_linear_predictor_raises(self):
        model = PropOddsModel.from_arrays([1.0, 2.0, 1.5], [1, 0, 1], [60.0, -1.0, 0.5])
        profile = PropOddsProfile(model)
        with pytest.raises(NumericOverflow):
            profile.jacobian(profile.point([1.0]))
        with pytest.raises(NumericOverflow):
            profile.score([1.0])
        assert profile.last_point is None  # a call that raises records nothing


def bound_operator_agrees(model, beta, jumps):
    """The bound operator against psi_apply on the step function."""
    out = Operator(model, beta)(jumps)
    expected = psi_apply(model, beta, jumps_to_step(model, jumps)).jump_sizes
    return np.array_equal(out, expected)


class TestBoundOperator:
    """The operator bound once per (beta, weights), on the records in the
    record table's own time order."""

    @given(sample=survival_samples(), scale=st.sampled_from([0.0, 0.4, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_equals_psi_apply_bitwise(self, sample, scale):
        model, beta, A = sample
        rng = np.random.default_rng(model.n_records)
        for jumps in (A.jump_sizes, scale * rng.uniform(size=model.n_events)):
            assert bound_operator_agrees(model, beta, jumps)

    @pytest.mark.parametrize("u, delta, w", [
        ([1.0, 2.0, 1.5], [0, 0, 0], [1.0, 1.0, 1.0]),  # no event time
        ([1.0, 2.0, 1.5], [0, 1, 0], [1.0, 1.0, 1.0]),  # one event time
        ([1.0, 1.0, 2.0, 2.0, 0.5], [1, 1, 1, 0, 1], [1.0, 2.0, 0.5, 1.0, 1.0]),
        ([1.0, 1.5, 2.0, 0.5], [1, 1, 1, 0], [1.0, 0.0, 1.0, 1.0]),  # zero-weight event
    ])
    def test_equals_psi_apply_on_edge_samples(self, u, delta, w):
        model = PropOddsModel.from_arrays(u, delta, np.linspace(-1.0, 1.0, len(u)),
                                          weights=w)
        for jumps in (np.zeros(model.n_events), np.linspace(0.1, 0.9, model.n_events)):
            assert bound_operator_agrees(model, [0.7], jumps)

    @given(sample=st.sampled_from([1, 2]).flatmap(lambda p: survival_samples(p=p)),
           signed=st.booleans(), scale=st.sampled_from([0.0, 0.4, 3.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_application_formula_bitwise(self, sample, signed, scale, seed):
        # the model's own weights (zero-weight events included) or signed
        # ones, which can empty a risk set: then both refuse alike
        model, beta, A = sample
        rng = np.random.default_rng(seed)
        F = rng.choice([-1.0, 0.0, 0.5, 1.0], size=model.n_records) if signed else None
        op = Operator(model, beta, F)
        for jumps in (A.jump_sizes, scale * rng.uniform(size=model.n_events)):
            try:
                expected = operator_apply_formula(op, jumps)
            except RiskSetEmpty:
                with pytest.raises(RiskSetEmpty):
                    op(jumps)
                continue
            out = op(jumps)
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    def test_refuses_bad_jumps(self, prop_odds_model):
        # the operator and the derivative bundle alike
        op = Operator(prop_odds_model, [0.5])
        jumps = np.full(prop_odds_model.n_events, 0.1)
        for use in (op, lambda v: psi_derivatives(op, v)):
            for bad in (np.nan, np.inf, -1e-3):
                corrupted = jumps.copy()
                corrupted[-1] = bad
                with pytest.raises(InvalidInput):
                    use(corrupted)
            with pytest.raises(InvalidInput):
                use(jumps[1:])

    def test_empty_risk_set(self):
        # the signed weights cancel the at-risk mass at the first event time
        model = PropOddsModel.from_arrays([1.0, 2.0], [1, 0], [0.0, 0.0])
        apply = Operator(model, [0.0], F=np.array([0.5, -1.0]))
        with pytest.raises(RiskSetEmpty):
            apply(np.zeros(1))

    def test_linear_predictor_bound_checked_when_built(self):
        model = PropOddsModel.from_arrays([1.0, 2.0], [1, 0], [60.0, -1.0])
        with pytest.raises(NumericOverflow):
            Operator(model, [1.0])


def count_builds(monkeypatch, cls):
    calls = []
    original = cls.__init__

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestOperatorOverhead:
    """The fixed-point solve, the derivative bundle and the fit stay free
    of rebuilds and of repeated evaluations."""

    @pytest.fixture
    def model(self):
        rng = simulation.replication_rng(20260810, 1)
        return PropOddsModel.from_arrays(
            *simulation.gen_prop_odds(LINEAR_DESIGN, 300, rng)
        )

    def test_solve_builds_no_step_function(self, model, monkeypatch):
        steps = count_builds(monkeypatch, StepFunction)
        sol = solve_nuisance(Operator(model, [0.5]))
        assert sol.iterations > 1
        assert len(steps) == 0

    def test_derivative_bundle_builds_one_workspace(self, model, monkeypatch):
        op = Operator(model, [0.5])
        jumps = solve_nuisance(op).eta
        workspaces = count_builds(monkeypatch, prop_odds._Workspace)
        psi_derivatives(op, jumps)
        assert len(workspaces) == 1

    def test_score_builds_one_workspace(self, model, monkeypatch):
        profile = PropOddsProfile(model)
        workspaces = count_builds(monkeypatch, prop_odds._Workspace)
        profile.score([0.5])
        assert len(workspaces) == 1

    def test_fit_scores_each_candidate_once(self, model, monkeypatch):
        # the start and each accepted candidate are the only evaluations:
        # the Jacobian and the information read the accepted point
        calls = {name: count_calls(monkeypatch, PropOddsProfile, name)
                 for name in ("score", "mean_score")}
        differences = count_calls(monkeypatch, prop_odds, "fd_theta")
        fit = estimator.profile_mle(PropOddsProfile(model), np.zeros(1), force=True)
        assert fit.iterations >= 2
        assert len(calls["mean_score"]) == fit.iterations + 1  # no halvings
        assert len(calls["score"]) == fit.iterations + 1
        assert differences == []

    def test_information_solves_nothing(self, model, monkeypatch):
        profile = PropOddsProfile(model)
        point = profile.point([0.5])
        solves = count_calls(monkeypatch, prop_odds, "solve_fixed_point")
        workspaces = count_builds(monkeypatch, prop_odds._Workspace)
        info, _ = estimator.efficient_information(profile, point)
        assert info.shape == (1, 1)
        assert solves == [] and workspaces == []

    @given(sample=survival_samples(),
           order=st.permutations(["dot_psi", "ddot_psi", "mixed", "d2_eta"]))
    @settings(max_examples=40, deadline=None)
    def test_bundle_second_order_independent_of_read_order(self, sample, order):
        # the bundle defers ddot_psi, mixed and d2_eta; whichever part is
        # read first, each equals bitwise what a bundle read in order gives
        model, beta, A = sample
        try:
            derivs = bundle(model, beta, A.jump_sizes)
        except RiskSetEmpty:
            return
        H = np.random.default_rng(model.n_records).normal(size=(2, model.n_events))
        ref = bundle(model, beta, A.jump_sizes)
        expected = {"dot_psi": ref.dot_psi, "ddot_psi": ref.ddot_psi,
                    "mixed": ref.mixed(H), "d2_eta": ref.d2_eta(H)}
        for name in order:
            value = getattr(derivs, name)
            if callable(value):
                value = value(H)
            assert np.array_equal(value, expected[name])


class TestProfile:
    def test_precheck_raises_on_linear_design(self):
        rng = simulation.replication_rng(3, 0)
        u, delta, z = simulation.gen_prop_odds(LINEAR_DESIGN, 200, rng)
        model = PropOddsModel.from_arrays(u, delta, z)
        profile = PropOddsProfile(model)
        with pytest.raises(ContractionViolation):
            profile.precheck(np.array([0.5]))

    def test_precheck_reads_its_point(self, monkeypatch):
        rng = simulation.replication_rng(3, 0)
        u, delta, z = simulation.gen_prop_odds(PropOddsDesign(), 200, rng)
        model = PropOddsModel.from_arrays(u, delta, z)
        profile = PropOddsProfile(model)
        beta = np.array([0.5])
        builds, checked = [], []
        init = prop_odds._Workspace.__init__
        condition = prop_odds._variance_condition

        def counting_init(self, *args):
            builds.append(1)
            init(self, *args)

        def recording_condition(ws):
            checked.append((ws, condition(ws)))
            return checked[-1][1]

        monkeypatch.setattr(prop_odds._Workspace, "__init__", counting_init)
        monkeypatch.setattr(prop_odds, "_variance_condition", recording_condition)
        assert profile.precheck(beta) is None
        assert len(builds) == 1
        monkeypatch.undo()
        (ws, report), = checked
        assert ws is profile.last_point.derivs
        jumps = profile.last_point.solution.eta
        expected = bundle(model, beta, jumps)
        assert report["satisfied"] and prop_odds._variance_condition(expected)["satisfied"]
        sides = variance_condition_sides(expected)
        for got, want in zip(variance_condition_sides(ws), sides):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        lhs, rhs = sides
        assert report["min_margin"] == pytest.approx((lhs - rhs).min(), rel=1e-15)
        assert ws.d_eta.sup_norm() == pytest.approx(sup_norm(model, beta, jumps),
                                                    rel=1e-15, abs=0)

    def test_constant_covariate_refused(self, prop_odds_data):
        u, delta, z = prop_odds_data
        model = PropOddsModel.from_arrays(u, delta, np.full(len(u), 0.5))
        with pytest.raises(InvalidInput, match="Z1 is constant"):
            PropOddsProfile(model)
        # records without weight do not count
        model = PropOddsModel.from_arrays(
            list(u) + [1.0], list(delta) + [1.0], [0.5] * len(u) + [-0.5],
            weights=[1.0] * len(u) + [0.0],
        )
        with pytest.raises(InvalidInput):
            PropOddsProfile(model)

    def test_score_matches_loglik_gradient(self, prop_odds_model):
        # mean profiled score equals the derivative of the profiled log
        # likelihood (envelope theorem makes the nuisance term drop out)
        model = prop_odds_model
        profile = PropOddsProfile(model, solver_tol=1e-13)

        def profiled_loglik(beta):
            return loglik(model, beta, jumps_to_step(model, solved(model, beta, tol=1e-13)))

        beta = np.array([0.3])
        from profix.numdiff import fd_theta

        fd = fd_theta(profiled_loglik, beta, step=1e-6)
        analytic = profile.mean_score(beta)
        assert np.abs(fd - analytic).max() < 1e-6


class TestContractionCertificate:
    """The tridiagonal Cholesky factor certifies the spectral radius of
    d_eta below one, and the resolvent solves reuse it."""

    def scaled(self, model, target, zero_rows=()):
        """The bundle at the fixed point with d_eta scaled to spectral
        radius target, and coefficient rows zeroed where asked."""
        beta = [0.5]
        ws = bundle(model, beta, solved(model, beta))
        coef, s = ws.d_eta.a.copy(), ws.d_eta.s
        coef[list(zero_rows)] = 0.0
        radius = np.abs(np.linalg.eigvals(dense(MaxIndexMap(coef, s)))).max()
        ws.d_eta = MaxIndexMap(coef * (target / radius), s)
        return ws

    @pytest.mark.parametrize("zero_rows", [(), (0, 3)], ids=["all_free", "fixed_rows"])
    def test_radius_one_and_a_half_is_refused(self, prop_odds_model, zero_rows):
        ws = self.scaled(prop_odds_model, 1.5, zero_rows)
        assert not ws.contracts()
        with pytest.raises(SingularResolvent):
            dtheta_eta(ws)

    @pytest.mark.parametrize("zero_rows", [(), (0, 3)], ids=["all_free", "fixed_rows"])
    def test_radius_below_one_is_certified(self, prop_odds_model, zero_rows):
        ws = self.scaled(prop_odds_model, 0.95, zero_rows)
        assert ws.contracts()
        system = np.eye(ws.d_eta.dim) - dense(ws.d_eta)
        assert rel_diff(dtheta_eta(ws), np.linalg.solve(system, ws.dot_psi.T).T) <= 1e-10

    def test_point_refuses_a_bundle_that_does_not_contract(self, prop_odds_model,
                                                            monkeypatch):
        monkeypatch.setattr(MaxIndexMap, "contracts", lambda self: False)
        profile = PropOddsProfile(prop_odds_model)
        with pytest.raises(ContractionViolation, match="spectral radius"):
            profile.point(np.array([0.5]))
        assert profile.last_point is None

    def test_sup_norm_above_one_is_no_violation(self):
        # the induced sup norm bounds the radius but reads above one on the
        # linear design, whose operators contract
        rng = simulation.replication_rng(3, 0)
        model = PropOddsModel.from_arrays(*simulation.gen_prop_odds(LINEAR_DESIGN, 300, rng))
        point = PropOddsProfile(model).point(np.array([0.5]))
        assert point.derivs.d_eta.sup_norm() > 1.0


class TestOperatorAuditsAcrossSeeds:
    def test_all_operators_match_oracles_on_three_seeds(self):
        from profix import audits

        for seed in (0, 1, 2):
            rows = audits.run_audits("prop_odds", seed=seed, n=20)
            failing = [r.name for r in rows if not r.passed]
            assert not failing, f"seed {seed}: {failing}"


class TestPopulation:
    def test_linear_self_consistency(self):
        # the at-risk weight is closed-form, so at the truth the outer
        # integrand is the baseline rate and the error is rounding alone
        res = population_self_consistency()
        assert res["sup_error"] < 1e-12

    def test_at_risk_matches_quadrature(self):
        law = prop_odds._PopulationLaw(LINEAR_DESIGN)
        tau = LINEAR_DESIGN.tau
        pairs = list(law.per_covariate())
        assert len(pairs) == len(LINEAR_DESIGN.covariate_values)
        for _, q in pairs:
            for t in (0.0, 0.3, 1.7, tau - 1e-3, tau):
                expected = at_risk_quadrature(LINEAR_DESIGN, t, q)
                assert abs(law.at_risk(t, q) - expected) <= 1e-12 * expected

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
