import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profix import estimator, missing_cov, simulation
from profix.errors import (
    ContractionViolation,
    DenominatorCollapse,
    InvalidInput,
    NoConvergence,
    SupportViolation,
)
from profix.implicit_diff import d2theta_eta, dtheta_eta
from profix.measures import LinearMap
from profix.missing_cov import (
    ConditionalDensity,
    MissingCovDesign,
    MissingCovModel,
    MissingCovProfile,
    NormalRegression,
    Operator,
    check_missing_fraction,
    efficient_score,
    load_csv,
    nuisance_stationarity,
    population_model,
    population_self_consistency,
    psi_apply,
    psi_derivatives,
    psi_masses,
    score_jacobian,
    score_orthogonality,
    solve_nuisance,
)

from reference import (
    MissingCovRecord,
    d2g_pairs_loop,
    log_density,
    normalization_error,
    psi_missing_cov_naive,
    sample_missing_cov,
    score_jacobian_per_record,
    second_order_loops,
)

THETA = np.array([0.05, 0.9, 0.05])


def bundle(model, theta, g):
    """The derivative bundle of the operator bound at theta, at the masses g."""
    return psi_derivatives(Operator(model, theta), g)


def solved(model, theta, **kwargs):
    """The fixed-point solution of the operator bound at theta."""
    return solve_nuisance(Operator(model, theta), **kwargs)


class UniformOutcome(ConditionalDensity):
    """Parameter-free density: y uniform on [x, x+1]; derivatives vanish."""

    dim = 2

    def density(self, y, x, theta):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return ((y >= x) & (y <= x + 1.0)).astype(float)

    def dtheta(self, y, x, theta):
        base = self.density(y, x, theta)
        return np.zeros((self.dim,) + base.shape)

    def d2theta(self, y, x, theta):
        base = self.density(y, x, theta)
        return np.zeros((self.dim, self.dim) + base.shape)

    def outcome_interval(self, x, theta, span=8.0):
        return float(x), float(x) + 1.0


class TestNormalRegression:
    def test_normalization(self):
        family = NormalRegression()
        for theta in ([0.0, 1.0, 0.0], [0.3, -0.5, 0.4]):
            err = normalization_error(
                family, np.linspace(-2, 2, 5), np.asarray(theta)
            )
            assert err < 1e-8

    def test_derivatives_match_fd(self, rng):
        from profix.numdiff import fd_theta

        family = NormalRegression()
        y, x = 0.7, -1.2
        theta = np.array([0.1, 0.8, -0.2])
        fd1 = fd_theta(lambda t: family.density(y, x, t), theta, step=1e-6)
        assert np.abs(fd1 - family.dtheta(y, x, theta)).max() < 1e-8
        fd2 = fd_theta(lambda t: family.dtheta(y, x, t), theta, step=1e-5)
        assert np.abs(
            fd2.transpose(1, 0) - family.d2theta(y, x, theta)
        ).max() < 1e-6


class TestPsiApply:
    def test_no_incomplete_cases(self):
        model = MissingCovModel.from_arrays(
            [1, 1, 1], [0.1, 0.5, 0.2], [0.0, 1.0, 0.0], NormalRegression()
        )
        out = psi_apply(model, THETA, np.array([0.5, 0.5]))
        # complete-case masses, independent of g and theta
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0])
        other = psi_apply(model, THETA + 0.3, np.array([0.9, 0.1]))
        assert np.allclose(out, other)

    def test_two_point_equal_density_hand_value(self):
        # one incomplete record whose density is equal at both support
        # points: the ratio term equals one, so the denominator is 1 - w2
        family = UniformOutcome()
        # y = 1.0 lies in both supports [0, 1] and [1, 2]
        model = MissingCovModel.from_arrays(
            [1, 1, 2], [0.2, 1.2, 1.0], [0.0, 1.0, 0.0], family
        )
        g = np.array([0.5, 0.5])
        out = psi_apply(model, np.zeros(2), g)
        # w1 = 2/3, per-point complete mass 1/3, w2 = 1/3
        assert np.allclose(out, (1.0 / 3.0) / (1.0 - 1.0 / 3.0))

    def test_matches_naive_oracle(self, missing_cov_data):
        r, y, x = missing_cov_data
        model = MissingCovModel.from_arrays(r, y, x, NormalRegression())
        g0 = np.full(model.n_support, 1.0 / model.n_support)
        for theta in (THETA, np.array([0.0, 1.0, 0.0])):
            mine = psi_apply(model, theta, g0)
            ref = psi_missing_cov_naive(
                model.r, model.y, model.points[:, 2], model.weights,
                model.support, model.family, theta, g0,
            )
            assert np.abs(mine - ref).max() < 1e-12

    def test_denominator_collapse(self):
        # heavy missingness concentrated where the candidate g carries
        # almost no mass drives the denominator negative
        model = MissingCovModel.from_arrays(
            [1, 1, 2, 2, 2], [0.0, 5.0, 0.0, 0.0, 0.0],
            [0.0, 5.0, 0.0, 0.0, 0.0], NormalRegression(),
        )
        with pytest.raises(DenominatorCollapse):
            psi_apply(model, np.array([0.0, 1.0, 0.0]),
                      np.array([0.01, 0.99]))


class TestFixedPoint:
    def test_residual_and_self_normalization(self, missing_cov_model):
        sol = solved(missing_cov_model, THETA)
        out = psi_apply(missing_cov_model, THETA, sol.eta)
        assert np.abs(out - sol.eta).max() < 1e-10
        assert abs(sol.eta.sum() - 1.0) < 1e-8


@st.composite
def mixture_samples(draw):
    """Tiny weighted samples: one to three support points, and an
    incomplete-case weight share w2 up to just past one half."""
    support = draw(st.sampled_from([[0.4], [-1.0, 1.2], [-1.0, 0.0, 1.2]]))
    n1 = draw(st.integers(len(support), 5))
    x = support + draw(st.lists(st.sampled_from(support),
                                min_size=n1 - len(support), max_size=n1 - len(support)))
    outcomes = st.sampled_from([-1.5, -0.2, 0.4, 0.9, 2.5])
    y1 = draw(st.lists(outcomes, min_size=n1, max_size=n1))
    n2 = draw(st.integers(0, 4))
    y2 = draw(st.lists(outcomes, min_size=n2, max_size=n2))
    w2 = draw(st.sampled_from([0.1, 0.3, 0.45, 0.49, 0.499, 0.51])) if n2 else 0.0
    weights = [(1.0 - w2) / n1] * n1 + [w2 / max(n2, 1)] * n2
    uniform = draw(st.booleans())
    family = UniformOutcome() if uniform else NormalRegression()
    theta = np.zeros(2) if uniform else draw(st.sampled_from(
        [THETA, np.array([0.0, 1.0, 0.0]), np.array([0.3, -0.6, -0.4])]
    ))
    model = MissingCovModel.from_arrays(
        [1] * n1 + [2] * n2, y1 + y2, x + [0.0] * n2, family, weights=weights
    )
    return model, theta


class TestOperatorInvariants:
    """Operator and fixed-point invariants of the mixture family on tiny samples."""

    @given(sample=mixture_samples(), seed=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_operator_output_finite_or_refused(self, sample, seed):
        model, theta = sample
        g = np.random.default_rng(seed).dirichlet(np.ones(model.n_support))
        try:
            out = psi_masses(model, theta, g)
        except (SupportViolation, DenominatorCollapse):
            return
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0)

    @given(sample=mixture_samples())
    @settings(max_examples=80, deadline=None)
    def test_fixed_point_is_a_distribution(self, sample):
        model, theta = sample
        try:
            sol = solved(model, theta, tol=1e-12)
        except (ContractionViolation, NoConvergence, SupportViolation,
                DenominatorCollapse):
            return
        g = sol.eta
        assert np.all(np.isfinite(g))
        assert np.all(g >= 0.0)
        assert abs(g.sum() - 1.0) < 1e-9
        assert np.abs(psi_masses(model, theta, g) - g).max() < 1e-10

    def test_one_support_point(self):
        # a single covariate value carries all the mass, whatever w2 is
        model = MissingCovModel.from_arrays(
            [1, 1, 2, 2], [0.1, 0.5, -0.3, 1.1], [0.4, 0.4, 0.0, 0.0],
            NormalRegression(), weights=[0.255, 0.255, 0.245, 0.245],
        )
        sol = solved(model, THETA)
        assert sol.eta == pytest.approx([1.0], abs=1e-12)

    def test_outcome_outside_support_refused(self):
        model = MissingCovModel.from_arrays(
            [1, 1, 2], [0.2, 1.2, 2.5], [0.0, 1.0, 0.0], UniformOutcome()
        )
        with pytest.raises(SupportViolation):
            psi_masses(model, np.zeros(2), np.array([0.5, 0.5]))


def record_calls(monkeypatch, owner, attr):
    """Wrap owner.attr so that each call appends its arguments to the list returned."""
    calls = []
    original = getattr(owner, attr)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, recorded)
    return calls


def dirichlet_masses(model, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(model.n_support))


class TestBoundOperator:
    """The operator bound once per (theta, weights), and the derivative
    bundle that defers its second-order parts."""

    @given(sample=mixture_samples(), seed=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracle(self, sample, seed):
        model, theta = sample
        g = dirichlet_masses(model, seed)
        try:
            out = Operator(model, theta)(g)
        except (SupportViolation, DenominatorCollapse):
            return
        ref = psi_missing_cov_naive(
            model.r, model.y, model.points[:, 2], model.weights,
            model.support, model.family, theta, g,
        )
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @given(sample=mixture_samples(), seed=st.integers(0, 3),
           order=st.permutations(["dot_psi", "ddot_psi", "mixed", "d2_eta"]))
    @settings(max_examples=60, deadline=None)
    def test_bundle_parts_independent_of_read_order(self, sample, seed, order):
        # whichever part of the bundle is read first, each equals bitwise
        # what a bundle read in order gives
        model, theta = sample
        g = dirichlet_masses(model, seed)
        try:
            derivs = bundle(model, theta, g)
        except (SupportViolation, DenominatorCollapse):
            return
        H = np.random.default_rng(seed).normal(size=(2, model.n_support))
        ref = bundle(model, theta, g)
        expected = {
            "dot_psi": ref.dot_psi,
            "ddot_psi": ref.ddot_psi,
            "mixed": ref.mixed(H),
            "d2_eta": ref.d2_eta(H),
        }
        for name in order:
            value = getattr(derivs, name)
            if callable(value):
                value = value(H)
            assert np.array_equal(value, expected[name])

    def test_wrong_theta_refused_when_bound(self, missing_cov_model):
        with pytest.raises(InvalidInput, match="theta"):
            Operator(missing_cov_model, np.zeros(4))

    def test_wrong_masses_refused_per_call(self, missing_cov_model):
        apply = Operator(missing_cov_model, THETA)
        m = missing_cov_model.n_support
        for bad in (np.full(m - 1, 1.0 / (m - 1)), np.full(m + 1, 1.0 / (m + 1))):
            with pytest.raises(InvalidInput, match="mass vector"):
                apply(bad)
        assert np.all(np.isfinite(apply(np.full(m, 1.0 / m))))

    def test_support_violation_and_denominator_collapse(self):
        outside = MissingCovModel.from_arrays(
            [1, 1, 2], [0.2, 1.2, 2.5], [0.0, 1.0, 0.0], UniformOutcome()
        )
        with pytest.raises(SupportViolation):
            Operator(outside, np.zeros(2))(np.array([0.5, 0.5]))
        collapsing = MissingCovModel.from_arrays(
            [1, 1, 2, 2, 2], [0.0, 5.0, 0.0, 0.0, 0.0],
            [0.0, 5.0, 0.0, 0.0, 0.0], NormalRegression(),
        )
        theta, g = np.array([0.0, 1.0, 0.0]), np.array([0.01, 0.99])
        with pytest.raises(DenominatorCollapse):
            Operator(collapsing, theta)(g)
        with pytest.raises(DenominatorCollapse):
            bundle(collapsing, theta, g)


class TestOperatorOverhead:
    """The fixed-point solve, the derivative bundle and the score stay free
    of rebuilds and of second-order work."""

    def test_solve_evaluates_density_matrix_once(self, missing_cov_model, monkeypatch):
        model = missing_cov_model
        calls = record_calls(monkeypatch, NormalRegression, "density")
        sol = solved(model, THETA)
        assert sol.iterations > 1
        shape = (len(model.incomplete_rows), 1)
        assert sum(np.shape(args[1]) == shape for args in calls) == 1

    def test_derivative_bundle_builds_one_workspace(self, missing_cov_model, monkeypatch):
        op = Operator(missing_cov_model, THETA)
        g = solve_nuisance(op).eta
        workspaces = record_calls(monkeypatch, missing_cov._Workspace, "__init__")
        psi_derivatives(op, g)
        assert len(workspaces) == 1

    def test_score_reads_no_second_derivative(self, missing_cov_model, monkeypatch):
        profile = MissingCovProfile(missing_cov_model)
        calls = record_calls(monkeypatch, NormalRegression, "d2theta")
        profile.score(THETA)
        assert calls == []

    @pytest.mark.parametrize("read", ["jacobian", "information"])
    def test_jacobian_and_information_solve_nothing(self, missing_cov_model,
                                                    monkeypatch, read):
        # both read the point the score evaluated: its solution, its bundle
        profile = MissingCovProfile(missing_cov_model)
        point = profile.point(THETA)
        solves = record_calls(monkeypatch, missing_cov, "solve_fixed_point")
        workspaces = record_calls(monkeypatch, missing_cov._Workspace, "__init__")
        if read == "jacobian":
            assert profile.jacobian(point).shape == (3, 3)
        else:
            assert estimator.efficient_information(profile, point)[0].shape == (3, 3)
        assert solves == [] and workspaces == []

    def test_complete_case_values_once_per_point(self, missing_cov_model,
                                                 monkeypatch):
        # the score and the Jacobian at one point evaluate the density and
        # each of its derivatives once at the complete records, and share
        # one mixture first and second derivative between the bundle, the
        # score and the Jacobian
        model = missing_cov_model
        profile = MissingCovProfile(model)
        calls = {name: record_calls(monkeypatch, NormalRegression, name)
                 for name in ("density", "dtheta", "d2theta")}
        computed = {"fydot": [], "fyddot": []}
        for name, seen in computed.items():
            cached = missing_cov._Workspace.__dict__[name]

            def counted(ws, cached=cached, seen=seen):
                seen.append(ws)
                return cached.func(ws)

            counting = cached_property(counted)
            counting.__set_name__(missing_cov._Workspace, name)
            monkeypatch.setattr(missing_cov._Workspace, name, counting)
        profile.jacobian(profile.point(THETA))
        at_complete = {
            name: sum(np.shape(a[1]) == model.complete_rows.shape for a in args)
            for name, args in calls.items()
        }
        assert at_complete == {"density": 1, "dtheta": 1, "d2theta": 1}
        assert {name: len(seen) for name, seen in computed.items()} == {
            "fydot": 1, "fyddot": 1}


class TestDerivativeOperators:
    def test_w2_zero_gives_zero_maps(self):
        model = MissingCovModel.from_arrays(
            [1, 1], [0.1, 0.4], [0.0, 1.0], NormalRegression()
        )
        derivs = bundle(model, THETA, np.array([0.5, 0.5]))
        assert np.allclose(derivs.d_eta.matrix, 0.0)
        assert np.abs(derivs.dot_psi).max() == 0.0
        assert np.abs(derivs.ddot_psi).max() == 0.0

    def test_theta_free_family_zero_dot(self):
        family = UniformOutcome()
        model = MissingCovModel.from_arrays(
            [1, 1, 2], [0.2, 1.2, 0.9], [0.0, 1.0, 0.0], family
        )
        derivs = bundle(model, np.zeros(2), np.array([0.5, 0.5]))
        assert np.abs(derivs.dot_psi).max() == 0.0

    def test_second_derivative_symmetry(self, missing_cov_model, rng):
        model = missing_cov_model
        form = bundle(model, THETA, solved(model, THETA).eta).d2_eta
        for _ in range(5):
            h1, h2 = rng.normal(size=(2, model.n_support))
            left = form(np.stack([h1, h2]))[0, 1]
            right = form(np.stack([h2, h1]))[0, 1]
            assert np.abs(left - right).max() <= 1e-12 * max(
                np.abs(left).max(), 1.0
            )

    def test_df_complete_only_direction(self):
        # with no incomplete mass the operator derivative is the raw
        # perturbation of the complete-case masses
        model = MissingCovModel.from_arrays(
            [1, 1], [0.1, 0.4], [0.0, 1.0], NormalRegression()
        )
        g = np.array([0.5, 0.5])
        h = np.array([0.2, -0.2])
        out = bundle(model, THETA, g).d_f(h)
        assert np.allclose(out, h)

    def test_df_zero(self, missing_cov_model):
        g = solved(missing_cov_model, THETA).eta
        out = bundle(missing_cov_model, THETA, g).d_f(
            np.zeros(missing_cov_model.n_records))
        assert np.allclose(out, 0.0)


class TestLogDensity:
    def test_complete_uniform(self):
        g = ([0.0, 1.0], [0.5, 0.5])
        rec = MissingCovRecord(r=1, y=0.3, x=0.0)
        value = log_density(rec, np.zeros(2), g, family=UniformOutcome())
        assert value == pytest.approx(math.log(0.5))

    def test_incomplete_equal_mixture(self):
        g = ([0.0, 1.0], [0.5, 0.5])
        family = NormalRegression()
        theta = np.array([0.5, 0.0, 0.0])  # density free of x
        rec = MissingCovRecord(r=2, y=0.7)
        expected = math.log(float(family.density(0.7, 0.0, theta)))
        assert log_density(rec, theta, g, family=family) == pytest.approx(expected)

    def test_support_violation(self):
        g = ([0.0, 1.0], [1.0, 0.0])
        rec = MissingCovRecord(r=1, y=0.3, x=1.0)
        with pytest.raises(SupportViolation):
            log_density(rec, np.array([0.0, 1.0, 0.0]), g)

    def test_sample_decomposition(self, missing_cov_model):
        # weighted record sum equals the two-sample split of the total
        model = missing_cov_model
        theta = np.array([0.0, 1.0, 0.0])
        g = (model.support, solved(model, theta).eta)
        total = 0.0
        for i in range(model.n_records):
            rec = (
                MissingCovRecord(1, model.y[i], model.points[i, 2])
                if model.r[i] == 1 else MissingCovRecord(2, model.y[i])
            )
            total += model.weights[i] * log_density(
                rec, theta, g, family=model.family
            )
        condition = check_missing_fraction(model, model.weights)
        w1, w2 = condition["w1"], condition["w2"]
        part1 = sum(
            model.weights[i] * log_density(
                MissingCovRecord(1, model.y[i], model.points[i, 2]),
                theta, g, family=model.family,
            )
            for i in model.complete_rows
        )
        part2 = total - part1
        assert w1 > 0 and (w2 == 0.0 or part2 != 0.0)
        assert total == pytest.approx(part1 + part2)

    def test_record_validation(self):
        with pytest.raises(InvalidInput):
            MissingCovRecord(r=1, y=0.0)
        with pytest.raises(InvalidInput):
            MissingCovRecord(r=2, y=0.0, x=1.0)
        with pytest.raises(InvalidInput):
            MissingCovRecord(r=3, y=0.0)


def per_record_jacobian(model, theta):
    """The reference per-record score Jacobian at the fixed point at theta."""
    derivs = bundle(model, theta, solved(model, theta).eta)
    eta_dot = dtheta_eta(derivs)
    return score_jacobian_per_record(model, derivs, eta_dot,
                                     d2theta_eta(derivs, eta_dot))


class TestScores:
    def test_theta_free_and_complete_scores_vanish(self):
        family = UniformOutcome()
        model = MissingCovModel.from_arrays(
            [1, 1], [0.2, 1.2], [0.0, 1.0], family
        )
        point = MissingCovProfile(model).point(np.zeros(2))
        assert np.abs(efficient_score(point.derivs, point.eta_dot)).max() == 0.0
        jac = per_record_jacobian(model, np.zeros(2))
        assert np.abs(jac).max() == 0.0
        assert np.abs(score_jacobian(point)).max() == 0.0

    def test_jacobian_symmetry(self, missing_cov_model):
        jac = per_record_jacobian(missing_cov_model, THETA)
        assert np.abs(jac - jac.transpose(0, 2, 1)).max() <= 1e-8

    def test_jacobian_matches_fd_of_score(self, missing_cov_model):
        from profix.numdiff import fd_theta

        profile = MissingCovProfile(missing_cov_model, solver_tol=1e-12)
        analytic = profile.jacobian(profile.point(THETA))
        fd = fd_theta(profile.mean_score, THETA, step=1e-4)
        denom = max(np.abs(fd).max(), 1e-10)
        assert np.abs(analytic - fd.T).max() / denom < 1e-3

    def test_profile_weights_of_its_own(self, rng):
        # a sample with unequal weights F: score_jacobian reads them from
        # the point's bundle, as the mean score weighs by them
        # (n=200 at the design's missing share; the n=50 fixture's is 0.44,
        # which reweighting can push to where the operator stops contracting)
        from profix.numdiff import fd_theta

        r, y, x = simulation.gen_missing_cov(
            MissingCovDesign(), 200, simulation.replication_rng(102, 1))
        F = rng.uniform(0.2, 1.8, size=len(r))
        model = MissingCovModel.from_arrays(r, y, x, NormalRegression(), weights=F)
        profile = MissingCovProfile(model, solver_tol=1e-12)
        analytic = profile.jacobian(profile.point(THETA))
        fd = fd_theta(profile.mean_score, THETA, step=1e-4)
        assert np.abs(analytic - fd.T).max() / np.abs(fd).max() < 1e-6


def assert_close(batched, loop, rtol=1e-12):
    assert np.abs(batched - loop).max() <= rtol * np.abs(loop).max()


class TestBatchedJacobian:
    """The batched second-order pieces of a point's bundle against the
    pair-by-pair loops they replace, and the envelope Jacobian against the
    weighted sum of the per-record Jacobians through eta_ddot, on a sample
    and a population."""

    @pytest.fixture(params=["missing_cov_model", "missing_cov_population"])
    def point(self, request):
        model = request.getfixturevalue(request.param)
        return MissingCovProfile(getattr(model, "model", model),
                                 solver_tol=1e-12).point(THETA)

    def test_derivatives_match_loops(self, point):
        dot, ddot, mixed = second_order_loops(point.derivs)
        assert_close(point.derivs.dot_psi, dot)
        assert_close(point.derivs.ddot_psi, ddot)
        # at the unit directions, mixed gives every mixed map's columns
        batched = point.derivs.mixed(np.eye(point.derivs.model.n_support))
        assert batched.shape == (len(mixed),) + mixed[0].shape
        assert_close(batched.transpose(0, 2, 1), np.stack(mixed))

    def test_d2g_pairs_match_apply_loop(self, point, rng):
        form = point.derivs.d2_eta
        for H in (point.eta_dot, rng.normal(size=(4, point.derivs.model.n_support))):
            loop = d2g_pairs_loop(point.derivs, H)
            assert_close(form(H), loop)
            assert_close(form(H[:2])[0, 1], loop[0, 1])

    def test_second_order_reads_allocate_no_m_by_m_array(self):
        # a continuous covariate puts a support point at every complete
        # record; at the truth, mixed and d2_eta on three directions stay
        # below the size of one m x m array
        rng = np.random.default_rng(8)
        x = rng.normal(size=1000)
        y = 0.5 + x + rng.normal(size=1000)
        r = np.where(rng.uniform(size=1000) < 0.2, 2, 1)
        model = MissingCovModel.from_arrays(r, y, x, NormalRegression())
        point = MissingCovProfile(model).point(np.array([0.5, 1.0, 0.0]))
        H = rng.normal(size=(3, model.n_support))
        tracemalloc.start()
        try:
            point.derivs.mixed(H)
            point.derivs.d2_eta(H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.n_support > 750
        assert peak < model.n_support**2 * 8

    def test_score_jacobian_is_weighted_per_record_sum(self, point):
        model = point.derivs.model
        per_record = score_jacobian_per_record(
            model, point.derivs, point.eta_dot,
            d2theta_eta(point.derivs, point.eta_dot))
        jac = score_jacobian(point)
        assert_close(jac, np.einsum("i,iab->ab", model.weights, per_record))


class TestMissingFraction:
    def test_ratio_examples(self):
        model = MissingCovModel.from_arrays(
            [1] * 7 + [2] * 3, np.arange(10.0), np.arange(10.0),
            NormalRegression(),
        )
        condition = check_missing_fraction(model, model.weights)
        assert condition["satisfied"] and condition["ratio"] == pytest.approx(3.0 / 7.0)

        half = MissingCovModel.from_arrays(
            [1, 2], [0.0, 1.0], [0.0, 0.0], NormalRegression()
        )
        assert not check_missing_fraction(half, half.weights)["satisfied"]

    def test_gate_refuses_majority_missing(self):
        model = MissingCovModel.from_arrays(
            [1, 1, 2, 2, 2], np.arange(5.0), np.arange(5.0),
            NormalRegression(),
        )
        profile = MissingCovProfile(model)
        with pytest.raises(ContractionViolation):
            profile.precheck(np.array([0.0, 1.0, 0.0]))


class TestContractionCertificate:
    """The spectral radius of d_eta is certified below one at every point;
    the accelerated solve converges to repelling fixed points too."""

    DESIGN = MissingCovDesign(w2=0.55)

    def divergent_model(self):
        rng = simulation.replication_rng(40, 0)
        r, y, x = sample_missing_cov(self.DESIGN, 300, rng)
        return MissingCovModel.from_arrays(r, y, x, NormalRegression())

    def test_repelling_fixed_point_is_refused(self):
        model = self.divergent_model()
        profile = MissingCovProfile(model)
        theta = missing_cov.FAMILY.default_start(model)
        op, sol = profile.solve(theta)
        assert sol.residual < 1e-10
        radius = np.abs(np.linalg.eigvals(psi_derivatives(op, sol.eta).d_eta.matrix)).max()
        assert radius > 1.0
        with pytest.raises(ContractionViolation, match="spectral radius"):
            profile.point(theta)
        assert profile.last_point is None

    def test_replication_records_the_violation(self, monkeypatch):
        # replications skip the precheck: the certificate is what refuses
        # them.  A study's design refuses w2 >= 1/2, so the study runs under
        # the default design, with the same theta0, and its draws come from
        # DESIGN through the reference sampler
        monkeypatch.setattr(simulation, "gen_missing_cov",
                            lambda design, n, rng: sample_missing_cov(self.DESIGN, n, rng))
        config = simulation.SimConfig(model="missing_cov", n=300, replications=1, seed=40)
        rep = simulation.run_replication(config, 0)
        assert not rep.converged and rep.error == "ContractionViolation"

    def test_certificate_matches_the_spectral_radius(self):
        model = self.divergent_model()
        theta = missing_cov.FAMILY.default_start(model)
        op = Operator(model, theta)
        ws = psi_derivatives(op, solve_nuisance(op).eta)
        radius = np.abs(np.linalg.eigvals(ws.d_eta.matrix)).max()
        for target, contracts in ((0.5, True), (0.999, True), (1.001, False), (1.5, False)):
            # scaling p1 scales d_eta and leaves dg_a alone
            ws.p1 = op.p1 * (target / radius)
            ws.d_eta = LinearMap(-(ws.p1 / ws.a**2)[:, None] * ws.dg_a)
            # the L1 norm settles the first case; the factorization the rest
            assert (ws.d_eta.l1_norm() < 1.0) == (target == 0.5)
            assert ws.contracts() == contracts

    def test_nan_map_is_refused(self, missing_cov_model):
        # a NaN reaches the Cholesky factorization otherwise, which returns
        # NaN factors without raising
        ws = bundle(missing_cov_model, THETA, solved(missing_cov_model, THETA).eta)
        ws.p1 = ws.p1.copy()
        ws.p1[0] = np.nan
        ws.d_eta = LinearMap(-(ws.p1 / ws.a**2)[:, None] * ws.dg_a)
        with pytest.raises(InvalidInput, match="non-finite entry"):
            ws.contracts()


class TestContinuousCovariateColdStart:
    """A continuous covariate makes every complete-case value a support
    point.  On this n = 2,000 draw the fit's first solve fails at its cold
    start: the complete-case masses leave a negative self-consistency
    denominator at one of the 1,615 support points.  The ROADMAP item on
    matrix-free mixture derivatives and a cold start that cannot collapse
    turns this into a pass."""

    @pytest.mark.xfail(strict=True, raises=DenominatorCollapse,
                       reason="the cold start's self-consistency denominator collapses")
    def test_seed_13_sample_fits(self):
        rng = np.random.default_rng(13)
        n = 2000
        x = rng.standard_normal(n)
        y = 0.5 + x + rng.standard_normal(n)
        r = np.where(rng.uniform(size=n) < 0.2, 2.0, 1.0)
        model = MissingCovModel.from_arrays(r, y, x, NormalRegression())
        assert model.n_support == 1615
        fit = estimator.profile_mle(MissingCovProfile(model), np.array([0.0, 0.5, 0.0]),
                                    force=True)
        assert fit.score_norm < 1e-8 and np.all(np.isfinite(fit.se))


class TestOperatorAuditsAcrossSeeds:
    def test_all_operators_match_oracles_on_three_seeds(self):
        from profix import audits

        for seed in (0, 1, 2):
            rows = audits.run_audits("missing_cov", seed=seed, n=40)
            failing = [r.name for r in rows if not r.passed]
            assert not failing, f"seed {seed}: {failing}"


class TestPopulation:
    def test_self_consistency(self, missing_cov_population):
        res = population_self_consistency(missing_cov_population)
        assert res["sup_error"] < 1e-6

    def test_contraction_bound(self, missing_cov_population):
        pop = missing_cov_population
        design = pop.design
        norm = bundle(pop.model, design.theta0, pop.g0).d_eta.l1_norm()
        assert norm <= design.w2 / (1.0 - design.w2) + 1e-6

    def test_stationarity_and_orthogonality(self, missing_cov_population, rng):
        pop = missing_cov_population
        dirs = []
        for _ in range(10):
            raw = rng.standard_normal(len(pop.g0))
            raw -= raw.mean()
            dirs.append(raw / np.abs(raw).sum())
        theta0 = np.asarray(pop.design.theta0)
        for theta in (theta0, theta0 + 0.05, theta0 - 0.05):
            vals = nuisance_stationarity(pop, theta, dirs)
            assert np.abs(vals).max() < 1e-6
        orth = score_orthogonality(pop, dirs)
        assert np.abs(orth).max() < 1e-6

    def test_stationarity_requires_zero_sum(self, missing_cov_population):
        with pytest.raises(InvalidInput):
            nuisance_stationarity(
                missing_cov_population, np.asarray((0.0, 1.0, 0.0)),
                [np.ones(9)],
            )


class TestCsv:
    def test_roundtrip(self, tmp_path, missing_cov_data):
        r, y, x = missing_cov_data
        path = tmp_path / "data.csv"
        lines = ["R,Y,X"]
        for ri, yi, xi in zip(r, y, x):
            lines.append(
                f"{int(ri)},{yi},{xi}" if ri == 1 else f"{int(ri)},{yi},"
            )
        path.write_text("\n".join(lines) + "\n")
        model = load_csv(path)
        direct = MissingCovModel.from_arrays(r, y, x, NormalRegression())
        assert np.array_equal(model.points, direct.points)

    def test_missing_x_must_be_blank(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("R,Y,X\n2,0.5,1.0\n")
        with pytest.raises(InvalidInput, match="line 2, column 3"):
            load_csv(path)

    def test_complete_needs_x(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("R,Y,X\n1,0.5,\n")
        with pytest.raises(InvalidInput, match="column 3"):
            load_csv(path)
