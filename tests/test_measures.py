import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from profix import missing_cov, prop_odds
from profix.errors import InvalidInput, SingularResolvent
from profix.missing_cov import MissingCovModel, NormalRegression
from profix.prop_odds import PropOddsModel
from profix.implicit_diff import resolvent_apply
from profix.measures import (
    EmpiricalMeasure,
    GridDensity,
    LinearMap,
    MaxIndexMap,
    RecordTable,
    StepFunction,
    composite_gauss_grid,
    gauss_legendre_grid,
)
from profix.measures import _TAIL, _canonical_order

from reference import (
    canonical_atoms,
    dense,
    direction_between,
    expectation,
    max_index_dense,
    max_index_spectral_radius,
    measure_from_json,
    measure_to_json,
    mix_path,
    step_eval,
    trapezoid_grid,
)


class TestEmpiricalMeasure:
    def test_equal_weights(self):
        m = RecordTable.sample_measure([1.0, 2.0], None)
        assert np.array_equal(m.points, [1.0, 2.0])
        assert np.array_equal(m.weights, [0.5, 0.5])

    def test_single_atom_normalized(self):
        m = RecordTable.sample_measure([3.0], [2.0])
        assert np.array_equal(m.points, [3.0])
        assert np.array_equal(m.weights, [1.0])

    def test_probability_mass_exact(self):
        m = RecordTable.sample_measure([0.3, 1.7, 0.2, 5.0, -1.0], None)
        assert abs(m.total_mass - 1.0) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            EmpiricalMeasure([1.0, 2.0], [0.5, -0.5])

    def test_canonical_order_and_merge(self):
        m = EmpiricalMeasure([3.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        assert np.array_equal(m.points, [1.0, 3.0])
        assert np.allclose(m.weights, [0.3, 0.7])

    def test_vector_points_lexicographic(self):
        pts = [[1.0, 2.0], [0.0, 5.0], [1.0, 1.0]]
        m = EmpiricalMeasure(pts, [0.2, 0.3, 0.5])
        assert np.array_equal(m.points, [[0.0, 5.0], [1.0, 1.0], [1.0, 2.0]])

    def test_random_samples_sum_to_one(self, rng):
        for _ in range(50):
            n = rng.integers(1, 40)
            m = RecordTable.sample_measure(
                rng.normal(size=n), rng.uniform(0.1, 2.0, size=n)
            )
            assert abs(m.total_mass - 1.0) < 1e-12

    def test_json_roundtrip(self):
        m = EmpiricalMeasure([2.0, 1.0, 1.0], [1 / 3] * 3)
        other = measure_from_json(measure_to_json(m))
        assert m == other
        payload = json.loads(measure_to_json(m))
        assert payload["points"] == sorted(payload["points"])

    def test_expectation(self):
        m = EmpiricalMeasure([1.0, 3.0], [0.5, 0.5])
        assert expectation(m, np.array([2.0, 4.0])) == pytest.approx(3.0)

    def test_immutable(self):
        m = EmpiricalMeasure([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            m.weights[0] = 0.9


@st.composite
def point_tables(draw):
    """1-d points or rows of 1-3 columns, n from 0, whose first entries tie
    nowhere, in places or everywhere, and whose rows may repeat."""
    n = draw(st.integers(0, 12))
    columns = draw(st.sampled_from([None, 1, 2, 3]))  # None: 1-d points
    first = st.sampled_from(draw(st.sampled_from(
        [[1.5], [0.0, 1.0], [-2.0, -0.5, 0.0, 0.7, 1.0, 3.0, 4.5, 8.0]])))
    rest = st.sampled_from([-1.0, 0.0, 0.5])
    rows = [[draw(first)] + [draw(rest) for _ in range(1, columns or 1)]
            for _ in range(n)]
    points = np.array(rows, dtype=float).reshape(n, columns or 1)
    return points[:, 0] if columns is None else points


class TestCanonicalOrder:
    """The record table's order: np.lexsort's, stable, with its atoms."""

    @given(points=point_tables(), seed=st.integers(0, 2**16))
    @example(points=np.zeros(0), seed=0)
    @example(points=np.zeros((0, 3)), seed=0)
    @example(points=np.array([[2.0, 1.0]]), seed=0)
    @example(points=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), seed=0)
    @settings(max_examples=200, deadline=None)
    def test_is_stable_lexsort_order(self, points, seed):
        keys = (points,) if points.ndim == 1 else points[:, ::-1].T
        assert np.array_equal(_canonical_order(points), np.lexsort(keys))
        weights = np.random.default_rng(seed).uniform(size=len(points))
        measure = EmpiricalMeasure(points, weights)
        expected_points, expected_weights = canonical_atoms(points, weights)
        assert measure.points.tobytes() == expected_points.tobytes()
        assert measure.points.shape == expected_points.shape
        assert measure.weights.tobytes() == expected_weights.tobytes()


#: Each family's sample of n records under the given weights.
SAMPLES = {
    "prop_odds": lambda n, weights: PropOddsModel.from_arrays(
        np.linspace(0.5, 2.0, n), np.ones(n), np.linspace(-1.0, 1.0, n),
        weights=weights),
    "missing_cov": lambda n, weights: MissingCovModel.from_arrays(
        np.ones(n), np.linspace(0.0, 1.0, n), np.linspace(-1.0, 1.0, n),
        NormalRegression(), weights=weights),
}


class TestSampleMeasureRefusals:
    def test_empty_sample(self):
        with pytest.raises(InvalidInput, match="empty sample"):
            RecordTable.sample_measure([], None)

    @pytest.mark.parametrize("family", sorted(SAMPLES))
    def test_empty_sample_through_from_arrays(self, family):
        with pytest.raises(InvalidInput, match="empty sample"):
            SAMPLES[family](0, None)

    @pytest.mark.parametrize("family", sorted(SAMPLES))
    @pytest.mark.parametrize("weights", [
        [0.0, 0.0, 0.0],        # sums to zero
        [1.0, -1.0, 0.0],       # cancels to zero
        [-1.0, 0.5, 0.25],      # negative sum
        [np.inf, 1.0, 1.0],     # infinite sum
        [np.nan, 1.0, 1.0],     # no sum
        [1e308, 1e308, 1.0],    # finite weights, infinite sum
    ])
    def test_weight_sum_must_be_positive_and_finite(self, family, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any division
            with pytest.raises(InvalidInput, match="positive finite sum"):
                SAMPLES[family](3, weights)

    @pytest.mark.parametrize("family", sorted(SAMPLES))
    def test_positive_sum_with_a_negative_weight(self, family):
        with pytest.raises(InvalidInput, match="negative atom weight"):
            SAMPLES[family](3, [2.0, -0.5, 1.0])


#: Each family's module, a three-record sample of it (one record censored or
#: incomplete) and a parameter at which to bind its operator.
SMALL_SAMPLES = {
    "prop_odds": (prop_odds, [1, 2, 3], [1, 1, 0], [0, 1, 0.5], [0.0]),
    "missing_cov": (missing_cov, [1, 1, 2], [0.0, 1.0, 0.5], [-1.0, 1.0, 0.0],
                    [0.0, 1.0, 0.0]),
}


def small_operator(family, F=None):
    module, *columns, theta = SMALL_SAMPLES[family]
    model = (PropOddsModel.from_arrays(*columns) if family == "prop_odds"
             else MissingCovModel.from_arrays(*columns, NormalRegression()))
    return module, module.Operator(model, theta, F)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", sorted(SMALL_SAMPLES))
class TestNonFiniteWeights:
    """A weight vector or a direction with a NaN or infinite entry is refused
    where the record table resolves it, before any arithmetic on it."""

    def test_operator_weights(self, family, value, entry):
        F = np.ones(3)
        F[entry] = value
        with pytest.raises(InvalidInput, match="weight vector has a non-finite entry"):
            _, op = small_operator(family, F)
            op(op.cold_start())

    def test_direction(self, family, value, entry):
        h = np.zeros(3)
        h[entry] = value
        module, op = small_operator(family)
        bundle = module.psi_derivatives(op, op.cold_start())
        with pytest.raises(InvalidInput, match="direction has a non-finite entry"):
            bundle.d_f(h)


class TestMixPath:
    def test_endpoints_exact(self):
        F = EmpiricalMeasure([0.0, 1.0], [0.5, 0.5])
        G = EmpiricalMeasure([2.0, 3.0], [0.5, 0.5])
        assert mix_path(F, G, 0.0) == F
        assert mix_path(F, G, 1.0) == G

    def test_convex_combination(self):
        F = EmpiricalMeasure([0.0], [1.0])
        G = EmpiricalMeasure([1.0], [1.0])
        mixed = mix_path(F, G, 0.25)
        assert np.array_equal(mixed.points, [0.0, 1.0])
        assert np.allclose(mixed.weights, [0.75, 0.25])

    def test_domain(self):
        F = EmpiricalMeasure([0.0], [1.0])
        with pytest.raises(InvalidInput):
            mix_path(F, F, 1.5)
        with pytest.raises(InvalidInput):
            mix_path(F, F, -0.1)

    def test_mass_preserved_on_random_draws(self, rng):
        for _ in range(100):
            F = RecordTable.sample_measure(rng.normal(size=rng.integers(1, 10)),
                                           None)
            G = RecordTable.sample_measure(rng.normal(size=rng.integers(1, 10)),
                                           None)
            t = rng.uniform()
            assert abs(mix_path(F, G, t).total_mass - 1.0) < 1e-12


class TestStepFunction:
    def test_between_jumps(self):
        A = StepFunction([1.0, 2.0], [0.5, 0.3], tau=3.0)
        assert step_eval(A, 1.5) == pytest.approx(0.5)

    def test_zero_at_origin(self):
        A = StepFunction([1.0, 2.0], [0.5, 0.3], tau=3.0)
        assert step_eval(A, 0.0) == 0.0

    def test_total_at_last_jump(self):
        A = StepFunction([1.0, 2.0], [0.5, 0.3], tau=3.0)
        assert step_eval(A, 2.0) == pytest.approx(0.8)

    def test_domain_guard(self):
        A = StepFunction([1.0], [0.5], tau=2.0)
        with pytest.raises(InvalidInput):
            step_eval(A, -0.1)
        with pytest.raises(InvalidInput):
            step_eval(A, 2.5)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            StepFunction([2.0, 1.0], [0.1, 0.1], tau=3.0)
        with pytest.raises(InvalidInput):
            StepFunction([1.0], [-0.1], tau=3.0)
        with pytest.raises(InvalidInput):
            StepFunction([0.0], [0.1], tau=3.0)

    @given(
        times=st.lists(
            st.floats(0.01, 9.99, allow_nan=False), min_size=1, max_size=8,
            unique=True,
        ),
        sizes_seed=st.integers(0, 2**32 - 1),
        u=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, times, sizes_seed, u):
        times = sorted(times)
        sizes = np.random.default_rng(sizes_seed).uniform(0, 1, len(times))
        A = StepFunction(times, sizes, tau=10.0)
        lo, hi = min(u), max(u)
        assert A(lo) <= A(hi) + 1e-15


class TestGridDensity:
    def test_distinct_support(self):
        with pytest.raises(InvalidInput):
            GridDensity([0.0, 0.0], [0.5, 0.5])


class TestLinearAndBilinearMaps:
    def test_zero_maps_to_zero(self, rng):
        M = LinearMap(rng.normal(size=(4, 4)))
        assert np.allclose(M.apply(np.zeros(4)), 0.0)

    def test_linearity(self, rng):
        for _ in range(50):
            M = LinearMap(rng.normal(size=(5, 5)))
            h = rng.normal(size=5)
            a = rng.normal()
            lhs = M.apply(a * h)
            rhs = a * M.apply(h)
            scale = max(np.abs(rhs).max(), 1e-300)
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_additivity(self, rng):
        M = LinearMap(rng.normal(size=(3, 3)))
        h1, h2 = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(M.apply(h1 + h2), M.apply(h1) + M.apply(h2))


def max_index_coefficients(m, seed, zero_share):
    """Random (a, s) shaped like the survival derivative: nonnegative
    coefficients, a share of them exactly zero, and nonincreasing suffix
    sums with ties."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) >= zero_share)
    s = np.cumsum(rng.choice([0.0, 0.5, 1.0], m)[::-1])[::-1] / max(m, 1)
    return a, s


def assert_resolvent_matches_dense(M, rhs):
    """resolvent_solve agrees with the dense solve, for stacked columns and
    for a single column."""
    system = np.eye(M.dim) - max_index_dense(M.a, M.s)
    dense = np.linalg.solve(system, rhs) if M.dim else rhs
    bound = 1e-9 * max(np.abs(dense).max(initial=0.0), 1.0)
    assert np.abs(M.resolvent_solve(rhs) - dense).max(initial=0.0) <= bound
    assert np.abs(M.resolvent_solve(rhs[:, 1]) - dense[:, 1]).max(initial=0.0) <= bound


class TestMaxIndexMap:
    @given(
        m=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_apply_and_matrix_match_the_definition(self, m, seed, zero_share):
        a, s = max_index_coefficients(m, seed, zero_share)
        M = MaxIndexMap(a, s)
        oracle = max_index_dense(a, s)
        assert np.abs(dense(M) - oracle).max(initial=0.0) <= 1e-15
        v = np.random.default_rng(seed).normal(size=(m, 3))
        assert np.allclose(M.apply(v), oracle @ v, rtol=0, atol=1e-13)
        assert np.allclose(M.apply(v[:, 0]), oracle @ v[:, 0], rtol=0, atol=1e-13)

    @given(
        m=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.5, 1.0]),
        scale=st.sampled_from([0.5, 2.0, 5.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_resolvent_solve_matches_dense_solve(self, m, seed, zero_share, scale):
        # the solve is defined exactly where the map contracts: inside,
        # it agrees with the dense solve; outside, it raises
        a, s = max_index_coefficients(m, seed, zero_share)
        a = scale * a
        M = MaxIndexMap(a, s)
        system = np.eye(m) - max_index_dense(a, s)
        rhs = np.random.default_rng(seed + 1).normal(size=(m, 2))
        assume(m == 0 or np.linalg.cond(system) < 1e8)
        rho = max_index_spectral_radius(a, s)
        if rho < 1 - 1e-9:
            assert_resolvent_matches_dense(M, rhs)
        elif rho > 1 + 1e-9:
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                M.resolvent_solve(rhs)

    def test_all_coefficients_zero(self):
        rhs = np.random.default_rng(3).normal(size=(5, 2))
        M = MaxIndexMap(np.zeros(5), np.linspace(1.0, 0.2, 5))
        assert np.array_equal(M.resolvent_solve(rhs), rhs)

    def test_leading_and_trailing_zero_coefficients(self):
        a = np.array([0.0, 0.0, 0.7, 0.3, 0.0, 0.9, 0.0])
        s = np.cumsum(np.arange(7.0, 0.0, -1.0)[::-1])[::-1] / 40.0
        M = MaxIndexMap(a, s)
        assert max_index_spectral_radius(a, s) < 1.0
        assert_resolvent_matches_dense(M, np.random.default_rng(4).normal(size=(7, 3)))

    def test_one_free_row(self):
        a = np.array([0.0, 0.8, 0.0, 0.0])
        s = np.array([2.0, 1.0, 0.5, 0.25])
        assert_resolvent_matches_dense(MaxIndexMap(a, s),
                                       np.random.default_rng(5).normal(size=(4, 2)))
        # its pivot 1/a - s_1 is negative once a s_1 exceeds one
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            MaxIndexMap(1.5 * a, s).resolvent_solve(np.ones(4))

    @pytest.mark.parametrize("rising", [True, False])
    def test_coefficients_spread_over_eight_decades(self, rising):
        m = 12
        a = np.geomspace(1e-8, 1.0, m)
        a = a if rising else a[::-1]
        s = np.cumsum(np.random.default_rng(6).uniform(0.0, 1.0, m)[::-1])[::-1] / m
        a = a * 0.9 / max_index_spectral_radius(a, s)
        assert_resolvent_matches_dense(MaxIndexMap(a, s),
                                       np.random.default_rng(7).normal(size=(m, 2)))

    def test_negative_coefficient_refused(self):
        with pytest.raises(InvalidInput):
            MaxIndexMap([0.5, -0.1], [1.0, 0.5]).resolvent_solve(np.ones(2))

    def test_singular_system_raises(self):
        # diag(1) K(1) with m = 1 is the identity: I - M is zero
        with pytest.raises(np.linalg.LinAlgError):
            MaxIndexMap([1.0], [1.0]).resolvent_solve(np.ones(1))

    def test_checks_shapes(self):
        for a, s in ((np.ones(2), np.ones(3)), (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(InvalidInput):
                MaxIndexMap(a, s)
        M = MaxIndexMap(np.ones(2), np.ones(2))
        with pytest.raises(InvalidInput):
            M.apply(np.ones(3))
        with pytest.raises(InvalidInput):
            M.resolvent_solve(np.ones(3))


def tridiagonal_form(M):
    """M of the map on its rows with a_i > 0, built densely from the map's
    dense matrix: I - diag(a) K(s) = diag(a) U M U', U upper-triangular
    ones."""
    free = M.a > 0
    system = (np.eye(M.dim) - dense(M))[np.ix_(free, free)]
    u_inv = np.eye(free.sum()) - np.eye(free.sum(), k=1)
    form = u_inv @ (system / M.a[free, None]) @ u_inv.T
    return 0.5 * (form + form.T)


def cholesky_succeeds(matrix):
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def reduction_coefficients(m, rho, free_only=True):
    """Seeded (a, s) shaped like the survival derivative, a rising over
    three decades and s decreasing, with a scaled so that diag(a) K(s) has
    spectral radius rho; without free_only, a_i = 0 on every third row
    from the second on."""
    rng = np.random.default_rng(m)
    a = np.maximum.accumulate(np.geomspace(1e-3, 1.0, m) * rng.uniform(0.9, 1.1, m))
    s = np.cumsum(rng.uniform(0.1, 1.0, m)[::-1])[::-1] / m
    a *= rho / max_index_spectral_radius(a, s)
    if not free_only:
        a[1::3] = 0.0
    return a, s


def eliminated_rows(m):
    """Rows the odd-even reduction eliminates before its tail: the padded
    size has c = 2 + (m - 2) // stride <= _TAIL rows left at the stride."""
    stride = 1
    while (m - 2) // stride + 2 > _TAIL:
        stride *= 2
    return m - len(range(0, m, stride))


#: Sizes around the reduction's levels: none, one and several, the tail
#: size and one either side, twice it and one either side, odd and even.
REDUCTION_SIZES = sorted({1, 2, 3, _TAIL - 1, _TAIL, _TAIL + 1, 2 * _TAIL - 1,
                          2 * _TAIL, 2 * _TAIL + 1, 4 * _TAIL + 2, 4 * _TAIL + 3})


class TestOddEvenReduction:
    """The resolvent's odd-even reduction against dense linear algebra."""

    @pytest.mark.parametrize("m", REDUCTION_SIZES)
    @pytest.mark.parametrize("free_only", [True, False])
    @pytest.mark.parametrize("rho", [0.5, 0.99, 1.01, 2.0])
    def test_certificate_is_the_dense_cholesky(self, m, free_only, rho):
        M = MaxIndexMap(*reduction_coefficients(m, rho, free_only))
        assert M.contracts() == cholesky_succeeds(tridiagonal_form(M))
        if free_only:
            assert M.contracts() == (rho < 1.0)

    @pytest.mark.parametrize("m", REDUCTION_SIZES)
    @pytest.mark.parametrize("free_only", [True, False])
    def test_solve_matches_dense_solve(self, m, free_only):
        M = MaxIndexMap(*reduction_coefficients(m, 0.9, free_only))
        system = np.eye(m) - dense(M)
        rng = np.random.default_rng(m)
        for rhs in (rng.normal(size=m), rng.normal(size=(m, 1)), rng.normal(size=(m, 3))):
            expected = np.linalg.solve(system, rhs)
            x = M.resolvent_solve(rhs)
            assert x.shape == rhs.shape
            assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("m", [2 * _TAIL + 1, 4 * _TAIL + 2])
    def test_refusal_in_a_level(self, m):
        # a large increment of s at row 1 makes its diagonal entry, the
        # first pivot the reduction takes, negative
        a = np.full(m, 0.5 / m)
        s = np.linspace(1.0, 0.0, m, endpoint=False)
        s[:2] += 10.0 * m
        with pytest.raises(SingularResolvent,
                           match=r"not positive definite: .* does not contract "
                                 r"\(leading minor 1\)"):
            resolvent_apply(MaxIndexMap(a, s), np.ones(m))

    @pytest.mark.parametrize("m", [2, _TAIL, 2 * _TAIL + 1, 4 * _TAIL + 2])
    def test_refusal_in_the_tail(self, m):
        # past rho = 1 with smooth coefficients every level's pivot stays
        # positive, and the tail's recurrence meets the nonpositive one
        s = np.linspace(1.0, 0.0, m, endpoint=False)
        a = np.full(m, 1.05 / max_index_spectral_radius(np.ones(m), s))
        with pytest.raises(SingularResolvent, match="not positive definite") as info:
            resolvent_apply(MaxIndexMap(a, s), np.ones(m))
        minor = int(re.search(r"leading minor (\d+)", str(info.value)).group(1))
        assert eliminated_rows(m) < minor <= m


class TestPerturbationDirection:
    def test_between_measures_zero_total(self):
        F = EmpiricalMeasure([0.0, 1.0, 2.0], [1 / 3] * 3)
        G = EmpiricalMeasure([1.0, 3.0], [0.5, 0.5])
        h = direction_between(F, G)
        assert abs(h.sum()) < 1e-14
        assert np.abs(h).sum() > 0

    def test_shape_mismatch(self):
        table = RecordTable(EmpiricalMeasure([1.0, 2.0], [0.5, 0.5]), None)
        assert np.array_equal(table.resolve_direction([0.1, -0.1]), [0.1, -0.1])
        with pytest.raises(InvalidInput):
            table.resolve_direction([0.1])

    def test_self_direction_is_zero(self):
        F = EmpiricalMeasure([0.0, 1.0], [0.5, 0.5])
        h = direction_between(F, F)
        assert np.allclose(h, 0.0)


class TestQuadrature:
    def test_gauss_legendre_polynomial_exact(self):
        nodes, weights = gauss_legendre_grid(-1.0, 2.0, 8)
        value = weights @ nodes**5
        exact = (2.0**6 - (-1.0) ** 6) / 6.0
        assert value == pytest.approx(exact, abs=1e-12)

    def test_composite_cells(self):
        nodes, weights, boundaries = composite_gauss_grid(0.0, 1.0, 10, 3)
        assert len(nodes) == 30 and len(boundaries) == 11
        assert weights @ np.exp(nodes) == pytest.approx(np.e - 1.0, abs=1e-12)

    def test_trapezoid(self):
        nodes, weights = trapezoid_grid(0.0, 1.0, 101)
        assert weights.sum() == pytest.approx(1.0)
        assert weights @ nodes == pytest.approx(0.5, abs=1e-6)
