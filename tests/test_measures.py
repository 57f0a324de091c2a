import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from profix.errors import InvalidInput
from profix.measures import (
    BilinearMap,
    EmpiricalMeasure,
    GridDensity,
    LinearMap,
    MaxIndexMap,
    PerturbationDirection,
    StepFunction,
    composite_gauss_grid,
    empirical_from_sample,
    gauss_legendre_grid,
)

from reference import (
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
        m = empirical_from_sample([1.0, 2.0])
        assert np.array_equal(m.points, [1.0, 2.0])
        assert np.array_equal(m.weights, [0.5, 0.5])

    def test_single_atom_normalized(self):
        m = empirical_from_sample([3.0], weights=[2.0])
        assert np.array_equal(m.points, [3.0])
        assert np.array_equal(m.weights, [1.0])

    def test_probability_mass_exact(self):
        m = empirical_from_sample([0.3, 1.7, 0.2, 5.0, -1.0])
        assert abs(m.total_mass - 1.0) < 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInput):
            empirical_from_sample([])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            empirical_from_sample([1.0, 2.0], weights=[0.5, -0.5])

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
            m = empirical_from_sample(
                rng.normal(size=n), weights=rng.uniform(0.1, 2.0, size=n)
            )
            assert abs(m.total_mass - 1.0) < 1e-12

    def test_json_roundtrip(self):
        m = empirical_from_sample([2.0, 1.0, 1.0])
        other = measure_from_json(measure_to_json(m))
        assert m == other
        payload = json.loads(measure_to_json(m))
        assert payload["points"] == sorted(payload["points"])

    def test_expectation(self):
        m = empirical_from_sample([1.0, 3.0])
        assert expectation(m, np.array([2.0, 4.0])) == pytest.approx(3.0)

    def test_immutable(self):
        m = empirical_from_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            m.weights[0] = 0.9


class TestMixPath:
    def test_endpoints_exact(self):
        F = empirical_from_sample([0.0, 1.0])
        G = empirical_from_sample([2.0, 3.0])
        assert mix_path(F, G, 0.0) == F
        assert mix_path(F, G, 1.0) == G

    def test_convex_combination(self):
        F = EmpiricalMeasure([0.0], [1.0])
        G = EmpiricalMeasure([1.0], [1.0])
        mixed = mix_path(F, G, 0.25)
        assert np.array_equal(mixed.points, [0.0, 1.0])
        assert np.allclose(mixed.weights, [0.75, 0.25])

    def test_domain(self):
        F = empirical_from_sample([0.0])
        with pytest.raises(InvalidInput):
            mix_path(F, F, 1.5)
        with pytest.raises(InvalidInput):
            mix_path(F, F, -0.1)

    def test_mass_preserved_on_random_draws(self, rng):
        for _ in range(100):
            F = empirical_from_sample(rng.normal(size=rng.integers(1, 10)))
            G = empirical_from_sample(rng.normal(size=rng.integers(1, 10)))
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

    def test_bilinearity(self, rng):
        T = rng.normal(size=(3, 3, 3))

        def pairs(H):
            return np.einsum("ijk,aj,bk->abi", T, H, H)

        B = BilinearMap(pairs, 3)
        h1, h1p, h2 = rng.normal(size=(3, 3))
        a, b = 1.7, -0.4
        lhs = B.apply(a * h1 + b * h1p, h2)
        rhs = a * B.apply(h1, h2) + b * B.apply(h1p, h2)
        assert np.allclose(lhs, rhs, atol=1e-12)
        for bad in ((h1, h2[:2]), (h1[:2], h2[:2])):
            with pytest.raises(InvalidInput, match="dimension"):
                B.apply(*bad)


def max_index_terms(m, seed, n_terms, zero_share):
    """Random terms shaped like the survival derivatives: nonnegative
    coefficients, a share of them exactly zero, and nonincreasing suffix
    sums with ties."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n_terms):
        a = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) >= zero_share)
        s = np.cumsum(rng.choice([0.0, 0.5, 1.0], m)[::-1])[::-1] / max(m, 1)
        terms.append((a, s))
    return terms


def assert_resolvent_matches_dense(M, rhs):
    """resolvent_solve agrees with the dense solve, for stacked columns and
    for a single column."""
    system = np.eye(M.dim) - max_index_dense(M.terms, M.dim)
    dense = np.linalg.solve(system, rhs) if M.dim else rhs
    bound = 1e-9 * max(np.abs(dense).max(initial=0.0), 1.0)
    assert np.abs(M.resolvent_solve(rhs) - dense).max(initial=0.0) <= bound
    assert np.abs(M.resolvent_solve(rhs[:, 1]) - dense[:, 1]).max(initial=0.0) <= bound


class TestMaxIndexMap:
    @given(
        m=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        n_terms=st.integers(1, 2),
        zero_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_apply_and_matrix_match_the_definition(self, m, seed, n_terms,
                                                   zero_share):
        terms = max_index_terms(m, seed, n_terms, zero_share)
        M = MaxIndexMap(terms)
        dense = max_index_dense(terms, m)
        assert np.abs(M.matrix - dense).max(initial=0.0) <= 1e-15
        v = np.random.default_rng(seed).normal(size=(m, 3))
        assert np.allclose(M.apply(v), dense @ v, rtol=0, atol=1e-13)
        assert np.allclose(M.apply(v[:, 0]), dense @ v[:, 0], rtol=0, atol=1e-13)

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
        ((a, s),) = max_index_terms(m, seed, 1, zero_share)
        a = scale * a
        M = MaxIndexMap([(a, s)])
        system = np.eye(m) - max_index_dense(M.terms, m)
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
        M = MaxIndexMap([(np.zeros(5), np.linspace(1.0, 0.2, 5))])
        assert np.array_equal(M.resolvent_solve(rhs), rhs)

    def test_leading_and_trailing_zero_coefficients(self):
        a = np.array([0.0, 0.0, 0.7, 0.3, 0.0, 0.9, 0.0])
        s = np.cumsum(np.arange(7.0, 0.0, -1.0)[::-1])[::-1] / 40.0
        M = MaxIndexMap([(a, s)])
        assert max_index_spectral_radius(a, s) < 1.0
        assert_resolvent_matches_dense(M, np.random.default_rng(4).normal(size=(7, 3)))

    def test_one_free_row(self):
        a = np.array([0.0, 0.8, 0.0, 0.0])
        s = np.array([2.0, 1.0, 0.5, 0.25])
        assert_resolvent_matches_dense(MaxIndexMap([(a, s)]),
                                       np.random.default_rng(5).normal(size=(4, 2)))
        # its pivot 1/a - s_1 is negative once a s_1 exceeds one
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            MaxIndexMap([(1.5 * a, s)]).resolvent_solve(np.ones(4))

    @pytest.mark.parametrize("rising", [True, False])
    def test_coefficients_spread_over_eight_decades(self, rising):
        m = 12
        a = np.geomspace(1e-8, 1.0, m)
        a = a if rising else a[::-1]
        s = np.cumsum(np.random.default_rng(6).uniform(0.0, 1.0, m)[::-1])[::-1] / m
        a = a * 0.9 / max_index_spectral_radius(a, s)
        assert_resolvent_matches_dense(MaxIndexMap([(a, s)]),
                                       np.random.default_rng(7).normal(size=(m, 2)))

    def test_negative_coefficient_refused(self):
        with pytest.raises(InvalidInput):
            MaxIndexMap([([0.5, -0.1], [1.0, 0.5])]).resolvent_solve(np.ones(2))

    def test_singular_system_raises(self):
        # diag(1) K(1) with m = 1 is the identity: I - M is zero
        with pytest.raises(np.linalg.LinAlgError):
            MaxIndexMap([([1.0], [1.0])]).resolvent_solve(np.ones(1))

    def test_checks_shapes(self):
        with pytest.raises(InvalidInput):
            MaxIndexMap([(np.ones(2), np.ones(3))])
        M = MaxIndexMap([(np.ones(2), np.ones(2))])
        with pytest.raises(InvalidInput):
            M.apply(np.ones(3))
        with pytest.raises(InvalidInput):
            MaxIndexMap([(np.ones(2), np.ones(2))] * 2).resolvent_solve(np.ones(2))


class TestPerturbationDirection:
    def test_between_measures_zero_total(self):
        F = empirical_from_sample([0.0, 1.0, 2.0])
        G = empirical_from_sample([1.0, 3.0])
        h = direction_between(F, G)
        assert abs(h.coeffs.sum()) < 1e-14
        assert h.norm > 0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            PerturbationDirection([1.0, 2.0], [0.1])

    def test_norm_is_total_variation(self):
        h = PerturbationDirection([0.0, 1.0, 2.0], [0.1, -0.4, 0.3])
        assert h.norm == pytest.approx(0.8)

    def test_self_direction_is_zero(self):
        F = empirical_from_sample([0.0, 1.0])
        h = direction_between(F, F)
        assert np.allclose(h.coeffs, 0.0)


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
