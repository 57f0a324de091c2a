import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profix.errors import InvalidInput
from profix.measures import (
    BilinearMap,
    EmpiricalMeasure,
    GridDensity,
    LinearMap,
    PerturbationDirection,
    StepFunction,
    TwoSampleMeasure,
    composite_gauss_grid,
    empirical_from_sample,
    gauss_legendre_grid,
    mix_path,
)

from reference import (
    direction_between,
    measure_from_json,
    measure_to_json,
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
        assert m.expectation(np.array([2.0, 4.0])) == pytest.approx(3.0)

    def test_immutable(self):
        m = empirical_from_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            m.weights[0] = 0.9


class TestScaledSubMeasures:
    def test_two_sample_from_scaled_parts(self):
        F1 = empirical_from_sample([0.0, 1.0])
        F2 = empirical_from_sample([5.0])
        ts = TwoSampleMeasure(F1.scaled(0.7), F2.scaled(0.3))
        assert ts.w1 == pytest.approx(0.7)
        assert ts.w2 == pytest.approx(0.3)

    def test_negative_factor_rejected(self):
        with pytest.raises(InvalidInput):
            empirical_from_sample([0.0]).scaled(-1.0)


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

    def test_jump_at(self):
        A = StepFunction([1.0, 2.0], [0.5, 0.3], tau=3.0)
        assert A.jump_at(2.0) == pytest.approx(0.3)
        assert A.jump_at(1.5) == 0.0

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


class TestTwoSampleMeasure:
    def test_projections(self):
        complete = EmpiricalMeasure([1.0, 2.0], [0.4, 0.3])
        incomplete = EmpiricalMeasure([5.0], [0.3])
        ts = TwoSampleMeasure(complete, incomplete)
        assert ts.project(1) == complete
        assert ts.project(2) == incomplete
        assert ts.w1 == pytest.approx(0.7)
        assert ts.w2 == pytest.approx(0.3)

    def test_mass_constraint(self):
        with pytest.raises(InvalidInput):
            TwoSampleMeasure(
                EmpiricalMeasure([1.0], [0.5]), EmpiricalMeasure([2.0], [0.4])
            )


class TestGridDensity:
    def test_pmf_normalization(self):
        g = GridDensity([0.0, 1.0, 2.0], [1.0, 2.0, 1.0], normalize=True)
        assert abs(g.total_mass - 1.0) < 1e-10

    def test_distinct_support(self):
        with pytest.raises(InvalidInput):
            GridDensity([0.0, 0.0], [0.5, 0.5])

    def test_density_kind_masses(self):
        g = GridDensity([0.0, 1.0], [2.0, 2.0], kind="density",
                        quad_weights=[0.25, 0.25])
        assert np.allclose(g.masses, [0.5, 0.5])

    def test_mass_at(self):
        g = GridDensity([0.0, 1.0], [0.4, 0.6])
        assert g.mass_at(1.0) == pytest.approx(0.6)
        assert g.mass_at(0.5) == 0.0


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

        def form(h1, h2):
            return np.einsum("ijk,j,k->i", T, h1, h2)

        B = BilinearMap(form, 3)
        h1, h1p, h2 = rng.normal(size=(3, 3))
        a, b = 1.7, -0.4
        lhs = B.apply(a * h1 + b * h1p, h2)
        rhs = a * B.apply(h1, h2) + b * B.apply(h1p, h2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestPerturbationDirection:
    def test_between_measures_zero_total(self):
        F = empirical_from_sample([0.0, 1.0, 2.0])
        G = empirical_from_sample([1.0, 3.0])
        h = direction_between(F, G)
        assert abs(h.coeffs.sum()) < 1e-14
        assert h.norm > 0

    def test_shape_mismatch(self):
        A = StepFunction([1.0, 2.0], [0.5, 0.3], tau=3.0)
        with pytest.raises(InvalidInput):
            PerturbationDirection.of_jumps(A, [0.1])

    def test_mass_direction_norm(self):
        g = GridDensity([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        h = PerturbationDirection.of_masses(g, [0.1, -0.4, 0.3])
        assert h.kind == "masses"
        assert h.norm == pytest.approx(0.4)
        assert h.scaled(2.0).norm == pytest.approx(0.8)

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
