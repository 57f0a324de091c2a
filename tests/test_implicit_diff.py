from types import SimpleNamespace

import numpy as np
import pytest

from profix import missing_cov, prop_odds
from profix.errors import SingularResolvent
from profix.implicit_diff import d2theta_eta, df_eta, dtheta_eta, resolvent_apply
from profix.measures import LinearMap, MaxIndexMap
from profix.numdiff import fd_path, fd_theta

from reference import max_index_spectral_radius, neumann_apply


def scalar_derivs(d_eta, dot, ddot=0.0, mixed=0.0, d2_eta=0.0, d_f=None):
    """A one-dimensional derivative bundle with the members the resolvent
    formulas read."""
    return SimpleNamespace(
        d_eta=LinearMap(np.array([[d_eta]])),
        dot_psi=np.array([[dot]]),
        ddot_psi=np.array([[[ddot]]]),
        mixed=lambda H: mixed * H[None, :, :],
        d2_eta=lambda H: d2_eta * H[:, None, :] * H[None, :, :],
        d_f=d_f or (lambda h: np.zeros(1)),
    )


class TestResolvent:
    def test_identity(self, rng):
        r = rng.normal(size=4)
        assert np.allclose(resolvent_apply(LinearMap(np.zeros((4, 4))), r), r)

    def test_scalar_half(self):
        assert resolvent_apply(LinearMap(np.array([[0.5]])), np.array([1.0]))[0] == (
            pytest.approx(2.0)
        )

    def test_dense_vs_neumann(self, rng):
        M = rng.normal(size=(10, 10))
        M = LinearMap(M * 0.8 / LinearMap(M).sup_norm())
        r = rng.normal(size=10)
        dense = resolvent_apply(M, r)
        series = neumann_apply(M, r, terms=200)
        assert np.abs(dense - series).max() < 1e-9

    def test_resolvent_identity_random(self, rng):
        for _ in range(20):
            M = rng.normal(size=(6, 6))
            M *= rng.uniform(0.1, 0.9) / LinearMap(M).sup_norm()
            r = rng.normal(size=6)
            v = resolvent_apply(LinearMap(M), r)
            back = (np.eye(6) - M) @ v
            assert np.abs(back - r).max() <= 1e-10 * max(np.abs(r).max(), 1.0)

    def test_singular(self):
        with pytest.raises(SingularResolvent):
            resolvent_apply(LinearMap(np.eye(3)), np.ones(3))

    def test_structured_nan_residual_is_singular(self):
        # a zero coefficient row solves to rhs exactly, finite, while apply
        # multiplies the NaN suffix sum into the residual
        with pytest.raises(SingularResolvent, match="did not verify"):
            resolvent_apply(MaxIndexMap(np.zeros(3), [np.nan, 1.0, 0.5]), np.ones(3))

    def test_dense_nan_residual_is_singular(self, monkeypatch):
        # LAPACK spreads a NaN of the system into the solution, which the
        # finiteness test catches first; a solve that returns finite values
        # leaves only the residual to catch it
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.ones_like(b))
        with pytest.raises(SingularResolvent, match="did not verify"):
            resolvent_apply(LinearMap(np.array([[0.0, np.nan], [0.0, 0.0]])), np.ones(2))

    def test_survival_map_past_contraction_is_singular(self, prop_odds_model):
        # the nuisance derivative at a survival fixed point, with its
        # coefficients scaled until the spectral radius reaches 1.5
        model, beta = prop_odds_model, [0.5]
        op = prop_odds.Operator(model, beta)
        derivs = prop_odds.psi_derivatives(op, prop_odds.solve_nuisance(op).eta)
        coef, s = derivs.d_eta.a, derivs.d_eta.s
        rho = max_index_spectral_radius(coef, s)
        assert 0.0 < rho < 1.0
        rhs = np.ones(len(s))
        assert np.all(np.isfinite(resolvent_apply(MaxIndexMap(coef, s), rhs)))
        with pytest.raises(SingularResolvent,
                           match="not positive definite.*does not contract"):
            resolvent_apply(MaxIndexMap(1.5 / rho * coef, s), rhs)

    def test_neumann_certifies_population_contraction(
        self, missing_cov_population
    ):
        # at the population truth the nuisance derivative has L1 norm
        # w2/w1 < 1, so the geometric series converges and matches the
        # dense solve; this is the contraction reading of the resolvent
        pop = missing_cov_population
        theta = np.asarray(pop.design.theta0)
        op = missing_cov.Operator(pop.model, theta)
        derivs = missing_cov.psi_derivatives(op, missing_cov.solve_nuisance(op).eta)
        assert derivs.d_eta.l1_norm() < 1.0
        rhs = derivs.dot_psi[1]
        dense = resolvent_apply(derivs.d_eta, rhs)
        series = neumann_apply(derivs.d_eta, rhs, terms=200)
        assert np.abs(dense - series).max() < 1e-9 * max(np.abs(dense).max(), 1.0)


class TestThetaDerivatives:
    def test_affine_scalar(self):
        # operator theta/2 + eta/2 has fixed point eta(theta) = theta
        derivs = scalar_derivs(d_eta=0.5, dot=0.5)
        assert dtheta_eta(derivs)[0, 0] == pytest.approx(1.0)

    def test_bilinear_scalar_first(self):
        # operator theta*eta/2 + 1 at theta=0: eta=1, derivative 1/2
        derivs = scalar_derivs(d_eta=0.0, dot=0.5)
        assert dtheta_eta(derivs)[0, 0] == pytest.approx(0.5)

    def test_bilinear_scalar_second(self):
        # same operator: second derivative at 0 equals 1/2
        derivs = scalar_derivs(d_eta=0.0, dot=0.5, ddot=0.0, mixed=0.5)
        eta_dot = dtheta_eta(derivs)
        assert d2theta_eta(derivs, eta_dot)[0, 0, 0] == pytest.approx(0.5)

    def test_pure_second_term(self):
        # operator theta^2/2 + eta/3 at theta=0: second derivative 1.5
        derivs = scalar_derivs(d_eta=1.0 / 3.0, dot=0.0, ddot=1.0)
        eta_dot = dtheta_eta(derivs)
        assert d2theta_eta(derivs, eta_dot)[0, 0, 0] == pytest.approx(1.5)


class TestFDerivative:
    def test_zero_direction(self):
        derivs = scalar_derivs(d_eta=0.5, dot=0.0,
                               d_f=lambda h: np.array([float(np.sum(h))]))
        assert df_eta(derivs, np.zeros(3))[0] == 0.0

    def test_scalar_resolvent(self):
        # operator m(F) + eta/2 with m(h) = 1 gives derivative 2
        derivs = scalar_derivs(d_eta=0.5, dot=0.0,
                               d_f=lambda h: np.array([1.0]))
        assert df_eta(derivs, np.ones(1))[0] == pytest.approx(2.0)

    def test_linearity_in_direction(self, missing_cov_model, rng):
        model = missing_cov_model
        theta = np.array([0.0, 1.0, 0.0])
        op = missing_cov.Operator(model, theta)
        derivs = missing_cov.psi_derivatives(op, missing_cov.solve_nuisance(op).eta)
        h1 = rng.normal(size=model.n_records)
        h2 = rng.normal(size=model.n_records)
        a, b = 1.3, -0.7
        lhs = df_eta(derivs, a * h1 + b * h2)
        rhs = a * df_eta(derivs, h1) + b * df_eta(derivs, h2)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)


class TestAgainstResolve:
    """Resolvent formulas versus re-solved difference quotients."""

    def test_missing_cov_theta_derivative(self, missing_cov_model):
        model = missing_cov_model
        theta = np.array([0.05, 0.9, 0.05])
        op = missing_cov.Operator(model, theta)
        sol = missing_cov.solve_nuisance(op, tol=1e-12)
        derivs = missing_cov.psi_derivatives(op, sol.eta)
        eta_dot = dtheta_eta(derivs)
        warm = {"eta": sol.eta}

        def solved(t):
            s = missing_cov.solve_nuisance(missing_cov.Operator(model, t), tol=1e-12,
                                           eta0=warm["eta"])
            warm["eta"] = s.eta
            return s.eta

        fd = fd_theta(solved, theta, step=1e-5)
        denom = max(np.abs(fd).max(), 1e-10)
        assert np.abs(eta_dot - fd).max() / denom < 1e-4

    def test_missing_cov_second_derivative(self, missing_cov_model):
        model = missing_cov_model
        theta = np.array([0.05, 0.9, 0.05])
        def bundle_at(t):
            op = missing_cov.Operator(model, t)
            eta = missing_cov.solve_nuisance(op, tol=1e-12).eta
            return missing_cov.psi_derivatives(op, eta)

        derivs = bundle_at(theta)
        eta_dot = dtheta_eta(derivs)
        eta_ddot = d2theta_eta(derivs, eta_dot)

        def dot_at(t):
            return dtheta_eta(bundle_at(t))

        fd = fd_theta(dot_at, theta, step=1e-4)
        denom = max(np.abs(fd).max(), 1e-10)
        assert np.abs(eta_ddot - fd.transpose(1, 0, 2)).max() / denom < 1e-3

    def test_second_derivative_symmetry_both_models(
        self, missing_cov_model, prop_odds_model
    ):
        theta = np.array([0.05, 0.9, 0.05])
        op = missing_cov.Operator(missing_cov_model, theta)
        derivs = missing_cov.psi_derivatives(op, missing_cov.solve_nuisance(op).eta)
        ddot = d2theta_eta(derivs, dtheta_eta(derivs))
        assert np.abs(ddot - ddot.transpose(1, 0, 2)).max() <= 1e-8

        beta = np.array([0.5])
        op = prop_odds.Operator(prop_odds_model, beta)
        derivs_p = prop_odds.psi_derivatives(op, prop_odds.solve_nuisance(op).eta)
        ddot_p = d2theta_eta(derivs_p, dtheta_eta(derivs_p))
        assert np.abs(ddot_p - ddot_p.transpose(1, 0, 2)).max() <= 1e-8

    def test_prop_odds_path_derivative(self, prop_odds_model):
        from profix.audits import union_with_resample

        model = prop_odds_model
        beta = np.array([0.5])
        union, w_base, w_target = union_with_resample(model, "prop_odds", 55)
        op = prop_odds.Operator(union, beta, w_base)
        sol = prop_odds.solve_nuisance(op, tol=1e-12)
        derivs = prop_odds.psi_derivatives(op, sol.eta)
        analytic = df_eta(derivs, w_target - w_base)
        warm = {"eta": sol.eta}

        def eta_at(t):
            s = prop_odds.solve_nuisance(
                prop_odds.Operator(union, beta, (1 - t) * w_base + t * w_target),
                tol=1e-12, eta0=warm["eta"],
            )
            warm["eta"] = s.eta
            return s.eta

        fd = fd_path(eta_at, step=1e-5)
        denom = max(np.abs(fd).max(), 1e-10)
        assert np.abs(analytic - fd).max() / denom < 1e-4
