"""Acceptance suite: every contract criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts the same condition, so the suite is the single gate for the
numerical claims the package makes.
"""

import time

import numpy as np
import pytest

from profix import audits, cli, estimator, missing_cov, prop_odds, simulation
from profix.measures import StepFunction

from reference import population_records, psi_jumps, variance_condition_sides


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    return ok


class TestCriterion1FixedPointResiduals:
    def test_residuals_at_n200(self):
        ok = True
        details = []

        rng = simulation.replication_rng(1001, 0)
        u, delta, z = simulation.gen_prop_odds(
            prop_odds.PropOddsDesign(), 200, rng
        )
        model1 = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        t0 = time.time()
        sol1 = prop_odds.solve_nuisance(prop_odds.Operator(model1, [0.5]), tol=2e-12)
        dt1 = time.time() - t0
        res1 = float(np.abs(psi_jumps(model1, [0.5], sol1.eta) - sol1.eta).max())
        ok &= res1 < 1e-10 and dt1 < 1.0
        details.append(f"survival sup residual {res1:.2e} in {dt1:.3f}s")

        rng = simulation.replication_rng(1001, 1)
        u, delta, z = simulation.gen_prop_odds(prop_odds.LINEAR_DESIGN, 200, rng)
        model1b = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        t0 = time.time()
        sol1b = prop_odds.solve_nuisance(prop_odds.Operator(model1b, [0.5]), tol=2e-12)
        dt1b = time.time() - t0
        res1b = float(np.abs(psi_jumps(model1b, [0.5], sol1b.eta) - sol1b.eta).max())
        ok &= res1b < 1e-10 and dt1b < 1.0
        details.append(f"survival(linear) sup {res1b:.2e} in {dt1b:.3f}s")

        rng = simulation.replication_rng(1002, 0)
        r, y, x = simulation.gen_missing_cov(
            missing_cov.MissingCovDesign(), 200, rng
        )
        model2 = missing_cov.MissingCovModel.from_arrays(
            r, y, x, missing_cov.NormalRegression()
        )
        theta = np.array([0.0, 1.0, 0.0])
        t0 = time.time()
        op2 = missing_cov.Operator(model2, theta)
        sol2 = missing_cov.solve_nuisance(op2, tol=2e-12)
        dt2 = time.time() - t0
        diff = op2(sol2.eta) - sol2.eta
        res_sup = float(np.abs(diff).max())
        res_l1 = float(np.abs(diff).sum())
        ok &= res_sup < 1e-10 and res_l1 < 1e-10 and dt2 < 1.0
        details.append(
            f"mixture sup {res_sup:.2e} l1 {res_l1:.2e} in {dt2:.3f}s"
        )

        assert report("criterion 1: fixed-point residuals < 1e-10, < 1s/solve",
                      ok, "; ".join(details))


class TestCriterion2ImplicitDerivatives:
    def test_resolvent_formulas_against_resolve_oracles(self):
        t0 = time.time()
        ok = True
        details = []
        tols = {"eta_dot": 1e-4, "eta_ddot": 1e-3, "df_eta": 1e-4}
        for kind, n in (("prop_odds", 20), ("missing_cov", 40)):
            worst = {name: 0.0 for name in tols}
            for seed in (0, 1, 2):
                rows = {
                    r.name: r.value
                    for r in audits.run_audits(kind, seed=seed, n=n)
                    if r.name in tols
                }
                for name in tols:
                    worst[name] = max(worst[name], rows[name])
            for name, tol in tols.items():
                ok &= worst[name] < tol
            details.append(
                f"{kind}: " + " ".join(
                    f"{name}={worst[name]:.1e}" for name in tols
                )
            )
        elapsed = time.time() - t0
        ok &= elapsed < 30.0
        assert report(
            "criterion 2: implicit derivatives vs re-solve oracles "
            "(1e-4 / 1e-3 / 1e-4), < 30s",
            ok, "; ".join(details) + f"; elapsed {elapsed:.1f}s",
        )


class TestCriterion3OperatorAudits:
    def test_check_derivs_exit_zero_both_models(self, capsys):
        code1 = cli.main(["check-derivs", "--model", "prop_odds", "--n", "20"])
        code2 = cli.main(["check-derivs", "--model", "missing_cov", "--n", "40"])
        capsys.readouterr()
        ok = code1 == 0 and code2 == 0
        assert report(
            "criterion 3: operator audits via check-derivs exit 0 "
            "(first order < 1e-5, second < 1e-3)",
            ok, f"exit codes {code1}, {code2}",
        )


class TestCriterion4ContractionInstances:
    def test_mixture_population_l1_bound(self):
        pop = missing_cov.population_model(y_grid=2000, y_grid_complete=400)
        design = pop.design
        bound = design.w2 / (1.0 - design.w2)
        op = missing_cov.Operator(pop.model, design.theta0)
        norm = missing_cov.psi_derivatives(op, pop.g0).d_eta.l1_norm()
        ok = norm <= bound + 1e-6
        assert report(
            "criterion 4a: mixture nuisance-derivative L1 norm <= 3/7 + 1e-6",
            ok, f"norm {norm:.8f} vs bound {bound:.8f}",
        )

    def test_survival_default_design_condition_and_norm(self):
        design = prop_odds.PropOddsDesign()
        beta0 = np.asarray(design.beta0)

        def condition_and_norm(model):
            # both read the derivative bundle at the fixed point, as the
            # fit's precheck does; the margins are the sides' differences
            op = prop_odds.Operator(model, beta0)
            derivs = prop_odds.psi_derivatives(op, prop_odds.solve_nuisance(op).eta)
            lhs, rhs = variance_condition_sides(derivs)
            condition = prop_odds._variance_condition(derivs)
            assert condition["min_margin"] == pytest.approx((lhs - rhs).min(), rel=1e-12)
            return condition["satisfied"], lhs - rhs, derivs.d_eta.sup_norm()

        ok_pop, margins_pop, norm_pop = condition_and_norm(population_records(design))
        rng = simulation.replication_rng(1004, 0)
        u, delta, z = simulation.gen_prop_odds(design, 500, rng)
        ok_n, margins_n, norm_n = condition_and_norm(
            prop_odds.PropOddsModel.from_arrays(u, delta, z)
        )

        ok = ok_pop and norm_pop < 1.0 and ok_n and norm_n < 1.0
        assert report(
            "criterion 4b: survival variance condition + sup norm < 1 "
            "(population exact and n=500)",
            ok,
            f"population margins {np.round(margins_pop, 4).tolist()} "
            f"norm {norm_pop:.4f}; n=500 min margin "
            f"{margins_n.min():.4f} norm {norm_n:.4f}",
        )


class TestCriterion5SelfConsistency:
    def test_survival_population_grid_2000(self):
        res = prop_odds.population_self_consistency()
        ok = res["sup_error"] < 1e-6
        assert report(
            "criterion 5a: survival operator self-consistency at truth "
            "(grid 2000) < 1e-6",
            ok, f"sup error {res['sup_error']:.2e}",
        )

    def test_mixture_population_grid_2000(self):
        pop = missing_cov.population_model(y_grid=2000, y_grid_complete=400)
        res = missing_cov.population_self_consistency(pop)
        ok = res["sup_error"] < 1e-6
        assert report(
            "criterion 5b: mixture operator self-consistency at truth "
            "(grid 2000) < 1e-6",
            ok, f"sup error {res['sup_error']:.2e}",
        )


class TestCriterion6EfficiencyMachinery:
    def test_stationarity_and_orthogonality(self):
        rng = np.random.default_rng(77)
        pop = missing_cov.population_model(y_grid=2000, y_grid_complete=400)
        theta0 = np.asarray(pop.design.theta0)
        dirs = []
        for _ in range(10):
            raw = rng.standard_normal(len(pop.g0))
            raw -= raw.mean()
            dirs.append(raw / np.abs(raw).sum())
        thetas = [theta0] + [
            theta0 + rng.uniform(-0.1, 0.1, size=3) for _ in range(4)
        ]
        worst_stat = max(
            float(np.abs(missing_cov.nuisance_stationarity(pop, th, dirs)).max())
            for th in thetas
        )
        worst_orth = float(
            np.abs(missing_cov.score_orthogonality(pop, dirs)).max()
        )
        ok = worst_stat < 1e-6 and worst_orth < 1e-6
        assert report(
            "criterion 6: profile stationarity and score orthogonality < 1e-6 "
            "(10 directions, 5 thetas)",
            ok, f"stationarity {worst_stat:.2e}, orthogonality {worst_orth:.2e}",
        )


@pytest.mark.slow
class TestCriterion7AsymptoticNormality:
    def test_mixture_monte_carlo(self):
        cfg = simulation.SimConfig(
            model="missing_cov", n=500, replications=1000, seed=20260810
        )
        rep = simulation.monte_carlo(cfg, jobs=2)
        ks_bound = 1.36 / np.sqrt(cfg.replications) * 1.5
        ok = (
            bool(np.all((rep.coverage95 >= 0.925) & (rep.coverage95 <= 0.975)))
            and rep.ks_statistic < ks_bound
            and bool(np.all((rep.sd_to_se_ratio >= 0.9)
                            & (rep.sd_to_se_ratio <= 1.1)))
            and rep.n_success == cfg.replications
        )
        assert report(
            "criterion 7a: mixture n=500 M=1000 coverage/KS/sd-se bands",
            ok,
            f"coverage {rep.coverage95.tolist()}, "
            f"ks {rep.ks_statistic:.4f} < {ks_bound:.4f}, "
            f"sd/se {np.round(rep.sd_to_se_ratio, 4).tolist()}",
        )

    def test_survival_monte_carlo(self):
        cfg = simulation.SimConfig(
            model="prop_odds", n=300, replications=500, seed=20260810,
            design=prop_odds.LINEAR_DESIGN,
        )
        rep = simulation.monte_carlo(cfg, jobs=2)
        ok = (
            bool(np.all((rep.coverage95 >= 0.92) & (rep.coverage95 <= 0.98)))
            and rep.n_success == cfg.replications
        )
        assert report(
            "criterion 7b: survival n=300 M=500 coverage in [0.92, 0.98]",
            ok, f"coverage {rep.coverage95.tolist()}",
        )


class TestCriterion8DegenerateExactness:
    def test_no_missingness_reduces_to_parametric_mle(self):
        design = missing_cov.MissingCovDesign(w2=0.0)
        rng = simulation.replication_rng(1008, 0)
        r, y, x = simulation.gen_missing_cov(design, 200, rng)
        model = missing_cov.MissingCovModel.from_arrays(
            r, y, x, missing_cov.NormalRegression()
        )
        fit = estimator.profile_mle(
            missing_cov.MissingCovProfile(model),
            np.array([0.1, 0.8, 0.1]), tol=1e-12,
        )
        X = np.column_stack([np.ones(len(y)), x])
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        sigma = np.sqrt(np.mean((y - X @ coef) ** 2))
        closed = np.array([coef[0], coef[1], np.log(sigma)])
        gap = np.abs(fit.theta_hat - closed).max()
        ok = gap < 1e-8
        assert report(
            "criterion 8a: w2=0 profile MLE equals parametric MLE within 1e-8",
            ok, f"max gap {gap:.2e}",
        )

    def test_all_censored_zero_operator_output(self):
        model = prop_odds.PropOddsModel.from_arrays(
            [0.4, 1.1, 2.3, 2.9], [0, 0, 0, 0], [0.3, -0.1, 0.2, 0.0]
        )
        psi = prop_odds.psi_apply(
            model, [0.4], StepFunction([], [], model.tau)
        )
        ok = psi(psi.tau) == 0.0 and len(psi.jump_times) == 0
        assert report(
            "criterion 8b: all-censored data yields the zero step function",
            ok, f"jumps {psi.jump_sizes.tolist()}",
        )
