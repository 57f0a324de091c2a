import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from profix import missing_cov, prop_odds, simulation
from profix.errors import HarnessAlarm, InvalidConfig
from profix.simulation import (
    Z95,
    SimConfig,
    _ks_normal,
    gen_missing_cov,
    gen_prop_odds,
    monte_carlo,
    replication_rng,
    run_replication,
)

from reference import baseline_step, design_baseline


class TestGenPropOdds:
    def test_survival_shape_at_beta_zero(self):
        # with no covariate effect the survival curve is 1/(1+t)
        design = prop_odds.PropOddsDesign(
            beta0=(0.0,), baseline_times=None, baseline_jumps=None,
            baseline_rate=1.0, censor_atom=1.0,
        )
        u, delta, z = gen_prop_odds(design, 2000, replication_rng(77, 0))
        inside = np.sort(u[u < design.tau])
        tail = 1.0 - (np.arange(len(inside)) + 1) / len(u)
        ks = np.abs(tail - 1.0 / (1.0 + inside)).max()
        assert ks < 0.05

    def test_administrative_censoring_only(self):
        design = prop_odds.PropOddsDesign(censor_atom=1.0)
        u, delta, z = gen_prop_odds(design, 500, replication_rng(1, 0))
        assert np.all(delta[u < design.tau] == 1)

    def test_deterministic(self):
        design = prop_odds.PropOddsDesign()
        a = gen_prop_odds(design, 100, replication_rng(5, 3))
        b = gen_prop_odds(design, 100, replication_rng(5, 3))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_step_baseline_support(self):
        design = prop_odds.PropOddsDesign()
        u, delta, z = gen_prop_odds(design, 400, replication_rng(2, 0))
        events = np.unique(u[delta == 1])
        assert set(events) <= set(design.baseline_times)

    def test_true_baseline_evaluators(self):
        step = prop_odds.PropOddsDesign()
        assert design_baseline(step, 1.2) == pytest.approx(0.05 + 0.12)
        assert design_baseline(step, 0.1) == 0.0
        truth = baseline_step(step)
        assert truth(1.2) == pytest.approx(design_baseline(step, 1.2))
        linear = prop_odds.LINEAR_DESIGN
        assert design_baseline(linear, 0.7) == pytest.approx(0.7)
        with pytest.raises(Exception):
            baseline_step(linear)

    def test_invalid_baseline(self):
        with pytest.raises(InvalidConfig):
            prop_odds.PropOddsDesign(
                baseline_times=None, baseline_jumps=None, baseline_rate=None
            ).validate()
        with pytest.raises(InvalidConfig):
            prop_odds.PropOddsDesign(
                baseline_jumps=(0.0, 0.0, 0.0)
            ).validate()


class TestGenMissingCov:
    def test_w2_zero_all_complete(self):
        design = missing_cov.MissingCovDesign(w2=0.0)
        r, y, x = gen_missing_cov(design, 200, replication_rng(3, 0))
        assert np.all(r == 1)

    def test_mean_of_outcome(self):
        design = missing_cov.MissingCovDesign(
            support=(-1.0, 0.0, 1.0), g0=(1 / 3, 1 / 3, 1 / 3)
        )
        n = 4000
        r, y, x = gen_missing_cov(design, n, replication_rng(4, 0))
        assert abs(y.mean()) < 3.0 / np.sqrt(n)

    def test_missing_fraction_binomial(self):
        design = missing_cov.MissingCovDesign()
        n = 2000
        r, y, x = gen_missing_cov(design, n, replication_rng(6, 0))
        frac = np.mean(r == 2)
        bound = 3.0 * np.sqrt(design.w2 * (1 - design.w2) / n)
        assert abs(frac - design.w2) < bound

    def test_majority_missing_needs_override(self):
        design = missing_cov.MissingCovDesign(w2=0.6)
        with pytest.raises(InvalidConfig):
            gen_missing_cov(design, 100, replication_rng(0, 0))
        r, _, _ = gen_missing_cov(design, 100, replication_rng(0, 0),
                                  allow_override=True)
        assert np.any(r == 2)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfig):
            SimConfig(model="nope", n=100, replications=10)
        with pytest.raises(InvalidConfig):
            SimConfig(model="missing_cov", n=5, replications=10)
        with pytest.raises(InvalidConfig):
            SimConfig(model="missing_cov", n=100, replications=0)

    @pytest.mark.parametrize("key", ["fit_tol", "solver_tol"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_validation(self, key, tol):
        with pytest.raises(InvalidConfig, match=key):
            SimConfig(model="missing_cov", n=100, replications=1, **{key: tol})


    @pytest.mark.parametrize("model, design", [
        ("prop_odds", prop_odds.PropOddsDesign(beta0=(0.5, 0.1))),
        ("missing_cov", missing_cov.MissingCovDesign(theta0=(0.0, 1.0))),
    ])
    def test_design_validation(self, model, design):
        with pytest.raises(InvalidConfig):
            SimConfig(model=model, n=100, replications=1, design=design)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields, message", [
        ({"max_newton": -1}, "max_newton must be nonnegative"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"theta_start": (0.0,)}, "theta_start does not match"),
        ({"model": "prop_odds", "theta_start": (0.0, 0.5)}, "theta_start does not match"),
    ])
    def test_range_validation(self, fields, message):
        with pytest.raises(InvalidConfig, match=message):
            SimConfig(**{"model": "missing_cov", "n": 100, "replications": 1, **fields})


class TestMonteCarlo:
    def test_single_replication(self):
        cfg = SimConfig(model="missing_cov", n=100, replications=1, seed=8)
        report = monte_carlo(cfg)
        assert report.n_success == 1
        assert set(np.unique(report.coverage95)) <= {0.0, 1.0}

    def test_byte_determinism(self):
        cfg = SimConfig(model="missing_cov", n=60, replications=6, seed=9)
        a = monte_carlo(cfg).to_json()
        b = monte_carlo(cfg).to_json()
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = SimConfig(model="missing_cov", n=60, replications=6, seed=10)
        serial = monte_carlo(cfg, jobs=1).to_json()
        parallel = monte_carlo(cfg, jobs=2).to_json()
        assert serial == parallel

    def test_failures_counted_not_dropped(self):
        cfg = SimConfig(model="missing_cov", n=60, replications=5, seed=11,
                        max_newton=1)
        with pytest.raises(HarnessAlarm) as err:
            monte_carlo(cfg)
        report = err.value.report
        assert report is not None
        assert sum(report.failure_counts.values()) + report.n_success == 5
        assert report.failure_counts.get("NoConvergence", 0) > 0

    def test_programming_error_is_not_tallied(self, monkeypatch):
        def broken_profile(config, model):
            raise TypeError("broken profile")

        monkeypatch.setattr(simulation, "build_profile", broken_profile)
        cfg = SimConfig(model="missing_cov", n=60, replications=2, seed=13)
        with pytest.raises(TypeError):
            run_replication(cfg, 0)
        with pytest.raises(TypeError):
            monte_carlo(cfg)

    def test_seeded_halves_agree(self):
        n, m = 80, 40
        cov = []
        for seed in (1000, 2000):
            cfg = SimConfig(model="missing_cov", n=n, replications=m, seed=seed)
            cov.append(monte_carlo(cfg, jobs=2).coverage95)
        cov = np.asarray(cov)
        sigma = np.sqrt(0.95 * 0.05 * 2.0 / m)
        assert np.abs(cov[0] - cov[1]).max() < 4.0 * sigma

    def test_records_csv(self, tmp_path):
        cfg = SimConfig(model="missing_cov", n=60, replications=3, seed=12)
        report = monte_carlo(cfg)
        path = tmp_path / "reps.csv"
        report.write_records_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("replication,converged,error")


class TestNormalTheory:
    """The scipy.special forms equal scipy.stats' normal quantile and KS
    statistic bitwise."""

    def test_z95(self):
        assert Z95 == stats.norm.ppf(0.975)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(-40.0, 40.0),
            st.sampled_from([0.0, -1.5, 1.5, 40.0, -40.0]),
        ),
        min_size=1, max_size=300,
    ))
    @example([0.0])
    @example([40.0])
    @example([-40.0, -40.0, 40.0])
    @example([1.5] * 300)
    def test_ks_statistic(self, values):
        x = np.array(values)
        expected = stats.kstest(x, "norm").statistic
        assert _ks_normal(x) == expected
