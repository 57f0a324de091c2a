import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import profix
from profix import audits, cli, estimator, missing_cov, prop_odds, simulation
from profix.cli import EXIT_NUMERICAL, EXIT_USAGE, _print_fit_table, build_parser, main
from profix.errors import InvalidConfig

from reference import da_psi_value_map, sample_missing_cov


def write_ex2_csv(path, n=120, seed=31, design=None):
    design = design or missing_cov.MissingCovDesign()
    # the reference sampler also draws the w2 >= 1/2 samples the design refuses
    r, y, x = sample_missing_cov(design, n, simulation.replication_rng(seed, 0))
    lines = ["R,Y,X"]
    for ri, yi, xi in zip(r, y, x):
        lines.append(f"{int(ri)},{yi},{xi}" if ri == 1 else f"{int(ri)},{yi},")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_ex1_csv(path, n=200, seed=32, design=None):
    design = design or prop_odds.PropOddsDesign()
    rng = simulation.replication_rng(seed, 0)
    u, delta, z = simulation.gen_prop_odds(design, n, rng)
    lines = ["U,delta,Z1"] + [
        f"{ui},{int(di)},{zi}" for ui, di, zi in zip(u, delta, z)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFit:
    def test_missing_cov_fit_ok(self, tmp_path, capsys):
        data = write_ex2_csv(tmp_path / "d.csv")
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "converged" not in payload
        assert len(payload["theta_hat"]) == 3
        assert "g_masses" in payload["nuisance"]
        table = capsys.readouterr().out
        assert "estimate" in table and "intercept" in table

    def test_prop_odds_fit_ok(self, tmp_path):
        data = write_ex1_csv(tmp_path / "d.csv")
        out = tmp_path / "fit.json"
        code = main(["fit", "--model", "prop_odds", "--data", str(data),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "jumps" in payload["nuisance"]

    @pytest.mark.parametrize("name", ["prop_odds", "missing_cov"])
    def test_payload_reads_the_final_point(self, name, monkeypatch):
        # the nuisance and the condition report of the fit JSON are those
        # at theta_hat that the fit computed, not a re-solve
        family = simulation.get_family(name)
        model = simulation.draw_model(family, family.audit_design, 150,
                                      simulation.replication_rng(5, 0))
        profile = family.profile(model)
        fit = estimator.profile_mle(profile, family.default_start(model), force=True)
        solves = []
        monkeypatch.setattr(family.module, "solve_fixed_point",
                            lambda *args, **kwargs: solves.append(1))
        payload = family.fit_payload(profile, fit.theta_hat)
        assert solves == []
        masses = payload["jumps"] if name == "prop_odds" else payload["g_masses"]
        assert np.array_equal(masses, profile.last_point.solution.eta)
        assert payload["condition"]["satisfied"] in (True, False)

    @pytest.mark.parametrize("name, write", [
        ("prop_odds", write_ex1_csv), ("missing_cov", write_ex2_csv),
    ])
    def test_fit_reports_nuisance_solve_totals(self, name, write, tmp_path):
        data = write(tmp_path / "d.csv")
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["fit", "--model", name, "--data", str(data),
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        payload = json.loads(outs[0].read_text())
        totals = payload["diagnostics"]["nuisance_solves"]
        # the start, each Newton step's accepted candidate and, for the
        # survival family, the condition check's point
        assert totals["count"] >= payload["iterations"] + 1
        assert totals["iterations"] >= totals["count"]

    def test_empty_file_exit_1(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["fit", "--model", "missing_cov", "--data", str(data)]) == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    @pytest.mark.parametrize("command", ["fit", "check-derivs"])
    def test_unreadable_data_exit_1(self, command, kind, tmp_path, capsys):
        path = tmp_path / "data"
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(b"\xff\xfe\x00\x89PNG\r\n\x1a\n\xfa")
        assert main([command, "--model", "missing_cov", "--data", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]

    def test_condition_gate_exit_3(self, tmp_path):
        design = missing_cov.MissingCovDesign(w2=0.7)
        data = write_ex2_csv(tmp_path / "d.csv", n=200, design=design)
        code = main(["fit", "--model", "missing_cov", "--data", str(data)])
        assert code == 3

    def test_force_overrides_gate(self, tmp_path):
        # the survival gate is conservative under the linear design: the
        # solve itself contracts even though the certificate fails
        data = write_ex1_csv(tmp_path / "d.csv", n=150, seed=41,
                             design=prop_odds.LINEAR_DESIGN)
        gated = main(["fit", "--model", "prop_odds", "--data", str(data)])
        assert gated == 3
        forced = main(["fit", "--model", "prop_odds", "--data", str(data),
                       "--force"])
        assert forced == 0

    def test_forced_fit_reports_tail_contraction(self, tmp_path):
        # the solve at the estimate starts from the Taylor prediction and
        # takes few iterations; its residual still measures the rate
        data = write_ex1_csv(tmp_path / "d.csv", n=300, seed=32,
                             design=prop_odds.LINEAR_DESIGN)
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", "prop_odds", "--data", str(data),
                     "--out", str(out), "--force"]) == 0
        nuisance = json.loads(out.read_text())["diagnostics"]["nuisance"]
        assert nuisance["residual"] < 1e-10
        assert nuisance["tail_contraction"] < 1.0

    @pytest.mark.parametrize("name, write", [
        ("prop_odds", write_ex1_csv), ("missing_cov", write_ex2_csv),
    ])
    def test_fit_reports_the_sup_norm_at_the_estimate(self, name, write, tmp_path):
        # the exact induced sup norm of d_eta at theta_hat sits beside the
        # solver's diagnostics; the fit itself does not compute it
        data = write(tmp_path / "d.csv")
        out = tmp_path / "fit.json"
        assert main(["fit", "--model", name, "--data", str(data), "--out", str(out),
                     "--force"]) == 0
        payload = json.loads(out.read_text())
        nuisance = payload["diagnostics"]["nuisance"]
        assert "residual_trace" not in nuisance
        assert isinstance(nuisance["fallbacks"], int) and nuisance["fallbacks"] >= 0
        family = simulation.get_family(name)
        model = family.load_csv(str(data))
        point = family.profile(model).point(payload["theta_hat"])
        if name == "prop_odds":  # the norm on values at the event times
            matrix = da_psi_value_map(model, point.theta, point.solution.eta).matrix
        else:
            matrix = point.derivs.d_eta.matrix
        expected = np.abs(matrix).sum(axis=1).max()
        assert nuisance["sup_norm"] == pytest.approx(expected, rel=1e-6)
        fit = estimator.profile_mle(family.profile(model), payload["theta_hat"], force=True)
        assert "sup_norm" not in fit.diagnostics["nuisance"]

    def test_constant_covariate_exit_1(self, tmp_path, capsys):
        data = write_ex1_csv(tmp_path / "d.csv", n=300, seed=32,
                             design=prop_odds.LINEAR_DESIGN)
        rows = data.read_text().splitlines()
        data.write_text("\n".join(
            [rows[0]] + [row.rsplit(",", 1)[0] + ",0.5" for row in rows[1:]]
        ) + "\n")
        code = main(["fit", "--model", "prop_odds", "--data", str(data),
                     "--force"])
        assert code == EXIT_USAGE
        assert "Z1 is constant" in capsys.readouterr().err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_constant_mixture_covariate_exit_1(self, tmp_path, capsys, force):
        # every complete record has X = 0.5: the slope is not identified
        data = write_ex2_csv(tmp_path / "d.csv", n=200, seed=33)
        rows = data.read_text().splitlines()
        data.write_text("\n".join(
            [rows[0]] + [row.rsplit(",", 1)[0] + ("," if row.startswith("2") else ",0.5")
                         for row in rows[1:]]
        ) + "\n")
        code = main(["fit", "--model", "missing_cov", "--data", str(data)] + force)
        assert code == EXIT_USAGE
        assert "covariate X is constant" in capsys.readouterr().err

    def test_all_censored_fails_the_condition_check(self, tmp_path, capsys):
        # no event times: the nuisance-derivative norm is that of an empty
        # map, and nothing certifies the contraction
        data = tmp_path / "d.csv"
        data.write_text("U,delta,Z1\n1.0,0,0.5\n2.0,0,-0.5\n1.5,0,0.3\n")
        assert main(["fit", "--model", "prop_odds", "--data", str(data)]) == 3
        assert "sup norm 0.0000" in capsys.readouterr().err

    def test_force_cannot_rescue_divergent_solve(self, tmp_path):
        # past the mass-ratio threshold the iteration itself refuses
        design = missing_cov.MissingCovDesign(w2=0.55)
        data = write_ex2_csv(tmp_path / "d.csv", n=300, seed=40, design=design)
        code = main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--force"])
        assert code == 3

    def test_no_convergence_exit_2(self, tmp_path):
        data = write_ex2_csv(tmp_path / "d.csv")
        code = main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--theta0", "3,3,3", "--max-newton", "1"])
        assert code == 2

    def test_negative_newton_budget_exit_1(self, tmp_path, capsys):
        data = write_ex2_csv(tmp_path / "d.csv")
        code = main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--max-newton", "-3"])
        assert code == EXIT_USAGE
        assert "max_newton must be nonnegative" in capsys.readouterr().err

    def test_numerical_failure_exit_6(self, tmp_path, capsys):
        # a start this far out overflows the linear predictor at the first solve
        data = write_ex1_csv(tmp_path / "d.csv", n=150, seed=41,
                             design=prop_odds.LINEAR_DESIGN)
        code = main(["fit", "--model", "prop_odds", "--data", str(data),
                     "--theta0", "120", "--force"])
        assert code == EXIT_NUMERICAL
        assert "NumericOverflow" in capsys.readouterr().err

    def test_fit_table_columns_stay_apart(self, capsys):
        def row(se, lo, hi):
            fit = estimator.FitResult(
                theta_hat=np.array([0.5]), info_hat=np.eye(1), se=np.array([se]),
                iterations=1, score_norm=0.0, n=10,
            )
            _print_fit_table(fit, [(lo, hi)], ["beta_1"])
            return capsys.readouterr().out.splitlines()[1]

        assert len(row(1.2e9, -2.4e9, 2.4e9).split()) == 5
        # values that fit keep the fixed-width layout
        assert row(0.25, -0.01, 0.99) == (
            f"{'beta_1':<12}{0.5:>14.6f}{0.25:>12.6f}{-0.01:>12.6f}{0.99:>12.6f}"
        )

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_invalid_tolerance_exit_1(self, tol, tmp_path, capsys):
        data = write_ex2_csv(tmp_path / "d.csv")
        code = main(["fit", "--model", "missing_cov", "--data", str(data),
                     f"--tol={tol}"])
        assert code == EXIT_USAGE
        assert "tolerance must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["0", "1", "-0.5", "1.5", "nan"])
    def test_invalid_level_exit_1_before_fitting(self, level, tmp_path,
                                                  monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the level was checked")

        monkeypatch.setattr(estimator, "profile_mle", no_fit)
        data = write_ex2_csv(tmp_path / "d.csv")
        code = main(["fit", "--model", "missing_cov", "--data", str(data),
                     f"--level={level}"])
        assert code == EXIT_USAGE
        assert "level must lie in (0, 1)" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "missing_cov", "bogus": 1}))
        assert main(["fit", "--config", str(cfg)]) == 1

    def test_level_flag_widens_interval(self, tmp_path):
        data = write_ex2_csv(tmp_path / "d.csv")
        out_narrow, out_wide = tmp_path / "n.json", tmp_path / "w.json"
        assert main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--out", str(out_narrow), "--level", "0.5"]) == 0
        assert main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--out", str(out_wide), "--level", "0.99"]) == 0
        narrow = json.loads(out_narrow.read_text())["ci"][0]
        wide = json.loads(out_wide.read_text())["ci"][0]
        assert wide[1] - wide[0] > narrow[1] - narrow[0]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 4, "seed": 1,
        }))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1",
                     "--seed", "123", "--out-prefix", str(p1)]) == 0
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1",
                     "--seed", "123", "--out-prefix", str(p2)]) == 0
        a = json.loads((tmp_path / "a_report.json").read_text())
        b = json.loads((tmp_path / "b_report.json").read_text())
        assert a == b and a["seed"] == 123

    def test_fit_output_byte_deterministic(self, tmp_path):
        data = write_ex2_csv(tmp_path / "d.csv")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--out", str(out1)]) == 0
        assert main(["fit", "--model", "missing_cov", "--data", str(data),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_drives_fit(self, tmp_path):
        data = write_ex2_csv(tmp_path / "d.csv")
        out = tmp_path / "fit.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "data": str(data), "out": str(out),
            "tol": 1e-8,
        }))
        assert main(["fit", "--config", str(cfg)]) == 0
        assert out.exists()


def _survival_columns(n, seed):
    return simulation.gen_prop_odds(prop_odds.LINEAR_DESIGN, n,
                                    simulation.replication_rng(seed, 0))


def _mixture_columns(n, seed, w2=0.3):
    design = missing_cov.MissingCovDesign(w2=w2)
    return sample_missing_cov(design, n, simulation.replication_rng(seed, 0))


def _all_censored(n, seed):
    u, delta, z = _survival_columns(n, seed)
    return u, 0.0 * delta, z


def _times_rounded_down(n, seed):
    u, delta, z = _survival_columns(n, seed)
    return np.floor(u), delta, z


def _one_event_time(n, seed):
    u, delta, z = _survival_columns(n, seed)
    return np.ones_like(u), np.ones_like(delta), z


def _outlying_outcome(n, seed):
    r, y, x = _mixture_columns(n, seed)
    y = y.copy()
    y[np.flatnonzero(r == 2)[0]] = 1e3
    return r, y, x


def _constant_x(n, seed):
    r, y, x = _mixture_columns(n, seed)
    return r, y, np.full_like(x, 0.5)


def _write_columns(path, name, columns):
    if name == "prop_odds":
        lines = ["U,delta,Z1"] + [f"{u},{int(d)},{z}" for u, d, z in zip(*columns)]
    else:
        lines = ["R,Y,X"] + [f"{int(r)},{y}," + (f"{x}" if r == 1 else "")
                             for r, y, x in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")
    return path


_NOT_IDENTIFIED = pytest.mark.xfail(
    strict=True,
    reason="non-identified fit exits 0 with finite-looking estimates; "
           "ROADMAP item 3's information agreement check would refuse it",
)


class TestDegenerateInputs:
    """Degenerate inputs fail with their documented exit code and error,
    from data the test draws from a seed."""

    @pytest.mark.parametrize("name, make, n, force, code, message", [
        ("prop_odds", _all_censored, 200, False, 3, "condition check failed"),
        ("prop_odds", _all_censored, 200, True, 6, "SingularInformation"),
        ("missing_cov", lambda n, s: _mixture_columns(n, s, w2=0.7), 200, False, 3,
         "condition check failed"),
        ("missing_cov", lambda n, s: _mixture_columns(n, s, w2=0.7), 200, True, 6,
         "DenominatorCollapse"),
        ("missing_cov", _outlying_outcome, 200, False, 6, "SupportViolation"),
        ("prop_odds", _times_rounded_down, 200, False, 1, "event times must be positive"),
        ("missing_cov", _constant_x, 200, False, 1, "covariate X is constant"),
        ("missing_cov", lambda n, s: _mixture_columns(n, s, w2=0.55), 300, True, 3,
         "condition check failed"),
        pytest.param("prop_odds", _one_event_time, 200, False, 6, "SingularInformation",
                     marks=_NOT_IDENTIFIED),
        pytest.param("prop_odds", _survival_columns, 3, False, 6, "SingularInformation",
                     marks=_NOT_IDENTIFIED),
    ], ids=[
        "all_censored", "all_censored_forced", "missing_70pct", "missing_70pct_forced",
        "outlying_outcome", "times_rounded_to_0", "constant_mixture_x",
        "divergent_mixture_forced", "one_event_time", "three_records",
    ])
    def test_exit_code_and_error(self, name, make, n, force, code, message,
                                 tmp_path, capsys):
        data = _write_columns(tmp_path / "d.csv", name, make(n, 55))
        argv = ["fit", "--model", name, "--data", str(data)] + ["--force"] * force
        assert main(argv) == code
        assert message in capsys.readouterr().err


class TestCheckDerivs:
    def test_seeded_prop_odds_ok(self, capsys):
        assert main(["check-derivs", "--model", "prop_odds", "--n", "20"]) == 0
        out = capsys.readouterr().out
        assert "da_psi" in out and "eta_dot" in out

    def test_seeded_missing_cov_ok(self):
        assert main(["check-derivs", "--model", "missing_cov", "--n", "30"]) == 0

    def test_corrupted_operator_exit_4(self, capsys):
        code = main(["check-derivs", "--model", "prop_odds", "--n", "20",
                     "--corrupt", "da_psi"])
        assert code == 4
        assert "da_psi" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["prop_odds", "missing_cov"])
    def test_corrupted_score_jacobian_exit_4(self, name, capsys):
        code = main(["check-derivs", "--model", name, "--corrupt", "score_jacobian"])
        assert code == 4
        assert "score_jacobian" in capsys.readouterr().err

    def test_population_missing_cov(self, capsys):
        code = main(["check-derivs", "--model", "missing_cov", "--population"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nuisance_stationarity" in out
        assert "score_orthogonality" in out

    def test_population_prop_odds(self):
        assert main(["check-derivs", "--model", "prop_odds",
                     "--population"]) == 0

    @pytest.mark.parametrize("name, write", [
        ("prop_odds", write_ex1_csv), ("missing_cov", write_ex2_csv),
    ])
    def test_population_with_data_exit_1(self, name, write, tmp_path, capsys):
        # the population checks run on the population law, never on a sample
        data = write(tmp_path / "d.csv")
        argv = ["check-derivs", "--model", name, "--population", "--data", str(data)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("flag", ["--seed", "--n"])
    @pytest.mark.parametrize("population", [[], ["--population"]])
    @pytest.mark.parametrize("name", ["prop_odds", "missing_cov"])
    def test_negative_seed_or_size_exit_1_before_audits(self, name, population, flag,
                                                         monkeypatch, capsys):
        def no_audit(*args, **kwargs):
            raise AssertionError("an audit ran")

        monkeypatch.setattr(audits, "audit_operators", no_audit)
        for model in audits.POPULATION_AUDITS:
            monkeypatch.setitem(audits.POPULATION_AUDITS, model, no_audit)
        argv = ["check-derivs", "--model", name, flag, "-5"] + population
        assert main(argv) == EXIT_USAGE
        assert f"{flag[2:]} must be nonnegative" in capsys.readouterr().err

    def test_data_file_input(self, tmp_path):
        data = write_ex1_csv(tmp_path / "d.csv", n=25,
                             design=prop_odds.LINEAR_DESIGN)
        assert main(["check-derivs", "--model", "prop_odds",
                     "--data", str(data)]) == 0


    def test_data_file_with_two_covariates(self, tmp_path, capsys):
        # the resample of the distribution-derivative rows comes from a
        # one-covariate design; the second covariate is copied from records
        rng = simulation.replication_rng(33, 0)
        u, delta, z = simulation.gen_prop_odds(prop_odds.LINEAR_DESIGN, 300, rng)
        z2 = np.random.default_rng(34).normal(size=len(u))
        lines = ["U,delta,Z1,Z2"] + [
            f"{ui},{int(di)},{zi},{wi}" for ui, di, zi, wi in zip(u, delta, z, z2)
        ]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["check-derivs", "--model", "prop_odds", "--data", str(data)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 10 and all(row.endswith("ok") for row in rows)

    @pytest.mark.parametrize("p", [1, 2])
    def test_large_linear_baseline_data(self, p, tmp_path, capsys):
        # n = 3000 puts about 1700 event times on the grid: the difference
        # oracles' steps must hold at that resolution too
        u, delta, z = simulation.gen_prop_odds(
            prop_odds.LINEAR_DESIGN, 3000, simulation.replication_rng(20260810, 3))
        z = np.column_stack([z, np.random.default_rng(35).normal(size=len(u))])[:, :p]
        header = ",".join(["U", "delta"] + [f"Z{k + 1}" for k in range(p)])
        lines = [header] + [
            ",".join([repr(float(ui)), str(int(di))] + [repr(float(zk)) for zk in zi])
            for ui, di, zi in zip(u, delta, z)
        ]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["check-derivs", "--model", "prop_odds", "--data", str(data)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 10 and all(row.endswith("ok") for row in rows)


class TestMonteCarlo:
    def test_smoke_config(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 10, "seed": 2,
        }))
        prefix = tmp_path / "run"
        code = main(["monte-carlo", "--config", str(cfg),
                     "--out-prefix", str(prefix), "--jobs", "1"])
        assert code == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["n_success"] == 10
        csv_lines = (tmp_path / "run_replications.csv").read_text().splitlines()
        assert len(csv_lines) == 11

    def test_zero_replications_exit_1(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 0,
        }))
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1"]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 2,
        }))
        prefix = tmp_path / "run"
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", jobs,
                     "--out-prefix", str(prefix)]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

    def test_alarm_exit_5(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 5, "seed": 3,
            "max_newton": 1,
        }))
        prefix = tmp_path / "alarm"
        code = main(["monte-carlo", "--config", str(cfg),
                     "--out-prefix", str(prefix), "--jobs", "1"])
        assert code == 5
        # the report is still written
        assert (tmp_path / "alarm_report.json").exists()

    def test_design_override(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 4, "seed": 4,
            "design": {"w2": 0.2},
        }))
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1"]) == 0

    def test_linear_survival_design(self, tmp_path):
        # the design of the survival acceptance study: the step baseline's
        # keys are set to null to select the linear baseline
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "prop_odds", "n": 60, "replications": 3, "seed": 7,
            "design": {"baseline_times": None, "baseline_jumps": None,
                       "baseline_rate": 1.0, "censor_atom": 0.2},
        }))
        prefix = tmp_path / "linear"
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1",
                     "--out-prefix", str(prefix)]) == 0
        expected = simulation.monte_carlo(simulation.SimConfig(
            model="prop_odds", n=60, replications=3, seed=7,
            design=prop_odds.LINEAR_DESIGN,
        )).to_json()
        assert (tmp_path / "linear_report.json").read_text() == expected

    @pytest.mark.parametrize("fields, flags, message", [
        ({"theta_start": [0]}, [], "theta_start does not match the parameter dimension"),
        ({"max_newton": -1}, [], "max_newton must be nonnegative"),
        ({}, ["--seed", "-1"], "seed must be nonnegative"),
    ])
    def test_out_of_range_exit_1_before_replications(self, fields, flags, message,
                                                      tmp_path, monkeypatch, capsys):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulation, "run_replication", no_replication)
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 4, **fields,
        }))
        argv = ["monte-carlo", "--config", str(cfg), "--jobs", "1"] + flags
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("model, design, message", [
        ("prop_odds", {"beta0": [0.5, 0.1]}, "scalar covariate"),
        ("prop_odds", {"covariate_values": [-0.5, 0.5, 1.0]}, "matching 1-d arrays"),
        ("prop_odds", {"covariate_probs": [1.5, -0.5]}, "probabilities nonnegative"),
        ("prop_odds", {"covariate_values": [0.5], "covariate_probs": [1.0]},
         "two points of positive probability"),
        ("missing_cov", {"theta0": [0.0, 1.0]}, "intercept, a slope and a log sigma"),
        ("missing_cov", {"support": [0.0, 1.0], "g0": [1.5, -0.5]},
         "probabilities nonnegative"),
        ("missing_cov", {"support": [0.5], "g0": [1.0]}, "two points of positive probability"),
        ("missing_cov", {"support": [0.0, 1.0], "g0": [1.0, 0.0]},
         "two points of positive probability"),
        ("missing_cov", {"w2": 0.6}, "w2 >= 1/2"),
    ])
    def test_undrawable_design_exit_1_before_replications(self, model, design, message,
                                                           tmp_path, monkeypatch, capsys):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulation, "run_replication", no_replication)
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"model": model, "n": 60, "replications": 3,
                                   "design": design}))
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_unknown_design_key_exit_1(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 4,
            "design": {"nope": 1},
        }))
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1"]) == 1


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _record(monkeypatch, module, name):
    """Replace module.name, a function or a class, by a stand-in that records
    each call's positional and keyword arguments and then stops the command
    with exit 1.  A class is replaced by a subclass, which keeps its fields."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise InvalidConfig("recorded")

    original = getattr(module, name)
    stand_in = record
    if isinstance(original, type):
        stand_in = type(name, (original,), {"__new__": lambda cls, *a, **kw: record(*a, **kw)})
    monkeypatch.setattr(module, name, stand_in)
    return calls


def _defaulted(func):
    """The names of func's parameters that have a default."""
    return {name for name, param in inspect.signature(func).parameters.items()
            if param.default is not param.empty}


#: A valid config base per subcommand, less the data file of fit.
BASE = {
    "fit": {"model": "missing_cov"},
    "check-derivs": {"model": "missing_cov"},
    "monte-carlo": {"model": "missing_cov", "n": 80, "replications": 2},
}


class TestConfigTypes:
    """Every config value is checked against its option's JSON type before
    anything runs; a wrong one exits 1 naming the config file and the key."""

    @pytest.mark.parametrize("command, fields, message", [
        ("check-derivs", {"n": "x"}, 'n must be an integer, got "x"'),
        ("fit", {"theta0": "abc"}, 'theta0 must be an array of numbers, got "abc"'),
        ("monte-carlo", {"n": "abc"}, 'n must be an integer, got "abc"'),
        ("monte-carlo", {"fit_tol": "x"}, 'fit_tol must be a number, got "x"'),
        ("monte-carlo", {"theta_start": "abc"},
         'theta_start must be an array of numbers, got "abc"'),
        ("monte-carlo", {"design": {"w2": "x"}}, 'design.w2 must be a number, got "x"'),
        ("fit", {"force": "false"}, 'force must be true or false, got "false"'),
        ("check-derivs", {"population": "false"},
         'population must be true or false, got "false"'),
        ("monte-carlo", {"replications": True}, "replications must be an integer, got true"),
        ("monte-carlo", {"seed": 1.9}, "seed must be an integer, got 1.9"),
        ("fit", {"level": "0.9"}, 'level must be a number, got "0.9"'),
        ("fit", {"max_newton": 2.7}, "max_newton must be an integer, got 2.7"),
        ("monte-carlo", {"n": 50.7}, "n must be an integer, got 50.7"),
    ])
    def test_mistyped_value_exit_1(self, command, fields, message, tmp_path,
                                   monkeypatch, capsys):
        def ran(*args, **kwargs):
            raise AssertionError("ran with a mistyped value")

        for module, name in ((estimator, "profile_mle"), (audits, "run_audits"),
                             (simulation, "monte_carlo")):
            monkeypatch.setattr(module, name, ran)
        data = {"data": str(write_ex2_csv(tmp_path / "d.csv"))} if command == "fit" else {}
        cfg = _write_config(tmp_path, {**BASE[command], **data, **fields})
        assert main([command, "--config", cfg]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_integral_numbers_are_integers(self, tmp_path, monkeypatch):
        calls = _record(monkeypatch, simulation, "SimConfig")
        cfg = _write_config(tmp_path, {"model": "missing_cov", "n": 500.0,
                                       "replications": 2, "seed": 7.0})
        assert main(["monte-carlo", "--config", cfg]) == EXIT_USAGE
        [(_, kwargs)] = calls
        assert kwargs == {"model": "missing_cov", "n": 500, "replications": 2, "seed": 7}
        assert type(kwargs["n"]) is int and type(kwargs["seed"]) is int

    def test_null_leaves_a_key_unset(self, tmp_path, monkeypatch):
        calls = _record(monkeypatch, simulation, "SimConfig")
        cfg = _write_config(tmp_path, {**BASE["monte-carlo"], "seed": None,
                                       "design": None, "theta_start": None})
        assert main(["monte-carlo", "--config", cfg]) == EXIT_USAGE
        assert calls == [((), BASE["monte-carlo"])]


#: Each subcommand's flags and config keys, pinned.
FLAGS = {
    "fit": {"--config", "--model", "--data", "--out", "--theta0", "--tol",
            "--max-newton", "--force", "--level"},
    "check-derivs": {"--config", "--model", "--data", "--population", "--seed", "--n",
                     "--corrupt"},
    "monte-carlo": {"--config", "--out-prefix", "--seed", "--jobs"},
}
CONFIG_KEYS = {
    "fit": {"model", "data", "out", "theta0", "tol", "max_newton", "force", "level"},
    "check-derivs": {"model", "data", "population", "seed", "n"},
    "monte-carlo": {"model", "n", "replications", "seed", "design", "theta_start",
                    "fit_tol", "max_newton", "solver_tol", "out_prefix"},
}


class TestOptionTables:
    """Each option is declared once, in its subcommand's table: the flags and
    config keys stay what they are, and a command passes its callee exactly
    the keys that were set, so the callee's defaults are the only ones."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags(self, command):
        action, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[command]
        flags = {flag for a in parser._actions for flag in a.option_strings}
        assert flags - {"-h", "--help"} == FLAGS[command]

    @pytest.mark.parametrize("command, table", [
        ("fit", "FIT_OPTIONS"), ("check-derivs", "CHECK_OPTIONS"),
        ("monte-carlo", "MC_OPTIONS"),
    ])
    def test_config_keys(self, command, table, tmp_path, capsys):
        assert {opt.key for opt in getattr(cli, table)} == CONFIG_KEYS[command]
        # every pinned key is allowed: only the extra one is refused
        cfg = _write_config(tmp_path, {**dict.fromkeys(CONFIG_KEYS[command]), "bogus": 1})
        assert main([command, "--config", cfg]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: unknown config keys ['bogus']\n"

    def test_fit(self, tmp_path, monkeypatch):
        defaulted = _defaulted(estimator.profile_mle)
        calls = _record(monkeypatch, estimator, "profile_mle")
        data = str(write_ex2_csv(tmp_path / "d.csv"))
        assert main(["fit", "--model", "missing_cov", "--data", data]) == EXIT_USAGE
        cfg = _write_config(tmp_path, {"theta0": [0, 1, 0], "tol": 1e-9,
                                       "max_newton": 7, "force": True})
        assert main(["fit", "--model", "missing_cov", "--data", data,
                     "--config", cfg]) == EXIT_USAGE
        (_, none), (args, every) = calls
        assert defaulted.isdisjoint(none)
        assert args[1] == (0.0, 1.0, 0.0)
        assert every == {"tol": 1e-9, "max_newton": 7, "force": True}
        assert set(every) == defaulted

    def test_check_derivs(self, tmp_path, monkeypatch):
        defaulted = _defaulted(audits.run_audits)
        calls = _record(monkeypatch, audits, "run_audits")
        assert main(["check-derivs", "--model", "prop_odds"]) == EXIT_USAGE
        data = write_ex1_csv(tmp_path / "d.csv", n=25)
        cfg = _write_config(tmp_path, {"model": "prop_odds", "data": str(data),
                                       "seed": 3, "n": 25, "population": False})
        assert main(["check-derivs", "--config", cfg, "--corrupt", "da_psi"]) == EXIT_USAGE
        (args, none), (_, every) = calls
        assert args == ("prop_odds",) and defaulted.isdisjoint(none)
        assert set(every) == defaulted
        assert isinstance(every.pop("model"), prop_odds.PropOddsModel)
        assert every == {"seed": 3, "n": 25, "population": False, "corrupt": "da_psi"}

    def test_monte_carlo(self, tmp_path, monkeypatch):
        defaulted = _defaulted(simulation.SimConfig)
        calls = _record(monkeypatch, simulation, "SimConfig")
        assert main(["monte-carlo", "--config",
                     _write_config(tmp_path, BASE["monte-carlo"])]) == EXIT_USAGE
        every = {"seed": 5, "design": {"w2": 0.2}, "theta_start": [0, 1, 0],
                 "fit_tol": 1e-9, "max_newton": 9, "solver_tol": 1e-11}
        cfg = _write_config(tmp_path, {**BASE["monte-carlo"], **every, "out_prefix": "x"})
        assert main(["monte-carlo", "--config", cfg]) == EXIT_USAGE
        (_, none), (_, given) = calls
        assert none == BASE["monte-carlo"] and defaulted.isdisjoint(none)
        assert set(given) - set(none) == defaulted
        assert given == {**BASE["monte-carlo"], **every, "theta_start": (0.0, 1.0, 0.0),
                         "design": missing_cov.MissingCovDesign(w2=0.2)}


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "profix.cli", "check-derivs", "--model",
         "missing_cov", "--n", "20"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def run_fresh(code):
    """Standard output of code run in a fresh interpreter on this profix."""
    src = str(Path(profix.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


LOADED = ("print(any(m.partition('.')[0] == 'scipy' for m in sys.modules), "
          "*(m in sys.modules for m in ('scipy.linalg', 'scipy.special')))")


def test_import_leaves_out_scipy_stats():
    # scipy.stats is most of the start-up time of every profix process, and
    # scipy.linalg and scipy.special most of what is left
    code = ("import sys, profix, profix.cli; "
            "print('scipy.stats' in sys.modules); " + LOADED)
    assert run_fresh(code) == ["False", "False", "False", "False"]


def test_scipy_loads_where_it_is_called():
    # a mixture replication, a survival fit (its tridiagonal solves) and its
    # interval load no scipy module at all, nor numpy.ma; only the Monte
    # Carlo report's KS statistic loads scipy.special
    code = f"""
import sys
import numpy as np
from profix import estimator, prop_odds, simulation
config = simulation.SimConfig(model="missing_cov", n=200, replications=1)
assert simulation.run_replication(config, 0).converged
rng = simulation.replication_rng(3, 0)
model = prop_odds.PropOddsModel.from_arrays(
    *simulation.gen_prop_odds(prop_odds.LINEAR_DESIGN, 200, rng))
fit = estimator.profile_mle(prop_odds.PropOddsProfile(model), np.zeros(1),
                            force=True)
(lo, hi), = estimator.confidence_interval(fit)
assert lo < fit.theta_hat[0] < hi
{LOADED}
print('numpy.ma' in sys.modules)
assert 0.0 < simulation._ks_normal(rng.standard_normal(50)) < 1.0
{LOADED}
"""
    assert run_fresh(code) == ["False", "False", "False", "False", "True", "False", "True"]
