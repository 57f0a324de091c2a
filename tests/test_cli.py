import json
import subprocess
import sys

from profix import missing_cov, prop_odds, simulation
from profix.cli import main


def write_ex2_csv(path, n=120, seed=31, design=None):
    design = design or missing_cov.MissingCovDesign()
    rng = simulation.replication_rng(seed, 0)
    r, y, x = simulation.gen_missing_cov(
        design, n, rng, allow_override=True
    )
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
        assert payload["converged"] is True
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

    def test_empty_file_exit_1(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["fit", "--model", "missing_cov", "--data", str(data)]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["fit", "--model", "missing_cov",
                     "--data", str(tmp_path / "nope.csv")]) == 1

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

    def test_population_missing_cov(self, capsys):
        code = main(["check-derivs", "--model", "missing_cov", "--population"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nuisance_stationarity" in out
        assert "score_orthogonality" in out

    def test_population_prop_odds(self):
        assert main(["check-derivs", "--model", "prop_odds",
                     "--population"]) == 0

    def test_data_file_input(self, tmp_path):
        data = write_ex1_csv(tmp_path / "d.csv", n=25,
                             design=prop_odds.LINEAR_DESIGN)
        assert main(["check-derivs", "--model", "prop_odds",
                     "--data", str(data)]) == 0


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

    def test_unknown_design_key_exit_1(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "model": "missing_cov", "n": 80, "replications": 4,
            "design": {"nope": 1},
        }))
        assert main(["monte-carlo", "--config", str(cfg), "--jobs", "1"]) == 1


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "profix.cli", "check-derivs", "--model",
         "missing_cov", "--n", "20"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
