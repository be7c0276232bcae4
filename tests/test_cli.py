import csv
import json

import pytest

from fairmc.cli import EXIT_CONFIG, EXIT_OK, FIG_KINDS, load_preset, main
from fairmc.experiments import ConfigError, ExperimentConfig, derive_seed
from fairmc.metrics import records_from_csv

TINY = {
    "kind": "KSAT_FAIRNESS",
    "k": 2,
    "sizes": [8],
    "per_size": 2,
    "chain_steps": 300,
    "trials": 2,
    "qaoa_starts": 2,
    "made_epochs": 100,
    "walksat_max_flips": 20000,
    "algorithms": ["qaoa-nmc", "qaoa-hmc", "pt-icm", "walksat"],
    "pt_rounds": 400,
    "seed": 11,
}


def write_cfg(tmp_path, overrides=None):
    cfg = dict(TINY)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_resolved(self):
        cfg = ExperimentConfig.from_dict({"kind": "KSAT_FAIRNESS", "k": 3})
        assert cfg.alpha_c == pytest.approx(4.267)
        assert cfg.beta == 10.0

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict({"kind": "KSAT_FAIRNESS", "bogus": 1})

    def test_presets_all_load(self):
        for fig, kind in FIG_KINDS.items():
            cfg = ExperimentConfig.from_dict(load_preset(fig))
            assert cfg.kind == kind

    @pytest.mark.parametrize("bad", [
        {"anneal_time": -5.0},
        {"anneal_time": float("nan")},
        {"anneal_time": float("inf")},
        {"anneal_grid_min": 0.0},
        {"anneal_grid_min": -1.0},
        {"anneal_grid_max": float("inf")},
        {"anneal_grid_min": 10.0, "anneal_grid_max": 5.0},
        {"anneal_grid_points": 0},
    ])
    def test_bad_anneal_settings_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "ANNEAL_SWEEP", **bad})

    def test_anneal_grid_of_one_point_accepted(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "ANNEAL_SWEEP", "anneal_time": 0.0, "anneal_grid_min": 3.0,
             "anneal_grid_max": 3.0, "anneal_grid_points": 1})
        assert cfg.anneal_grid_points == 1

    def test_derive_seed_stable(self):
        assert derive_seed(1, "stage", 2) == derive_seed(1, "stage", 2)
        assert derive_seed(1, "stage", 2) != derive_seed(1, "stage", 3)


class TestPipelineCommands:
    def test_full_pipeline_and_metrics(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        for stage in ("gen-instances", "optimize-qaoa", "train-made",
                      "run-chains", "run-baselines", "metrics"):
            assert main([stage, "--config", cfg, "--out", out]) == EXIT_OK

        run = tmp_path / "run"
        assert (run / "resolved_config.json").exists()
        assert (run / "instances" / "manifest.json").exists()
        assert (run / "schedules" / "fixed_angles.json").exists()
        records = records_from_csv(run / "metrics" / "records.csv")
        algos = {r.algorithm for r in records}
        assert algos == {"qaoa-nmc", "qaoa-hmc", "pt-icm", "walksat"}

        # steps is the mean over the finished trials of one instance
        trial_steps: dict[tuple, list[int]] = {}
        with open(run / "metrics" / "trials.csv", newline="") as f:
            for row in csv.DictReader(f):
                done = trial_steps.setdefault((int(row["instance"]), row["algorithm"]), [])
                if row["steps"] != "":
                    done.append(int(row["steps"]))
        assert set(trial_steps) == {(r.instance, r.algorithm) for r in records}
        for r in records:
            done = trial_steps[(r.instance, r.algorithm)]
            assert r.steps == (sum(done) / len(done) if done else None)

    def test_rerun_reproduces_metrics_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        for stage in ("gen-instances", "optimize-qaoa", "train-made",
                      "run-chains", "run-baselines", "metrics"):
            main([stage, "--config", cfg, "--out", out])
        first = (tmp_path / "run" / "metrics" / "records.csv").read_bytes()
        import shutil

        shutil.rmtree(tmp_path / "run" / "chains")
        shutil.rmtree(tmp_path / "run" / "metrics")
        for stage in ("run-chains", "run-baselines", "metrics"):
            main([stage, "--config", cfg, "--out", out])
        second = (tmp_path / "run" / "metrics" / "records.csv").read_bytes()
        assert first == second

    def test_missing_stage_dependency_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path)
        code = main(["run-chains", "--config", cfg, "--out", str(tmp_path / "empty")])
        assert code == EXIT_CONFIG

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "NOT_A_KIND"}')
        code = main(["gen-instances", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("fig, bad", [
        ("fig1", {"anneal_time": -5.0}),
        ("fig2", {"anneal_grid_min": 0.0}),
    ])
    def test_bad_anneal_config_exits_2(self, tmp_path, capsys, fig, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": FIG_KINDS[fig], **bad}))
        code = main([fig, "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen-instances", "--config", cfg, "--out", out_a])
        main(["gen-instances", "--config", cfg, "--out", out_b, "--seed", "99"])
        a = (tmp_path / "a" / "instances" / "manifest.json").read_text()
        b = (tmp_path / "b" / "instances" / "manifest.json").read_text()
        assert a != b


class TestSmallExperiments:
    def test_fig1_small(self, tmp_path):
        cfg = tmp_path / "f1.json"
        cfg.write_text(json.dumps({
            "kind": "SMALL_INSTANCES", "samples": 120, "train_samples": 150,
            "made_epochs": 60, "qaoa_starts": 2, "anneal_time": 5.0, "seed": 3,
        }))
        out = tmp_path / "f1"
        assert main(["fig1", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        text = (out / "ground_state_frequencies.csv").read_text()
        for method in ("qa", "qaoa", "qe-mcmc", "qaoa-nmc"):
            assert method in text
        assert (out / "fairness_summary.csv").exists()

    def test_fig2_small(self, tmp_path):
        cfg = tmp_path / "f2.json"
        cfg.write_text(json.dumps({
            "kind": "ANNEAL_SWEEP", "anneal_grid_min": 1.0,
            "anneal_grid_max": 8.0, "anneal_grid_points": 3,
            "qaoa_starts": 2, "seed": 3,
        }))
        out = tmp_path / "f2"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "anneal_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 6  # header + grid points x 6 ground states
        marker = json.loads((out / "effective_time_marker.json").read_text())
        assert "effective_time" in marker


class TestValidateCommand:
    def test_validate_passes_and_writes_report(self, tmp_path):
        code = main(["validate", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "validation.json").read_text())
        assert all(r["passed"] for r in report)
        assert len(report) >= 10
