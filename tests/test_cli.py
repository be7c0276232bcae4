import csv
import hashlib
import json
import shutil
from importlib import resources

import numpy as np
import pytest

from fairmc import experiments
from fairmc.baselines import LM_WEIGHTS, NOISE_P
from fairmc.cli import EXIT_CONFIG, EXIT_OK, FIGS, load_preset, main
from fairmc.experiments import (
    ANNEAL_GRID,
    BETA,
    PT_BETAS,
    ConfigError,
    ExperimentConfig,
    derive_seed,
)
from fairmc.made import (
    BATCH_SIZE,
    LEARNING_RATE,
    PLATEAU_EPOCHS,
    PLATEAU_TOL,
    MadeNetwork,
    TrainConfig,
    save_checkpoint,
    training_digest,
)
from fairmc.metrics import records_from_csv
from fairmc.qaoa import expand, schedule_from_json
from fairmc.qsim import run_qaoa, sample
from fairmc.sat import load_instance_set, to_ising

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

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict({"kind": "KSAT_FAIRNESS", "bogus": 1})

    def test_presets_all_load(self):
        kinds = {"fig1": "SMALL_INSTANCES", "fig2": "ANNEAL_SWEEP",
                 "fig3": "KSAT_FAIRNESS", "fig4": "KSAT_FAIRNESS", "fig5": "KSAT_FAIRNESS",
                 "fig6": "KSAT_COUNTING", "fig7": "KSAT_COUNTING"}
        # the fig commands are the preset files that ship, in order
        shipped = sorted(p.name.removesuffix(".json")
                         for p in resources.files("fairmc").joinpath("presets").iterdir()
                         if p.name.endswith(".json"))
        assert list(FIGS) == shipped == list(kinds)
        for fig, kind in kinds.items():
            cfg = ExperimentConfig.from_dict(load_preset(fig))
            assert cfg.kind == kind

    @pytest.mark.parametrize("bad", [
        {"anneal_time": -5.0},
        {"anneal_time": float("nan")},
        {"anneal_time": float("inf")},
        # checked for every kind, like the anneal setting above
        {"per_size": 0}, {"qaoa_depth": 0}, {"qaoa_starts": 0}, {"train_samples": 0},
        {"made_epochs": 0}, {"chain_steps": 0}, {"trials": 0},
        {"walksat_max_flips": 0}, {"samples": 0}, {"per_size": -3},
        {"sizes": []}, {"sizes": [8, 25]}, {"sizes": [1]}, {"k": 3, "sizes": [2]},
        # n = k: a 3-SAT draw needs 13 distinct clauses of the 8 there are, and
        # every 2-SAT draw has one solution, so the filter would redraw forever
        {"k": 3, "sizes": [3]}, {"sizes": [2]},
        # counts, k and sizes must be ints: 2.5 instances per size are never met
        {"per_size": 2.5}, {"chain_steps": 1.5}, {"made_epochs": 100.0},
        {"qaoa_depth": True}, {"k": 2.0}, {"sizes": [8.0]}, {"sizes": [8, 9.5]},
        # a repeated size draws the same instances twice under new indices
        {"sizes": [8, 8]},
        # an unknown algorithm; a string in place of the list is read as its
        # letters, none of them an algorithm; a clause width other than 2 or 3
        {"algorithms": ["qaoa-nmc", "sa"]}, {"algorithms": "walksat"}, {"k": 4},
        # metrics would pool a repeated algorithm's records twice
        {"algorithms": ["walksat", "walksat"]},
    ])
    def test_bad_anneal_settings_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "ANNEAL_SWEEP", **bad})

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None])
    def test_non_bool_flag_rejected(self, bad):
        # "false" is truthy: it would train every net on the fixed angles
        with pytest.raises(ConfigError, match="use_fixed_angles"):
            ExperimentConfig.from_dict({"kind": "KSAT_FAIRNESS", "use_fixed_angles": bad})

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "7", None])
    def test_non_int_seed_rejected(self, bad):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"kind": "KSAT_FAIRNESS", "seed": bad})

    @pytest.mark.parametrize("name", ["anneal_time"])
    @pytest.mark.parametrize("bad", [True, "10"])
    def test_non_number_real_rejected(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict({"kind": "ANNEAL_SWEEP", name: bad})

    @pytest.mark.parametrize("key, value", [
        ("beta", 10.0), ("anneal_grid_min", 0.1), ("anneal_grid_max", 1000.0),
        ("anneal_grid_points", 30),
    ])
    def test_constant_refused_as_key(self, key, value):
        # experiments.BETA and ANNEAL_GRID: even the value they hold is refused
        with pytest.raises(ConfigError, match=f"unknown config keys.*{key}"):
            ExperimentConfig.from_dict({"kind": "ANNEAL_SWEEP", key: value})

    @pytest.mark.parametrize("preset", [None, *FIGS])
    def test_worker_configs_pinned(self, preset):
        # the values every preset ran with when they were config fields
        cfg = ExperimentConfig.from_dict(
            load_preset(preset) if preset else {"kind": "KSAT_COUNTING"})
        assert cfg.train_config(5) == TrainConfig(epochs=500, rng_seed=5)
        assert (BATCH_SIZE, LEARNING_RATE) == (64, 1e-3)
        assert (PLATEAU_EPOCHS, PLATEAU_TOL) == (50, 1e-5)
        assert PT_BETAS == tuple(np.geomspace(0.1, 10.0, 8).tolist())
        assert cfg.walksat_max_flips == 10**6
        assert NOISE_P == 0.5
        assert LM_WEIGHTS == (6.0, 1.0)
        assert BETA == 10.0
        np.testing.assert_array_equal(ANNEAL_GRID, np.geomspace(0.1, 1000.0, 30))

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

    def test_refused_stage_leaves_no_config_behind(self, tmp_path, capsys):
        out = tmp_path / "empty"
        code = main(["run-chains", "--config", write_cfg(tmp_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "gen-instances" in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()
        # so the directory still takes instances built from another config
        other = write_cfg(tmp_path, {"per_size": 1})
        assert main(["gen-instances", "--config", other, "--out", str(out)]) == EXIT_OK

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "NOT_A_KIND"}')
        code = main(["gen-instances", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("fig, bad", [
        ("fig1", {"anneal_time": -5.0}),
        # beta and the anneal grid are constants of fairmc.experiments: a
        # config that sets one has an unknown key
        ("fig2", {"anneal_grid_min": 0.0}),
        ("fig1", {"beta": -1.0}),
        ("fig6", {"sizes": []}),
        ("fig6", {"sizes": [8], "per_size": 1, "qaoa_starts": 0}),
        # small, so that a config that is not refused fails fast in its stage;
        # beta is an unknown key, as above
        ("fig4", {"beta": 0.05, "sizes": [8], "per_size": 1, "qaoa_starts": 1,
                  "made_epochs": 1, "train_samples": 10, "algorithms": ["pt-icm"]}),
        # WalkSATlm is the only WalkSAT: a config that selects it has an unknown key
        ("fig6", {"walksat_variant": "lm", "sizes": [8], "per_size": 1, "trials": 1,
                  "algorithms": ["walksat"]}),
        ("fig5", {"use_fixed_angles": "false", "sizes": [8], "per_size": 1,
                  "qaoa_starts": 1, "made_epochs": 1, "train_samples": 10,
                  "chain_steps": 1, "trials": 1}),
        ("fig6", {"algorithms": [], "sizes": [8], "per_size": 1}),
        # fig3 also runs k = 3, where size 3 is refused
        ("fig3", {"k": 2, "sizes": [3], "per_size": 1}),
        ("fig6", {"sizes": [8, 9, 8], "per_size": 1, "trials": 1,
                  "algorithms": ["walksat"]}),
        # metrics would write every walksat record twice
        ("fig6", {"sizes": [5], "per_size": 2, "trials": 1,
                  "algorithms": ["walksat", "walksat"]}),
    ])
    def test_bad_anneal_config_exits_2(self, tmp_path, capsys, fig, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": load_preset(fig)["kind"], **bad}))
        code = main([fig, "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, kind", [
        ("gen-instances", "SMALL_INSTANCES"),
        ("gen-instances", "ANNEAL_SWEEP"),
        ("metrics", "SMALL_INSTANCES"),
        ("fig1", "ANNEAL_SWEEP"),
        ("fig1", "KSAT_FAIRNESS"),
        ("fig2", "SMALL_INSTANCES"),
        ("fig3", "SMALL_INSTANCES"),
        ("fig5", "ANNEAL_SWEEP"),
        ("fig6", "SMALL_INSTANCES"),
    ])
    def test_config_of_other_kind_exits_2(self, tmp_path, capsys, command, kind):
        # a command given a config it does not run must not run its own work
        # on that config's other settings
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": kind, "sizes": [8], "per_size": 1}))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and kind in err
        assert not (tmp_path / "x").exists()

    def test_fig4_runs_a_counting_config(self, tmp_path):
        # fig3-fig7 take either k-SAT kind; the metrics are the same files
        path = tmp_path / "counting.json"
        path.write_text(json.dumps({**TINY, "kind": "KSAT_COUNTING", "per_size": 1,
                                    "algorithms": ["walksat"]}))
        out = tmp_path / "run"
        assert main(["fig4", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "metrics" / "records.csv").exists()
        # no sampler runs, so nothing reads schedules or nets
        assert not (out / "schedules").exists() and not (out / "nets").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, tmp_path, threads):
        with pytest.raises(SystemExit) as exc:
            main(["gen-instances", "--config", write_cfg(tmp_path),
                  "--out", str(tmp_path / "x"), "--threads", threads])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen-instances", "--config", cfg, "--out", out_a])
        main(["gen-instances", "--config", cfg, "--out", out_b, "--seed", "99"])
        a = (tmp_path / "a" / "instances" / "manifest.json").read_text()
        b = (tmp_path / "b" / "instances" / "manifest.json").read_text()
        assert a != b


# a k = 2 run of all four algorithms, small enough for tier-1
PINNED_RUN = {
    "kind": "KSAT_COUNTING", "k": 2, "sizes": [6, 8], "per_size": 1,
    "algorithms": ["qaoa-nmc", "qaoa-hmc", "pt-icm", "walksat"],
    "qaoa_depth": 1, "qaoa_starts": 1, "train_samples": 100, "made_epochs": 5,
    "chain_steps": 100, "trials": 2, "walksat_max_flips": 5000, "seed": 0,
}
# sha256 of every file under chains/ and metrics/ of PINNED_RUN; a change
# that alters them changes what a fixed seed produces
PINNED_RUN_SHA256 = {
    "chains/pt-icm/instance_0000_trial00.json":
        "e03ce19dbdb7157e91d5c098851420a557ab3963f3b69baef74524dc61f0aa36",
    "chains/pt-icm/instance_0001_trial00.json":
        "2db0db1932ba7b36c64328f69ff84246b2af3bc331a03e79adcf9e31a818f06b",
    "chains/qaoa-hmc/instance_0000_trial00.json":
        "14261b53900eefc7f36036e47d9c6ef31fead36e84a3cef2899468dd2ebe24a1",
    "chains/qaoa-hmc/instance_0000_trial01.json":
        "40e37f1a8fa6c7d895d20a2c121855fcc1a55d437bf50c23bbe29a200b11758e",
    "chains/qaoa-hmc/instance_0001_trial00.json":
        "7364f172dc11795dfb9e9a0df8dded3b730ebc3960fa06372a541fc4eb1f6249",
    "chains/qaoa-hmc/instance_0001_trial01.json":
        "2db5c8ed725b743cd1242b5cb263024c680a1e75fc1873d36fb2b77b4200bb2e",
    "chains/qaoa-nmc/instance_0000_trial00.json":
        "2ef5fb707fdb340e13e6f060b9f6324030e75232e321568567de104dcb617b78",
    "chains/qaoa-nmc/instance_0000_trial01.json":
        "a0430910de56fc960cecc6cfa66f163aeed3c6ee33c92e5386bc64dd4e237e41",
    "chains/qaoa-nmc/instance_0001_trial00.json":
        "103431aa63a5787f174b7b75d555371a1c144c8e846ca4c117c69cc692efa5cf",
    "chains/qaoa-nmc/instance_0001_trial01.json":
        "80af6f5508aa48612367518cca09b90df144e851adc5e57efe0411eacc61c311",
    "chains/walksat/instance_0000_trial00.json":
        "a9a8718f15e928f412a8970e15d5104d7c18b6581068279e0450dadfdd232ec2",
    "chains/walksat/instance_0000_trial01.json":
        "1e359203372f82da0037573c2292f8475baaeba4bbde3381169550e2ca720580",
    "chains/walksat/instance_0001_trial00.json":
        "d693fd30c095c5869df3ad933d8ab96e059d554a9f8d71c8e29f65cced88a63d",
    "chains/walksat/instance_0001_trial01.json":
        "d8633dd907d92afb00ae5a316ed3964fe71a9f3d46de265f0464437e5953be96",
    "metrics/records.csv":
        "dd334c6f486b47b548ec2e4fd6bd68af6d1a551dcbd6f87a27e820fd147a79c0",
    "metrics/summary.csv":
        "2611e64196215a5b25c0603eee868a58bc8d320e2f5d4f0a90295eafa816aaef",
    "metrics/superiority.csv":
        "f2eb96d8471623fe2a1e56efab723e73ef9bb27a01f19ae6a6b6fecd66727897",
    "metrics/trials.csv":
        "3782eda1aa8308dabb610fb82659ca65b1ac02ddbe94be8af38feeac8339ee92",
}


def test_pinned_run_outputs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(PINNED_RUN))
    out = tmp_path / "run"
    assert main(["fig6", "--config", str(path), "--out", str(out)]) == EXIT_OK
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for sub in ("chains", "metrics") for p in sorted((out / sub).rglob("*"))
           if p.is_file()}
    assert got == PINNED_RUN_SHA256


UPSTREAM = ("gen-instances", "optimize-qaoa", "train-made")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A TINY run directory with instances, schedules and nets."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(root)
    for stage in UPSTREAM:
        assert main([stage, "--config", cfg, "--out", str(root / "run")]) == EXIT_OK
    return root / "run"


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestResume:
    def test_partial_nets_exit_2(self, trained, tmp_path, capsys):
        run = shutil.copytree(trained, tmp_path / "run")
        (run / "nets" / "instance_0001.json").unlink()
        code = main(["run-chains", "--config", write_cfg(tmp_path), "--out", str(run)])
        assert code == EXIT_CONFIG
        assert "instance_0001.json" in capsys.readouterr().err
        assert not (run / "chains").exists()

    @pytest.mark.parametrize("override, flags, key", [
        ({"chain_steps": 301}, [], "chain_steps"),
        (None, ["--seed", "12"], "seed"),
    ])
    def test_resume_into_other_config_refused(self, trained, tmp_path, capsys,
                                              override, flags, key):
        run = shutil.copytree(trained, tmp_path / "run")
        stored = (run / "resolved_config.json").read_bytes()
        code = main(["run-chains", "--config", write_cfg(tmp_path, override),
                     "--out", str(run), *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert (run / "resolved_config.json").read_bytes() == stored
        assert not (run / "chains").exists()

    @pytest.mark.parametrize("algo, stage, first_missing", [
        ("qaoa-nmc", "run-chains", "instance_0000_trial01.json"),
        ("walksat", "run-baselines", "instance_0000_trial01.json"),
        ("pt-icm", "run-baselines", "instance_0001_trial00.json"),
    ])
    def test_partial_summaries_exit_2(self, trained, tmp_path, capsys, algo, stage,
                                      first_missing):
        # a killed stage leaves only its first summaries; metrics must not
        # pool over the trials that happen to be there
        cfg = write_cfg(tmp_path)
        run = shutil.copytree(trained, tmp_path / "run")
        for ran in ("run-chains", "run-baselines"):
            assert main([ran, "--config", cfg, "--out", str(run)]) == EXIT_OK
        for path in sorted((run / "chains" / algo).iterdir())[1:]:
            path.unlink()
        capsys.readouterr()
        assert main(["metrics", "--config", cfg, "--out", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert first_missing in err and f"'{stage}'" in err
        assert not (run / "metrics").exists()

    @pytest.mark.parametrize("ran, missing, first_missing", [
        ("run-chains", "run-baselines", "pt-icm/instance_0000_trial00.json"),
        ("run-baselines", "run-chains", "qaoa-nmc/instance_0000_trial00.json"),
    ])
    def test_missing_algorithm_stage_exits_2(self, trained, tmp_path, capsys, ran,
                                             missing, first_missing):
        # an algorithm the config runs but whose stage never ran is not
        # dropped from the metrics
        cfg = write_cfg(tmp_path)
        run = shutil.copytree(trained, tmp_path / "run")
        assert main([ran, "--config", cfg, "--out", str(run)]) == EXIT_OK
        capsys.readouterr()
        assert main(["metrics", "--config", cfg, "--out", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert first_missing in err and f"'{missing}'" in err
        assert not (run / "metrics").exists()

    @pytest.mark.parametrize("damage", ["nan_weight", "other_size"])
    def test_refused_checkpoint_exits_2(self, trained, tmp_path, capsys, damage):
        # a NaN weight makes the chains reject every candidate; a net of
        # another size does not fit the instance
        run = shutil.copytree(trained, tmp_path / "run")
        path = run / "nets" / "instance_0001.json"
        if damage == "nan_weight":
            ckpt = json.loads(path.read_text())
            ckpt["weights"][0][0][0] = float("nan")
            path.write_text(json.dumps(ckpt))
        else:
            save_checkpoint(MadeNetwork(5, rng=np.random.default_rng(0)), path)
        code = main(["run-chains", "--config", write_cfg(tmp_path), "--out", str(run)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "stage error" in err and "instance_0001.json" in err and "'train-made'" in err
        assert not (run / "chains").exists()

    @pytest.mark.parametrize("damage", ["truncated", "nan_entry"])
    def test_refused_schedule_exits_2(self, trained, tmp_path, capsys, damage):
        run = shutil.copytree(trained, tmp_path / "run")
        shutil.rmtree(run / "nets")
        path = run / "schedules" / "instance_0001.json"
        if damage == "truncated":
            path.write_text(path.read_text()[:20])
        else:
            schedule = json.loads(path.read_text())
            schedule["gamma_slope"] = float("nan")
            path.write_text(json.dumps(schedule))
        code = main(["train-made", "--config", write_cfg(tmp_path), "--out", str(run)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "instance_0001.json" in err and "'optimize-qaoa'" in err
        assert not (run / "nets").exists()

    def test_refused_summary_exits_2(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        run = shutil.copytree(trained, tmp_path / "run")
        for ran in ("run-chains", "run-baselines"):
            assert main([ran, "--config", cfg, "--out", str(run)]) == EXIT_OK
        path = run / "chains" / "qaoa-hmc" / "instance_0001_trial00.json"
        path.write_text(path.read_text()[:40])
        capsys.readouterr()
        assert main(["metrics", "--config", cfg, "--out", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "instance_0001_trial00.json" in err and "'run-chains'" in err
        assert not (run / "metrics").exists()

    @pytest.mark.parametrize("algo, key", [
        ("qaoa-nmc", "counts"),
        ("pt-icm", "counts"),
        ("qaoa-hmc", "trial"),
        ("walksat", "seed"),
        ("walksat", "steps_to_enumerate"),
    ])
    def test_summary_without_key_exits_2(self, trained, tmp_path, capsys, algo, key):
        cfg = write_cfg(tmp_path)
        run = shutil.copytree(trained, tmp_path / "run")
        for ran in ("run-chains", "run-baselines"):
            assert main([ran, "--config", cfg, "--out", str(run)]) == EXIT_OK
        path = run / "chains" / algo / "instance_0000_trial00.json"
        summary = json.loads(path.read_text())
        del summary[key]
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["metrics", "--config", cfg, "--out", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        stage = "run-chains" if algo.startswith("qaoa") else "run-baselines"
        assert f"{algo}/instance_0000_trial00.json" in err and f"'{stage}'" in err
        assert key in err
        assert not (run / "metrics").exists()

    @pytest.mark.parametrize("damage, name", [
        ("repeated_variable", "instance_0000.cnf"),
        ("missing_last_clause", "instance_0001.cnf"),
        ("manifest_not_json", "manifest.json"),
        ("non_solution", "manifest.json"),
        ("dropped_solution", "manifest.json"),
        ("non_binary_digit", "manifest.json"),
    ])
    def test_refused_instance_set_exits_2(self, trained, tmp_path, capsys, damage, name):
        run = shutil.copytree(trained, tmp_path / "run")
        path = run / "instances" / name
        if name == "manifest.json" and damage != "manifest_not_json":
            manifest = json.loads(path.read_text())
            entry = manifest["entries"][-1]
            solutions = entry["solutions"]
            if damage == "non_binary_digit":
                # "2" once read as a 1 bit, so the damaged entry named the same state
                i = next(i for i, s in enumerate(solutions) if "1" in s)
                solutions[i] = solutions[i].replace("1", "2", 1)
            elif damage == "non_solution":
                # the manifest lists every solution, so any other string is none
                n = entry["n_vars"]
                solutions[0] = next(b for b in (format(z, f"0{n}b") for z in range(1 << n))
                                    if b not in solutions)
            else:
                del solutions[0]
            path.write_text(json.dumps(manifest))
        else:
            lines = path.read_text().splitlines(keepends=True)
            if damage == "repeated_variable":
                lines[1] = "1 -1 0\n"  # the first clause, after the header
            elif damage == "missing_last_clause":
                del lines[-1]
            else:
                del lines[1:]
            path.write_text("".join(lines))
        cfg = write_cfg(tmp_path)
        capsys.readouterr()
        for stage in ("gen-instances", "run-chains", "run-baselines", "metrics"):
            assert main([stage, "--config", cfg, "--out", str(run)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert name in err and "'gen-instances'" in err
        assert not (run / "chains").exists()
        assert not (run / "metrics").exists()

    def test_config_that_runs_nothing_exits_2(self, tmp_path, capsys):
        # PT-ICM runs at k = 2 only, so at k = 3 this config has nothing to measure
        cfg = write_cfg(tmp_path, {"k": 3, "sizes": [5], "per_size": 1,
                                   "algorithms": ["pt-icm"]})
        run = tmp_path / "run"
        for stage in ("gen-instances", "run-baselines"):
            assert main([stage, "--config", cfg, "--out", str(run)]) == EXIT_OK
        capsys.readouterr()
        assert main(["metrics", "--config", cfg, "--out", str(run)]) == EXIT_CONFIG
        assert "runs no algorithm" in capsys.readouterr().err
        assert not (run / "metrics").exists()

    def test_threads_give_identical_outputs(self, trained, tmp_path):
        cfg = write_cfg(tmp_path)
        trees = []
        for threads in ("2", "1"):
            run = shutil.copytree(trained, tmp_path / f"t{threads}")
            for stage in ("run-chains", "run-baselines", "metrics"):
                assert main([stage, "--config", cfg, "--out", str(run),
                              "--threads", threads]) == EXIT_OK
            trees.append({part: tree_bytes(run / part) for part in ("chains", "metrics")})
        assert len(trees[0]["chains"]) == 2 * 2 * 2 + 2 + 2 * 2
        assert trees[0] == trees[1]


class TestFixedAngles:
    def test_nets_train_on_the_fixed_schedule(self, trained, tmp_path):
        # with use_fixed_angles every net trains on draws from the one
        # schedules/fixed_angles.json, made with that net's own seed
        run = tmp_path / "run"
        for part in ("instances", "schedules"):
            shutil.copytree(trained / part, run / part)
        cfg = ExperimentConfig.from_dict({**TINY, "use_fixed_angles": True})
        path = write_cfg(tmp_path, {"use_fixed_angles": True})
        assert main(["train-made", "--config", path, "--out", str(run)]) == EXIT_OK
        fixed = schedule_from_json(
            json.loads((run / "schedules" / "fixed_angles.json").read_text()))
        params = expand(fixed, cfg.qaoa_depth)
        entries = load_instance_set(run / "instances").entries
        assert len(entries) >= 2
        differ = []
        for i, entry in enumerate(entries):
            state = run_qaoa(to_ising(entry.formula), params.gammas, params.betas)
            draws = sample(state, cfg.train_samples,
                           np.random.default_rng(derive_seed(cfg.seed, "net", i)))
            name = f"instance_{i:04d}.json"
            digest = json.loads((run / "nets" / name).read_text())["training_data_digest"]
            assert digest == training_digest(draws)
            per_instance = json.loads((trained / "nets" / name).read_text())
            differ.append(digest != per_instance["training_data_digest"])
        assert any(differ)

    def test_every_json_file_is_strict(self, trained, tmp_path):
        # NaN and Infinity are not JSON: strict readers (jq, JSON.parse)
        # refuse them, so no stage may write one; the fixed-angle schedule
        # has no expectation and says so with null
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        cfg = write_cfg(tmp_path)
        run = shutil.copytree(trained, tmp_path / "run")
        for stage in ("run-chains", "run-baselines", "metrics"):
            assert main([stage, "--config", cfg, "--out", str(run)]) == EXIT_OK
        paths = sorted(run.rglob("*.json"))
        assert {p.parent.name for p in paths} >= {
            "run", "instances", "schedules", "nets", "qaoa-nmc", "pt-icm", "walksat"}
        for path in paths:
            json.loads(path.read_text(), parse_constant=refuse)
        fixed = json.loads((run / "schedules" / "fixed_angles.json").read_text())
        assert fixed["expectation"] is None


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
        # the two chain samplers' rows, captured when their candidates'
        # energies were evaluated term by term; must not change
        rows = [r for r in text.splitlines() if r.split(",")[1] in ("qe-mcmc", "qaoa-nmc")]
        assert len(rows) == 26
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
            "8c04920b3d6ba26c582b9abfede9157e11ef5d88e249540f8c7d5d1c61e68da3")
        assert (out / "fairness_summary.csv").exists()

    def test_fig2_small(self, tmp_path, monkeypatch):
        # three anneal times; the 30 of ANNEAL_GRID would make the test seconds slower
        monkeypatch.setattr(experiments, "ANNEAL_GRID", np.geomspace(1.0, 8.0, 3))
        cfg = tmp_path / "f2.json"
        cfg.write_text(json.dumps({"kind": "ANNEAL_SWEEP", "qaoa_starts": 2, "seed": 3}))
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
        assert [r["check"] for r in report] == [
            "made_kernel_detailed_balance", "ssf_sweep_stationarity",
            "hybrid_stationarity", "qe_kernel_detailed_balance",
            "made_normalization", "made_corrupted_mask_detected",
            "made_gradient_check", "sat_ising_equivalence",
            "icm_pair_energy_conserved", "qaoa_expm_oracle",
            "qaoa_adjoint_gradient", "evolve_expm_oracle", "measurement_chi2",
            "mixer_kronecker_oracle", "made_training_reproducible",
        ]
