"""Experiment pipelines: instance sets, schedules, nets, chains, baselines,
metrics, and the self-check validation suite.

Every run writes a fully-resolved config into its output directory and
derives all task seeds from (config seed, stage, task indices), so a re-run
over the same directory reproduces identical outputs; finished stages are
detected by their files and skipped.  Stages communicate only through files:

    instances/   DIMACS + manifest.json + degeneracy.csv
    schedules/   per-instance linear schedules + fixed_angles.json
    nets/        per-instance network checkpoints
    chains/      <algo>/ per-trial summaries of every algorithm: samplers and
                 PT-ICM (counts over solutions, steps), WalkSAT (solutions
                 found, flips)
    metrics/     records.csv (one row per instance and algorithm),
                 summary.csv (aggregated per k, N, algorithm),
                 superiority.csv (pairwise step wins; only when at least two
                 algorithms finished an instance) and trials.csv (per-trial
                 step counts and seeds)
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import fairmc
from fairmc import made as made_mod
from fairmc.baselines import (
    PtIcmConfig,
    WalkSatConfig,
    geometric_beta_ladder,
    pt_icm_run,
    walksat_enumerate,
)
from fairmc.fileio import atomic_write
from fairmc.fixtures import FIXTURE_NAMES, SIXFOLD_FIXTURE, load_fixture
from fairmc.ising import IsingModel, SpinConfig, Temperature, ground_states_bruteforce
from fairmc.made import TrainConfig, save_checkpoint, train
from fairmc.mcmc import HybridUpdate, kernel_made, kernel_qe_mcmc, run_chain
from fairmc.metrics import (
    ResultRecord,
    aggregate,
    fairness,
    histogram,
    records_to_csv,
    rows_to_csv,
    steps_to_enumerate,
    superiority_counts,
)
from fairmc.qaoa import (
    effective_time,
    expand,
    fixed_angles_from_set,
    optimize,
    optimize_free,
    schedule_from_json,
    schedule_to_json,
)
from fairmc.qsim import linear_schedule, measure_distribution, run_annealing, run_qaoa, sample
from fairmc.sat import (
    ALPHA_C,
    build_instance_set,
    load_instance_set,
    save_instance_set,
    to_ising,
)

KINDS = ("SMALL_INSTANCES", "ANNEAL_SWEEP", "KSAT_FAIRNESS", "KSAT_COUNTING")
SAMPLER_ALGOS = ("qaoa-nmc", "qaoa-hmc")
ALL_ALGOS = SAMPLER_ALGOS + ("pt-icm", "walksat")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """A required earlier stage has not produced its files yet."""


@dataclass
class ExperimentConfig:
    kind: str
    k: int = 2
    sizes: tuple[int, ...] = (8, 9, 10, 11, 12, 13, 14, 15, 16)
    per_size: int = 100
    alpha_c: float | None = None  # None -> standard threshold for k
    beta: float = 10.0
    qaoa_depth: int = 5
    qaoa_starts: int = 10
    use_fixed_angles: bool = False
    train_samples: int = 1000
    made_epochs: int = 500
    made_batch: int = 64
    made_lr: float = 1e-3
    chain_steps: int = 10_000
    trials: int = 10
    algorithms: tuple[str, ...] = ALL_ALGOS
    pt_n_temps: int = 8
    pt_beta_min: float = 0.1
    pt_sweeps: int = 1
    pt_icm_every: int = 1
    pt_rounds: int | None = None  # None -> match sampler transition counts
    walksat_noise: float = 0.5
    walksat_max_flips: int = 10**6
    walksat_variant: str = "lm"
    anneal_time: float = 1000.0
    anneal_grid_min: float = 0.1
    anneal_grid_max: float = 1000.0
    anneal_grid_points: int = 30
    samples: int = 1000  # measurement/trace draws for the small instances
    save_traces: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.k not in (2, 3):
            raise ConfigError("k must be 2 or 3")
        unknown = set(self.algorithms) - set(ALL_ALGOS)
        if unknown:
            raise ConfigError(f"unknown algorithms {sorted(unknown)}")
        if not (math.isfinite(self.anneal_time) and self.anneal_time >= 0):
            raise ConfigError(
                f"anneal_time must be finite and non-negative, got {self.anneal_time}")
        lo, hi = self.anneal_grid_min, self.anneal_grid_max
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise ConfigError(
                f"anneal grid needs finite 0 < anneal_grid_min <= anneal_grid_max, "
                f"got {lo}, {hi}")
        if self.anneal_grid_points < 1:
            raise ConfigError(
                f"anneal_grid_points must be at least 1, got {self.anneal_grid_points}")
        if self.alpha_c is None:
            self.alpha_c = ALPHA_C[self.k]
        self.sizes = tuple(self.sizes)
        self.algorithms = tuple(self.algorithms)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        valid = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - valid
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "kind" not in d:
            raise ConfigError("config needs a 'kind'")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def resolved(self) -> dict:
        d = asdict(self)
        d["fairmc_version"] = fairmc.__version__
        return d


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from structured parts (platform independent)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def write_resolved_config(cfg: ExperimentConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "resolved_config.json") as f:
        json.dump(cfg.resolved(), f, indent=1, sort_keys=True)


def _par_map(fn, tasks, threads: int):
    """Order-preserving map, optionally across processes.  Tasks are
    independent and seeded, so results do not depend on `threads`."""
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# k-SAT pipeline stages


def stage_instances(cfg: ExperimentConfig, out: Path):
    inst_dir = out / "instances"
    if (inst_dir / "manifest.json").exists():
        return load_instance_set(inst_dir)
    instset = build_instance_set(
        cfg.sizes, cfg.k, cfg.per_size, cfg.alpha_c, derive_seed(cfg.seed, "instances")
    )
    save_instance_set(instset, inst_dir)
    rows = [
        {"k": cfg.k, "n": e.formula.n_vars, "instance": i,
         "n_solutions": len(e.solutions)}
        for i, e in enumerate(instset.entries)
    ]
    rows_to_csv(rows, inst_dir / "degeneracy.csv")
    return instset


def _require_stage(path: Path, stage_cmd: str):
    if not path.exists():
        raise StageError(f"missing {path}; run the '{stage_cmd}' stage first")


def _optimize_one(args):
    model_dict, p, starts, seed = args
    model = IsingModel.from_json_dict(model_dict)
    schedule, _ = optimize(model, p, starts, np.random.default_rng(seed))
    value = _schedule_value(model, schedule, p)
    return schedule, value


def _schedule_value(model, schedule, p):
    from fairmc.qaoa import expectation

    return expectation(model, expand(schedule, p))


def stage_schedules(cfg: ExperimentConfig, out: Path, threads: int = 1):
    inst_dir = out / "instances"
    _require_stage(inst_dir / "manifest.json", "gen-instances")
    instset = load_instance_set(inst_dir)
    sched_dir = out / "schedules"
    sched_dir.mkdir(exist_ok=True)

    todo = []
    for i, entry in enumerate(instset.entries):
        if not (sched_dir / f"instance_{i:04d}.json").exists():
            todo.append(
                (i, (to_ising(entry.formula).to_json_dict(), cfg.qaoa_depth,
                     cfg.qaoa_starts, derive_seed(cfg.seed, "schedule", i)))
            )
    results = _par_map(_optimize_one, [t[1] for t in todo], threads)
    for (i, _), (schedule, value) in zip(todo, results):
        with atomic_write(sched_dir / f"instance_{i:04d}.json") as f:
            json.dump(schedule_to_json(schedule, cfg.qaoa_depth, value), f, indent=1)

    schedules = []
    for i in range(len(instset.entries)):
        with open(sched_dir / f"instance_{i:04d}.json") as f:
            schedules.append(schedule_from_json(json.load(f)))
    fa = fixed_angles_from_set(schedules)
    with atomic_write(sched_dir / "fixed_angles.json") as f:
        json.dump(schedule_to_json(fa.schedule, cfg.qaoa_depth, math.nan), f, indent=1)
    return schedules


def _train_one(args):
    model_dict, sched_dict, p, n_samples, train_kwargs, seed = args
    model = IsingModel.from_json_dict(model_dict)
    params = expand(schedule_from_json(sched_dict), p)
    state = run_qaoa(model, params.gammas, params.betas)
    draws = sample(state, n_samples, np.random.default_rng(seed))
    net, curve = train(draws, TrainConfig(rng_seed=seed, **train_kwargs))
    return net, curve[-1], made_mod.training_digest(draws)


def stage_nets(cfg: ExperimentConfig, out: Path, threads: int = 1):
    inst_dir = out / "instances"
    sched_dir = out / "schedules"
    _require_stage(inst_dir / "manifest.json", "gen-instances")
    _require_stage(sched_dir / "fixed_angles.json", "optimize-qaoa")
    instset = load_instance_set(inst_dir)
    nets_dir = out / "nets"
    nets_dir.mkdir(exist_ok=True)

    todo = []
    for i, entry in enumerate(instset.entries):
        if (nets_dir / f"instance_{i:04d}.json").exists():
            continue
        sched_file = (
            sched_dir / "fixed_angles.json"
            if cfg.use_fixed_angles
            else sched_dir / f"instance_{i:04d}.json"
        )
        with open(sched_file) as f:
            sched_dict = json.load(f)
        train_kwargs = dict(
            epochs=cfg.made_epochs, batch_size=cfg.made_batch,
            learning_rate=cfg.made_lr,
        )
        todo.append(
            (i, (to_ising(entry.formula).to_json_dict(), sched_dict, cfg.qaoa_depth,
                 cfg.train_samples, train_kwargs, derive_seed(cfg.seed, "net", i)))
        )
    results = _par_map(_train_one, [t[1] for t in todo], threads)
    for (i, _), (net, nll, digest) in zip(todo, results):
        save_checkpoint(net, nets_dir / f"instance_{i:04d}.json", digest=digest)


def _summary_path(out: Path, algo: str, instance: int, trial: int) -> Path:
    return out / "chains" / algo / f"instance_{instance:04d}_trial{trial:02d}.json"


def _write_summary(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as f:
        json.dump(payload, f)


def _chain_summary(trace, solutions, algo, instance, trial, seed, extra=None):
    hist = histogram(trace, solutions)
    steps = steps_to_enumerate(trace, solutions)
    payload = {
        "algorithm": algo,
        "instance": instance,
        "trial": trial,
        "seed": seed,
        "counts": hist.counts.tolist(),
        "total_gs_samples": hist.total_gs_samples,
        "steps_to_enumerate": steps,
        "n_steps": trace.n_steps,
        "n_transitions": trace.n_transitions,
    }
    if extra:
        payload.update(extra)
    return payload


def _run_sampler_trial(args):
    (model_dict, solutions_bits, n_vars, algo, net_dict, beta, steps, instance,
     trial, seed, save_traces, out_str) = args
    model = IsingModel.from_json_dict(model_dict)
    solutions = [SpinConfig(b, n_vars) for b in solutions_bits]
    net = made_mod.MadeNetwork.from_json_dict(net_dict)
    update = kernel_made(net) if algo == "qaoa-nmc" else HybridUpdate(net)
    trace = run_chain(model, Temperature(beta), update, steps, rng_seed=seed)
    if save_traces:
        tdir = Path(out_str) / "traces" / algo
        tdir.mkdir(parents=True, exist_ok=True)
        trace.save(tdir / f"instance_{instance:04d}_trial{trial:02d}.npz")
        trace.to_csv(tdir / f"instance_{instance:04d}_trial{trial:02d}.csv")
    return _chain_summary(trace, solutions, algo, instance, trial, seed)


def stage_chains(cfg: ExperimentConfig, out: Path, threads: int = 1):
    inst_dir = out / "instances"
    nets_dir = out / "nets"
    _require_stage(inst_dir / "manifest.json", "gen-instances")
    instset = load_instance_set(inst_dir)
    algos = [a for a in cfg.algorithms if a in SAMPLER_ALGOS]
    if algos:
        _require_stage(nets_dir / "instance_0000.json", "train-made")

    tasks = []
    for i, entry in enumerate(instset.entries):
        net_dict = None
        for algo in algos:
            for trial in range(cfg.trials):
                path = _summary_path(out, algo, i, trial)
                if path.exists():
                    continue
                if net_dict is None:
                    with open(nets_dir / f"instance_{i:04d}.json") as f:
                        net_dict = json.load(f)
                tasks.append(
                    (to_ising(entry.formula).to_json_dict(),
                     [s.bits for s in entry.solutions],
                     entry.formula.n_vars,
                     algo,
                     net_dict,
                     cfg.beta,
                     cfg.chain_steps,
                     i,
                     trial,
                     derive_seed(cfg.seed, "chain", algo, i, trial),
                     cfg.save_traces,
                     str(out))
                )
    results = _par_map(_run_sampler_trial, tasks, threads)
    for task, payload in zip(tasks, results):
        algo, instance, trial = task[3], task[7], task[8]
        _write_summary(_summary_path(out, algo, instance, trial), payload)


def _matched_pt_rounds(cfg: ExperimentConfig, n: int) -> int:
    # match the samplers' pooled transition counts: trials * steps * (N+1)
    # sampler transitions vs ~(N+2) recorded transitions per PT round
    total = cfg.trials * cfg.chain_steps * (n + 1)
    return max(1, total // (n + 2))


def _run_pt_trial(args):
    (model_dict, solutions_bits, n_vars, cfg_dict, rounds, instance, seed) = args
    model = IsingModel.from_json_dict(model_dict)
    solutions = [SpinConfig(b, n_vars) for b in solutions_bits]
    pt_cfg = PtIcmConfig(
        replica_betas=geometric_beta_ladder(
            cfg_dict["pt_n_temps"], cfg_dict["pt_beta_min"], cfg_dict["beta"]
        ),
        sweeps_between_exchanges=cfg_dict["pt_sweeps"],
        icm_every=cfg_dict["pt_icm_every"],
        rng_seed=seed,
    )
    trace, stats = pt_icm_run(model, pt_cfg, rounds)
    extra = {
        "exchange_attempts": stats.exchange_attempts,
        "exchange_accepts": stats.exchange_accepts,
        "icm_attempts": stats.icm_attempts,
        "icm_moves": stats.icm_moves,
        "total_transitions_all_replicas": stats.total_transitions,
    }
    return _chain_summary(trace, solutions, "pt-icm", instance, 0, seed, extra)


def _run_walksat_trial(args):
    (formula_path, solutions_bits, n_vars, ws_kwargs, instance, trial, seed) = args
    from fairmc.sat import read_dimacs

    formula = read_dimacs(formula_path)
    res = walksat_enumerate(formula, WalkSatConfig(rng_seed=seed, **ws_kwargs))
    found_bits = [s.bits for s in res.solutions]
    return {
        "algorithm": "walksat",
        "instance": instance,
        "trial": trial,
        "seed": seed,
        "found": found_bits,
        "flips_at_solution": res.flips_at_solution,
        "total_flips": res.total_flips,
        "complete": res.complete,
        "steps_to_enumerate": (
            res.flips_to_last_solution
            if res.complete and set(found_bits) == set(solutions_bits)
            else None
        ),
    }


def stage_baselines(cfg: ExperimentConfig, out: Path, threads: int = 1):
    inst_dir = out / "instances"
    _require_stage(inst_dir / "manifest.json", "gen-instances")
    instset = load_instance_set(inst_dir)

    if "pt-icm" in cfg.algorithms and cfg.k == 2:
        tasks, paths = [], []
        for i, entry in enumerate(instset.entries):
            path = _summary_path(out, "pt-icm", i, 0)
            if path.exists():
                continue
            n = entry.formula.n_vars
            rounds = cfg.pt_rounds or _matched_pt_rounds(cfg, n)
            tasks.append(
                (to_ising(entry.formula).to_json_dict(),
                 [s.bits for s in entry.solutions], n,
                 {"pt_n_temps": cfg.pt_n_temps, "pt_beta_min": cfg.pt_beta_min,
                  "beta": cfg.beta, "pt_sweeps": cfg.pt_sweeps,
                  "pt_icm_every": cfg.pt_icm_every},
                 rounds, i, derive_seed(cfg.seed, "pt", i))
            )
            paths.append(path)
        for path, payload in zip(paths, _par_map(_run_pt_trial, tasks, threads)):
            _write_summary(path, payload)

    if "walksat" in cfg.algorithms:
        tasks, paths = [], []
        ws_kwargs = {
            "noise_p": cfg.walksat_noise,
            "max_flips": cfg.walksat_max_flips,
            "variant": cfg.walksat_variant,
        }
        for i, entry in enumerate(instset.entries):
            for trial in range(cfg.trials):
                path = _summary_path(out, "walksat", i, trial)
                if path.exists():
                    continue
                tasks.append(
                    (str(inst_dir / f"instance_{i:04d}.cnf"),
                     [s.bits for s in entry.solutions], entry.formula.n_vars,
                     ws_kwargs, i, trial, derive_seed(cfg.seed, "walksat", i, trial))
                )
                paths.append(path)
        for path, payload in zip(paths, _par_map(_run_walksat_trial, tasks, threads)):
            _write_summary(path, payload)


def _load_summaries(out: Path, algo: str, instance: int) -> list[dict]:
    algo_dir = out / "chains" / algo
    if not algo_dir.exists():
        return []
    out_list = []
    for path in sorted(algo_dir.glob(f"instance_{instance:04d}_trial*.json")):
        with open(path) as f:
            out_list.append(json.load(f))
    return out_list


def stage_metrics(cfg: ExperimentConfig, out: Path):
    inst_dir = out / "instances"
    _require_stage(inst_dir / "manifest.json", "gen-instances")
    instset = load_instance_set(inst_dir)
    mdir = out / "metrics"
    mdir.mkdir(exist_ok=True)

    records: list[ResultRecord] = []
    trial_rows: list[dict] = []
    algos_present = [
        a for a in cfg.algorithms
        if (out / "chains" / a).exists()
    ]
    if not algos_present:
        raise StageError("no chain/baseline summaries; run 'run-chains' or "
                         "'run-baselines' first")

    for i, entry in enumerate(instset.entries):
        n = entry.formula.n_vars
        n_ground = len(entry.solutions)
        for algo in algos_present:
            summaries = _load_summaries(out, algo, i)
            if not summaries:
                continue
            steps_list = []
            for s in summaries:
                trial_rows.append(
                    {"k": cfg.k, "n": n, "instance": i, "algorithm": algo,
                     "trial": s["trial"], "seed": s["seed"],
                     "steps": s["steps_to_enumerate"]}
                )
                if s["steps_to_enumerate"] is not None:
                    steps_list.append(s["steps_to_enumerate"])
            mean_steps = float(np.mean(steps_list)) if steps_list else None

            if algo == "walksat":
                all_found = any(
                    s["complete"]
                    and set(s["found"]) == {sol.bits for sol in entry.solutions}
                    for s in summaries
                )
                ratio, tvd = None, math.nan
            else:
                counts = np.sum([np.array(s["counts"]) for s in summaries], axis=0)
                hist = metrics_hist(entry.solutions, counts)
                rep = fairness(hist)
                all_found, ratio, tvd = rep.all_found, rep.max_min_ratio, rep.tvd_to_uniform
            records.append(
                ResultRecord(
                    k=cfg.k, n=n, algorithm=algo, instance=i, n_ground=n_ground,
                    max_min_ratio=ratio, all_found=all_found,
                    tvd_to_uniform=tvd, steps=mean_steps,
                )
            )

    records_to_csv(records, mdir / "records.csv")
    rows_to_csv(aggregate(records), mdir / "summary.csv")
    sup = superiority_counts(records)
    if sup:
        rows_to_csv(sup, mdir / "superiority.csv")
    rows_to_csv(trial_rows, mdir / "trials.csv")
    return records


def metrics_hist(solutions, counts):
    from fairmc.metrics import GroundStateHistogram

    gs = tuple(sorted(solutions, key=lambda s: s.bits))
    counts = np.asarray(counts, dtype=float)
    return GroundStateHistogram(gs, counts, float(counts.sum()))


def run_ksat(cfg: ExperimentConfig, out: Path, threads: int = 1):
    write_resolved_config(cfg, out)
    stage_instances(cfg, out)
    stage_schedules(cfg, out, threads)
    stage_nets(cfg, out, threads)
    stage_chains(cfg, out, threads)
    stage_baselines(cfg, out, threads)
    return stage_metrics(cfg, out)


# ---------------------------------------------------------------------------
# small fixed instances


def _restricted_rows(name, method, hist):
    freqs = hist.frequencies()
    return [
        {"fixture": name, "method": method, "bitstring": s.to_bitstring(),
         "frequency": float(freqs[i])}
        for i, s in enumerate(hist.ground_states)
    ]


def run_small_instances(cfg: ExperimentConfig, out: Path):
    """Ground-state sampling comparison on the bundled five-site fixtures:
    annealing and circuit output distributions vs the two hybrid samplers."""
    write_resolved_config(cfg, out)
    rows, summary = [], []
    for fx_idx, name in enumerate(FIXTURE_NAMES):
        model = load_fixture(name)
        emin, gs = ground_states_bruteforce(model)

        qa_state = run_annealing(model, linear_schedule(cfg.anneal_time))
        qa_hist = histogram(measure_distribution(qa_state), gs)

        params, _ = optimize_free(
            model, cfg.qaoa_depth, cfg.qaoa_starts,
            np.random.default_rng(derive_seed(cfg.seed, "fx-qaoa", fx_idx)),
        )
        qaoa_state = run_qaoa(model, params.gammas, params.betas)
        qaoa_hist = histogram(measure_distribution(qaoa_state), gs)

        qe_trace = run_chain(
            model, Temperature(cfg.beta), kernel_qe_mcmc(model), cfg.samples,
            rng_seed=derive_seed(cfg.seed, "fx-qe", fx_idx),
        )
        qe_hist = histogram(qe_trace, gs)

        draws = sample(
            qaoa_state, cfg.train_samples,
            np.random.default_rng(derive_seed(cfg.seed, "fx-train", fx_idx)),
        )
        net, _ = train(
            draws,
            TrainConfig(epochs=cfg.made_epochs, batch_size=cfg.made_batch,
                        learning_rate=cfg.made_lr,
                        rng_seed=derive_seed(cfg.seed, "fx-net", fx_idx)),
        )
        nmc_trace = run_chain(
            model, Temperature(cfg.beta), kernel_made(net), cfg.samples,
            rng_seed=derive_seed(cfg.seed, "fx-nmc", fx_idx),
        )
        nmc_hist = histogram(nmc_trace, gs)

        for method, hist in (
            ("qa", qa_hist), ("qaoa", qaoa_hist),
            ("qe-mcmc", qe_hist), ("qaoa-nmc", nmc_hist),
        ):
            rows.extend(_restricted_rows(name, method, hist))
            rep = fairness(hist)
            summary.append(
                {"fixture": name, "method": method, "n_ground": rep.n_ground,
                 "all_found": rep.all_found, "max_min_ratio": rep.max_min_ratio,
                 "tvd_to_uniform": rep.tvd_to_uniform,
                 "effective_time": effective_time(params) if method == "qaoa" else None}
            )
    rows_to_csv(rows, out / "ground_state_frequencies.csv")
    rows_to_csv(summary, out / "fairness_summary.csv")
    return summary


def run_anneal_sweep(cfg: ExperimentConfig, out: Path):
    """Anneal-time dependence of ground-state sampling on the sixfold fixture,
    with the optimized circuit's total effective time as a marker."""
    write_resolved_config(cfg, out)
    model = load_fixture(SIXFOLD_FIXTURE)
    _, gs = ground_states_bruteforce(model)
    grid = np.geomspace(cfg.anneal_grid_min, cfg.anneal_grid_max,
                        cfg.anneal_grid_points)
    rows = []
    for t_a in grid:
        state = run_annealing(model, linear_schedule(float(t_a)))
        hist = histogram(measure_distribution(state), gs)
        rep = fairness(hist)
        freqs = hist.frequencies()
        for i, s in enumerate(hist.ground_states):
            rows.append(
                {"anneal_time": float(t_a), "bitstring": s.to_bitstring(),
                 "frequency": float(freqs[i]), "max_min_ratio": rep.max_min_ratio}
            )
    rows_to_csv(rows, out / "anneal_sweep.csv")

    params, _ = optimize_free(
        model, cfg.qaoa_depth, cfg.qaoa_starts,
        np.random.default_rng(derive_seed(cfg.seed, "sweep-qaoa")),
    )
    marker = {"effective_time": effective_time(params),
              "gammas": list(params.gammas), "betas": list(params.betas)}
    with open(out / "effective_time_marker.json", "w") as f:
        json.dump(marker, f, indent=1)
    return marker


# ---------------------------------------------------------------------------
# validation suite


def _check(name, ok, detail=""):
    return {"check": name, "passed": bool(ok), "detail": detail}


def run_validation() -> list[dict]:
    """Fast oracle suite: exact transition matrices, normalization, gradients,
    the clause-penalty equivalence, cluster-move conservation, and the dense
    evolution oracles.  Each entry reports pass/fail with a measured value."""
    import itertools

    from scipy import stats as scistats
    from scipy.linalg import expm

    from fairmc.baselines import icm_move
    from fairmc.ising import basis_energies, energy
    from fairmc.made import MadeNetwork, _nll_and_grads, exact_probabilities
    from fairmc.qsim import basis_state, evolve_fixed, uniform_state
    from fairmc.sat import generate_instance, unsatisfied_counts_all

    results = []
    rng = np.random.default_rng(20240101)

    def rand_model(n, integer=True, n_terms=8):
        terms = []
        for _ in range(n_terms):
            order = int(rng.integers(1, 3))
            sites = sorted(rng.choice(n, size=order, replace=False).tolist())
            coeff = float(rng.choice([-1, 1])) if integer else float(rng.normal())
            terms.append((sites, coeff))
        return IsingModel.from_terms(n, terms)

    def rand_net(n):
        net = MadeNetwork(n, (4 * n,), rng=np.random.default_rng(7))
        g = np.random.default_rng(8)
        net.weights = [w + g.normal(size=w.shape) * 0.3 for w in net.weights]
        net.biases = [g.normal(size=b.shape) * 0.3 for b in net.biases]
        return net

    # detailed balance of the neural independence sampler, N=4
    model4 = rand_model(4)
    beta = 1.3
    e4 = basis_energies(model4)
    pi = np.exp(-beta * (e4 - e4.min()))
    pi /= pi.sum()
    net4 = rand_net(4)
    q = exact_probabilities(net4)
    p = np.zeros((16, 16))
    for z in range(16):
        for zp in range(16):
            if zp != z:
                lr = -beta * (e4[zp] - e4[z]) + math.log(q[z]) - math.log(q[zp])
                p[z, zp] = q[zp] * min(1.0, math.exp(lr))
        p[z, z] = 1.0 - p[z].sum()
    flow = pi[:, None] * p
    db = float(np.max(np.abs(flow - flow.T)))
    results.append(_check("made_kernel_detailed_balance", db < 1e-10, f"max={db:.2e}"))

    # sweep stationarity via permutation-averaged site updates
    site_mats = []
    for site in range(4):
        m = np.zeros((16, 16))
        for z in range(16):
            zp = z ^ (1 << site)
            a = min(1.0, math.exp(-beta * (e4[zp] - e4[z])))
            m[z, zp] = a
            m[z, z] = 1.0 - a
        site_mats.append(m)
    sweep = np.zeros((16, 16))
    perms = list(itertools.permutations(range(4)))
    for perm in perms:
        acc = np.eye(16)
        for s in perm:
            acc = acc @ site_mats[s]
        sweep += acc
    sweep /= len(perms)
    stat = float(np.abs(pi @ sweep - pi).sum())
    results.append(_check("ssf_sweep_stationarity", stat < 1e-9, f"l1={stat:.2e}"))
    hybrid = p @ sweep
    stat_h = float(np.abs(pi @ hybrid - pi).sum())
    results.append(_check("hybrid_stationarity", stat_h < 1e-9, f"l1={stat_h:.2e}"))

    # exhaustive normalization at N=12 and a corrupted-mask negative control
    net12 = rand_net(12)
    total = float(exact_probabilities(net12).sum())
    results.append(
        _check("made_normalization", abs(total - 1.0) < 1e-6, f"sum={total:.9f}")
    )
    corrupted = rand_net(6)
    corrupted.masks[-1] = np.ones_like(corrupted.masks[-1])  # breaks ordering
    bad_total = float(exact_probabilities(corrupted).sum())
    results.append(
        _check("made_corrupted_mask_detected", abs(bad_total - 1.0) > 1e-6,
               f"sum={bad_total:.6f}")
    )

    # analytic vs central-difference gradients on a tiny net
    gnet = MadeNetwork(3, (8,), rng=np.random.default_rng(9))
    batch = (np.random.default_rng(10).random((12, 3)) > 0.5).astype(float)
    _, gw, gb = _nll_and_grads(gnet, batch)
    worst = 0.0
    h = 1e-5
    for p_arr, g_arr in zip(gnet.weights + gnet.biases, gw + gb):
        flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up, _, _ = _nll_and_grads(gnet, batch)
            flat_p[idx] = orig - h
            dn, _, _ = _nll_and_grads(gnet, batch)
            flat_p[idx] = orig
            fd = (up - dn) / (2 * h)
            if abs(fd) > 1e-12 or abs(flat_g[idx]) > 1e-12:
                worst = max(worst, abs(fd - flat_g[idx]) / max(abs(fd), abs(flat_g[idx])))
    results.append(_check("made_gradient_check", worst < 1e-4, f"rel={worst:.2e}"))

    # clause penalty == unsatisfied count, exhaustive at N=10
    ok_sat = True
    for k in (2, 3):
        f = generate_instance(10, k, ALPHA_C[k], 99 + k)
        if not np.array_equal(
            basis_energies(to_ising(f)), unsatisfied_counts_all(f).astype(float)
        ):
            ok_sat = False
    results.append(_check("sat_ising_equivalence", ok_sat, "k=2,3 at N=10"))

    # cluster-move pair-energy conservation, exact
    ok_icm = True
    import random as pyrandom

    prng = pyrandom.Random(11)
    for _ in range(50):
        m2 = rand_model(6)
        a = SpinConfig(int(rng.integers(64)), 6)
        b = SpinConfig(int(rng.integers(64)), 6)
        na, nb = icm_move(a, b, m2, prng)
        if energy(m2, na) + energy(m2, nb) != energy(m2, a) + energy(m2, b):
            ok_icm = False
    results.append(_check("icm_pair_energy_conserved", ok_icm, "50 random moves"))

    # dense matrix-exponential oracles at N=3
    m3 = rand_model(3, integer=False)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    dim = 8
    hd = np.zeros((dim, dim))
    for i in range(3):
        op = np.array([[1.0]])
        for qb in reversed(range(3)):
            op = np.kron(op, sx if qb == i else np.eye(2))
        hd -= op
    hp = np.diag(basis_energies(m3))
    gammas, betas = [0.37, -0.21], [0.52, 0.18]
    u = np.eye(dim, dtype=complex)
    for g, b in zip(gammas, betas):
        u = expm(-1j * b * hd) @ expm(-1j * g * hp) @ u
    oracle = u @ uniform_state(3).amplitudes
    got = run_qaoa(m3, gammas, betas).amplitudes
    err_qaoa = float(np.max(np.abs(got - oracle)))
    results.append(_check("qaoa_expm_oracle", err_qaoa < 1e-10, f"max={err_qaoa:.2e}"))

    from fairmc.qsim import problem_norm_ratio

    w, t = 0.4, 1.3
    alpha = problem_norm_ratio(m3)
    h_mix = (1 - w) * alpha * hp + w * hd
    psi0 = basis_state(3, 5)
    oracle2 = expm(-1j * t * h_mix) @ psi0.amplitudes
    got2 = evolve_fixed(psi0, m3, w, t).amplitudes
    err_ev = float(np.max(np.abs(got2 - oracle2)))
    results.append(_check("evolve_expm_oracle", err_ev < 1e-7, f"max={err_ev:.2e}"))

    # measurement sampling chi-square
    state = run_qaoa(model4, [0.4, 0.2], [0.3, 0.5])
    probs = measure_distribution(state).probs
    draws = sample(state, 100_000, np.random.default_rng(12))
    counts = np.bincount([s.bits for s in draws], minlength=16)
    _, pval = scistats.chisquare(counts, f_exp=probs * 100_000)
    results.append(_check("measurement_chi2", pval > 0.001, f"p={pval:.4f}"))

    return results
