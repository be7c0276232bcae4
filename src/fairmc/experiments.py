"""Experiment pipelines: instance sets, schedules, nets, chains, baselines,
metrics, and the self-check validation suite.

Every run writes a fully-resolved config into its output directory and
derives all task seeds from (config seed, stage, task indices), so a re-run
over the same directory reproduces identical outputs.  A resume into a run
directory whose stored config differs from the current one is refused
(`ConfigError`), so outputs of two configs are never mixed.  Stages
communicate only through files, and each per-instance or per-trial task
writes its own file atomically: a task whose file exists is skipped, so a
stage stopped midway resumes with the tasks that did not finish.

    instances/   DIMACS + manifest.json + degeneracy.csv
    schedules/   per-instance linear schedules + fixed_angles.json, whose
                 `expectation` is null (the median schedule belongs to no
                 one instance); needs instances/, written only when a
                 sampler runs
    nets/        per-instance network checkpoints
                 (needs instances/ and schedules/fixed_angles.json; written
                 only when a sampler runs)
    chains/      <algo>/ per-trial summaries of every algorithm: samplers and
                 PT-ICM (counts over solutions, steps), WalkSAT (solutions
                 found, flips); the samplers need a net for every instance,
                 the baselines only instances/
    metrics/     records.csv (one row per instance and algorithm),
                 summary.csv (aggregated per k, N, algorithm),
                 superiority.csv (pairwise step wins; only when at least two
                 algorithms finished an instance) and trials.csv (per-trial
                 step counts and seeds); needs instances/ and chains/

A stage whose inputs are missing raises `StageError` naming the first
missing file; for `metrics` that includes any trial summary of an algorithm
the config runs, so partial runs are never pooled and an algorithm whose
stage never ran is not dropped.  A stage file that is refused (not the JSON
its reader expects, a non-finite schedule, a checkpoint `load_checkpoint`
refuses or of another size than its instance) raises `StageError` naming it
and the stage that writes it.  A config is refused with `ConfigError` at
load, before anything is written, if a count field, k, a size or the seed is
not an integer, anneal_time is not a finite non-negative number,
use_fixed_angles is not a bool, a count is below 1, sizes are empty,
repeated (a size's draws are seeded by the size, so a repeat builds the same
instances again) or outside k+1..24 (at n = k a 2-SAT draw has one solution,
and the instance filter keeps only draws with at least two; a 3-SAT draw
needs more distinct clauses than exist), or algorithms are empty or repeated
(metrics would pool a repeated one twice).
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import fairmc
from fairmc.baselines import pt_icm_run, walksat_enumerate
from fairmc.fileio import atomic_write
from fairmc.fixtures import FIXTURE_NAMES, SIXFOLD_FIXTURE, load_fixture
from fairmc.ising import (
    MAX_BRUTEFORCE_SITES,
    Temperature,
    ground_states_bruteforce,
)
from fairmc.made import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    training_digest,
)
from fairmc.mcmc import HybridUpdate, MadeKernel, QeKernel, run_chain
from fairmc.metrics import (
    INCOMPLETE,
    ResultRecord,
    aggregate,
    fairness,
    frequencies,
    histogram,
    rows_to_csv,
    superiority_counts,
    visits,
)
from fairmc.qaoa import (
    effective_time,
    expand,
    expectation,
    fixed_angles_from_set,
    optimize,
    optimize_free,
    schedule_from_json,
    schedule_to_json,
)
from fairmc.qsim import measure_distribution, run_annealing, run_qaoa, sample
from fairmc.sat import (
    ALPHA_C,
    build_instance_set,
    enumerate_solutions,
    load_instance_set,
    save_instance_set,
    to_ising,
)

KSAT_KINDS = ("KSAT_FAIRNESS", "KSAT_COUNTING")
KINDS = ("SMALL_INSTANCES", "ANNEAL_SWEEP", *KSAT_KINDS)
SAMPLER_ALGOS = ("qaoa-nmc", "qaoa-hmc")
ALL_ALGOS = SAMPLER_ALGOS + ("pt-icm", "walksat")
# config fields that count something and so must be integers of at least 1
COUNT_FIELDS = ("per_size", "qaoa_depth", "qaoa_starts", "train_samples", "made_epochs",
                "chain_steps", "trials", "walksat_max_flips", "samples")
# the target inverse temperature of every chain and the top of the PT-ICM ladder
BETA = 10.0
# PT-ICM's inverse temperatures: 8, geometric from 0.1 up to BETA
PT_BETAS = tuple(np.geomspace(0.1, BETA, 8).tolist())
# fig2's anneal times
ANNEAL_GRID = np.geomspace(0.1, 1000.0, 30)


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """A required earlier stage has not produced its files yet."""


@dataclass
class ExperimentConfig:
    """What an experiment varies.  A setting no experiment varies is a
    constant of the module that uses it; `train_config` and the baselines'
    plain arguments (`pt_icm_run`, `walksat_enumerate`) add what varies.
    MADE: `made.BATCH_SIZE`, `LEARNING_RATE`, the plateau stop
    `PLATEAU_EPOCHS` and `PLATEAU_TOL`, one hidden layer of width
    `HIDDEN_PER_INPUT` * N = 4N over the bits in natural order
    (`MadeNetwork`).  PT-ICM: the inverse temperatures `PT_BETAS`, a sweep
    and a Houdayer move a round (`pt_icm_run`), rounds from
    `_matched_pt_rounds`.  WalkSAT: WalkSATlm with `NOISE_P` and
    `LM_WEIGHTS`.  QE-MCMC: (w, t) from `mcmc.QE_DRIVER_WEIGHT_RANGE` and
    `QE_TIME_RANGE`.  Chains: the inverse temperature `BETA`, also the top
    of `PT_BETAS`.  Annealing: A(s) = 1 - s, B(s) = s over anneal_time T in
    ceil(64 sqrt(T)) CF4 steps (`run_annealing`); fig2's times `ANNEAL_GRID`.
    Density: `ALPHA_C[k]`."""

    kind: str
    k: int = 2
    sizes: tuple[int, ...] = (8, 9, 10, 11, 12, 13, 14, 15, 16)
    per_size: int = 100
    qaoa_depth: int = 5
    qaoa_starts: int = 10
    use_fixed_angles: bool = False
    train_samples: int = 1000
    made_epochs: int = 500
    chain_steps: int = 10_000
    trials: int = 10
    algorithms: tuple[str, ...] = ALL_ALGOS
    walksat_max_flips: int = 10**6
    anneal_time: float = 1000.0
    samples: int = 1000  # measurement/trace draws for the small instances
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # type() and not isinstance(): bool is an int subclass and is refused
        if type(self.k) is not int or self.k not in (2, 3):
            raise ConfigError(f"k must be 2 or 3, got {self.k!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if type(self.use_fixed_angles) is not bool:
            raise ConfigError(
                f"use_fixed_angles must be true or false, got {self.use_fixed_angles!r}")
        if type(self.anneal_time) not in (int, float):
            raise ConfigError(f"anneal_time must be a number, got {self.anneal_time!r}")
        unknown = set(self.algorithms) - set(ALL_ALGOS)
        if unknown:
            raise ConfigError(f"unknown algorithms {sorted(unknown)}")
        if not self.algorithms:
            raise ConfigError(f"algorithms must name at least one of {list(ALL_ALGOS)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError(f"algorithms must not repeat, got {list(self.algorithms)}")
        if not (math.isfinite(self.anneal_time) and self.anneal_time >= 0):
            raise ConfigError(
                f"anneal_time must be finite and non-negative, got {self.anneal_time}")
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
        self.sizes = tuple(self.sizes)
        if not self.sizes or not all(
                type(n) is int and self.k < n <= MAX_BRUTEFORCE_SITES for n in self.sizes):
            raise ConfigError(f"sizes must be a non-empty list of integers in "
                              f"{self.k + 1}..{MAX_BRUTEFORCE_SITES}, got {list(self.sizes)}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ConfigError(f"sizes must not repeat, got {list(self.sizes)}")
        self.algorithms = tuple(self.algorithms)

    @property
    def alpha_c(self) -> float:
        return ALPHA_C[self.k]

    @property
    def samplers(self) -> tuple[str, ...]:
        return tuple(a for a in self.algorithms if a in SAMPLER_ALGOS)

    @property
    def runs_pt_icm(self) -> bool:  # cluster moves need 2-body terms: 2-SAT only
        return self.kind in KSAT_KINDS and "pt-icm" in self.algorithms and self.k == 2

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.made_epochs, rng_seed=seed)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
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
        return cls.from_dict(_json_object(path))


def _json_object(path) -> dict:
    """The JSON object in the config file `path`, else ConfigError naming it."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from structured parts (platform independent)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def write_resolved_config(cfg: ExperimentConfig, out: Path) -> None:
    """Write `resolved_config.json` into a new run directory.  A run directory
    holds the outputs of one config, so a resume into it with a config whose
    resolved values differ, or whose stored file is not a JSON object, is
    refused and the stored file is left as it is."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resolved_config.json"
    resolved = {**asdict(cfg), "fairmc_version": fairmc.__version__}
    resolved = json.loads(json.dumps(resolved))  # tuples read back as lists
    if path.exists():
        stored = _json_object(path)
        differ = sorted(key for key in stored.keys() | resolved.keys()
                        if key not in stored or key not in resolved
                        or stored[key] != resolved[key])
        if differ:
            raise ConfigError(f"{out} holds a run of another config (keys differ: "
                              f"{', '.join(differ)}); use a new --out directory")
        return
    with atomic_write(path) as f:
        json.dump(resolved, f, indent=1, sort_keys=True)


def _run_missing(fn, tasks, threads: int) -> None:
    """Call `fn(*task)` for every task whose output path, its first item, does
    not exist yet, in order or across `threads` processes.  Each call writes
    its own file, so a stage stopped midway keeps the tasks that finished.
    Tasks are independent and seeded, so outputs do not depend on `threads`."""
    todo = [task for task in tasks if not task[0].exists()]
    if threads <= 1 or len(todo) <= 1:
        for task in todo:
            fn(*task)
        return
    # a forked pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(threads, len(todo))) as pool:
        list(pool.map(fn, *zip(*todo)))


# ---------------------------------------------------------------------------
# k-SAT pipeline stages


def stage_instances(cfg: ExperimentConfig, out: Path):
    inst_dir = out / "instances"
    if (inst_dir / "manifest.json").exists():
        return _instances(out)
    instset = build_instance_set(
        cfg.sizes, cfg.k, cfg.per_size, cfg.alpha_c, derive_seed(cfg.seed, "instances")
    )
    rows = [
        {"k": cfg.k, "n": e.formula.n_vars, "instance": i,
         "n_solutions": len(e.solutions)}
        for i, e in enumerate(instset.entries)
    ]
    inst_dir.mkdir(parents=True, exist_ok=True)
    rows_to_csv(rows, inst_dir / "degeneracy.csv")
    # the manifest marks the stage done, so it goes last
    save_instance_set(instset, inst_dir)
    return instset


def require_stage(path: Path, stage_cmd: str):
    if not path.exists():
        raise StageError(f"missing {path}; run the '{stage_cmd}' stage first")


@contextmanager
def _stage_file(path: Path, stage_cmd: str):
    """Turn a missing stage file `path`, or a refusal of it, into a StageError
    naming it."""
    require_stage(path, stage_cmd)
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise StageError(f"cannot use {path} ({exc}); delete it and run the "
                         f"'{stage_cmd}' stage again") from exc


def _instances(out: Path):
    """The instance set of `out`, refused unless each entry's solutions are
    exactly its formula's, as `enumerate_solutions` lists them."""
    inst_dir = out / "instances"
    with _stage_file(inst_dir / "manifest.json", "gen-instances"):
        instset = load_instance_set(inst_dir)
        for i, entry in enumerate(instset.entries):
            if list(entry.solutions) != enumerate_solutions(entry.formula):
                raise ValueError(f"entry {i} does not list the solutions of its formula")
    return instset


def _read_schedule(path: Path):
    with _stage_file(path, "optimize-qaoa"), open(path) as f:
        schedule = schedule_from_json(json.load(f))
        if not np.isfinite(schedule.as_array()).all():
            raise ValueError("non-finite schedule entries")
    return schedule


def _optimize_one(path, model, p, starts, seed):
    schedule = optimize(model, p, starts, np.random.default_rng(seed))
    value = expectation(model, expand(schedule, p))
    with atomic_write(path) as f:
        json.dump(schedule_to_json(schedule, p, value), f, indent=1)


def stage_schedules(cfg: ExperimentConfig, out: Path, threads: int = 1):
    instset = _instances(out)
    if not cfg.samplers:
        return None
    sched_dir = out / "schedules"
    sched_dir.mkdir(exist_ok=True)
    paths = [sched_dir / f"instance_{i:04d}.json" for i in range(len(instset.entries))]
    _run_missing(_optimize_one, [
        (path, to_ising(entry.formula), cfg.qaoa_depth, cfg.qaoa_starts,
         derive_seed(cfg.seed, "schedule", i))
        for i, (path, entry) in enumerate(zip(paths, instset.entries))
    ], threads)

    schedules = [_read_schedule(path) for path in paths]
    fixed = fixed_angles_from_set(schedules)
    with atomic_write(sched_dir / "fixed_angles.json") as f:
        json.dump(schedule_to_json(fixed, cfg.qaoa_depth, None), f, indent=1)
    return schedules


def _train_one(path, model, schedule, p, n_samples, train_cfg):
    params = expand(schedule, p)
    state = run_qaoa(model, params.gammas, params.betas)
    # one seed draws the training samples and seeds training
    draws = sample(state, n_samples, np.random.default_rng(train_cfg.rng_seed))
    net, _ = train(draws, train_cfg)
    save_checkpoint(net, path, digest=training_digest(draws))


def stage_nets(cfg: ExperimentConfig, out: Path, threads: int = 1):
    instset = _instances(out)
    if not cfg.samplers:
        return
    sched_dir = out / "schedules"
    require_stage(sched_dir / "fixed_angles.json", "optimize-qaoa")
    schedules = [
        _read_schedule(sched_dir / ("fixed_angles.json" if cfg.use_fixed_angles
                                    else f"instance_{i:04d}.json"))
        for i in range(len(instset.entries))
    ]
    nets_dir = out / "nets"
    nets_dir.mkdir(exist_ok=True)
    _run_missing(_train_one, [
        (nets_dir / f"instance_{i:04d}.json", to_ising(entry.formula), schedule,
         cfg.qaoa_depth, cfg.train_samples, cfg.train_config(derive_seed(cfg.seed, "net", i)))
        for i, (entry, schedule) in enumerate(zip(instset.entries, schedules))
    ], threads)


def _summary_path(out: Path, algo: str, instance: int, trial: int) -> Path:
    return out / "chains" / algo / f"instance_{instance:04d}_trial{trial:02d}.json"


def _write_summary(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as f:
        json.dump(payload, f)


def _chain_summary(trace, solutions, algo, instance, trial, seed, **extra):
    counts, steps = visits(trace.states, solutions)
    return {
        "algorithm": algo,
        "instance": instance,
        "trial": trial,
        "seed": seed,
        "counts": counts.tolist(),
        "total_gs_samples": float(counts.sum()),
        "steps_to_enumerate": steps,
        "n_steps": trace.n_steps,
        "n_transitions": trace.n_transitions,
        **extra,
    }


def _run_sampler_trial(path, model, solutions, algo, net, steps, instance, trial, seed):
    update = MadeKernel(net) if algo == "qaoa-nmc" else HybridUpdate(net)
    trace = run_chain(model, Temperature(BETA), update, steps, rng_seed=seed)
    _write_summary(path, _chain_summary(trace, solutions, algo, instance, trial, seed))


def stage_chains(cfg: ExperimentConfig, out: Path, threads: int = 1):
    instset = _instances(out)
    algos = cfg.samplers
    if not algos:
        return
    tasks = []
    for i, entry in enumerate(instset.entries):
        net_path = out / "nets" / f"instance_{i:04d}.json"
        with _stage_file(net_path, "train-made"):
            net = load_checkpoint(net_path)
            if net.n_inputs != entry.formula.n_vars:
                raise ValueError(f"{net.n_inputs} inputs for {entry.formula.n_vars} variables")
        model = to_ising(entry.formula)
        tasks += [
            (_summary_path(out, algo, i, trial), model, entry.solutions, algo, net,
             cfg.chain_steps, i, trial,
             derive_seed(cfg.seed, "chain", algo, i, trial))
            for algo in algos for trial in range(cfg.trials)
        ]
    _run_missing(_run_sampler_trial, tasks, threads)


def _matched_pt_rounds(cfg: ExperimentConfig, n: int) -> int:
    # match the samplers' pooled transition counts: trials * steps * (N+1)
    # sampler transitions vs ~(N+2) recorded transitions per PT round
    total = cfg.trials * cfg.chain_steps * (n + 1)
    return max(1, total // (n + 2))


def _run_pt_trial(path, model, solutions, rounds, instance, seed):
    trace, stats = pt_icm_run(model, PT_BETAS, rounds, seed)
    _write_summary(path, _chain_summary(
        trace, solutions, "pt-icm", instance, 0, seed,
        exchange_attempts=stats.exchange_attempts,
        exchange_accepts=stats.exchange_accepts,
        icm_attempts=stats.icm_attempts,
        icm_moves=stats.icm_moves,
        total_transitions_all_replicas=stats.total_transitions,
    ))


def _run_walksat_trial(path, formula, n_solutions, max_flips, instance, trial, seed):
    res = walksat_enumerate(formula, n_solutions, max_flips, seed)
    _write_summary(path, {
        "algorithm": "walksat",
        "instance": instance,
        "trial": trial,
        "seed": seed,
        "found": [s.bits for s in res.solutions],
        "flips_at_solution": res.flips_at_solution,
        "total_flips": res.total_flips,
        "complete": res.complete,
        # complete: as many distinct solutions as the exact count, so all of them
        "steps_to_enumerate": res.flips_to_last_solution if res.complete else INCOMPLETE,
    })


def stage_baselines(cfg: ExperimentConfig, out: Path, threads: int = 1):
    instset = _instances(out)
    if cfg.runs_pt_icm:
        _run_missing(_run_pt_trial, [
            (_summary_path(out, "pt-icm", i, 0), to_ising(entry.formula),
             entry.solutions, _matched_pt_rounds(cfg, entry.formula.n_vars), i,
             derive_seed(cfg.seed, "pt", i))
            for i, entry in enumerate(instset.entries)
        ], threads)

    if "walksat" in cfg.algorithms:
        _run_missing(_run_walksat_trial, [
            (_summary_path(out, "walksat", i, trial), entry.formula, len(entry.solutions),
             cfg.walksat_max_flips, i, trial, derive_seed(cfg.seed, "walksat", i, trial))
            for i, entry in enumerate(instset.entries) for trial in range(cfg.trials)
        ], threads)


def _load_summaries(cfg: ExperimentConfig, out: Path, algo: str, instance: int,
                    n_ground: int) -> list[dict]:
    """Every summary that `algo` must have for `instance`: trials
    0..trials-1, or trial 0 alone for PT-ICM.  A missing one, as a killed
    stage leaves, raises StageError instead of being pooled over; so does
    one that `stage_metrics` cannot pool: a key missing, a trial not its
    file's, steps_to_enumerate neither null nor an int >= 0 (WalkSAT may
    start on every solution), or counts not n_ground finite numbers >= 0."""
    stage = "run-chains" if algo in SAMPLER_ALGOS else "run-baselines"
    keys = ["trial", "seed", "steps_to_enumerate"]
    if algo != "walksat":
        keys.append("counts")
    summaries = []
    for trial in range(1 if algo == "pt-icm" else cfg.trials):
        path = _summary_path(out, algo, instance, trial)
        with _stage_file(path, stage):
            summary = json.loads(path.read_text())
            missing = [key for key in keys if key not in summary]
            if missing:
                raise ValueError(f"no {', '.join(missing)}")
            if type(summary["trial"]) is not int or summary["trial"] != trial:
                raise ValueError(f"trial {summary['trial']!r} in the file of trial {trial}")
            steps = summary["steps_to_enumerate"]
            if steps is not None and (type(steps) is not int or steps < 0):
                raise ValueError(f"steps_to_enumerate {steps!r}, not null or an int >= 0")
            counts = summary.get("counts", [0] * n_ground)  # WalkSAT counts none
            if type(counts) is not list or len(counts) != n_ground or not all(
                    type(c) in (int, float) and 0 <= c < math.inf for c in counts):
                raise ValueError(f"counts are not {n_ground} finite non-negative numbers")
            summaries.append(summary)
    return summaries


def stage_metrics(cfg: ExperimentConfig, out: Path):
    instset = _instances(out)
    records: list[ResultRecord] = []
    trial_rows: list[dict] = []
    algos = [a for a in cfg.algorithms if a != "pt-icm" or cfg.runs_pt_icm]
    if not algos:
        raise StageError("the config runs no algorithm here (PT-ICM runs at k = 2 "
                         "only), so there is nothing to measure")

    for i, entry in enumerate(instset.entries):
        n = entry.formula.n_vars
        n_ground = len(entry.solutions)
        for algo in algos:
            summaries = _load_summaries(cfg, out, algo, i, n_ground)
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
                all_found = bool(steps_list)
                ratio, tvd = None, math.nan
            else:
                rep = fairness(np.sum([s["counts"] for s in summaries], axis=0))
                all_found, ratio, tvd = rep.all_found, rep.max_min_ratio, rep.tvd_to_uniform
            records.append(
                ResultRecord(
                    k=cfg.k, n=n, algorithm=algo, instance=i, n_ground=n_ground,
                    max_min_ratio=ratio, all_found=all_found,
                    tvd_to_uniform=tvd, steps=mean_steps,
                )
            )

    mdir = out / "metrics"
    mdir.mkdir(exist_ok=True)
    rows_to_csv([asdict(r) for r in records], mdir / "records.csv")
    rows_to_csv(aggregate(records), mdir / "summary.csv")
    sup = superiority_counts(records)
    if sup:
        rows_to_csv(sup, mdir / "superiority.csv")
    rows_to_csv(trial_rows, mdir / "trials.csv")
    return records


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


def _restricted_rows(name, method, gs, counts):
    # gs in ascending-bits order, the order of the weights in `counts`
    return [
        {"fixture": name, "method": method, "bitstring": s.to_bitstring(),
         "frequency": float(f)}
        for s, f in zip(gs, frequencies(counts))
    ]


def run_small_instances(cfg: ExperimentConfig, out: Path):
    """Ground-state sampling comparison on the bundled five-site fixtures:
    annealing and circuit output distributions vs the two hybrid samplers."""
    write_resolved_config(cfg, out)
    rows, summary = [], []
    for fx_idx, name in enumerate(FIXTURE_NAMES):
        model = load_fixture(name)
        emin, gs = ground_states_bruteforce(model)

        qa_state = run_annealing(model, cfg.anneal_time)
        qa_counts = histogram(measure_distribution(qa_state), gs)

        params = optimize_free(
            model, cfg.qaoa_depth, cfg.qaoa_starts,
            np.random.default_rng(derive_seed(cfg.seed, "fx-qaoa", fx_idx)),
        )
        qaoa_state = run_qaoa(model, params.gammas, params.betas)
        qaoa_counts = histogram(measure_distribution(qaoa_state), gs)

        qe_trace = run_chain(
            model, Temperature(BETA), QeKernel(), cfg.samples,
            rng_seed=derive_seed(cfg.seed, "fx-qe", fx_idx),
        )
        qe_counts, _ = visits(qe_trace.states, gs)

        draws = sample(
            qaoa_state, cfg.train_samples,
            np.random.default_rng(derive_seed(cfg.seed, "fx-train", fx_idx)),
        )
        net, _ = train(draws, cfg.train_config(derive_seed(cfg.seed, "fx-net", fx_idx)))
        nmc_trace = run_chain(
            model, Temperature(BETA), MadeKernel(net), cfg.samples,
            rng_seed=derive_seed(cfg.seed, "fx-nmc", fx_idx),
        )
        nmc_counts, _ = visits(nmc_trace.states, gs)

        for method, counts in (
            ("qa", qa_counts), ("qaoa", qaoa_counts),
            ("qe-mcmc", qe_counts), ("qaoa-nmc", nmc_counts),
        ):
            rows.extend(_restricted_rows(name, method, gs, counts))
            rep = fairness(counts)
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
    rows = []
    for t_a in ANNEAL_GRID:
        state = run_annealing(model, float(t_a))
        counts = histogram(measure_distribution(state), gs)
        rep = fairness(counts)
        for s, f in zip(gs, frequencies(counts)):
            rows.append(
                {"anneal_time": float(t_a), "bitstring": s.to_bitstring(),
                 "frequency": float(f), "max_min_ratio": rep.max_min_ratio}
            )
    rows_to_csv(rows, out / "anneal_sweep.csv")

    params = optimize_free(
        model, cfg.qaoa_depth, cfg.qaoa_starts,
        np.random.default_rng(derive_seed(cfg.seed, "sweep-qaoa")),
    )
    marker = {"effective_time": effective_time(params),
              "gammas": list(params.gammas), "betas": list(params.betas)}
    with atomic_write(out / "effective_time_marker.json") as f:
        json.dump(marker, f, indent=1)
    return marker


# ---------------------------------------------------------------------------
# validation suite


def _check(name, ok, detail=""):
    return {"check": name, "passed": bool(ok), "detail": detail}


def run_validation() -> list[dict]:
    """Fast oracle suite.  Each entry reports pass/fail with a measured value.

    Exact transition matrices from `fairmc.exact` pin detailed balance of
    the MADE independence kernel and of the QE kernel at a fixed (w, t)
    draw, and stationarity of the single-spin-flip sweep and the hybrid
    composite.  Then MADE normalization and gradients, the clause-penalty
    equivalence, cluster-move conservation, the dense QAOA, its adjoint
    gradient and time evolution against scipy's expm, a sampling
    chi-square, the blocked QAOA mixer against expm and against the
    driver it is the exponential of, and two MADE trainings from one seed
    that must write the same checkpoint bytes.  The inputs are the
    library's own: the five_site_threefold fixture, freshly built
    `MadeNetwork`s and 2-SAT draws (`generate_instance`).
    """
    import random

    from scipy import stats as scistats
    from scipy.linalg import expm

    from fairmc import exact
    from fairmc.baselines import houdayer_cluster, interaction_adjacency
    from fairmc.ising import basis_energies, bit_rows, energy_of_bits
    from fairmc.made import MadeNetwork, _gradient_error, exact_probabilities
    from fairmc.qaoa import QaoaParams, expectation_and_gradient
    from fairmc.qsim import (
        apply_driver,
        basis_state,
        evolve_fixed,
        problem_norm_ratio,
        rotate_mixer,
        uniform_state,
    )
    from fairmc.sat import generate_instance, unsatisfied_counts_all

    results = []
    rng = np.random.default_rng(20240101)

    # detailed balance of the neural independence sampler on a fixture, N=5
    model = load_fixture("five_site_threefold")
    n, dim = model.n_sites, 1 << model.n_sites
    beta = 1.3
    pi = exact.boltzmann(model, beta)
    q = exact_probabilities(MadeNetwork(n, rng=np.random.default_rng(7)))
    p = exact.mh_matrix(model, beta, np.tile(q, (dim, 1)), np.log(q))
    flow = pi[:, None] * p
    db = float(np.max(np.abs(flow - flow.T)))
    results.append(_check("made_kernel_detailed_balance", db < 1e-10, f"max={db:.2e}"))

    # sweep stationarity via permutation-averaged site updates
    sweep = exact.ssf_sweep_matrix(model, beta)
    stat = float(np.abs(pi @ sweep - pi).sum())
    results.append(_check("ssf_sweep_stationarity", stat < 1e-9, f"l1={stat:.2e}"))
    stat_h = float(np.abs(pi @ (p @ sweep) - pi).sum())
    results.append(_check("hybrid_stationarity", stat_h < 1e-9, f"l1={stat_h:.2e}"))

    # QE kernel at a fixed (w, t) draw: symmetric acceptance, no q ratio, so
    # balance holds only if the evolved proposal is symmetric (U = U^T)
    p_qe = exact.mh_matrix(model, beta, exact.qe_proposal_matrix(model, 0.4, 6.5))
    flow = pi[:, None] * p_qe
    db_qe = float(np.max(np.abs(flow - flow.T)))
    results.append(_check("qe_kernel_detailed_balance", db_qe < 1e-12, f"max={db_qe:.2e}"))

    # exhaustive normalization at N=12 and a corrupted-mask negative control
    total = float(exact_probabilities(MadeNetwork(12, rng=np.random.default_rng(7))).sum())
    results.append(
        _check("made_normalization", abs(total - 1.0) < 1e-6, f"sum={total:.9f}")
    )
    corrupted = MadeNetwork(6, rng=np.random.default_rng(8))
    corrupted.masks[-1] = np.ones_like(corrupted.masks[-1])  # breaks ordering
    bad_total = float(exact_probabilities(corrupted).sum())
    results.append(
        _check("made_corrupted_mask_detected", abs(bad_total - 1.0) > 1e-6,
               f"sum={bad_total:.6f}")
    )

    # the training step's analytic gradients vs central differences, tiny net
    gnet = MadeNetwork(3, rng=np.random.default_rng(9))
    batch = (np.random.default_rng(10).random((12, 3)) > 0.5).astype(float)
    worst = _gradient_error(gnet, batch)
    results.append(_check("made_gradient_check", worst < 1e-4, f"rel={worst:.2e}"))

    # clause penalty == unsatisfied count, exhaustive at N=10
    ok_sat = all(np.array_equal(basis_energies(to_ising(f)), unsatisfied_counts_all(f))
                 for f in (generate_instance(10, k, ALPHA_C[k], 99 + k) for k in (2, 3)))
    results.append(_check("sat_ising_equivalence", ok_sat, "k=2,3 at N=10"))

    # cluster-move pair-energy conservation, exact
    ok_icm = True
    prng = random.Random(11)
    for move in range(50):
        m2 = to_ising(generate_instance(6, 2, ALPHA_C[2], 100 + move))
        a, b = int(rng.integers(64)), int(rng.integers(64))
        cluster = houdayer_cluster(a, b, interaction_adjacency(m2), prng)
        if (energy_of_bits(m2, a ^ cluster) + energy_of_bits(m2, b ^ cluster)
                != energy_of_bits(m2, a) + energy_of_bits(m2, b)):
            ok_icm = False
    results.append(_check("icm_pair_energy_conserved", ok_icm, "50 random moves"))

    # dense matrix-exponential oracles on the fixture
    hd, hp = exact.dense_driver(n), exact.dense_problem(model)

    def expm_qaoa(gammas, betas):
        u = np.eye(dim, dtype=complex)
        for g, b in zip(gammas, betas):
            u = expm(-1j * b * hd) @ expm(-1j * g * hp) @ u
        return u @ uniform_state(n).amplitudes

    gammas, betas = [0.37, -0.21], [0.52, 0.18]
    got = run_qaoa(model, gammas, betas).amplitudes
    err_qaoa = float(np.max(np.abs(got - expm_qaoa(gammas, betas))))
    results.append(_check("qaoa_expm_oracle", err_qaoa < 1e-10, f"max={err_qaoa:.2e}"))

    # adjoint QAOA gradient against central differences of the expm oracle
    def expm_value(x):
        psi = expm_qaoa(x[:2], x[2:])
        return float(np.real(np.vdot(psi, hp @ psi)))

    x, h = np.array(gammas + betas), 1e-6
    fd = [(expm_value(x + h * e) - expm_value(x - h * e)) / (2 * h) for e in np.eye(4)]
    _, d_gamma, d_beta = expectation_and_gradient(model,
                                                  QaoaParams(tuple(gammas), tuple(betas)))
    err_grad = float(np.max(np.abs(np.concatenate((d_gamma, d_beta)) - fd)))
    results.append(_check("qaoa_adjoint_gradient", err_grad < 1e-6, f"max={err_grad:.2e}"))

    w, t = 0.4, 1.3
    alpha = problem_norm_ratio(model)
    h_mix = (1 - w) * alpha * hp + w * hd
    psi0 = basis_state(n, 5)
    oracle2 = expm(-1j * t * h_mix) @ psi0.amplitudes
    got2 = evolve_fixed(psi0, model, w, t).amplitudes
    err_ev = float(np.max(np.abs(got2 - oracle2)))
    results.append(_check("evolve_expm_oracle", err_ev < 1e-7, f"max={err_ev:.2e}"))

    # measurement sampling chi-square
    state = run_qaoa(model, [0.4, 0.2], [0.3, 0.5])
    probs = measure_distribution(state)
    draws = sample(state, 100_000, np.random.default_rng(12))
    counts = np.bincount((draws @ (1 << np.arange(n))).astype(np.int64), minlength=dim)
    _, pval = scistats.chisquare(counts, f_exp=probs * 100_000)
    results.append(_check("measurement_chi2", pval > 0.001, f"p={pval:.4f}"))

    # the blocked mixer's rounding depends on the local BLAS: against expm at
    # N=7 (two blocks), and at N=12 (three blocks) its beta derivative against
    # the driver, which is applied one qubit at a time: d/db U psi = -i H_d U psi
    mrng = np.random.default_rng(13)
    psi7 = mrng.normal(size=128) + 1j * mrng.normal(size=128)
    psi7 /= np.linalg.norm(psi7)
    err_mix = float(np.max(np.abs(
        rotate_mixer(psi7, 7, 0.41) - expm(-0.41j * exact.dense_driver(7)) @ psi7)))
    psi12 = mrng.normal(size=4096) + 1j * mrng.normal(size=4096)
    psi12 /= np.linalg.norm(psi12)
    b, h = 0.83, 1e-5
    fd = (rotate_mixer(psi12, 12, b + h) - rotate_mixer(psi12, 12, b - h)) / (2 * h)
    err_der = float(np.max(np.abs(fd + 1j * apply_driver(rotate_mixer(psi12, 12, b), 12))))
    results.append(_check("mixer_kronecker_oracle", err_mix < 1e-10 and err_der < 1e-8,
                          f"expm max={err_mix:.2e} (< 1e-10), "
                          f"derivative max={err_der:.2e} (< 1e-8)"))

    # training is claimed bit-reproducible on the local BLAS: one seed, two runs
    draws = bit_rows(rng.integers(0, 32, size=200), 5)
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            path = Path(tmp) / f"net{run}.json"
            save_checkpoint(train(draws, TrainConfig(epochs=30, rng_seed=14))[0], path)
            blobs.append(path.read_bytes())
    results.append(_check("made_training_reproducible", blobs[0] == blobs[1],
                          "checkpoint sha256 "
                          + " / ".join(hashlib.sha256(b).hexdigest()[:12] for b in blobs)))

    return results
