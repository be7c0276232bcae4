"""Workloads, input generation, pipeline passes and output checks.

A run of the benchmark builds `N_SETS` input sets from the workload seed (its
set-up), then runs pipeline passes, each on one input set in a fresh output
directory and in its own process, so caches start cold as they do for a user
who runs one pipeline stage per command.  Every pass's outputs are checked
against the instance manifest or an exact oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import median
from time import perf_counter

N_SETS = 8

# Each workload drives the public pipeline with threads=1.  The lengths are
# shortened from the fig presets so that a pass takes about five seconds on
# two cores; `preset_projection` scales the measured times back up.  The
# run-to-run spread comes mostly from the cost of individual instances
# (BFGS iterations, WalkSAT's final run), so a pass holds several cheap
# instances rather than a few large ones.
WORKLOADS = {
    "ksat3-sampling": {
        "config": {
            "kind": "KSAT_FAIRNESS", "k": 3, "sizes": [10], "per_size": 5,
            "qaoa_starts": 1, "train_samples": 500, "made_epochs": 100,
            "chain_steps": 200, "trials": 2,
            "algorithms": ["qaoa-nmc", "qaoa-hmc"],
        },
        "stages": ["schedules", "nets", "chains", "metrics"],
    },
    "ksat2-baselines": {
        "config": {
            "kind": "KSAT_COUNTING", "k": 2, "sizes": [10], "per_size": 5,
            "chain_steps": 600, "trials": 1, "walksat_max_flips": 20_000,
            "algorithms": ["pt-icm", "walksat"],
        },
        "stages": ["baselines", "metrics"],
        # WalkSAT enumeration cost grows with the solution count, which at
        # alpha_c spans 10x across seeds; drawing instances inside a fixed
        # band (around the median count) keeps the work per seed comparable.
        # At n = 12 the cost still varied 2x between instances of one band,
        # so the workload takes more instances at n = 10 instead.
        "solution_band": {10: [32, 40]},
    },
    "fixtures-evolution": {
        "config": {
            "kind": "SMALL_INSTANCES", "anneal_time": 20.0, "qaoa_starts": 1,
            "qaoa_depth": 3, "samples": 20, "train_samples": 200, "made_epochs": 50,
        },
        # depth 3: a depth-5 free-angle BFGS run (0.8 +- 0.2 s per fixture)
        # would outweigh and out-vary the time evolution this workload is for
        "stages": ["small_instances"],
    },
}

FIXTURE_METHODS = ("qa", "qaoa", "qe-mcmc", "qaoa-nmc")
BAND_ATTEMPTS = 100_000


def derive(*parts) -> int:
    """Stable 63-bit seed from structured parts, independent of fairmc."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def set_seed(workload: str, seed: int, index: int) -> int:
    return derive("bench", workload, seed, index)


def make_config(workload: str, seed: int):
    from fairmc.experiments import ExperimentConfig

    return ExperimentConfig.from_dict({**WORKLOADS[workload]["config"], "seed": seed})


# ---------------------------------------------------------------------------
# set-up: the inputs of one input set


def _banded_instances(cfg, band):
    from fairmc import sat

    entries = []
    for n in cfg.sizes:
        lo, hi = band[n]
        kept = 0
        for attempt in range(BAND_ATTEMPTS):
            draw = derive("instance", cfg.seed, n, attempt)
            formula = sat.generate_instance(n, cfg.k, cfg.alpha_c, draw)
            solutions = sat.enumerate_solutions(formula)
            if lo <= len(solutions) <= hi:
                entries.append(sat.InstanceEntry(formula, tuple(solutions), draw))
                kept += 1
                if kept == cfg.per_size:
                    break
        else:
            raise RuntimeError(f"no instance with {lo}..{hi} solutions at n={n}")
    return sat.InstanceSet(tuple(entries), cfg.k, cfg.alpha_c)


def build_set(workload: str, seed: int, index: int, directory: Path) -> None:
    """Write input set `index` of the run with workload seed `seed`."""
    from fairmc import experiments, fixtures, sat

    cfg = make_config(workload, set_seed(workload, seed, index))
    experiments.write_resolved_config(cfg, directory)
    band = WORKLOADS[workload].get("solution_band")
    if cfg.kind == "SMALL_INSTANCES":
        fixtures.load_all()
    elif band is None:
        experiments.stage_instances(cfg, directory)
    else:
        band = {int(n): b for n, b in band.items()}
        sat.save_instance_set(_banded_instances(cfg, band), directory / "instances")


def inputs_digest(set_dirs) -> str:
    """sha256 over the relative paths and bytes of every input file."""
    h = hashlib.sha256()
    for root in set_dirs:
        root = Path(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one pipeline pass (runs in the worker process)

SPAN_NAMES = {"metrics": "metrics.stage_metrics"}


def _stage_call(stage):
    from fairmc import experiments

    if stage == "small_instances":
        return experiments.run_small_instances
    if stage == "metrics":
        return experiments.stage_metrics
    fn = getattr(experiments, f"stage_{stage}")
    return lambda cfg, out: fn(cfg, out, 1)


def run_pass(workload: str, seed: int, out: Path, tracer=None) -> dict:
    """Run the workload's stages on the input set copied into `out`.  A
    stage that raises is recorded and the pass goes on."""
    cfg = make_config(workload, seed)
    stage_s, errors = {}, {}
    for stage in WORKLOADS[workload]["stages"]:
        fn = _stage_call(stage)
        if tracer is not None:
            fn = tracer.timed(SPAN_NAMES.get(stage, f"stage.{stage}"), fn)
        t0 = perf_counter()
        try:
            fn(cfg, out)
        except Exception as exc:  # counted as a failed op, never aborts the run
            errors[stage] = f"{type(exc).__name__}: {exc}"
        stage_s[stage] = perf_counter() - t0
    return {"stage_s": stage_s, "errors": errors}


# ---------------------------------------------------------------------------
# output checks, run by the parent on each finished pass
#
# An op is (id, kind, ok, detail).  kind "check" compares an output with the
# manifest or an oracle, so a failure means a wrong or missing result; kind
# "error" is a program call that raised.


def _load_json(path: Path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return exc


def chain_counts_ok(summary, n_ground: int) -> tuple[bool, str]:
    counts = summary["counts"]
    ok = len(counts) == n_ground and sum(counts) <= summary["n_transitions"]
    return ok, f"{len(counts)} counts summing to {sum(counts)}, " \
               f"{n_ground} ground states, {summary['n_transitions']} transitions"


def walksat_ok(summary, solution_bits) -> tuple[bool, str]:
    found = set(summary["found"])
    ok = bool(summary["complete"]) and found == set(solution_bits)
    return ok, f"complete={summary['complete']}, found {len(found)} " \
               f"of {len(set(solution_bits))} solutions"


def pt_icm_ok(summary) -> tuple[bool, str]:
    ok = (summary["exchange_accepts"] <= summary["exchange_attempts"]
          and summary["icm_moves"] <= summary["icm_attempts"])
    return ok, f"exchange {summary['exchange_accepts']}/{summary['exchange_attempts']}, " \
               f"icm {summary['icm_moves']}/{summary['icm_attempts']}"


def _summary_op(ops, op_id, path, check, *args):
    summary = _load_json(path)
    if isinstance(summary, Exception):
        ops.append((op_id, "check", False, f"unreadable {path.name}: {summary}"))
    else:
        ops.append((op_id, "check", *check(summary, *args)))


def _summary_path(out: Path, algo: str, instance: int, trial: int) -> Path:
    return out / "chains" / algo / f"instance_{instance:04d}_trial{trial:02d}.json"


def _ksat_ops(workload, cfg, out: Path) -> list:
    import numpy as np

    from fairmc import made, metrics, sat
    from fairmc.ising import basis_energies

    stages = WORKLOADS[workload]["stages"]
    instset = sat.load_instance_set(out / "instances")
    ops = []
    for i, entry in enumerate(instset.entries):
        n_ground = len(entry.solutions)
        if "schedules" in stages:
            sched = _load_json(out / "schedules" / f"instance_{i:04d}.json")
            if isinstance(sched, Exception):
                ops.append((f"schedule:{i}", "check", False, str(sched)))
            else:
                mean_e = float(np.mean(basis_energies(sat.to_ising(entry.formula))))
                value = sched["expectation"]
                ops.append((f"schedule:{i}", "check",
                            math.isfinite(value) and value < mean_e,
                            f"expectation {value:.4f}, uniform mean {mean_e:.4f}"))
        if "nets" in stages:
            try:
                net = made.load_checkpoint(out / "nets" / f"instance_{i:04d}.json")
                total = float(made.exact_probabilities(net).sum())
                ops.append((f"net:{i}", "check", abs(total - 1.0) <= 1e-6,
                            f"probabilities sum to {total:.9f}"))
            except (OSError, ValueError, KeyError) as exc:
                ops.append((f"net:{i}", "check", False, repr(exc)))
        if "chains" in stages:
            for algo in cfg.algorithms:
                for t in range(cfg.trials):
                    _summary_op(ops, f"chain:{algo}:{i}:{t}",
                                _summary_path(out, algo, i, t), chain_counts_ok, n_ground)
        if "baselines" in stages:
            if "pt-icm" in cfg.algorithms and cfg.k == 2:
                path = _summary_path(out, "pt-icm", i, 0)
                _summary_op(ops, f"pt-icm-counts:{i}", path, chain_counts_ok, n_ground)
                _summary_op(ops, f"pt-icm-accepts:{i}", path, pt_icm_ok)
            if "walksat" in cfg.algorithms:
                bits = [s.bits for s in entry.solutions]
                for t in range(cfg.trials):
                    _summary_op(ops, f"walksat:{i}:{t}",
                                _summary_path(out, "walksat", i, t), walksat_ok, bits)
    # the pipeline must read back its own records
    path = out / "metrics" / "records.csv"
    if not path.exists():
        ops.append(("records-readback", "check", False, "missing records.csv"))
        return ops
    try:
        records = metrics.records_from_csv(path)
    except (ValueError, KeyError) as exc:
        ops.append(("records-readback", "error", False, f"{type(exc).__name__}: {exc}"))
    else:
        expected = len(instset.entries) * len(
            [a for a in cfg.algorithms if a != "pt-icm" or cfg.k == 2])
        ops.append(("records-readback", "check", len(records) == expected,
                    f"{len(records)} records, expected {expected}"))
    return ops


def _fixture_ops(out: Path) -> list:
    from fairmc.fixtures import FIXTURE_NAMES, load_fixture
    from fairmc.ising import ground_states_bruteforce

    try:
        with open(out / "fairness_summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        return [("fixture-coverage", "check", False, repr(exc))]
    pairs = [(r["fixture"], r["method"]) for r in rows]
    expected = {(f, m) for f in FIXTURE_NAMES for m in FIXTURE_METHODS}
    ops = [("fixture-coverage", "check",
            len(pairs) == len(expected) and set(pairs) == expected,
            f"{len(pairs)} rows for {len(expected)} fixture x method pairs")]
    degeneracy = {f: len(ground_states_bruteforce(load_fixture(f))[1]) for f in FIXTURE_NAMES}
    for r in rows:
        want = degeneracy.get(r["fixture"])
        ops.append((f"fixture:{r['fixture']}:{r['method']}", "check",
                    want is not None and int(r["n_ground"]) == want,
                    f"n_ground {r['n_ground']}, exact {want}"))
    return ops


def check_pass(workload: str, seed: int, out: Path, errors: dict) -> list:
    """Every op of one pass: one per stage call, then the output checks."""
    ops = [(f"stage:{s}", "error", s not in errors, errors.get(s, ""))
           for s in WORKLOADS[workload]["stages"]]
    cfg = make_config(workload, seed)
    if cfg.kind == "SMALL_INSTANCES":
        return ops + _fixture_ops(out)
    return ops + _ksat_ops(workload, cfg, out)


def tally(op_lists) -> dict:
    """Ops are identified by id across passes; one fails if it failed in any
    pass.  `correct` is False when any check found a wrong or missing
    output; a call that raised counts as failed but is not a wrong output."""
    status: dict[str, tuple[str, bool, str]] = {}
    for ops in op_lists:
        for op_id, kind, ok, detail in ops:
            prev = status.get(op_id)
            if prev is None or (prev[1] and not ok):
                status[op_id] = (kind, ok, detail)
    failures = {k: v for k, v in status.items() if not v[1]}
    return {
        "attempted": len(status),
        "failed": len(failures),
        "correct": not any(kind == "check" for kind, _, _ in failures.values()),
        "failures": {k: f"[{v[0]}] {v[2]}" for k, v in sorted(failures.items())},
    }


def output_bytes(out: Path) -> dict:
    """Bytes and files the pass wrote (the copied inputs excluded)."""
    total = nets = files = 0
    for path in out.rglob("*"):
        rel = path.relative_to(out).parts
        if not path.is_file() or rel[0] == "instances":
            continue
        size = path.stat().st_size
        total += size
        files += 1
        if rel[0] == "nets":
            nets += size
    return {"experiments.out_bytes": total, "experiments.nets_bytes": nets,
            "experiments.files_written": files}


def science_outputs(out: Path) -> dict:
    """Fairness outcomes of the pass, read with the csv module so that they
    are available whatever the program's own reader does."""
    path = out / "metrics" / "records.csv"
    if not path.exists():
        path = out / "fairness_summary.csv"
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError:
        rows = []
    ratios = [float(r["max_min_ratio"]) for r in rows if r["max_min_ratio"] != ""]
    return {
        "metrics.records": len(rows),
        "metrics.all_found_frac": (
            sum(r["all_found"] == "True" for r in rows) / len(rows) if rows else 0.0),
        "metrics.ratio_defined": len(ratios),
        "metrics.ratio_median": median(ratios) if ratios else 0.0,
    }


# ---------------------------------------------------------------------------
# preset projection (report only)

PROJECTED_PRESETS = {"ksat3-sampling": ("fig5", "fig7"), "ksat2-baselines": ("fig4", "fig6")}


def _stage_tasks(cfg) -> dict:
    """Tasks per stage, and how many work units (starts, epochs x samples,
    steps, trials) each task does, for the linear scaling to the preset.
    Chain and baseline stages are keyed by the algorithms they run."""
    instances = len(cfg.sizes) * cfg.per_size
    samplers = [a for a in cfg.algorithms if a in ("qaoa-nmc", "qaoa-hmc")]
    classical = [a for a in cfg.algorithms if a == "walksat" or (a == "pt-icm" and cfg.k == 2)]
    tasks = {
        "schedules": (instances, cfg.qaoa_starts),
        "nets": (instances, cfg.made_epochs * cfg.train_samples),
    }
    if samplers:
        tasks[f"chains[{'+'.join(samplers)}]"] = (
            instances * len(samplers) * cfg.trials, cfg.chain_steps)
    if classical:
        tasks[f"baselines[{'+'.join(classical)}]"] = (instances, cfg.trials)
    return tasks


def preset_projection(workload: str, stage_s: dict) -> list[str]:
    """Measured per-task time x each preset's task count, with the per-task
    time scaled linearly in starts, epochs x samples, steps and trials.  A
    lower bound: the presets run sizes up to 16, larger than the benchmark's,
    and the WalkSAT flip budget is not scaled."""
    from fairmc.cli import load_preset
    from fairmc.experiments import ExperimentConfig

    cfg = make_config(workload, 0)
    bench = _stage_tasks(cfg)
    sizes = "-".join(str(n) for n in sorted({min(cfg.sizes), max(cfg.sizes)}))
    lines = []
    for fig in PROJECTED_PRESETS.get(workload, ()):
        preset = _stage_tasks(ExperimentConfig.from_dict(load_preset(fig)))
        parts, total, missing = [], 0.0, []
        for stage, (tasks, units) in preset.items():
            measured = stage_s.get(stage.split("[")[0])
            if stage not in bench or measured is None:
                missing.append(stage)
                continue
            b_tasks, b_units = bench[stage]
            seconds = measured / b_tasks * units / b_units * tasks
            total += seconds
            parts.append(f"{stage} {seconds / 3600:.2f} h")
        if not parts:
            lines.append(f"projection {fig}: none of its stages measured here "
                         f"({', '.join(missing)})")
            continue
        lines.append(
            f"projection {fig}: >= {total / 3600:.2f} h on one core "
            f"({', '.join(parts)}; not measured here: "
            f"{', '.join(missing) or 'none'}; lower bound at n={sizes})")
    return lines
