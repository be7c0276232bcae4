"""Benchmark of the fairmc pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: fairmc is imported from ./src and
nothing needs installing.  The seed makes the inputs (N_SETS input sets,
built and timed in a set-up process five times); pipeline passes then run
one per process, each on the next input set, until `--seconds` are used.
Every pass's outputs are checked.

With --trace 0 the end-to-end metrics named in BENCHMARK.json are measured
on untraced passes.  With --trace 1 untraced and traced passes alternate on
the same input set; the per-layer metrics come from the traced ones and
`trace.overhead_s` is the traced minus the untraced pass time.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Human-readable lines before it give the run record, every stage time, the
op tally and a projection of the fig presets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_UNITS = {0: 3, 1: 2}  # passes, or (untraced, traced) pairs
LAST_START_S = 110  # start no pass after this, so the run ends within 180 s
CHILD_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def import_fairmc():
    if not (SRC / "fairmc" / "__init__.py").is_file():
        raise BenchError(f"no fairmc source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fairmc

    if Path(fairmc.__file__).resolve().parent != SRC / "fairmc":
        raise BenchError(f"fairmc imported from {fairmc.__file__}, not from {SRC}")
    return fairmc


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path, t_start: float):
        self.workload, self.seed = workload, seed
        self.run_dir = run_dir
        self.t_start = t_start
        self.n_spawned = 0

    def spawn(self, mode: str, seed: int, out: Path, traced: bool) -> dict:
        self.n_spawned += 1
        name = f"{mode}{self.n_spawned}"
        spec = {"mode": mode, "workload": self.workload, "seed": seed, "src": str(SRC),
                "out": str(out), "trace": traced, "run_id": self.n_spawned,
                "result": str(self.run_dir / f"{name}.result.json")}
        spec_path = self.run_dir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        left = CHILD_LIMIT_S - (time.monotonic() - self.t_start)
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                  stdout=sys.stderr, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with {proc.returncode}")
        result_path = Path(spec["result"])
        result = json.loads(result_path.read_text())
        result_path.unlink()
        spec_path.unlink()
        return result

    def run_pass(self, index: int, sets, traced: bool, pipeline) -> dict:
        set_index = index % len(sets)
        seed = pipeline.set_seed(self.workload, self.seed, set_index)
        out = self.run_dir / f"pass{self.n_spawned + 1}"
        shutil.copytree(sets[set_index], out)
        res = self.spawn("pass", seed, out, traced)
        res["traced"] = traced
        res["wall_s"] = sum(res["stage_s"].values())
        res["ops"] = pipeline.check_pass(self.workload, seed, out, res["errors"])
        res["outputs"] = {**pipeline.output_bytes(out), **pipeline.science_outputs(out)}
        shutil.rmtree(out)
        return res


def run_record(args, pipeline, sets, n_passes) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(p for p in (SRC / "fairmc").rglob("*")
                       if p.is_file() and p.suffix in (".py", ".json")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "seconds": args.seconds, "passes": n_passes, "input_sets": len(sets),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commit": commit, "src_sha256": src.hexdigest(),
        "inputs_sha256": pipeline.inputs_digest(sets),
    }


def declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[kind]


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    import_fairmc()
    import layers
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"have {sorted(pipeline.WORKLOADS)}")
    trace = bool(args.trace)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, t_start)

    # set-up: traced once, or untraced SETUP_REPEATS times for setup_s
    setups = [runner.spawn("setup", args.seed, run_dir / f"setup{r}", trace)
              for r in range(1 if trace else SETUP_REPEATS)]
    sets = [run_dir / "setup0" / f"set{i}" for i in range(pipeline.N_SETS)]
    for r in range(1, len(setups)):
        shutil.rmtree(run_dir / f"setup{r}")

    # measurement: whole units (a pass, or an untraced + traced pair on one set)
    units: list[list[dict]] = []
    t_measure = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_measure
        if len(units) >= MIN_UNITS[args.trace]:
            per_unit = elapsed / len(units)
            if elapsed + per_unit > args.seconds:
                break
        if time.monotonic() - t_start > LAST_START_S:
            break
        modes = (False, True) if trace else (False,)
        units.append([runner.run_pass(len(units), sets, m, pipeline) for m in modes])
    passes = [p for unit in units for p in unit]
    plain = [p for p in passes if not p["traced"]]

    tally = pipeline.tally(p["ops"] for p in passes)
    stage_s = {s: median(p["stage_s"][s] for p in plain)
               for s in pipeline.WORKLOADS[args.workload]["stages"]}
    computed = {
        "wall_s": median(p["wall_s"] for p in plain),
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
    }
    spans_out = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        setup_spans = setups[0]["spans"]
        per_pass = [{**layers.pass_metrics(p["spans"], p["counts"], setup_spans,
                                           1.0 / len(sets)), **p["outputs"]}
                    for p in traced]
        computed.update(layers.median_of(per_pass))
        computed.update(layers.pooled_call_stats([p["spans"] for p in traced] + [setup_spans]))
        computed["trace.overhead_s"] = median(
            t["wall_s"] - u["wall_s"] for u, t in units)
        spans_out = {"setup": setup_spans, "passes": [p["spans"] for p in traced]}

    record = run_record(args, pipeline, sets, len(passes))
    print("run_record " + json.dumps(record, sort_keys=True))
    for stage, value in stage_s.items():
        print(f"{stage}_s {fmt(value)} s  (median of {len(plain)} untraced passes)")
    print(f"ops {tally['attempted']} per pass, ops_failed {tally['failed']}"
          f"  ({len(passes)} passes checked)")
    for op_id, detail in tally["failures"].items():
        print(f"failed op {op_id}: {detail}")
    for line in pipeline.preset_projection(args.workload, stage_s):
        print(line)

    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in declared(kind):
        value = computed[m["name"]]
        if not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {fmt(value)} {m['unit']}")

    result = {"correct": tally["correct"], "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"record": record, "stage_s": stage_s, "failures": tally["failures"],
         "computed": computed, **result,
         "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "stage_s": p["stage_s"],
                     "peak_rss_mb": p["peak_rss_mb"]} for p in passes]}, indent=1))
    if spans_out:
        (run_dir / "spans.json").write_text(json.dumps(spans_out))
    shutil.rmtree(run_dir / "setup0")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
