"""Command-line entry points.

    fairmc validate                       run the oracle self-checks
    fairmc gen-instances  --config CFG    build + filter a k-SAT instance set
    fairmc optimize-qaoa  --config CFG    per-instance linear schedules
    fairmc train-made     --config CFG    train proposal networks
    fairmc run-chains     --config CFG    neural / hybrid sampler chains
    fairmc run-baselines  --config CFG    PT-ICM and WalkSATlm runs
    fairmc metrics        --config CFG    fairness + counting summaries
    fairmc fig1 .. fig7                   preset end-to-end experiments

Common flags: --config FILE, --out DIR, --seed N, --threads N (at least 1).
Exit codes: 0 success, 1 validation failure, 2 configuration/usage error,
a missing earlier stage or a refused stage file, or a resume into an --out directory written by a
different config (seed included).  Exit 2 with nothing written covers every
config that `fairmc.experiments` refuses at load (see its docstring), and a
config whose kind the command does not run: fig1 and fig2 need the kind of
their preset, fig3-fig7 and the stage commands a k-SAT kind.  fig3 runs its
config at k = 2 and at k = 3, so both must pass the load checks: sizes [3],
for one, is refused at k = 3.  An algorithm named twice is refused, as
metrics would pool its records twice.  A key that is not a config field is
refused too; `walksat_variant` is none, as WalkSATlm is the only WalkSAT,
and nor are `beta` and the anneal grid, the constants `BETA` and
`ANNEAL_GRID` of `fairmc.experiments`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from fairmc.experiments import (
    KSAT_KINDS,
    ConfigError,
    ExperimentConfig,
    StageError,
    require_stage,
    run_anneal_sweep,
    run_ksat,
    run_small_instances,
    run_validation,
    stage_baselines,
    stage_chains,
    stage_instances,
    stage_metrics,
    stage_nets,
    stage_schedules,
    write_resolved_config,
)
from fairmc.fileio import atomic_write

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

FIGS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

STAGE_COMMANDS = ("gen-instances", "optimize-qaoa", "train-made",
                  "run-chains", "run-baselines", "metrics")


def load_preset(name: str) -> dict:
    path = resources.files("fairmc").joinpath(f"presets/{name}.json")
    with path.open() as f:
        return json.load(f)


def _load_config(args, kinds, preset: str | None = None) -> ExperimentConfig:
    """The command's config; ConfigError unless its kind is one of `kinds`."""
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    elif preset:
        cfg = ExperimentConfig.from_dict(load_preset(preset))
    else:
        raise ConfigError("--config is required for this command")
    if cfg.kind not in kinds:
        raise ConfigError(f"{args.command} runs a config of kind "
                          f"{' or '.join(kinds)}, got {cfg.kind!r}")
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_validate(args) -> int:
    results = run_validation()
    width = max(len(r["check"]) for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}  {r['check']:<{width}}  {r['detail']}")
    n_fail = sum(not r["passed"] for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_write(out / "validation.json") as f:
            json.dump(results, f, indent=1)
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


def cmd_stage(args) -> int:
    cfg = _load_config(args, KSAT_KINDS)
    out = Path(args.out)
    stage = args.command
    # a stage refused for missing inputs must not leave its config behind:
    # that would pin the directory before gen-instances has run there
    if stage != "gen-instances":
        require_stage(out / "instances" / "manifest.json", "gen-instances")
    write_resolved_config(cfg, out)
    threads = args.threads
    if stage == "gen-instances":
        stage_instances(cfg, out)
    elif stage == "optimize-qaoa":
        stage_schedules(cfg, out, threads)
    elif stage == "train-made":
        stage_nets(cfg, out, threads)
    elif stage == "run-chains":
        stage_chains(cfg, out, threads)
    elif stage == "run-baselines":
        stage_baselines(cfg, out, threads)
    elif stage == "metrics":
        stage_metrics(cfg, out)
    print(f"{stage}: done -> {out}")
    return EXIT_OK


def cmd_fig(args) -> int:
    name = args.command
    kind = load_preset(name)["kind"]
    kinds = KSAT_KINDS if kind in KSAT_KINDS else (kind,)
    cfg = _load_config(args, kinds, preset=name)
    out = Path(args.out)
    if name == "fig1":
        run_small_instances(cfg, out)
    elif name == "fig2":
        run_anneal_sweep(cfg, out)
    elif name == "fig3":
        # degeneracy scatter needs both clause widths; both configs are
        # checked before either is written
        subs = {k: dataclasses.replace(cfg, k=k) for k in (2, 3)}
        for k, sub in subs.items():
            write_resolved_config(sub, out / f"k{k}")
            stage_instances(sub, out / f"k{k}")
    else:
        run_ksat(cfg, out, args.threads)
    print(f"{name}: done -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmc",
        description="Fair-sampling experiments for degenerate ground states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_out=True):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--threads", type=int, default=1,
                       help="parallel workers (1 = fully sequential)")
        if need_out:
            p.add_argument("--out", required=True, help="output directory")

    pv = sub.add_parser("validate", help="run the oracle self-check suite")
    pv.add_argument("--out", default=None, help="also write validation.json here")
    pv.set_defaults(fn=cmd_validate)

    for stage in STAGE_COMMANDS:
        ps = sub.add_parser(stage, help=f"pipeline stage: {stage}")
        add_common(ps)
        ps.set_defaults(fn=cmd_stage)

    for fig in FIGS:
        pf = sub.add_parser(fig, help=f"preset experiment {fig}")
        add_common(pf)
        pf.set_defaults(fn=cmd_fig)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be at least 1")  # exits 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
