"""Per-layer metrics: which fairmc functions are wrapped, where, and how the
spans and counters of a traced pass become the per-layer numbers.

Functions are wrapped at the module attribute through which the pipeline
looks them up (for example `fairmc.experiments.optimize`, not
`fairmc.qaoa.optimize`), so the spans see exactly the calls the pipeline
makes.
"""

from __future__ import annotations

from statistics import median

from spans import descendants_named, percentile, self_times, tail_percentile

# spans whose self time, call count and per-call distribution are reported
TIMED = (
    "sat.enumerate_solutions",
    "qsim.run_qaoa",
    "qsim.evolve_fixed",
    "qsim.run_annealing",
    "qaoa.optimize",
    "qaoa.optimize_free",
    "made.train",
    "made.sample",
    "made.log_prob",
    "mcmc.run_chain",
    "baselines.pt_icm_run",
    "baselines.walksat_run",
    "metrics.histogram",
    "metrics.stage_metrics",
)
CHAIN_KINDS = ("made", "hybrid", "qe")
ACCEPT_TAGS = ("made", "ssf", "qe")


def _chain_attrs(trace, model, t, update, *args, **kwargs):
    import numpy as np

    from fairmc.ising import basis_energies
    from fairmc.mcmc import HybridUpdate

    kind = "hybrid" if isinstance(update, HybridUpdate) else getattr(update, "tag", "kernel")
    accepts = {}
    for tag_id, tag in enumerate(trace.tag_legend):
        mask = trace.tags == tag_id
        accepts[tag] = [int(mask.sum()), int(trace.accepted[mask].sum())]
    # the unwrapped function leaves the program's cache (if any) untouched
    ground = float(getattr(basis_energies, "__wrapped__", basis_energies)(model).min())
    on_ground = int(np.isclose(trace.energies, ground, atol=1e-9).sum())
    return {"kind": kind, "steps": trace.n_steps, "transitions": trace.n_transitions,
            "recorded": len(trace), "on_ground": on_ground, "accepts": accepts}


def _layer_bytes(state, *args, **kwargs):
    # read and write of every complex128 amplitude: 2**n x 16 B x 2
    return {"qsim.amp_bytes_computed": 32 << state.n_qubits}


def install(tracer) -> None:
    """Patch every traced lookup site; `tracer.restore()` undoes it."""
    from fairmc import baselines, experiments, made, mcmc, qaoa, qsim, sat

    def timed(name, attrs=None):
        return lambda fn: tracer.timed(name, fn, attrs)

    def counted(name, extra=None):
        return lambda fn: tracer.counted(name, fn, extra)

    sites = [
        (sat, "enumerate_solutions", timed("sat.enumerate_solutions")),
        (baselines, "enumerate_solutions", timed("sat.enumerate_solutions")),
        (mcmc, "energy_of_bits", counted("ising.energy_of_bits.calls")),
        (baselines, "energy_of_bits", counted("ising.energy_of_bits.calls")),
        (qaoa, "run_qaoa", timed("qsim.run_qaoa")),
        (experiments, "run_qaoa", timed("qsim.run_qaoa")),
        (mcmc, "evolve_fixed", timed("qsim.evolve_fixed")),
        (experiments, "run_annealing", timed("qsim.run_annealing")),
        (qsim, "apply_mixer_layer", counted("qsim.apply_mixer_layer.calls", _layer_bytes)),
        (qsim, "apply_phase_layer", counted("qsim.apply_phase_layer.calls", _layer_bytes)),
        (experiments, "optimize", timed("qaoa.optimize")),
        (experiments, "optimize_free", timed("qaoa.optimize_free")),
        (experiments, "train", timed(
            "made.train",
            lambda res, samples, cfg: {"epochs_run": len(res[1]) - 1,
                                       "epochs_max": cfg.epochs})),
        (made, "sample", timed("made.sample")),
        (made, "log_prob", timed("made.log_prob")),
        (made.MadeNetwork, "conditionals", counted("made.forward_passes")),
        (experiments, "run_chain", timed("mcmc.run_chain", _chain_attrs)),
        (experiments, "pt_icm_run", timed(
            "baselines.pt_icm_run",
            lambda res, *a, **k: {
                "rounds": res[1].rounds,
                "exchange_attempts": res[1].exchange_attempts,
                "exchange_accepts": res[1].exchange_accepts,
                "icm_attempts": res[1].icm_attempts,
                "icm_moves": res[1].icm_moves})),
        (baselines, "walksat_run", timed(
            "baselines.walksat_run",
            lambda res, *a, **k: {"flips": res.flips_used, "found": res.found})),
        (experiments, "walksat_enumerate", timed(
            "baselines.walksat_enumerate",
            lambda res, *a, **k: {"total_flips": res.total_flips,
                                  "useful_flips": res.flips_to_last_solution})),
        (experiments, "histogram", timed("metrics.histogram")),
    ]
    for owner, attr, make in sites:
        tracer.patch(owner, attr, make)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(spans, counts, setup_spans=(), setup_share=0.0) -> dict:
    """Per-layer numbers of one traced pass.  Setup spans (the inputs of all
    input sets) are added with weight `setup_share`, the share of the set-up
    that built this pass's inputs."""
    m = {}
    selfs = self_times(spans)
    setup_selfs = self_times(setup_spans)
    for name in TIMED:
        m[f"{name}.s"] = sum(s for sp, s in zip(spans, selfs) if sp[0] == name)
        m[f"{name}.calls"] = sum(1 for sp in spans if sp[0] == name)
        m[f"{name}.s"] += setup_share * sum(
            s for sp, s in zip(setup_spans, setup_selfs) if sp[0] == name)
        m[f"{name}.calls"] += setup_share * sum(1 for sp in setup_spans if sp[0] == name)

    for name in ("ising.energy_of_bits.calls", "qsim.apply_mixer_layer.calls",
                 "qsim.apply_phase_layer.calls", "qsim.amp_bytes_computed",
                 "made.forward_passes"):
        m[name] = counts.get(name, 0)

    optimizers = {"qaoa.optimize", "qaoa.optimize_free"}
    n_opt = sum(1 for sp in spans if sp[0] in optimizers)
    m["qaoa.circuits_per_optimize"] = _ratio(
        descendants_named(spans, optimizers, "qsim.run_qaoa"), n_opt)

    def attrs_of(name):
        return [(sp[2] - sp[1], sp[5]) for sp in spans if sp[0] == name]

    trains = attrs_of("made.train")
    m["made.train.epochs_run"] = sum(a["epochs_run"] for _, a in trains)
    m["made.train.epochs_max"] = sum(a["epochs_max"] for _, a in trains)

    chains = attrs_of("mcmc.run_chain")
    m["mcmc.transitions"] = sum(a["transitions"] for _, a in chains)
    for kind in CHAIN_KINDS:
        steps = sum(a["steps"] for _, a in chains if a["kind"] == kind)
        busy = sum(d for d, a in chains if a["kind"] == kind)
        m[f"mcmc.steps.{kind}"] = steps
        m[f"mcmc.step_us.{kind}"] = _ratio(busy * 1e6, steps)
    for tag in ACCEPT_TAGS:
        tried = sum(a["accepts"].get(tag, [0, 0])[0] for _, a in chains)
        took = sum(a["accepts"].get(tag, [0, 0])[1] for _, a in chains)
        m[f"mcmc.accept.{tag}"] = _ratio(took, tried)
        m[f"mcmc.accept.{tag}.n"] = tried
    m["mcmc.gs_occupancy"] = _ratio(sum(a["on_ground"] for _, a in chains),
                                    sum(a["recorded"] for _, a in chains))

    pts = attrs_of("baselines.pt_icm_run")
    rounds = sum(a["rounds"] for _, a in pts)
    m["baselines.pt_icm.rounds"] = rounds
    m["baselines.pt_icm.round_us"] = _ratio(sum(d for d, _ in pts) * 1e6, rounds)
    ex_tried = sum(a["exchange_attempts"] for _, a in pts)
    icm_tried = sum(a["icm_attempts"] for _, a in pts)
    m["baselines.pt_icm.exchange_attempts"] = ex_tried
    m["baselines.pt_icm.exchange_accept"] = _ratio(
        sum(a["exchange_accepts"] for _, a in pts), ex_tried)
    m["baselines.pt_icm.icm_attempts"] = icm_tried
    m["baselines.pt_icm.icm_move_frac"] = _ratio(
        sum(a["icm_moves"] for _, a in pts), icm_tried)

    runs = attrs_of("baselines.walksat_run")
    flips = sum(a["flips"] for _, a in runs)
    m["baselines.walksat.flips"] = flips
    m["baselines.walksat.flip_us"] = _ratio(sum(d for d, _ in runs) * 1e6, flips)
    m["baselines.walksat.final_run_s"] = sum(d for d, a in runs if not a["found"])
    enums = attrs_of("baselines.walksat_enumerate")
    m["baselines.walksat.useful_flip_frac"] = _ratio(
        sum(a["useful_flips"] for _, a in enums), sum(a["total_flips"] for _, a in enums))
    return m


def pooled_call_stats(span_lists) -> dict:
    """Per-call median and tail (ms) of every timed span, pooled over
    passes; the tail is the highest percentile with ten samples beyond it."""
    m = {}
    for name in TIMED:
        durations = [(sp[2] - sp[1]) * 1e3 for spans in span_lists
                     for sp in spans if sp[0] == name]
        m[f"{name}.p50_ms"] = percentile(durations, 50)
        m[f"{name}.tail_ms"] = percentile(durations, tail_percentile(len(durations)))
    return m


def median_of(dicts) -> dict:
    return {key: median(d[key] for d in dicts) for key in dicts[0]}
