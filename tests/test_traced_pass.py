"""One traced benchmark pass per workload, as `bench/run.py --trace 1` makes it.

The benchmark wraps library functions by name and calls an extractor on each
wrapped call's result and arguments (`bench/layers.py`).  A library change
that renames a wrapped function, or changes what one returns or takes,
breaks only a traced run; this test makes that run on input set 0 of each
workload, without changing anything under `bench/`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import pipeline  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 1

# a per-layer number each workload's pass must produce: the spans were read
NONZERO = {
    "ksat3-sampling": ("made.train.calls", "made.train.epochs_max", "made.forward_passes",
                       "mcmc.transitions", "mcmc.steps.made", "mcmc.steps.hybrid"),
    "ksat2-baselines": ("baselines.pt_icm.rounds", "baselines.walksat.flips",
                        "metrics.stage_metrics.calls"),
    "fixtures-evolution": ("qsim.evolve_fixed.calls", "qsim.run_annealing.calls",
                           "made.train.calls", "mcmc.steps.qe"),
}


@pytest.mark.parametrize("workload", sorted(pipeline.WORKLOADS))
def test_traced_pass(workload, tmp_path):
    # the set-up builds input set i from the workload seed; the pass on it
    # runs with that set's own seed (`Runner.run_pass`)
    out = tmp_path / "pass"
    pipeline.build_set(workload, SEED, 0, out)
    seed = pipeline.set_seed(workload, SEED, 0)
    with Tracer(run_id=1) as tracer:
        layers.install(tracer)
        result = pipeline.run_pass(workload, seed, out, tracer)
    assert result["errors"] == {}
    failed = [op for op in pipeline.check_pass(workload, seed, out, result["errors"])
              if not op[2]]
    assert failed == []

    metrics = layers.pass_metrics(tracer.spans, dict(tracer.counts))
    with open(BENCH.parent / "BENCHMARK.json") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    computed = {**metrics, **layers.pooled_call_stats([tracer.spans]),
                **pipeline.output_bytes(out), **pipeline.science_outputs(out),
                "trace.overhead_s": 0.0}
    assert declared <= set(computed)
    for name in NONZERO[workload]:
        assert metrics[name] > 0, name
