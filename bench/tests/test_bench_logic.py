"""Tests of the benchmark's own logic: span accounting, patch restoration,
output checks and input generation.  Run with

    python3 -m pytest bench/tests
"""

import json
import shutil

import pytest

import layers
import pipeline
from spans import Tracer, descendants_named, self_times, tail_percentile


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


class TestSelfTime:
    def test_nested_and_adjacent_children(self):
        spans = [
            span("parent", 0.0, 10.0, -1),
            span("child1", 1.0, 3.0, 0),
            span("grandchild", 1.5, 2.5, 1),
            span("child2", 3.0, 6.0, 0),  # starts where child1 ends
        ]
        assert self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0])

    def test_overlapping_children_counted_once(self):
        spans = [span("p", 0.0, 10.0, -1), span("a", 1.0, 4.0, 0), span("b", 3.0, 5.0, 0)]
        assert self_times(spans)[0] == pytest.approx(6.0)

    def test_tracer_records_parents(self):
        tracer = Tracer()
        inner = tracer.timed("inner", lambda: None)
        outer = tracer.timed("outer", lambda: (inner(), inner()))
        outer()
        inner()
        assert [(s[0], s[3]) for s in tracer.spans] == [
            ("outer", -1), ("inner", 0), ("inner", 0), ("inner", -1)]
        assert descendants_named(tracer.spans, {"outer"}, "inner") == 2
        assert all(s >= 0.0 for s in self_times(tracer.spans))

    def test_tail_percentile_leaves_ten_samples(self):
        assert tail_percentile(5) == 50
        assert tail_percentile(100) == 90
        assert tail_percentile(1000) == 99


def test_patches_restored_after_traced_run():
    from fairmc import experiments, made
    from fairmc.ising import IsingModel

    with Tracer() as tracer:
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched and all(vars(o)[a] is not orig for o, a, orig in patched)
        model = IsingModel.from_terms(3, [((0, 1), 1.0), ((2,), -1.0)])
        experiments.run_qaoa(model, [0.3], [0.2])
    assert [s[0] for s in tracer.spans] == ["qsim.run_qaoa"]
    assert tracer.counts["qsim.apply_mixer_layer.calls"] == 1
    assert all(vars(o)[a] is orig for o, a, orig in patched)
    assert "conditionals" in {a for o, a, _ in patched if o is made.MadeNetwork}


class TestOutputChecks:
    def test_chain_counts_exceeding_transitions_fail(self):
        good = {"counts": [3, 4], "n_transitions": 10}
        assert pipeline.chain_counts_ok(good, 2)[0]
        assert not pipeline.chain_counts_ok({"counts": [6, 5], "n_transitions": 10}, 2)[0]
        assert not pipeline.chain_counts_ok(good, 3)[0]

    def test_walksat_summary_missing_a_solution_fails(self, tmp_path):
        workload, seed = "ksat2-baselines", 5
        pipeline.build_set(workload, seed, 0, tmp_path / "set")
        out = tmp_path / "out"
        shutil.copytree(tmp_path / "set", out)
        from fairmc import sat

        cfg = pipeline.make_config(workload, seed)
        entries = sat.load_instance_set(out / "instances").entries
        for i, entry in enumerate(entries):
            n_ground = len(entry.solutions)
            pt = {"counts": [1] * n_ground, "n_transitions": n_ground,
                  "exchange_accepts": 1, "exchange_attempts": 2,
                  "icm_moves": 0, "icm_attempts": 1}
            path = pipeline._summary_path(out, "pt-icm", i, 0)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(pt))
            for t in range(cfg.trials):
                found = [s.bits for s in entry.solutions]
                if (i, t) == (1, 0):
                    found = found[1:]
                path = pipeline._summary_path(out, "walksat", i, t)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps({"complete": True, "found": found}))

        ops = pipeline.check_pass(workload, seed, out, errors={})
        failed = {op_id for op_id, _, ok, _ in ops if not ok}
        assert failed == {"walksat:1:0", "records-readback"}
        tally = pipeline.tally([ops])
        assert tally["failed"] == 2 and not tally["correct"]


class TestTally:
    def test_op_failing_in_one_pass_counts_once(self):
        first = [("a", "check", True, ""), ("b", "error", False, "raised")]
        second = [("a", "check", False, "wrong"), ("b", "error", False, "raised")]
        tally = pipeline.tally([first, second])
        assert (tally["attempted"], tally["failed"], tally["correct"]) == (2, 2, False)

    def test_raised_call_is_failed_but_not_wrong_output(self):
        tally = pipeline.tally([[("a", "check", True, ""), ("b", "error", False, "x")]])
        assert (tally["failed"], tally["correct"]) == (1, True)


@pytest.mark.parametrize("workload", ["ksat3-sampling", "ksat2-baselines", "fixtures-evolution"])
def test_seed_determines_inputs(workload, tmp_path):
    def digest(seed, name):
        pipeline.build_set(workload, seed, 0, tmp_path / name)
        return pipeline.inputs_digest([tmp_path / name])

    assert digest(1, "a") == digest(1, "b")
    assert digest(1, "a") != digest(2, "c")
