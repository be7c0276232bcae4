import ast
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from fairmc.experiments import ExperimentConfig, stage_baselines, stage_instances
from fairmc.ising import IsingModel, SpinConfig, Temperature
from fairmc.mcmc import SsfSweepUpdate, run_chain
from fairmc.metrics import (
    INCOMPLETE,
    ResultRecord,
    aggregate,
    fairness,
    histogram,
    records_from_csv,
    rows_to_csv,
    superiority_counts,
    visits,
)

METRICS_SOURCE = Path(__file__).resolve().parents[1] / "src" / "fairmc" / "metrics.py"


def gs_list(bits_list, n=4):
    return [SpinConfig(b, n) for b in bits_list]


def chain(states):
    """A chain's visited states as `run_chain` records them."""
    return np.array(states, dtype=np.uint64)


# References for `visits`: the two passes it replaced, an np.unique recount
# of the visited states and a walk over them as Python ints


def reference_counts(states, ground_states):
    bits = sorted(s.bits for s in ground_states)
    index = {z: i for i, z in enumerate(bits)}
    counts = np.zeros(len(bits))
    values, hits = np.unique(states, return_counts=True)
    for z, hit in zip(values.tolist(), hits.tolist()):
        i = index.get(z)
        if i is not None:
            counts[i] = hit
    return counts


WALK_CHUNK = 1024  # records converted at a time, so that an early finish converts few


def reference_steps(states, ground_states):
    remaining = {s.bits for s in ground_states}
    for start in range(0, len(states), WALK_CHUNK):
        for i, z in enumerate(states[start:start + WALK_CHUNK].tolist(), start):
            remaining.discard(z)
            if not remaining:
                return i + 1
    return INCOMPLETE


def checked_visits(states, ground_states):
    """`visits`, asserted equal to the references, with float64 counts and
    an int or INCOMPLETE step count."""
    counts, steps = visits(states, ground_states)
    assert counts.dtype == np.float64
    np.testing.assert_array_equal(counts, reference_counts(states, ground_states))
    want = reference_steps(states, ground_states)
    assert steps == want and type(steps) is type(want)
    return counts, steps


# (visited states, ground states): the TestHistogram and TestStepsToEnumerate
# cases, a single ground state, states on both sides of the ground set, and
# an empty chain
UNIT_CASES = [
    ([7, 7, 9], [0, 1]),
    ([9, 5, 9], [9, 5]),
    ([0, 1, 2], [0, 1, 2]),
    ([0, 1, 0, 1], [0, 1, 2]),
    ([3, 0, 1, 2], [0, 1, 2]),
    ([3, 0, 1, 2, 0, 1], [0, 1, 2]),
    ([6, 2, 6, 6, 1], [6]),
    ([2, 1, 6], [6]),
    ([0, 15, 4, 8, 15, 0], [4, 8]),
    ([], [1, 2]),
]


class TestHistogram:
    def test_trace_counts_match_naive_recount(self):
        m = IsingModel.from_terms(4, [((0, 1), -1.0), ((2, 3), 1.0)])
        trace = run_chain(m, Temperature(1.0), SsfSweepUpdate(), 500, rng_seed=0)
        gs = gs_list([0, 3, 5, 12])
        counts, _ = checked_visits(trace.states, gs)
        for s, count in zip(gs, counts):
            assert count == int(np.sum(trace.states == s.bits))

    def test_trace_never_visiting_ground_states(self):
        counts, steps = visits(chain([7, 7, 9]), gs_list([0, 1]))
        assert counts.tolist() == [0.0, 0.0]
        assert steps is INCOMPLETE

    def test_distribution_binning_renormalizes(self):
        probs = np.zeros(16)
        probs[[1, 2]] = 0.3, 0.1
        probs[5] = 0.6
        counts = histogram(probs, gs_list([1, 2]))
        np.testing.assert_allclose(counts, [0.75, 0.25])
        assert counts.sum() == pytest.approx(1.0)

    def test_exact_uniform_distribution_equal_bins(self):
        counts = histogram(np.full(16, 1 / 16), gs_list([0, 5, 9]))
        np.testing.assert_allclose(counts, np.full(3, 1 / 3))

    def test_distribution_without_ground_weight_gives_zeros(self):
        probs = np.zeros(16)
        probs[[3, 7]] = 0.5
        counts = histogram(probs, gs_list([1, 2]))
        assert counts.tolist() == [0.0, 0.0]

    def test_canonical_order(self):
        # weights follow ascending bits, whatever order the states come in
        counts, _ = visits(chain([9, 5, 9]), gs_list([9, 5]))
        assert counts.tolist() == [1.0, 2.0]
        probs = np.zeros(16)
        probs[[5, 9]] = 0.75, 0.25
        assert histogram(probs, gs_list([9, 5])).tolist() == [0.75, 0.25]

    def test_empty_ground_states_rejected(self):
        with pytest.raises(ValueError):
            visits(chain([0]), [])
        with pytest.raises(ValueError):
            histogram(np.ones(1), [])


class TestVisits:
    @pytest.mark.parametrize("states, ground", UNIT_CASES)
    def test_unit_cases_match_the_references(self, states, ground):
        checked_visits(chain(states), gs_list(ground))

    def test_random_traces_match_the_references(self):
        # states outside the ground set and repeated ones, chains that finish
        # and chains that do not, single ground states, and traces longer
        # than the reference's walk chunk
        rng = np.random.default_rng(23)
        finished = incomplete = single = 0
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            n_ground = int(rng.integers(1, min(1 << n, 12) + 1))
            ground = rng.choice(1 << n, size=n_ground, replace=False).tolist()
            length = int(rng.integers(0, 3 * WALK_CHUNK))
            # the share of records on a ground state, log-uniform in [1e-3, 1]
            on_ground = rng.random(length) < 10.0 ** rng.uniform(-3, 0)
            states = np.where(on_ground, rng.choice(ground, size=length),
                              rng.integers(0, 1 << n, size=length)).astype(np.uint64)
            _, steps = checked_visits(states, gs_list(ground, n))
            finished += steps is not INCOMPLETE
            incomplete += steps is INCOMPLETE
            single += n_ground == 1
        assert min(finished, incomplete, single) > 100, (finished, incomplete, single)

    def test_metrics_imports_no_pipeline_module(self):
        # metrics works on plain arrays: of fairmc it imports ising and fileio only
        imported = set()
        for node in ast.walk(ast.parse(METRICS_SOURCE.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = "fairmc" if node.level else node.module
                if node.level and node.module:
                    module += "." + node.module
                if module == "fairmc":
                    imported.update(f"fairmc.{a.name}" for a in node.names)
                else:
                    imported.add(module)
        ours = {m for m in imported if m.split(".")[0] == "fairmc"}
        assert ours <= {"fairmc.ising", "fairmc.fileio"}, sorted(ours)


class TestFairness:
    def test_uniform_counts(self):
        rep = fairness(np.array([5.0, 5, 5]))
        assert rep.max_min_ratio == 1.0
        assert rep.tvd_to_uniform == 0.0
        assert rep.all_found

    def test_three_one_counts(self):
        rep = fairness(np.array([3.0, 1.0]))
        assert rep.max_min_ratio == pytest.approx(3.0)
        assert rep.tvd_to_uniform == pytest.approx(0.25)

    def test_zero_count_undefined_ratio(self):
        rep = fairness(np.array([4.0, 0.0]))
        assert rep.max_min_ratio is None
        assert not rep.all_found
        assert rep.tvd_to_uniform == pytest.approx(0.5)

    def test_scale_invariance(self):
        ra = fairness(np.array([2.0, 6, 4]))
        rb = fairness(np.array([20.0, 60, 40]))
        assert ra.max_min_ratio == rb.max_min_ratio
        assert ra.tvd_to_uniform == rb.tvd_to_uniform
        assert ra.all_found == rb.all_found

    def test_multinomial_noise_envelope(self):
        # calibrates acceptance thresholds: a perfectly fair sampler with
        # 10^3 draws over 6 states still shows ratio > 1 from noise alone
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(2000):
            rep = fairness(rng.multinomial(1000, np.full(6, 1 / 6)).astype(float))
            assert rep.all_found
            ratios.append(rep.max_min_ratio)
        assert np.median(ratios) < 1.5
        assert np.quantile(ratios, 0.99) < 2.0

    def test_all_zero_counts(self):
        rep = fairness(np.zeros(3))
        assert rep.max_min_ratio is None
        assert not rep.all_found
        assert math.isnan(rep.tvd_to_uniform)
        assert rep.n_ground == 3


class TestStepsToEnumerate:
    def test_all_found_in_first_steps(self):
        _, steps = checked_visits(chain([0, 1, 2]), gs_list([0, 1, 2]))
        assert steps == 3

    def test_missing_state_incomplete(self):
        _, steps = checked_visits(chain([0, 1, 0, 1]), gs_list([0, 1, 2]))
        assert steps is INCOMPLETE

    def test_monotone_under_extension(self):
        states = [3, 0, 1, 2, 0, 1]
        _, idx = checked_visits(chain(states[:4]), gs_list([0, 1, 2]))
        assert idx == 4
        assert checked_visits(chain(states), gs_list([0, 1, 2]))[1] == idx

    def test_walksat_steps_read_off_the_enumeration(self, tmp_path):
        # a budget small enough that some enumerations stop early
        cfg = ExperimentConfig.from_dict({
            "kind": "KSAT_COUNTING", "k": 2, "sizes": [8], "per_size": 2, "trials": 3,
            "walksat_max_flips": 60, "algorithms": ["walksat"], "seed": 1})
        instset = stage_instances(cfg, tmp_path)
        stage_baselines(cfg, tmp_path)
        complete = []
        for path in sorted((tmp_path / "chains" / "walksat").glob("*.json")):
            summary = json.loads(path.read_text())
            solutions = instset.entries[summary["instance"]].solutions
            if summary["complete"]:
                # every solution found: the last one's flips are the steps
                assert set(summary["found"]) == {s.bits for s in solutions}
                assert summary["steps_to_enumerate"] == summary["flips_at_solution"][-1]
            else:
                assert summary["steps_to_enumerate"] is None
            complete.append(summary["complete"])
        assert len(complete) == 6 and 0 < sum(complete) < 6

    def test_coupon_collector_uniform_sampler(self):
        # independence sampling over 6 equally likely states: mean steps to
        # see all of them is 6 * H_6 = 14.7
        m = IsingModel.from_terms(3, [], offset=0.0)  # flat: all 8 states tie
        rng = np.random.default_rng(3)
        totals = []
        gs6 = gs_list(list(range(6)), n=3)
        for seed in range(300):
            draws = rng.integers(0, 6, size=400)
            _, got = checked_visits(draws.astype(np.uint64), gs6)
            assert got is not INCOMPLETE
            totals.append(got)
        expected = 6 * sum(1 / i for i in range(1, 7))
        assert abs(np.mean(totals) - expected) < 1.0


class TestAggregate:
    def make_records(self):
        recs = []
        for inst in range(4):
            for algo, steps in (("alg_a", 100 + inst), ("alg_b", 200 - inst)):
                recs.append(
                    ResultRecord(
                        k=2, n=8, algorithm=algo, instance=inst,
                        n_ground=4, max_min_ratio=1.5 + inst * 0.1,
                        all_found=True, tvd_to_uniform=0.1, steps=steps,
                    )
                )
        return recs

    def test_single_record_is_its_own_summary(self):
        rec = ResultRecord(2, 8, "alg", 0, 3, 2.0, True, 0.2, 50)
        rows = aggregate([rec])
        assert len(rows) == 1
        assert rows[0]["ratio_mean"] == 2.0
        assert rows[0]["steps_median"] == 50.0
        assert rows[0]["all_found"] == 1

    def test_superiority_antisymmetric(self):
        rows = superiority_counts(self.make_records())
        assert len(rows) == 1
        row = rows[0]
        assert row["a_wins"] + row["b_wins"] + row["ties"] == 4
        assert row["a_wins"] == 4  # alg_a always fewer steps

    def test_incomplete_excluded_uniformly(self):
        recs = self.make_records()
        recs[0].steps = None
        recs[0].max_min_ratio = None
        rows = aggregate(recs)
        a_row = [r for r in rows if r["algorithm"] == "alg_a"][0]
        assert a_row["steps_defined"] == 3
        assert a_row["ratio_defined"] == 3
        assert a_row["instances"] == 4

    def test_csv_roundtrip_and_reaggregation(self, tmp_path):
        recs = self.make_records()
        recs[1].steps = None
        path = tmp_path / "records.csv"
        rows_to_csv([asdict(r) for r in recs], path)
        loaded = records_from_csv(path)
        assert loaded == recs
        assert aggregate(loaded) == aggregate(recs)

    def test_csv_roundtrip_of_pipeline_shaped_records(self, tmp_path):
        # what stage_metrics writes: per-instance mean steps (fractional or
        # None) and WalkSAT rows with no ratio and a NaN TVD
        recs = [
            ResultRecord(3, 10, "qaoa-nmc", 0, 4, 1.75, True, 0.0625, 24.5),
            ResultRecord(3, 10, "qaoa-hmc", 0, 4, None, False, 0.25, None),
            ResultRecord(3, 10, "walksat", 0, 4, None, True, math.nan, 76.5),
        ]
        path = tmp_path / "records.csv"
        rows_to_csv([asdict(r) for r in recs], path)
        loaded = records_from_csv(path)
        assert len(loaded) == len(recs)
        for got, want in zip(loaded, recs):
            for f in fields(ResultRecord):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, float) and math.isnan(b):
                    assert isinstance(a, float) and math.isnan(a), f.name
                else:
                    assert a == b and type(a) is type(b), f.name

    def test_rows_to_csv(self, tmp_path):
        rows = aggregate(self.make_records())
        out = tmp_path / "summary.csv"
        rows_to_csv(rows, out)
        assert out.read_text().startswith("k,n,algorithm,")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
