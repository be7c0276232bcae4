import hashlib
import random

import numpy as np
import pytest

from fairmc.baselines import (
    EnumerationResult,
    PtIcmStats,
    _Assignment,
    UnsupportedModelError,
    houdayer_cluster,
    interaction_adjacency,
    pt_icm_run,
    walksat_enumerate,
    walksat_run,
)
from fairmc import baselines, mcmc
from fairmc.exact import boltzmann
from fairmc.fixtures import SIXFOLD_FIXTURE, load_fixture
from fairmc.experiments import PT_BETAS
from fairmc.ising import (
    CapacityError,
    IsingModel,
    SpinConfig,
    basis_energies,
    energy_of_bits,
)
from fairmc.sat import (
    ALPHA_C,
    CnfFormula,
    build_instance_set,
    enumerate_solutions,
    generate_instance,
    to_ising,
    unsatisfied_counts_all,
)
from random_inputs import random_model
from test_mcmc import site_masks, spin_flip_sweep


def trace_digest(trace):
    h = hashlib.sha256()
    # the last array is the 1-based transition index of each record
    for a in (trace.states, trace.energies, trace.accepted, trace.tags,
              np.arange(1, len(trace) + 1, dtype=np.uint64)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class TestConfig:
    def test_ladder_geometric_and_ascending(self):
        assert PT_BETAS == tuple(np.geomspace(0.1, 10.0, 8).tolist())
        assert list(PT_BETAS) == sorted(PT_BETAS)

    def test_rejects_descending(self):
        m = IsingModel.from_terms(2, [((0, 1), 1.0)])
        with pytest.raises(ValueError, match="ascending"):
            pt_icm_run(m, (2.0, 1.0), 5, 0)

    def test_rejects_empty_ladder(self):
        m = IsingModel.from_terms(2, [((0, 1), 1.0)])
        with pytest.raises(ValueError, match="at least one temperature"):
            pt_icm_run(m, (), 5, 0)

    def test_rejects_3body_model(self):
        m = IsingModel.from_terms(4, [((0, 1, 2), 1.0)])
        with pytest.raises(UnsupportedModelError):
            pt_icm_run(m, PT_BETAS, 5, 0)


class TestIcmMove:
    def test_identical_replicas_noop(self):
        m = random_model(np.random.default_rng(0), 5, n_terms=10)
        assert houdayer_cluster(13, 13, interaction_adjacency(m), random.Random(1)) == 0

    def test_fully_antialigned_swaps_component(self):
        # chain 0-1-2: anti-aligned everywhere -> flipping a connected
        # component swaps that component's spins between the replicas
        m = IsingModel.from_terms(3, [((0, 1), -1.0), ((1, 2), -1.0)])
        a, b = 0b000, 0b111
        cluster = houdayer_cluster(a, b, interaction_adjacency(m), random.Random(2))
        assert a ^ cluster == 0b111 and b ^ cluster == 0b000

    def test_pair_energy_conserved_exactly(self):
        rng_np = np.random.default_rng(3)
        rng = random.Random(4)
        for _ in range(50):
            m = random_model(rng_np, 7, n_terms=10)
            a, b = int(rng_np.integers(128)), int(rng_np.integers(128))
            cluster = houdayer_cluster(a, b, interaction_adjacency(m), rng)
            before = energy_of_bits(m, a) + energy_of_bits(m, b)
            after = energy_of_bits(m, a ^ cluster) + energy_of_bits(m, b ^ cluster)
            assert after == before  # exact for integer couplings

    def test_cluster_stays_within_antialigned_domain(self):
        m = IsingModel.from_terms(4, [((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0)])
        a, b = 0b0011, 0b0101
        cluster = houdayer_cluster(a, b, interaction_adjacency(m), random.Random(5))
        assert cluster != 0
        assert cluster & ~(a ^ b) == 0  # only anti-aligned sites move


def list_houdayer_cluster(bits_a, bits_b, adj_lists, rng):
    """Reference Houdayer move: a depth-first search over neighbour lists."""
    diff = bits_a ^ bits_b
    if diff == 0:
        return 0
    sites = [i for i in range(len(adj_lists)) if diff >> i & 1]
    start = sites[int(rng.random() * len(sites)) % len(sites)]
    cluster = 1 << start
    stack = [start]
    while stack:
        i = stack.pop()
        for j in adj_lists[i]:
            jb = 1 << j
            if diff & jb and not cluster & jb:
                cluster |= jb
                stack.append(j)
    return cluster


class TestBitmaskCluster:
    def test_adjacency_masks(self):
        m = IsingModel.from_terms(
            4, [((0, 1), 1.0), ((1, 2), -1.0), ((0, 1), 0.5), ((3,), 1.0)])
        assert interaction_adjacency(m) == [0b0010, 0b0101, 0b0010, 0]

    def test_matches_list_search(self):
        rng_np = np.random.default_rng(21)
        ours, ref = random.Random(22), random.Random(22)
        moved = 0
        sixfold = load_fixture(SIXFOLD_FIXTURE)  # site 4 is in no 2-body term
        for pair in range(1000):
            if pair % 10 == 0:
                m, n = sixfold, sixfold.n_sites
            else:
                n = int(rng_np.integers(2, 13))
                m = random_model(rng_np, n, n_terms=int(rng_np.integers(1, 2 * n)))
            adj = interaction_adjacency(m)
            adj_lists = [[j for j in range(n) if mask >> j & 1] for mask in adj]
            a, b = int(rng_np.integers(1 << n)), int(rng_np.integers(1 << n))
            if rng_np.random() < 0.05:
                b = a
            cluster = houdayer_cluster(a, b, adj, ours)
            assert cluster == list_houdayer_cluster(a, b, adj_lists, ref)
            assert ours.getstate() == ref.getstate()
            moved += cluster.bit_count() > 1
        assert moved > 100

    def test_decoupled_site_moves_alone(self):
        # site 4 of the sixfold fixture is in no 2-body term; with every site
        # anti-aligned the cluster is site 4 alone or the other four
        adj = interaction_adjacency(load_fixture(SIXFOLD_FIXTURE))
        assert adj[4] == 0
        clusters = {houdayer_cluster(0b11111, 0, adj, random.Random(seed))
                    for seed in range(20)}
        assert clusters == {0b10000, 0b01111}


class TestExchange:
    def test_equal_energy_always_exchanges(self):
        m = IsingModel.from_terms(3, [], offset=1.0)  # flat landscape
        _, stats_out = pt_icm_run(m, (1.0, 2.0), 50, 6)
        assert stats_out.exchange_attempts == stats_out.exchange_accepts > 0

    def test_exchange_operator_detailed_balance(self):
        # product-chain oracle on a 3-site model, pair of betas
        m = random_model(np.random.default_rng(7), 3, n_terms=10)
        e = basis_energies(m)
        b1, b2 = 0.7, 1.9
        pi1 = np.exp(-b1 * (e - e.min()))
        pi1 /= pi1.sum()
        pi2 = np.exp(-b2 * (e - e.min()))
        pi2 /= pi2.sum()
        worst = 0.0
        for z1 in range(8):
            for z2 in range(8):
                a_fwd = min(1.0, np.exp((b1 - b2) * (e[z1] - e[z2])))
                a_rev = min(1.0, np.exp((b1 - b2) * (e[z2] - e[z1])))
                flow_fwd = pi1[z1] * pi2[z2] * a_fwd
                flow_rev = pi1[z2] * pi2[z1] * a_rev
                worst = max(worst, abs(flow_fwd - flow_rev))
        assert worst < 1e-10


class TestPtIcmRun:
    def test_cold_replica_matches_boltzmann(self):
        m = random_model(np.random.default_rng(11), 4, n_terms=10)
        betas = tuple(np.geomspace(0.1, 10.0, 6).tolist())
        trace, stats_out = pt_icm_run(m, betas, 8000, 12)
        freq = np.bincount(
            trace.states[trace.tags == 0].astype(int), minlength=16
        )
        freq = freq / freq.sum()
        tvd = 0.5 * np.abs(freq - boltzmann(m, 10.0)).sum()
        assert tvd < 0.02
        assert stats_out.total_transitions > len(trace)

    def test_deterministic(self):
        m = random_model(np.random.default_rng(13), 4, n_terms=10)
        a, _ = pt_icm_run(m, PT_BETAS, 100, 14)
        b, _ = pt_icm_run(m, PT_BETAS, 100, 14)
        assert np.array_equal(a.states, b.states)

    def test_pinned_traces(self):
        # the short trace was captured before PT-ICM shared run_chain's sweep;
        # two replicas in one state hold equal energies, so the long trace's
        # exchanges between them are accepted with no random draw
        rng = np.random.default_rng(54)
        terms = []
        for _ in range(12):
            sites = sorted(rng.choice(6, size=int(rng.integers(1, 3)), replace=False).tolist())
            terms.append((sites, float(rng.normal())))
        m = IsingModel.from_terms(6, terms)
        betas = tuple(np.geomspace(0.2, 5.0, 4).tolist())
        short, _ = pt_icm_run(m, betas, 3, 55)
        assert short.states.tolist() == [44, 40, 40, 40, 41, 41, 24, 25] + [25] * 16
        assert short.accepted.astype(int).tolist() == (
            [1, 1, 0, 0, 1, 0, 1, 1] + [0] * 6 + [1] + [0] * 9)
        assert short.tags.tolist() == [0] * 6 + [1, 2] + ([0] * 6 + [1, 2]) * 2
        trace, stats_out = pt_icm_run(m, betas, 200, 55)
        assert trace_digest(trace) == "3fcfec242c770e16"
        assert (stats_out.exchange_accepts, stats_out.icm_moves) == (624, 537)
        for t in (short, trace):
            assert t.energies.tolist() == [energy_of_bits(m, z) for z in t.states.tolist()]
        # 200 rounds of 2 x 4 sweeps of 6 flips, 2 x 3 exchanges, 4 Houdayer moves
        assert stats_out.total_transitions == 11600


class TestPtIcmTable:
    """PT-ICM on a 2-SAT model reads the basis-energy table."""

    def test_matches_mask_sweep(self, monkeypatch):
        # PT-ICM with its sweep swapped for the reference gives the same run
        m = to_ising(generate_instance(10, 2, ALPHA_C[2], 65))
        table, table_stats = pt_icm_run(m, PT_BETAS, 200, 66)
        masks = site_masks(m)
        monkeypatch.setattr(
            baselines, "_table_sweep",
            lambda _table, bits, energy, beta, rng, record=None, tag_id=0:
                spin_flip_sweep(bits, energy, beta, masks, rng, record, tag_id))
        mask, mask_stats = pt_icm_run(m, PT_BETAS, 200, 66)
        assert table.states.tolist() == mask.states.tolist()
        assert table.energies.tobytes() == mask.energies.tobytes()
        assert table.accepted.tolist() == mask.accepted.tolist()
        assert table.tags.tolist() == mask.tags.tolist()
        assert table_stats == mask_stats
        assert table_stats.icm_moves > 0

    def test_pinned_trace(self):
        # captured with the table sweep drawing its order by random.shuffle;
        # must not change
        m = to_ising(generate_instance(10, 2, ALPHA_C[2], 70))
        trace, stats_out = pt_icm_run(m, PT_BETAS, 200, 71)
        assert trace_digest(trace) == "66cfffcb14377b3d"
        assert stats_out == PtIcmStats(
            rounds=200, exchange_attempts=2800, exchange_accepts=2133,
            icm_attempts=1600, icm_moves=1552, total_transitions=36400)

    def test_model_above_table_bound_refused(self, monkeypatch):
        # the table is built before the first round: no sweep order is drawn
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(mcmc, "_site_order", no_sweep)
        m = IsingModel.from_terms(25, [((i, i + 1), 1.0) for i in range(24)])
        with pytest.raises(CapacityError):
            pt_icm_run(m, PT_BETAS, 5, 69)

    def test_energies_after_houdayer_moves(self):
        m = to_ising(generate_instance(10, 2, ALPHA_C[2], 67))
        trace, _ = pt_icm_run(m, PT_BETAS, 200, 68)
        moved = (trace.tags == trace.tag_legend.index("icm")) & trace.accepted
        assert moved.sum() > 10
        assert trace.energies.tolist() == [energy_of_bits(m, z) for z in trace.states.tolist()]


def run_once(formula, rng_seed, max_flips=10**6):
    """One WalkSAT run seeded with `rng_seed`, with fresh bookkeeping."""
    return walksat_run(_Assignment(formula), max_flips, random.Random(rng_seed))


class TestWalkSat:
    def test_empty_formula_zero_flips(self):
        f = CnfFormula(4, ())
        res = run_once(f, 0)
        assert res.found and res.flips_used == 0

    def test_single_unit_clause(self):
        f = CnfFormula(1, ((1,),))
        res = run_once(f, 1)
        assert res.found and res.flips_used <= 2
        assert res.solution.bits == 1

    def test_solves_generated_instances(self):
        instset = build_instance_set([12], k=3, per_size=100, alpha_c=ALPHA_C[3], seed=2)
        for entry in instset.entries:
            res = run_once(entry.formula, 3)
            assert res.found
            assert unsatisfied_counts_all(entry.formula)[res.solution.bits] == 0


class TestWalkSatEnumerate:
    def test_two_solution_formula(self):
        # pin all but one variable: exactly two solutions differ in x2
        f = CnfFormula(3, ((1,), (-2,)))
        expected = {s.bits for s in enumerate_solutions(f)}
        assert len(expected) == 2
        res = walksat_enumerate(f, len(expected), 10_000, 4)
        assert res.complete
        assert {s.bits for s in res.solutions} == expected

    def test_matches_exact_enumerator(self):
        instset = build_instance_set([10], k=2, per_size=4, alpha_c=1.0, seed=5)
        for entry in instset.entries:
            res = walksat_enumerate(
                entry.formula, len(enumerate_solutions(entry.formula)), 20_000, 6)
            assert res.complete
            assert {s.bits for s in res.solutions} == {
                s.bits for s in entry.solutions
            }
            assert len(res.solutions) == len(set(s.bits for s in res.solutions))
            assert len(res.flips_at_solution) == len(res.solutions)
            assert res.flips_at_solution == sorted(res.flips_at_solution)
            assert res.total_flips >= res.flips_to_last_solution

    def test_incomplete_when_budget_tiny(self):
        # dozens of solutions but almost no flips allowed
        f = CnfFormula(10, ((1, 2),))
        res = walksat_enumerate(f, len(enumerate_solutions(f)), 1, 7)
        assert isinstance(res, EnumerationResult)
        assert not res.complete

    def test_unsat_input_immediately_complete(self):
        f = CnfFormula(2, ((1,), (-1,)))
        res = walksat_enumerate(f, len(enumerate_solutions(f)), 500, 8)
        assert res.complete and res.solutions == []


class TestWalkSatEnumerateGolden:
    # captured from the enumeration that re-solved the formula with appended
    # blocking clauses and ran a last WalkSAT run on the UNSAT remainder;
    # solutions, their flip counts and completeness must not change
    @pytest.mark.parametrize(
        "instance_seed, alpha, rng_seed, max_flips, bits, flips_at, complete",
        [
            (6, 1.5, 31, 20_000,
             [252, 248, 508, 504, 760, 1020, 764, 1016],
             [30, 36, 68, 83, 87, 91, 123, 127], True),
            (5, 2.0, 33, 20_000, [487, 455, 471], [38, 134, 190], True),
            (1, 1.0, 36, 10, [496, 591, 359, 847], [4, 5, 9, 14], False),
        ],
    )
    def test_pinned_enumerations(
        self, instance_seed, alpha, rng_seed, max_flips, bits, flips_at, complete
    ):
        f = generate_instance(10, 2, alpha, instance_seed)
        res = walksat_enumerate(f, len(enumerate_solutions(f)), max_flips, rng_seed)
        assert [s.bits for s in res.solutions] == bits
        assert res.flips_at_solution == flips_at
        assert res.complete is complete
        if not complete:  # the failed run's whole budget is counted
            assert res.total_flips == flips_at[-1] + max_flips

    def test_complete_enumeration_stops_at_last_solution(self):
        instset = build_instance_set([10], k=2, per_size=4, alpha_c=1.0, seed=5)
        for entry in instset.entries:
            res = walksat_enumerate(
                entry.formula, len(enumerate_solutions(entry.formula)), 20_000, 6)
            assert res.complete
            assert res.total_flips == res.flips_to_last_solution

    def test_unsat_input_takes_no_flips(self):
        f = CnfFormula(2, ((1,), (-1,)))
        res = walksat_enumerate(f, len(enumerate_solutions(f)), 500, 8)
        assert res.complete and res.solutions == [] and res.total_flips == 0


def add_blocking_clause(formula, solution):
    """`formula` with the width-n clause that is false exactly at `solution`
    appended: the reference that `_Assignment.block` reproduces without it."""
    if unsatisfied_counts_all(formula)[solution.bits]:
        raise ValueError("blocking clause requires a satisfying assignment")
    clause = tuple(-(v + 1) if solution.bits >> v & 1 else v + 1
                   for v in range(formula.n_vars))
    return CnfFormula(formula.n_vars, formula.clauses + (clause,))


class TestBlockingClause:
    def test_blocks_exactly_one_solution(self):
        f = CnfFormula(3, ())
        sols = enumerate_solutions(f)
        blocked = add_blocking_clause(f, sols[3])
        remaining = enumerate_solutions(blocked)
        assert len(remaining) == 7
        assert sols[3] not in remaining

    def test_sequential_blocking_reaches_unsat(self):
        f = generate_instance(6, 2, 1.0, 11)
        sols = enumerate_solutions(f)
        assert len(sols) >= 1
        for s in sols:
            f = add_blocking_clause(f, s)
        assert enumerate_solutions(f) == []

    def test_requires_satisfying_assignment(self):
        f = CnfFormula(2, ((1,), (2,)))
        with pytest.raises(ValueError):
            add_blocking_clause(f, SpinConfig.from_bitstring("00"))

    def test_count_decreases_by_exactly_one(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            f = generate_instance(7, 2, 1.0, seed)
            sols = enumerate_solutions(f)
            if not sols:
                continue
            pick = sols[int(rng.integers(len(sols)))]
            blocked = add_blocking_clause(f, pick)
            assert len(enumerate_solutions(blocked)) == len(sols) - 1


class _UnsatRecorder(_Assignment):
    """Records the unsatisfied-clause count after each flip."""

    def __init__(self, formula, bits=0):
        self.unsat_trace = []
        super().__init__(formula, bits)

    def flip(self, v):
        super().flip(v)
        self.unsat_trace.append(len(self.unsat))


class TestBlockedSolutionBookkeeping:
    """Blocked solutions must act exactly as the blocking clauses that
    `add_blocking_clause` appends: same unsatisfied list (order included,
    since WalkSAT draws from it by position) and same flip scores."""

    @staticmethod
    def _pair(formula, blocked, bits, assignment=_Assignment):
        appended = formula
        for s in blocked:
            appended = add_blocking_clause(appended, s)
        reference = assignment(appended, bits)
        asg = assignment(formula)
        for s in blocked:
            asg.block(s.bits)
        asg.reset(bits)
        return reference, asg

    @pytest.mark.parametrize("k, alpha, seed", [(2, 0.5, 0), (2, 1.0, 1), (3, 2.0, 2)])
    def test_random_flips_match_appended_clauses(self, k, alpha, seed):
        rng = random.Random(seed)
        n = 7
        formula = generate_instance(n, k, alpha, seed)
        sols = enumerate_solutions(formula)
        blocked = rng.sample(sols, len(sols) // 2)
        blocked_bits = {s.bits for s in blocked}
        reference, asg = self._pair(formula, blocked, blocked[0].bits)
        blocked_to_blocked = 0  # flips that satisfy one blocking clause, break another
        for _ in range(2000):
            assert asg.unsat == reference.unsat
            assert asg.bits == reference.bits
            for v in range(n):
                assert asg.scores(v) == reference.scores(v)
            v = rng.randrange(n)
            blocked_to_blocked += {asg.bits, asg.bits ^ (1 << v)} <= blocked_bits
            asg.flip(v)
            reference.flip(v)
        assert blocked_to_blocked > 0

    def test_block_rejects_non_solution(self):
        f = CnfFormula(2, ((1,),))
        with pytest.raises(ValueError):
            _Assignment(f).block(0b10)

    def test_walksat_run_trajectory_matches_appended_clauses(self):
        formula = generate_instance(9, 2, 1.0, 3)
        sols = enumerate_solutions(formula)
        blocked = sols[: len(sols) - 1]
        reference, asg = self._pair(formula, blocked, 0, _UnsatRecorder)
        a = walksat_run(reference, 5000, random.Random(1))
        b = walksat_run(asg, 5000, random.Random(1))
        assert a.found and a.solution == b.solution == sols[-1]
        assert a.flips_used == b.flips_used
        assert len(reference.unsat_trace) == a.flips_used
        assert reference.unsat_trace == asg.unsat_trace
