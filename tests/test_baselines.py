import hashlib
import random

import numpy as np
import pytest

from fairmc.baselines import (
    EnumerationResult,
    _Assignment,
    PtIcmConfig,
    UnsupportedModelError,
    WalkSatConfig,
    geometric_beta_ladder,
    houdayer_cluster,
    interaction_adjacency,
    pt_icm_run,
    walksat_enumerate,
    walksat_run,
)
from fairmc import mcmc
from fairmc.exact import boltzmann
from fairmc.ising import (
    IsingModel,
    basis_energies,
    energy_of_bits,
)
from fairmc.sat import (
    ALPHA_C,
    CnfFormula,
    Clause,
    add_blocking_clause,
    build_instance_set,
    count_unsatisfied,
    enumerate_solutions,
    generate_instance,
    to_ising,
)


def random_2body_model(rng, n, n_terms=10):
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, 3))
        sites = sorted(rng.choice(n, size=order, replace=False).tolist())
        terms.append((sites, float(rng.choice([-1, 1]))))
    return IsingModel.from_terms(n, terms)


class TestConfig:
    def test_ladder_geometric_and_ascending(self):
        ladder = geometric_beta_ladder()
        assert len(ladder) == 8
        assert ladder[0] == pytest.approx(0.1)
        assert ladder[-1] == pytest.approx(10.0)
        assert list(ladder) == sorted(ladder)

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            PtIcmConfig(replica_betas=(2.0, 1.0))

    def test_rejects_3body_model(self):
        m = IsingModel.from_terms(4, [((0, 1, 2), 1.0)])
        with pytest.raises(UnsupportedModelError):
            pt_icm_run(m, PtIcmConfig(), 5)


class TestIcmMove:
    def test_identical_replicas_noop(self):
        m = random_2body_model(np.random.default_rng(0), 5)
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
            m = random_2body_model(rng_np, 7)
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


class TestExchange:
    def test_equal_energy_always_exchanges(self):
        m = IsingModel.from_terms(3, [], offset=1.0)  # flat landscape
        cfg = PtIcmConfig(replica_betas=(1.0, 2.0), rng_seed=6)
        _, stats_out = pt_icm_run(m, cfg, 50)
        assert stats_out.exchange_attempts == stats_out.exchange_accepts > 0

    def test_exchange_operator_detailed_balance(self):
        # product-chain oracle on a 3-site model, pair of betas
        m = random_2body_model(np.random.default_rng(7), 3)
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
        m = random_2body_model(np.random.default_rng(11), 4)
        cfg = PtIcmConfig(
            replica_betas=tuple(np.geomspace(0.1, 10.0, 6).tolist()), rng_seed=12
        )
        trace, stats_out = pt_icm_run(m, cfg, 8000)
        freq = np.bincount(
            trace.states[trace.tags == 0].astype(int), minlength=16
        )
        freq = freq / freq.sum()
        tvd = 0.5 * np.abs(freq - boltzmann(m, 10.0)).sum()
        assert tvd < 0.02
        assert stats_out.total_transitions > len(trace)

    def test_deterministic(self):
        m = random_2body_model(np.random.default_rng(13), 4)
        cfg = PtIcmConfig(rng_seed=14)
        a, _ = pt_icm_run(m, cfg, 100)
        b, _ = pt_icm_run(m, cfg, 100)
        assert np.array_equal(a.states, b.states)

    def test_pinned_traces(self):
        # captured before PT-ICM shared run_chain's sweep; must not change
        rng = np.random.default_rng(54)
        terms = []
        for _ in range(12):
            sites = sorted(rng.choice(6, size=int(rng.integers(1, 3)), replace=False).tolist())
            terms.append((sites, float(rng.normal())))
        m = IsingModel.from_terms(6, terms)
        cfg = PtIcmConfig(replica_betas=tuple(np.geomspace(0.2, 5.0, 4).tolist()),
                          rng_seed=55)
        short, _ = pt_icm_run(m, cfg, 3)
        assert short.states.tolist() == [44, 40, 40, 40, 41, 41, 24, 25] + [25] * 16
        assert short.accepted.astype(int).tolist() == (
            [1, 1, 0, 0, 1, 0, 1, 1] + [0] * 6 + [1] + [0] * 9)
        assert short.tags.tolist() == [0] * 6 + [1, 2] + ([0] * 6 + [1, 2]) * 2
        trace, stats_out = pt_icm_run(m, cfg, 200)
        h = hashlib.sha256()
        # the last array is the 1-based transition index of each record
        for a in (trace.states, trace.energies, trace.accepted, trace.tags,
                  np.arange(1, len(trace) + 1, dtype=np.uint64)):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == "2c4499ccdcd46345"
        assert (stats_out.exchange_accepts, stats_out.icm_moves) == (596, 553)


class TestPtIcmTable:
    """PT-ICM on a 2-SAT model reads the basis-energy table."""

    def test_matches_mask_sweep(self, monkeypatch):
        m = to_ising(generate_instance(10, 2, ALPHA_C[2], 65))
        cfg = PtIcmConfig(rng_seed=66)
        table, table_stats = pt_icm_run(m, cfg, 200)
        monkeypatch.setattr(mcmc, "_TABLE_MAX_SITES", 0)
        mask, mask_stats = pt_icm_run(m, cfg, 200)
        assert table.states.tolist() == mask.states.tolist()
        assert table.energies.tobytes() == mask.energies.tobytes()
        assert table.accepted.tolist() == mask.accepted.tolist()
        assert table.tags.tolist() == mask.tags.tolist()
        assert table_stats == mask_stats
        assert table_stats.icm_moves > 0

    def test_energies_after_houdayer_moves(self):
        m = to_ising(generate_instance(10, 2, ALPHA_C[2], 67))
        trace, _ = pt_icm_run(m, PtIcmConfig(rng_seed=68), 200)
        moved = (trace.tags == trace.tag_legend.index("icm")) & trace.accepted
        assert moved.sum() > 10
        assert trace.energies.tolist() == [energy_of_bits(m, z) for z in trace.states.tolist()]


def run_once(formula, cfg):
    """One WalkSAT run seeded from the config, with fresh bookkeeping."""
    return walksat_run(formula, cfg, random.Random(cfg.rng_seed), _Assignment(formula))


class TestWalkSat:
    def test_empty_formula_zero_flips(self):
        f = CnfFormula(4, ())
        res = run_once(f, WalkSatConfig(rng_seed=0))
        assert res.found and res.flips_used == 0

    def test_single_unit_clause(self):
        f = CnfFormula(1, (Clause.from_ints([1]),))
        res = run_once(f, WalkSatConfig(rng_seed=1))
        assert res.found and res.flips_used <= 2
        assert res.solution.bit(0) == 1

    def test_solves_generated_instances(self):
        instset = build_instance_set([12], k=3, per_size=100, alpha_c=ALPHA_C[3], seed=2)
        cfg = WalkSatConfig(max_flips=10**6, rng_seed=3)
        for entry in instset.entries:
            res = run_once(entry.formula, cfg)
            assert res.found
            assert count_unsatisfied(entry.formula, res.solution) == 0


class TestWalkSatEnumerate:
    def test_two_solution_formula(self):
        # pin all but one variable: exactly two solutions differ in x2
        f = CnfFormula(3, (Clause.from_ints([1]), Clause.from_ints([-2])))
        expected = {s.bits for s in enumerate_solutions(f)}
        assert len(expected) == 2
        res = walksat_enumerate(f, WalkSatConfig(max_flips=10_000, rng_seed=4), len(expected))
        assert res.complete
        assert {s.bits for s in res.solutions} == expected

    def test_matches_exact_enumerator(self):
        instset = build_instance_set([10], k=2, per_size=4, alpha_c=1.0, seed=5)
        for entry in instset.entries:
            res = walksat_enumerate(
                entry.formula, WalkSatConfig(max_flips=20_000, rng_seed=6),
                len(enumerate_solutions(entry.formula)),
            )
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
        f = CnfFormula(10, (Clause.from_ints([1, 2]),))
        res = walksat_enumerate(
            f, WalkSatConfig(max_flips=1, rng_seed=7), len(enumerate_solutions(f)))
        assert isinstance(res, EnumerationResult)
        assert not res.complete

    def test_unsat_input_immediately_complete(self):
        f = CnfFormula(2, (Clause.from_ints([1]), Clause.from_ints([-1])))
        res = walksat_enumerate(
            f, WalkSatConfig(max_flips=500, rng_seed=8), len(enumerate_solutions(f)))
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
        res = walksat_enumerate(f, WalkSatConfig(max_flips=max_flips, rng_seed=rng_seed),
                                len(enumerate_solutions(f)))
        assert [s.bits for s in res.solutions] == bits
        assert res.flips_at_solution == flips_at
        assert res.complete is complete
        if not complete:  # the failed run's whole budget is counted
            assert res.total_flips == flips_at[-1] + max_flips

    def test_complete_enumeration_stops_at_last_solution(self):
        instset = build_instance_set([10], k=2, per_size=4, alpha_c=1.0, seed=5)
        for entry in instset.entries:
            res = walksat_enumerate(
                entry.formula, WalkSatConfig(max_flips=20_000, rng_seed=6),
                len(enumerate_solutions(entry.formula)),
            )
            assert res.complete
            assert res.total_flips == res.flips_to_last_solution

    def test_unsat_input_takes_no_flips(self):
        f = CnfFormula(2, (Clause.from_ints([1]), Clause.from_ints([-1])))
        res = walksat_enumerate(
            f, WalkSatConfig(max_flips=500, rng_seed=8), len(enumerate_solutions(f)))
        assert res.complete and res.solutions == [] and res.total_flips == 0


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
        f = CnfFormula(2, (Clause.from_ints([1]),))
        with pytest.raises(ValueError):
            _Assignment(f).block(0b10)

    def test_walksat_run_trajectory_matches_appended_clauses(self):
        formula = generate_instance(9, 2, 1.0, 3)
        sols = enumerate_solutions(formula)
        blocked = sols[: len(sols) - 1]
        reference, asg = self._pair(formula, blocked, 0, _UnsatRecorder)
        appended = CnfFormula(9, reference.clauses)
        cfg = WalkSatConfig(max_flips=5000, rng_seed=0)
        a = walksat_run(appended, cfg, random.Random(1), reference)
        b = walksat_run(formula, cfg, random.Random(1), asg)
        assert a.found and a.solution == b.solution == sols[-1]
        assert a.flips_used == b.flips_used
        assert len(reference.unsat_trace) == a.flips_used
        assert reference.unsat_trace == asg.unsat_trace
