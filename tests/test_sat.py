import itertools

import numpy as np
import pytest
from scipy import stats

from fairmc.ising import (
    MAX_BRUTEFORCE_SITES,
    CapacityError,
    SpinConfig,
    basis_energies,
    ground_states_bruteforce,
)
from fairmc.sat import (
    ALPHA_C,
    CnfFormula,
    InfeasibleDensityError,
    UnsupportedWidthError,
    build_instance_set,
    clause_universe_size,
    enumerate_solutions,
    generate_instance,
    load_instance_set,
    read_dimacs,
    save_instance_set,
    to_ising,
    unsatisfied_counts_all,
    write_dimacs,
)


def unsat_count(formula, bits):
    """Clauses with no true literal at the packed assignment `bits`, one by
    one: a literal +v is true iff bit v - 1 is 1, -v iff it is 0."""
    return sum(
        not any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in c)
        for c in formula.clauses
    )


class TestEvalClause:
    """A single clause's truth value, as `unsatisfied_counts_all` counts it."""

    def test_all_positive_all_false(self):
        f = CnfFormula(2, ((1, 2),))
        assert unsatisfied_counts_all(f)[0b00] == 1

    def test_negated_literal_true_on_zero(self):
        f = CnfFormula(2, ((1, -2),))
        assert unsatisfied_counts_all(f)[0b00] == 0

    def test_truth_table_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            vs = rng.choice(5, size=k, replace=False)
            negs = rng.integers(0, 2, size=k)
            c = tuple(-(int(v) + 1) if g else int(v) + 1 for v, g in zip(vs, negs))
            counts = unsatisfied_counts_all(CnfFormula(5, (c,)))
            for bits in itertools.product([0, 1], repeat=5):
                satisfied = any((bits[abs(lit) - 1] == 1) == (lit > 0) for lit in c)
                z = SpinConfig.from_bitstring("".join(map(str, bits))).bits
                assert counts[z] == int(not satisfied)

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError, match=r"1\.\.2"):
            CnfFormula(2, ((4,),))


class TestCountUnsatisfied:
    def test_satisfying_assignment(self):
        f = CnfFormula(2, ((1, 2),))
        assert unsatisfied_counts_all(f)[SpinConfig.from_bitstring("10").bits] == 0

    def test_contradiction_pair_always_one(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert unsatisfied_counts_all(f).tolist() == [1, 1]

    def test_clause_by_clause_oracle(self):
        rng = np.random.default_rng(1)
        f = generate_instance(8, 3, ALPHA_C[3], 17)
        counts = unsatisfied_counts_all(f)
        for _ in range(50):
            z = int(rng.integers(256))
            assert counts[z] == unsat_count(f, z)

    def test_vectorized_counts_match(self):
        f = generate_instance(8, 2, 1.0, 3)
        counts = unsatisfied_counts_all(f)
        assert counts.tolist() == [unsat_count(f, z) for z in range(256)]


class TestToIsing:
    def test_three_clause_penalty_localized(self):
        f = CnfFormula(3, ((1, 2, 3),))
        m = to_ising(f)
        e = basis_energies(m)
        assert e[0] == 1.0  # x = (0,0,0) is the only violating assignment
        assert all(e[z] == 0.0 for z in range(1, 8))

    def test_two_clause_expansion(self):
        # (x0 or x1) -> (1/4)(1 + s0 + s1 + s0*s1)
        f = CnfFormula(2, ((1, 2),))
        m = to_ising(f)
        assert m.offset == 0.25
        coeffs = {t.sites: t.coeff for t in m.terms}
        assert coeffs == {(0,): 0.25, (1,): 0.25, (0, 1): 0.25}

    def test_exhaustive_equivalence_random_3sat(self):
        for seed in range(5):
            f = generate_instance(10, 3, ALPHA_C[3], seed)
            e = basis_energies(to_ising(f))
            counts = unsatisfied_counts_all(f)
            assert np.array_equal(e, counts.astype(float))

    def test_exhaustive_equivalence_random_2sat(self):
        for seed in range(5):
            f = generate_instance(12, 2, 1.0, seed)
            e = basis_energies(to_ising(f))
            counts = unsatisfied_counts_all(f)
            assert np.array_equal(e, counts.astype(float))

    def test_width_guard(self):
        f = CnfFormula(4, ((1, 2, 3, 4),))
        with pytest.raises(UnsupportedWidthError):
            to_ising(f)

    def test_exhaustive_capacity_guard(self):
        # refused before any of the 2^n assignments is built
        f = CnfFormula(MAX_BRUTEFORCE_SITES + 1, ())
        with pytest.raises(CapacityError, match=f"limited to {MAX_BRUTEFORCE_SITES} "):
            unsatisfied_counts_all(f)


class TestGenerateInstance:
    def test_clause_count(self):
        f = generate_instance(8, 2, 1.0, 0)
        assert f.n_clauses == int(1.0 * 8) + 1
        f = generate_instance(10, 3, 4.267, 0)
        assert f.n_clauses == int(4.267 * 10) + 1

    def test_deterministic(self):
        a = generate_instance(10, 3, ALPHA_C[3], 42)
        b = generate_instance(10, 3, ALPHA_C[3], 42)
        assert a == b

    def test_clauses_distinct_with_distinct_variables(self):
        for seed in range(20):
            f = generate_instance(9, 3, ALPHA_C[3], seed)
            keys = set()
            for c in f.clauses:
                assert len(set(map(abs, c))) == len(c) == 3
                keys.add(c)
            assert len(keys) == f.n_clauses

    def test_infeasible_density(self):
        with pytest.raises(InfeasibleDensityError):
            generate_instance(3, 2, 5.0, 0)  # 16 clauses from a universe of 12

    def test_clause_frequency_uniformity(self):
        # 1000 seeds at n=10, k=3: chi-square over the 960-clause universe
        n, k = 10, 3
        universe = clause_universe_size(n, k)
        freq: dict[tuple, int] = {}
        for seed in range(1000):
            f = generate_instance(n, k, ALPHA_C[3], seed)
            for c in f.clauses:
                freq[c] = freq.get(c, 0) + 1
        assert len(freq) == universe  # every clause seen at ~45 expected hits
        observed = np.array(list(freq.values()))
        _, p = stats.chisquare(observed)
        assert p > 0.001


class TestEnumerateSolutions:
    def test_unsat_pair(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert enumerate_solutions(f) == []

    def test_empty_formula(self):
        f = CnfFormula(3, ())
        sols = enumerate_solutions(f)
        assert len(sols) == 8
        assert [s.bits for s in sols] == list(range(8))

    def test_counts_agree_with_ising_degeneracy(self):
        matched = 0
        for seed in range(100):
            k = 2 if seed % 2 == 0 else 3
            n = 8 + (seed % 3)
            f = generate_instance(n, k, ALPHA_C[k], seed)
            sols = enumerate_solutions(f)
            emin, states = ground_states_bruteforce(to_ising(f))
            if sols:
                assert emin == 0.0
                assert [s.bits for s in states] == [s.bits for s in sols]
                matched += 1
            else:
                assert emin > 0.0
        assert matched > 0


class TestInstanceSet:
    def test_build_and_verify(self):
        instset = build_instance_set([8, 9], k=2, per_size=5, alpha_c=1.0, seed=7)
        assert len(instset.entries) == 10
        for entry in instset.entries:
            assert len(entry.solutions) >= 2
            counts = unsatisfied_counts_all(entry.formula)
            for s in entry.solutions:
                assert counts[s.bits] == 0

    def test_roundtrip_via_directory(self, tmp_path):
        instset = build_instance_set([8], k=3, per_size=3, alpha_c=ALPHA_C[3], seed=1)
        save_instance_set(instset, tmp_path / "set")
        loaded = load_instance_set(tmp_path / "set")
        assert loaded.k == instset.k
        assert loaded.alpha == instset.alpha
        for a, b in zip(loaded.entries, instset.entries):
            assert a.formula.clauses == b.formula.clauses
            assert a.solutions == b.solutions
            assert a.seed == b.seed


class TestDimacs:
    def test_roundtrip(self, tmp_path):
        f = generate_instance(9, 3, ALPHA_C[3], 23)
        p = tmp_path / "f.cnf"
        write_dimacs(f, p)
        g = read_dimacs(p)
        assert g.n_vars == f.n_vars
        assert g.clauses == f.clauses

    def test_reads_comments_and_header(self, tmp_path):
        p = tmp_path / "g.cnf"
        for text, clauses in [
            ("c comment line\np cnf 3 2\n1 -2 0\n2 3 0\n", ((1, -2), (2, 3))),
            # a clause is stored sorted by variable
            ("p cnf 3 2\n2 -1 0\n3 2 0\n", ((-1, 2), (2, 3))),
        ]:
            p.write_text(text)
            f = read_dimacs(p)
            assert f.n_vars == 3
            assert f.n_clauses == 2
            assert f.clauses == clauses
        assert CnfFormula(2, ((2, -1),)).clauses == ((-1, 2),)

    @pytest.mark.parametrize("text, match", [
        ("p cnf 3 1\n1 0 2 0\n", r"in 1\.\.3"),
        ("p cnf 3 1\n1 4 0\n", r"in 1\.\.3"),
        ("p cnf 3 1\n1 -1 0\n", "repeated variable"),
        ("1 2 0\n", "missing 'p cnf' header"),
        ("p cnf 3 2\n1 2 0\n", "1 clauses, the header says 2"),
        ("p cnf 3 1\n1 2 0\n2 3 0\n", "2 clauses, the header says 1"),
    ], ids=["literal_0", "variable_above_n", "repeated_variable", "no_header",
            "missing_clause", "extra_clause"])
    def test_refused_file(self, tmp_path, text, match):
        p = tmp_path / "bad.cnf"
        p.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            read_dimacs(p)
        assert str(p) in str(info.value)
