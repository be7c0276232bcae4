import pickle

import numpy as np
import pytest

from fairmc.exact import boltzmann
from fairmc.fixtures import load_all
from fairmc.ising import (
    CapacityError,
    IsingModel,
    SpinConfig,
    Temperature,
    basis_energies,
    bit_rows,
    energy_of_bits,
    energy_levels,
    ground_states_bruteforce,
)
from fairmc.sat import ALPHA_C, generate_instance, to_ising

from random_inputs import random_model


def energy_scalar_loop(model, config):
    """Independent oracle: plain per-term loop over explicit spin values."""
    spins = 1 - 2 * bit_rows(config.bits, config.n)
    e = model.offset
    for t in model.terms:
        p = 1
        for s in t.sites:
            p *= spins[s]
        e += t.coeff * p
    return float(e)


class TestSpinConfig:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            spins = rng.choice([-1, 1], size=n).tolist()
            c = SpinConfig(sum(1 << i for i, s in enumerate(spins) if s == -1), n)
            assert (1 - 2 * bit_rows(c.bits, n)).tolist() == spins
            assert SpinConfig.from_bitstring(c.to_bitstring()) == c

    @pytest.mark.parametrize("s", ["0120", "01a", "", " 01", "0_1", "+1", "1\n"])
    def test_bitstring_of_other_characters_refused(self, s):
        with pytest.raises(ValueError):
            SpinConfig.from_bitstring(s)

    def test_convention_bit1_is_spin_down(self):
        c = SpinConfig(0b101, 3)
        assert (1 - 2 * bit_rows(c.bits, 3)).tolist() == [-1, 1, -1]
        assert bit_rows(c.bits, 3).tolist() == [1, 0, 1]

    def test_bit_rows_of_a_vector_stack_the_single_rows(self):
        z = np.array([0, 5, (1 << 40) + 3, (1 << 64) - 1], dtype=np.uint64)
        rows = bit_rows(z, 64)
        assert rows.shape == (4, 64) and rows.dtype == np.float64
        for v, row in zip(z, rows):
            np.testing.assert_array_equal(row, bit_rows(int(v), 64))
            assert SpinConfig.from_bitstring("".join(map(str, row.astype(int)))).bits == int(v)


class TestEnergy:
    def test_ferromagnetic_aligned_pair(self):
        m = IsingModel.from_terms(2, [((0, 1), -1.0)])
        assert energy_of_bits(m, 0) == -1.0  # s = (+1, +1)

    def test_empty_terms_gives_offset(self):
        m = IsingModel.from_terms(3, [], offset=2.5)
        for z in range(8):
            assert energy_of_bits(m, z) == 2.5

    def test_matches_scalar_loop_oracle_all_configs(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 5, n_terms=10, max_order=3)
        for z in range(32):
            c = SpinConfig(z, 5)
            assert energy_of_bits(m, c.bits) == pytest.approx(energy_scalar_loop(m, c), abs=1e-12)

    def test_duplicate_terms_merged(self):
        m = IsingModel.from_terms(2, [((0, 1), 1.0), ((1, 0), 2.0)])
        assert len(m.terms) == 1
        assert m.terms[0].coeff == 3.0
        # exact cancellation drops the term
        m2 = IsingModel.from_terms(2, [((0, 1), 1.0), ((0, 1), -1.0)])
        assert m2.terms == ()

    def test_basis_energies_match_pointwise(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 6, n_terms=12, max_order=3, integer=False)
        e = basis_energies(m)
        for z in range(64):
            assert e[z] == pytest.approx(energy_of_bits(m, z), abs=1e-12)

    @pytest.mark.parametrize("integer", [True, False])
    def test_energy_levels_index_back_to_basis_energies(self, integer):
        m = random_model(np.random.default_rng(9), 8, n_terms=16, max_order=3, integer=integer)
        e = basis_energies(m)
        levels, idx = energy_levels(m)
        assert np.array_equal(levels[idx], e)
        assert np.all(np.diff(levels) > 0)
        assert not levels.flags.writeable and not idx.flags.writeable

    def test_batch_energies_bitwise_equal_to_scalar(self):
        # the table adds the same terms in the same order as the scalar
        # evaluator: equal, not merely close.  Cleared first, so every table
        # here is built by this test
        basis_energies.cache_clear()
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            m = IsingModel.from_terms(
                n,
                [(sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False)),
                  float(rng.normal())) for _ in range(int(rng.integers(1, 25)))],
                offset=float(rng.normal()),
            )
            z = rng.permutation(1 << n)  # every state, in a random order
            assert basis_energies(m)[z].tolist() == [energy_of_bits(m, int(b)) for b in z]

    def test_tables_cached_for_few_models(self):
        # a table is 2^n * 8 B, so the caches keep only the last few models
        rng = np.random.default_rng(12)
        for _ in range(10):
            energy_levels(random_model(rng, 8, n_terms=16, max_order=3, integer=False))
        assert basis_energies.cache_info().currsize <= 8
        assert energy_levels.cache_info().currsize <= 8


class TestBoltzmannWeight:
    """The exact Boltzmann distribution the oracle tests compare against."""

    def test_zero_energy_weight_one(self):
        m = IsingModel.from_terms(2, [])
        assert boltzmann(m, 3.7).tolist() == [0.25] * 4

    def test_definition(self):
        m = IsingModel.from_terms(1, [((0,), 1.5)])  # E = +1.5 at bits 0
        p = boltzmann(m, 2.0)
        assert p[0] / p[1] == pytest.approx(np.exp(-2.0 * 3.0), rel=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_weight_ratio_identity(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 6, n_terms=12, max_order=3, integer=False)
        beta = 0.8
        p = boltzmann(m, beta)
        for _ in range(20):
            a, b = int(rng.integers(64)), int(rng.integers(64))
            expected = np.exp(-beta * (energy_of_bits(m, b) - energy_of_bits(m, a)))
            assert p[b] / p[a] == pytest.approx(expected, rel=1e-12)


class TestTemperature:
    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            Temperature(0.0)
        with pytest.raises(ValueError):
            Temperature(float("inf"))


class TestGroundStates:
    def test_two_site_ferromagnet(self):
        m = IsingModel.from_terms(2, [((0, 1), -1.0)])
        emin, states = ground_states_bruteforce(m)
        assert emin == -1.0
        assert {s.bits for s in states} == {0b00, 0b11}

    def test_single_site_field(self):
        m = IsingModel.from_terms(1, [((0,), 1.0)])
        emin, states = ground_states_bruteforce(m)
        assert emin == -1.0
        assert [(1 - 2 * bit_rows(s.bits, 1)).tolist() for s in states] == [[-1]]

    def test_states_sorted_and_attain_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_model(rng, 7, n_terms=14, max_order=3)
            emin, states = ground_states_bruteforce(m)
            assert states, "ground manifold is never empty"
            bits = [s.bits for s in states]
            assert bits == sorted(bits)
            for s in states:
                assert energy_of_bits(m, s.bits) == pytest.approx(emin, abs=1e-9)

    def test_capacity_guard(self):
        m = IsingModel.from_terms(25, [((0,), 1.0)])
        with pytest.raises(CapacityError):
            ground_states_bruteforce(m)


class TestTieRule:
    """`ground_states_bruteforce` ties within DEGENERACY_ATOL; on the models
    the experiments build, whose distinct energies lie at least 1 apart,
    that is exactly the states at the minimum."""

    @staticmethod
    def assert_exact_minimum(m):
        e = basis_energies(m)
        emin, states = ground_states_bruteforce(m)
        assert emin == e.min()
        assert [s.bits for s in states] == np.flatnonzero(e == e.min()).tolist()

    @pytest.mark.parametrize("k", [2, 3])
    def test_ksat_models(self, k):
        for seed in range(20):
            self.assert_exact_minimum(to_ising(generate_instance(12, k, ALPHA_C[k], seed)))

    def test_fixtures(self):
        for m in load_all().values():
            self.assert_exact_minimum(m)


class TestInvariants:
    def test_spin_inversion_symmetry_even_models(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            terms = []
            for _ in range(10):
                sites = sorted(rng.choice(8, size=2, replace=False).tolist())
                terms.append((sites, float(rng.normal())))
            m = IsingModel.from_terms(8, terms)
            for _ in range(20):
                z = int(rng.integers(256))
                flipped = z ^ 0xFF  # every spin inverted
                assert energy_of_bits(m, z) == pytest.approx(
                    energy_of_bits(m, flipped), abs=1e-12)

    def test_hash_and_equality_are_those_of_the_fields(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, 6, n_terms=12, max_order=3, integer=False)
        twin = IsingModel.from_terms(6, [(t.sites, t.coeff) for t in reversed(m.terms)])
        assert twin == m and twin is not m
        assert hash(m) == hash(twin) == hash((m.n_sites, m.terms, m.offset))
        m.term_masks  # a cached value takes no part in either
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and hash(copy) == hash(m)
        assert m != IsingModel.from_terms(6, [(t.sites, t.coeff) for t in m.terms], 1.0)
