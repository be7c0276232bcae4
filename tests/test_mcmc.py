import hashlib
import math
import random

import numpy as np
import pytest

from fairmc import mcmc
from fairmc.exact import boltzmann, mh_matrix, qe_proposal_matrix, ssf_sweep_matrix
from fairmc.fixtures import SIXFOLD_FIXTURE, load_fixture
from fairmc.ising import (
    CapacityError,
    DimensionError,
    IsingModel,
    SpinConfig,
    Temperature,
    basis_energies,
    energy_of_bits,
)
from fairmc.made import EPS, exact_probabilities
from fairmc.mcmc import (
    MADE_BLOCK,
    HybridUpdate,
    MadeKernel,
    QeKernel,
    SsfSweepUpdate,
    run_chain,
)
from fairmc.qsim import basis_state, evolve_fixed, measure_distribution
from fairmc.sat import ALPHA_C, generate_instance, to_ising

from random_inputs import random_model, random_net


class FlipKernel:
    """Always proposes flipping one fixed site; symmetric."""

    tag = "flip"

    def __init__(self, site):
        self.site = site

    def propose(self, model, bits, rng):
        return bits ^ (1 << self.site)


class ScriptedRng:
    """Returns the given uniforms in order from `random()`."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def trace_digest(trace):
    h = hashlib.sha256()
    # the last array is the 1-based transition index of each record
    for a in (trace.states, trace.energies, trace.accepted, trace.tags,
              np.arange(1, len(trace) + 1, dtype=np.uint64)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def path_digest(trace):
    """`trace_digest` without the energies: the states, accept flags and tags."""
    h = hashlib.sha256()
    for a in (trace.states, trace.accepted, trace.tags):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def assert_energies_exact(trace, model):
    assert trace.energies.tolist() == [energy_of_bits(model, z) for z in trace.states.tolist()]


def final_state(trace, model):
    return SpinConfig(int(trace.states[-1]), model.n_sites)


def site_masks(model):
    """Per site, the (mask, coeff) pairs of the model's terms containing it."""
    return tuple(
        tuple((mask, coeff) for mask, coeff in model.term_masks if mask >> s & 1)
        for s in range(model.n_sites)
    )


def spin_flip_sweep(bits, energy, beta, masks, rng, record=None, tag_id=0):
    """Reference sweep: `mcmc._table_sweep` with each flip's energy
    difference summed over the site's terms (`site_masks`) instead of read
    from the basis-energy table, and the energy tracked as a running sum."""
    for site in mcmc._site_order(len(masks), rng):
        d = 0.0
        for mask, coeff in masks[site]:
            d -= 2.0 * coeff * (1 - 2 * ((bits & mask).bit_count() & 1))
        if d <= 0.0 or rng.random() < math.exp(-beta * d):
            bits ^= 1 << site
            energy += d
            if record is not None:
                record(bits, energy, True, tag_id)
        elif record is not None:
            record(bits, energy, False, tag_id)
    return bits, energy


class TestMhStep:
    """The Metropolis-Hastings step of run_chain, one proposal per step."""

    def test_downhill_always_accepted(self):
        m = IsingModel.from_terms(1, [((0,), 1.0)])  # flipping 0 from +1 lowers E
        init = SpinConfig(0, 1)  # s = +1
        for seed in range(50):
            trace = run_chain(m, Temperature(2.0), FlipKernel(0), 1, init=init,
                              rng_seed=seed)
            assert final_state(trace, m).bits == 1  # s_0 = -1
            assert trace.accepted[0]

    def test_uphill_acceptance_frequency(self):
        # dE = +2h from s = -1, acceptance should be exp(-beta*dE); every
        # accepted uphill flip is followed by a downhill one back
        h, beta = 0.7, 0.9
        m = IsingModel.from_terms(1, [((0,), h)])
        trace = run_chain(m, Temperature(beta), FlipKernel(0), 130_000,
                          init=SpinConfig(1, 1), rng_seed=1)
        before = np.concatenate(([1], trace.states[:-1].astype(int)))
        uphill = before == 1
        trials = int(uphill.sum())
        assert trials >= 100_000
        accepts = int(trace.accepted[uphill].sum())
        p_expected = math.exp(-beta * 2 * h)
        sigma = math.sqrt(p_expected * (1 - p_expected) / trials)
        assert abs(accepts / trials - p_expected) < 3 * sigma

    def test_step_index_advances_on_reject(self):
        m = IsingModel.from_terms(1, [((0,), 100.0)])
        init = SpinConfig(1, 1)  # s = -1
        trace = run_chain(m, Temperature(5.0), FlipKernel(0), 1, init=init, rng_seed=2)
        assert trace.n_steps == 1 and trace.n_transitions == 1
        assert final_state(trace, m) == init  # enormous uphill move rejected
        assert not trace.accepted[0]

    def test_energy_cache_coherent(self):
        rng_np = np.random.default_rng(3)
        m = random_model(rng_np, 5, integer=False)
        net = random_net(5)
        trace = run_chain(m, Temperature(1.0), MadeKernel(net), 30,
                          init=SpinConfig(17, 5), rng_seed=3)
        assert_energies_exact(trace, m)


class TestDetailedBalance:
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_made_kernel_exact_detailed_balance(self, beta):
        m = random_model(np.random.default_rng(4), 4)
        net = random_net(4, seed=5)
        q = exact_probabilities(net)
        p = mh_matrix(m, beta, np.tile(q, (16, 1)), np.log(q))
        pi = boltzmann(m, beta)
        flow = pi[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-10
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_uniform_kernel_exact_detailed_balance(self):
        m = random_model(np.random.default_rng(6), 4)
        p = mh_matrix(m, 1.5, np.full((16, 16), 1 / 16))
        pi = boltzmann(m, 1.5)
        flow = pi[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-10

    def test_ssf_sweep_stationarity(self):
        m = random_model(np.random.default_rng(7), 4)
        beta = 1.2
        p = ssf_sweep_matrix(m, beta)
        pi = boltzmann(m, beta)
        assert np.abs(pi @ p - pi).sum() < 1e-9

    def test_hybrid_composition_stationarity(self):
        m = random_model(np.random.default_rng(8), 4)
        net = random_net(4, seed=9)
        beta = 1.2
        q = exact_probabilities(net)
        p_made = mh_matrix(m, beta, np.tile(q, (16, 1)), np.log(q))
        p_hybrid = p_made @ ssf_sweep_matrix(m, beta)
        pi = boltzmann(m, beta)
        assert np.abs(pi @ p_hybrid - pi).sum() < 1e-9

    def test_made_empirical_matches_exact_kernel(self):
        # the sampled chain must follow the analytic transition matrix
        m = random_model(np.random.default_rng(10), 3)
        net = random_net(3, seed=11)
        beta = 1.0
        trace = run_chain(m, Temperature(beta), MadeKernel(net), 200_000, rng_seed=12)
        pi = boltzmann(m, beta)
        freq = np.bincount(trace.states.astype(int), minlength=8) / len(trace)
        assert 0.5 * np.abs(freq - pi).sum() < 0.02


class TestSsfSweep:
    """The single-spin-flip sweep, run through run_chain."""

    def test_beta_small_accepts_everything(self):
        m = IsingModel.from_terms(4, [((i, (i + 1) % 4), 1e-12) for i in range(3)])
        trace = run_chain(m, Temperature(1.0), SsfSweepUpdate(), 1,
                          init=SpinConfig(0, 4), rng_seed=13)
        # with vanishing couplings every flip is ~free: all 4 sites flipped
        assert final_state(trace, m).bits == 0b1111

    def test_strong_coupling_only_downhill(self):
        m = IsingModel.from_terms(2, [((0, 1), 1.0)])  # AFM pair
        trace = run_chain(m, Temperature(1e6), SsfSweepUpdate(), 1,
                          init=SpinConfig(0, 2), rng_seed=14)  # aligned, E=+1
        assert trace.energies[-1] == -1.0

    def test_energy_tracking(self):
        m = random_model(np.random.default_rng(15), 6, integer=False)
        trace = run_chain(m, Temperature(0.7), SsfSweepUpdate(), 20,
                          init=SpinConfig(11, 6), rng_seed=16)
        assert_energies_exact(trace, m)

    def test_pinned_traces(self):
        # captured before the sweep was shared with PT-ICM; must not change
        m = random_model(np.random.default_rng(50), 5)
        trace = run_chain(m, Temperature(0.8), SsfSweepUpdate(), 4, rng_seed=51)
        assert trace.states.tolist() == [15, 15, 14, 14, 14, 14, 14, 14, 14, 14,
                                         14, 14, 14, 14, 14, 14, 14, 15, 13, 13]
        assert trace.accepted.astype(int).tolist() == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0,
                                                       0, 0, 0, 0, 0, 0, 0, 1, 1, 0]
        # a Gaussian model: its path (states, accept flags, tags) is pinned
        # apart from its energies, which must be exact
        mf = random_model(np.random.default_rng(52), 6, n_terms=12, integer=False)
        trace = run_chain(mf, Temperature(1.3), SsfSweepUpdate(), 300, rng_seed=53)
        assert path_digest(trace) == "17bf45cf67c46576"
        assert trace_digest(trace) == "f3c3a33fc725a370"
        assert_energies_exact(trace, mf)


class TestSiteOrder:
    def test_matches_random_shuffle(self):
        # the same permutation from the same getrandbits calls, so both
        # generators end in the same state
        for n in range(1, 25):
            for seed in range(100):
                ours, theirs = random.Random(seed), random.Random(seed)
                expected = list(range(n))
                theirs.shuffle(expected)
                assert mcmc._site_order(n, ours) == expected
                assert ours.getstate() == theirs.getstate()


class TestTableSweep:
    """The one sweep reads the basis-energy table; on a k-SAT model, whose
    energies and energy differences float64 sums exactly, the reference
    sweep, which sums each flip's difference over the site's terms, makes the
    same transitions from the same random draws."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_mask_sweep_reference(self, k):
        m = to_ising(generate_instance(10, k, ALPHA_C[k], 62 + k))
        table, masks = basis_energies(m).tolist(), site_masks(m)
        ours, theirs = random.Random(64), random.Random(64)
        bits = ref_bits = ours.getrandbits(10)
        theirs.getrandbits(10)
        energy = ref_energy = energy_of_bits(m, bits)
        flags = set()
        for beta in [0.5, 2.0] * 150:
            a, b = [], []
            bits, energy = mcmc._table_sweep(table, bits, energy, beta, ours,
                                             lambda *r: a.append(r))
            ref_bits, ref_energy = spin_flip_sweep(ref_bits, ref_energy, beta, masks,
                                                   theirs, lambda *r: b.append(r))
            assert (bits, energy, a) == (ref_bits, ref_energy, b)
            assert ours.getstate() == theirs.getstate()
            flags.update(acc for _, _, acc, _ in a)
        assert flags == {False, True}

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("hybrid", [False, True])
    def test_run_chain_matches_mask_sweep(self, monkeypatch, k, hybrid):
        # run_chain with its sweep swapped for the reference gives the same trace
        m = to_ising(generate_instance(10, k, ALPHA_C[k], 62 + k))
        update = HybridUpdate(random_net(10, seed=63)) if hybrid else SsfSweepUpdate()
        table = run_chain(m, Temperature(2.0), update, 300, rng_seed=64)
        masks = site_masks(m)
        monkeypatch.setattr(
            mcmc, "_table_sweep",
            lambda _table, bits, energy, beta, rng, record=None, tag_id=0:
                spin_flip_sweep(bits, energy, beta, masks, rng, record, tag_id))
        mask = run_chain(m, Temperature(2.0), update, 300, rng_seed=64)
        assert table.states.tolist() == mask.states.tolist()
        assert table.energies.tobytes() == mask.energies.tobytes()
        assert table.accepted.tolist() == mask.accepted.tolist()
        assert table.tags.tolist() == mask.tags.tolist()
        assert table.accepted.any() and not table.accepted.all()

    def test_reference_tracks_full_recompute(self):
        # at beta = 0 the reference accepts every flip, so each incremental
        # difference lands in the tracked energy
        m = random_model(np.random.default_rng(3), 8, n_terms=20, max_order=3)
        masks = site_masks(m)
        recorded = []

        def record(bits, e, accepted, tag_id):
            assert accepted
            recorded.append((bits, e))

        for z in range(256):
            spin_flip_sweep(z, energy_of_bits(m, z), 0.0, masks, random.Random(z), record)
        assert len(recorded) == 256 * 8
        for bits, e in recorded:
            assert e == energy_of_bits(m, bits)

    def test_pinned_hybrid_trace(self):
        # captured with the table sweep drawing its order by random.shuffle;
        # must not change
        m = to_ising(generate_instance(10, 3, ALPHA_C[3], 72))
        trace = run_chain(m, Temperature(2.0), HybridUpdate(random_net(10, seed=73)),
                          300, rng_seed=74)
        assert trace_digest(trace) == "337ece6d0dffbcc4"

    def test_pinned_made_trace(self):
        # the independence chain alone on the same instance; captured when
        # MADE candidates' energies came from a per-block batch evaluation
        m = to_ising(generate_instance(10, 3, ALPHA_C[3], 72))
        trace = run_chain(m, Temperature(2.0), MadeKernel(random_net(10, seed=73)),
                          300, rng_seed=74)
        assert trace_digest(trace) == "ac5c02c07d37f70a"

    @pytest.mark.parametrize("neural", [False, True])
    def test_model_above_table_bound_refused(self, monkeypatch, neural):
        # every update type reads the table, built before the first step: no
        # sweep order, candidate block or QE proposal is drawn
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(mcmc, "_site_order", no_step)
        monkeypatch.setattr(mcmc.made_mod, "sample_batch", no_step)
        monkeypatch.setattr(QeKernel, "propose", no_step)
        m = IsingModel.from_terms(25, [((i, i + 1), 1.0) for i in range(24)])
        net = random_net(25, seed=66)
        updates = [MadeKernel(net), HybridUpdate(net)] if neural else [SsfSweepUpdate(),
                                                                      QeKernel()]
        for update in updates:
            with pytest.raises(CapacityError):
                run_chain(m, Temperature(1.0), update, 5, rng_seed=67)


class TestQeKernel:
    def test_zero_time_self_proposal(self, monkeypatch):
        monkeypatch.setattr(mcmc, "QE_TIME_RANGE", (0.0, 0.0))
        m = random_model(np.random.default_rng(17), 3)
        assert QeKernel().propose(m, 5, random.Random(18)) == 5

    def test_proposal_distribution_symmetric_fixed_draw(self):
        m = random_model(np.random.default_rng(19), 4)
        w, t = 0.45, 4.0
        probs_from = {}
        for z in (3, 12):
            out = evolve_fixed(basis_state(4, z), m, w, t)
            probs_from[z] = measure_distribution(out)
        assert probs_from[3][12] == pytest.approx(probs_from[12][3], abs=1e-10)

    def test_exact_detailed_balance_fixed_draw(self, monkeypatch):
        # collapsed QE ranges fix (w, t); the kernel then draws from the
        # rows of q below, and the MH matrix, which accepts as the kernel does
        # (no q ratio), balances every pair of states
        m = random_model(np.random.default_rng(72), 4, integer=False)
        w, t = 0.4, 6.5
        monkeypatch.setattr(mcmc, "QE_DRIVER_WEIGHT_RANGE", (w, w))
        monkeypatch.setattr(mcmc, "QE_TIME_RANGE", (t, t))
        kernel = QeKernel()
        q = qe_proposal_matrix(m, w, t)
        for z in range(16):
            upper = np.cumsum(q[z])
            for zp in np.flatnonzero(q[z] > 1e-9):
                u = upper[zp] - q[z, zp] / 2  # inside zp's interval of [0, 1)
                assert kernel.propose(m, z, ScriptedRng([0.3, 0.9, u])) == zp
        beta = 0.8
        p = mh_matrix(m, beta, q)
        pi = boltzmann(m, beta)
        flow = pi[:, None] * p
        np.testing.assert_allclose(flow, flow.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pi @ p, pi, rtol=0, atol=1e-12)

    def test_chain_matches_boltzmann(self):
        m = random_model(np.random.default_rng(70), 3)
        beta = 0.7
        trace = run_chain(m, Temperature(beta), QeKernel(), 20_000, rng_seed=71)
        freq = np.bincount(trace.states.astype(int), minlength=8) / len(trace)
        assert 0.5 * np.abs(freq - boltzmann(m, beta)).sum() < 0.02

    def test_chain_visits_ground_states(self):
        m = IsingModel.from_terms(3, [((0, 1), -1.0), ((1, 2), -1.0)])
        trace = run_chain(
            m, Temperature(10.0), QeKernel(), 300, rng_seed=20
        )
        visited = set(trace.states.astype(int).tolist())
        assert {0b000, 0b111} <= visited  # both ferromagnetic ground states

    def test_pinned_trace(self):
        # captured when each candidate's energy came from energy_of_bits
        m = load_fixture(SIXFOLD_FIXTURE)
        trace = run_chain(m, Temperature(2.0), QeKernel(), 300, rng_seed=75)
        assert trace_digest(trace) == "82425fd3d3b3157c"

    @pytest.mark.parametrize("other", ["six_sites", "five_site_fourfold"])
    def test_proposes_from_the_chain_model(self, monkeypatch, other):
        # the kernel holds no model: one kernel run on a five-site fixture
        # and then on another model, of another size or the same, evolves
        # each chain's own model and no other
        first = load_fixture(SIXFOLD_FIXTURE)
        second = (random_model(np.random.default_rng(76), 6) if other == "six_sites"
                  else load_fixture(other))
        evolved = []

        def spy(state, model, w, t):
            evolved.append(model)
            return evolve_fixed(state, model, w, t)

        monkeypatch.setattr(mcmc, "evolve_fixed", spy)
        kernel = QeKernel()
        for m in (first, second):
            evolved.clear()
            trace = run_chain(m, Temperature(2.0), kernel, 40, rng_seed=77)
            assert len(evolved) == 40 and all(e is m for e in evolved)
            assert_energies_exact(trace, m)
        if other == "six_sites":
            assert trace.states.max() >= 32  # site 5 of the second model flipped


class TestHybrid:
    def test_step_counts(self):
        m = random_model(np.random.default_rng(21), 5)
        net = random_net(5, seed=22)
        trace = run_chain(m, Temperature(2.0), HybridUpdate(net), 10, rng_seed=23)
        assert trace.n_steps == 10
        assert trace.n_transitions == 10 * (5 + 1)
        assert len(trace) == trace.n_transitions  # every transition recorded

    def test_public_single_step(self):
        m = random_model(np.random.default_rng(24), 4)
        net = random_net(4, seed=25)
        trace = run_chain(m, Temperature(1.0), HybridUpdate(net), 1,
                          init=SpinConfig(0, 4), rng_seed=26)
        final = energy_of_bits(m, int(trace.states[-1]))
        assert trace.energies[-1] == pytest.approx(final, abs=1e-12)

    def test_matches_boltzmann(self):
        # a peaked proposal and a hot target: the sweep moves the state often
        # and log q differs a lot between states, so a stale log q shows
        m = random_model(np.random.default_rng(44), 3)
        net = random_net(3, seed=45, scale=2.0)
        beta = 0.3
        trace = run_chain(m, Temperature(beta), HybridUpdate(net), 50_000, rng_seed=46)
        freq = np.bincount(trace.states.astype(int), minlength=8) / len(trace)
        assert 0.5 * np.abs(freq - boltzmann(m, beta)).sum() < 0.02


class TestRunChain:
    def test_single_step_trace(self):
        m = random_model(np.random.default_rng(27), 3)
        trace = run_chain(m, Temperature(1.0), FlipKernel(0), 1, rng_seed=28)
        assert len(trace) == 1
        assert trace.n_steps == 1

    def test_deterministic_given_seed(self):
        m = random_model(np.random.default_rng(29), 4)
        net = random_net(4, seed=30)
        a = run_chain(m, Temperature(1.0), HybridUpdate(net), 50, rng_seed=31)
        b = run_chain(m, Temperature(1.0), HybridUpdate(net), 50, rng_seed=31)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.accepted, b.accepted)

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_same_seed_same_trace_across_blocks(self, hybrid):
        m = random_model(np.random.default_rng(47), 5, integer=False)
        net = random_net(5, seed=48)
        update = HybridUpdate(net) if hybrid else MadeKernel(net)
        steps = 2 * MADE_BLOCK + 7
        a = run_chain(m, Temperature(1.0), update, steps, rng_seed=49)
        b = run_chain(m, Temperature(1.0), update, steps, rng_seed=49)
        assert trace_digest(a) == trace_digest(b)
        assert a.tag_legend == b.tag_legend

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_recorded_energies_across_blocks(self, hybrid):
        # longer than one block, so the candidate block is refilled
        m = random_model(np.random.default_rng(56), 6, n_terms=12, integer=False)
        net = random_net(6, seed=57)
        update = HybridUpdate(net) if hybrid else MadeKernel(net)
        trace = run_chain(m, Temperature(0.5), update, 2 * MADE_BLOCK + 7, rng_seed=58)
        made = trace.tags == trace.tag_legend.index("made")
        assert made.sum() == 2 * MADE_BLOCK + 7
        assert trace.accepted[made].any()
        # a candidate's energy, a chain's carried one, or a sweep's table entry
        assert_energies_exact(trace, m)

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_net_size_mismatch_refused(self, hybrid):
        m = random_model(np.random.default_rng(59), 5)
        net = random_net(4, seed=60)
        update = HybridUpdate(net) if hybrid else MadeKernel(net)
        with pytest.raises(DimensionError):
            run_chain(m, Temperature(1.0), update, 10, rng_seed=61)

    def test_fixed_init_respected(self):
        m = random_model(np.random.default_rng(32), 4)
        init = SpinConfig(9, 4)
        trace = run_chain(
            m, Temperature(1e6), FlipKernel(0), 1, init=init, rng_seed=33
        )
        assert trace.states[0] in (9, 9 ^ 1)

    def test_ground_state_occupancy_low_temperature(self):
        m = random_model(np.random.default_rng(36), 5)
        e = basis_energies(m)
        gs = set(np.nonzero(e == e.min())[0].tolist())
        trace = run_chain(m, Temperature(10.0), SsfSweepUpdate(), 300, rng_seed=37)
        frac = np.mean([int(z) in gs for z in trace.states])
        assert frac > 0.9

    def test_long_run_ssf_matches_boltzmann(self):
        m = random_model(np.random.default_rng(38), 4)
        beta = 0.5
        trace = run_chain(m, Temperature(beta), SsfSweepUpdate(), 50_000, rng_seed=39)
        freq = np.bincount(trace.states.astype(int), minlength=16) / len(trace)
        assert 0.5 * np.abs(freq - boltzmann(m, beta)).sum() < 0.02


class TestErgodicityFloor:
    def test_made_proposal_floor(self):
        net = random_net(6, seed=43)
        probs = exact_probabilities(net)
        # clamped conditionals put every state at EPS^N or above, which
        # keeps independence chains irreducible
        assert probs.min() >= EPS**net.n_inputs * 0.99
