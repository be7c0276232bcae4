import hashlib
import math
import random

import numpy as np
import pytest

from fairmc.ising import (
    DimensionError,
    IsingModel,
    SpinConfig,
    Temperature,
    basis_energies,
    energy,
)
from fairmc.made import MadeNetwork, exact_probabilities
from fairmc.mcmc import (
    MADE_BLOCK,
    ChainTrace,
    HybridUpdate,
    MadeKernel,
    Proposal,
    QeHyper,
    SsfSweepUpdate,
    UniformKernel,
    kernel_made,
    kernel_qe_mcmc,
    proposal_floor,
    run_chain,
)
from fairmc.qsim import basis_state, evolve_fixed, measure_distribution


def random_model(rng, n, n_terms=8, integer=True):
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, 3))
        sites = sorted(rng.choice(n, size=order, replace=False).tolist())
        coeff = float(rng.choice([-1, 1])) if integer else float(rng.normal())
        terms.append((sites, coeff))
    return IsingModel.from_terms(n, terms)


def random_net(n, seed=0, scale=0.3):
    net = MadeNetwork(n, (4 * n,), rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    net.weights = [w + rng.normal(size=w.shape) * scale for w in net.weights]
    net.biases = [rng.normal(size=b.shape) * scale for b in net.biases]
    return net


def boltzmann(model, beta):
    e = basis_energies(model)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def independence_transition_matrix(model, beta, q):
    """Exact MH transition matrix for an independence sampler with pmf q."""
    e = basis_energies(model)
    dim = len(e)
    p = np.zeros((dim, dim))
    for z in range(dim):
        for zp in range(dim):
            if zp == z:
                continue
            log_ratio = -beta * (e[zp] - e[z]) + math.log(q[z]) - math.log(q[zp])
            p[z, zp] = q[zp] * min(1.0, math.exp(log_ratio))
        p[z, z] = 1.0 - p[z].sum()
    return p


def ssf_site_matrix(model, beta, site):
    e = basis_energies(model)
    dim = len(e)
    p = np.zeros((dim, dim))
    for z in range(dim):
        zp = z ^ (1 << site)
        a = min(1.0, math.exp(-beta * (e[zp] - e[z])))
        p[z, zp] = a
        p[z, z] = 1.0 - a
    return p


def ssf_sweep_matrix(model, beta):
    """Average over all site permutations of the sequential-update product."""
    import itertools

    n = model.n_sites
    dim = 1 << n
    site_mats = [ssf_site_matrix(model, beta, i) for i in range(n)]
    total = np.zeros((dim, dim))
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        p = np.eye(dim)
        for site in perm:
            p = p @ site_mats[site]
        total += p
    return total / len(perms)


class FlipKernel:
    """Always proposes flipping one fixed site; symmetric."""

    tag = "flip"

    def __init__(self, site):
        self.site = site

    def propose(self, current, rng):
        return Proposal(current.flip(self.site))


class ScriptedRng:
    """Returns the given uniforms in order from `random()`."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def trace_digest(trace):
    h = hashlib.sha256()
    for a in (trace.states, trace.energies, trace.accepted, trace.tags,
              trace.transition_index):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def final_state(trace):
    return SpinConfig(int(trace.states[-1]), trace.n_sites)


class TestMhStep:
    """The Metropolis-Hastings step of run_chain, one proposal per step."""

    def test_downhill_always_accepted(self):
        m = IsingModel.from_terms(1, [((0,), 1.0)])  # flipping 0 from +1 lowers E
        init = SpinConfig.from_spins([1])
        for seed in range(50):
            trace = run_chain(m, Temperature(2.0), FlipKernel(0), 1, init=init,
                              rng_seed=seed)
            assert final_state(trace).spins()[0] == -1
            assert trace.accepted[0]

    def test_uphill_acceptance_frequency(self):
        # dE = +2h from s = -1, acceptance should be exp(-beta*dE); every
        # accepted uphill flip is followed by a downhill one back
        h, beta = 0.7, 0.9
        m = IsingModel.from_terms(1, [((0,), h)])
        trace = run_chain(m, Temperature(beta), FlipKernel(0), 130_000,
                          init=SpinConfig.from_spins([-1]), rng_seed=1)
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
        init = SpinConfig.from_spins([-1])
        trace = run_chain(m, Temperature(5.0), FlipKernel(0), 1, init=init, rng_seed=2)
        assert trace.n_steps == 1 and trace.transition_index.tolist() == [1]
        assert final_state(trace) == init  # enormous uphill move rejected
        assert not trace.accepted[0]

    def test_energy_cache_coherent(self):
        rng_np = np.random.default_rng(3)
        m = random_model(rng_np, 5, integer=False)
        net = random_net(5)
        trace = run_chain(m, Temperature(1.0), MadeKernel(net), 30,
                          init=SpinConfig(17, 5), rng_seed=3)
        for config, e in zip(trace.configs(), trace.energies):
            assert e == pytest.approx(energy(m, config), abs=1e-12)


class TestDetailedBalance:
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_made_kernel_exact_detailed_balance(self, beta):
        m = random_model(np.random.default_rng(4), 4)
        net = random_net(4, seed=5)
        q = exact_probabilities(net)
        p = independence_transition_matrix(m, beta, q)
        pi = boltzmann(m, beta)
        flow = pi[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-10
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_uniform_kernel_exact_detailed_balance(self):
        m = random_model(np.random.default_rng(6), 4)
        q = np.full(16, 1 / 16)
        p = independence_transition_matrix(m, 1.5, q)
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
        p_made = independence_transition_matrix(m, beta, exact_probabilities(net))
        p_hybrid = p_made @ ssf_sweep_matrix(m, beta)
        pi = boltzmann(m, beta)
        assert np.abs(pi @ p_hybrid - pi).sum() < 1e-9

    def test_made_empirical_matches_exact_kernel(self):
        # the sampled chain must follow the analytic transition matrix
        m = random_model(np.random.default_rng(10), 3)
        net = random_net(3, seed=11)
        beta = 1.0
        trace = run_chain(m, Temperature(beta), kernel_made(net), 200_000, rng_seed=12)
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
        assert final_state(trace).bits == 0b1111

    def test_strong_coupling_only_downhill(self):
        m = IsingModel.from_terms(2, [((0, 1), 1.0)])  # AFM pair
        trace = run_chain(m, Temperature(1e6), SsfSweepUpdate(), 1,
                          init=SpinConfig(0, 2), rng_seed=14)  # aligned, E=+1
        assert trace.energies[-1] == -1.0

    def test_energy_tracking(self):
        m = random_model(np.random.default_rng(15), 6, integer=False)
        trace = run_chain(m, Temperature(0.7), SsfSweepUpdate(), 20,
                          init=SpinConfig(11, 6), rng_seed=16)
        for config, e in zip(trace.configs(), trace.energies):
            assert e == pytest.approx(energy(m, config), abs=1e-10)

    def test_pinned_traces(self):
        # captured before the sweep was shared with PT-ICM; must not change
        m = random_model(np.random.default_rng(50), 5)
        trace = run_chain(m, Temperature(0.8), SsfSweepUpdate(), 4, rng_seed=51)
        assert trace.states.tolist() == [15, 15, 14, 14, 14, 14, 14, 14, 14, 14,
                                         14, 14, 14, 14, 14, 14, 14, 15, 13, 13]
        assert trace.accepted.astype(int).tolist() == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0,
                                                       0, 0, 0, 0, 0, 0, 0, 1, 1, 0]
        mf = random_model(np.random.default_rng(52), 6, n_terms=12, integer=False)
        trace = run_chain(mf, Temperature(1.3), SsfSweepUpdate(), 300, rng_seed=53)
        assert trace_digest(trace) == "2c3e1da2320659da"


class TestQeKernel:
    def test_zero_time_self_proposal(self):
        m = random_model(np.random.default_rng(17), 3)
        kernel = kernel_qe_mcmc(m, QeHyper(time_range=(0.0, 0.0)))
        cur = SpinConfig(5, 3)
        prop = kernel.propose(cur, random.Random(18))
        assert prop.candidate == cur
        assert prop.log_q_forward is None  # symmetric contract

    def test_proposal_distribution_symmetric_fixed_draw(self):
        m = random_model(np.random.default_rng(19), 4)
        w, t, dt = 0.45, 4.0, 0.1
        probs_from = {}
        for z in (3, 12):
            out = evolve_fixed(basis_state(4, z), m, w, t, dt=dt)
            probs_from[z] = measure_distribution(out).probs
        assert probs_from[3][12] == pytest.approx(probs_from[12][3], abs=1e-10)

    def test_exact_detailed_balance_fixed_draw(self):
        # collapsed QeHyper ranges fix (w, t); the kernel then draws from the
        # rows of q below, and the MH matrix balances every pair of states
        m = random_model(np.random.default_rng(72), 4, integer=False)
        w, t = 0.4, 6.5
        hyper = QeHyper(driver_weight_range=(w, w), time_range=(t, t))
        kernel = kernel_qe_mcmc(m, hyper)
        q = np.array([
            measure_distribution(
                evolve_fixed(basis_state(4, z), m, w, t, dt=hyper.trotter_dt)).probs
            for z in range(16)
        ])
        for z in range(16):
            upper = np.cumsum(q[z])
            for zp in np.flatnonzero(q[z] > 1e-9):
                u = upper[zp] - q[z, zp] / 2  # inside zp's interval of [0, 1)
                prop = kernel.propose(SpinConfig(z, 4), ScriptedRng([0.3, 0.9, u]))
                assert prop.candidate.bits == zp
        beta = 0.8
        e = basis_energies(m)
        p = q * np.minimum(1.0, np.exp(-beta * (e[None, :] - e[:, None])))
        np.fill_diagonal(p, 0.0)
        np.fill_diagonal(p, 1.0 - p.sum(axis=1))
        pi = boltzmann(m, beta)
        flow = pi[:, None] * p
        np.testing.assert_allclose(flow, flow.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pi @ p, pi, rtol=0, atol=1e-12)

    def test_chain_matches_boltzmann(self):
        m = random_model(np.random.default_rng(70), 3)
        beta = 0.7
        trace = run_chain(m, Temperature(beta), kernel_qe_mcmc(m), 20_000, rng_seed=71)
        freq = np.bincount(trace.states.astype(int), minlength=8) / len(trace)
        assert 0.5 * np.abs(freq - boltzmann(m, beta)).sum() < 0.02

    def test_chain_visits_ground_states(self):
        m = IsingModel.from_terms(3, [((0, 1), -1.0), ((1, 2), -1.0)])
        trace = run_chain(
            m, Temperature(10.0), kernel_qe_mcmc(m), 300, rng_seed=20
        )
        visited = set(trace.states.astype(int).tolist())
        assert {0b000, 0b111} <= visited  # both ferromagnetic ground states


class TestHybrid:
    def test_step_counts(self):
        m = random_model(np.random.default_rng(21), 5)
        net = random_net(5, seed=22)
        trace = run_chain(m, Temperature(2.0), HybridUpdate(net), 10, rng_seed=23)
        assert trace.n_steps == 10
        assert trace.n_transitions == 10 * (5 + 1)
        assert len(trace) == trace.n_transitions  # thinning 1 keeps all

    def test_public_single_step(self):
        m = random_model(np.random.default_rng(24), 4)
        net = random_net(4, seed=25)
        trace = run_chain(m, Temperature(1.0), HybridUpdate(net), 1,
                          init=SpinConfig(0, 4), rng_seed=26)
        assert trace.energies[-1] == pytest.approx(energy(m, final_state(trace)), abs=1e-12)

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
        trace = run_chain(m, Temperature(1.0), UniformKernel(3), 1, rng_seed=28)
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
        for config, e, is_made, acc in zip(
            trace.configs(), trace.energies, made, trace.accepted
        ):
            if is_made and (acc or not hybrid):
                # a candidate's energy, or a made chain's carried one
                assert e == energy(m, config)
            else:
                # sweeps track the energy incrementally
                assert e == pytest.approx(energy(m, config), abs=1e-12)

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

    def test_thinning(self):
        m = random_model(np.random.default_rng(34), 4)
        trace = run_chain(
            m, Temperature(1.0), SsfSweepUpdate(), 10, rng_seed=35, thinning=4
        )
        assert trace.n_transitions == 40
        assert len(trace) == 10
        assert trace.transition_index.tolist() == [4 * i for i in range(1, 11)]

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


class TestTraceIO:
    def test_csv_and_npz_roundtrip(self, tmp_path):
        m = random_model(np.random.default_rng(40), 4)
        net = random_net(4, seed=41)
        trace = run_chain(m, Temperature(1.0), HybridUpdate(net), 20, rng_seed=42)
        trace.to_csv(tmp_path / "trace.csv")
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "step,bitstring,energy,accepted,kernel_tag"

        trace.save(tmp_path / "trace.npz")
        loaded = ChainTrace.load(tmp_path / "trace.npz")
        assert np.array_equal(loaded.states, trace.states)
        assert loaded.tag_legend == trace.tag_legend
        assert loaded.n_transitions == trace.n_transitions


class TestErgodicityFloor:
    def test_made_proposal_floor(self):
        net = random_net(6, seed=43)
        probs = exact_probabilities(net)
        assert probs.min() >= proposal_floor(net) * 0.99
