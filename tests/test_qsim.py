import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from fairmc.exact import dense_driver, dense_problem
from fairmc.fixtures import FIXTURE_NAMES, load_fixture
from fairmc.experiments import ALPHA_C, to_ising
from fairmc.ising import (
    CapacityError,
    DimensionError,
    IsingModel,
    Temperature,
    basis_energies,
)
from fairmc import mcmc, qsim
from fairmc.mcmc import QeKernel, run_chain
from fairmc.qsim import (
    AnnealSchedule,
    StateVector,
    _anneal_cf4,
    _taylor_split,
    apply_driver,
    apply_mixer_layer,
    apply_phase_layer,
    basis_state,
    evolve_fixed,
    linear_schedule,
    measure_distribution,
    phase_factors,
    problem_norm_ratio,
    rotate_mixer,
    run_annealing,
    run_qaoa,
    sample,
    uniform_state,
)
from fairmc.sat import generate_instance

from random_inputs import random_model


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(amps / np.linalg.norm(amps), n)


def eigh_cf4(model, schedule, n_steps):
    """CF4 with one eigh per exponential: the reference that `_anneal_cf4`,
    which applies each exponential as a Taylor polynomial, is checked against."""
    dt = schedule.total_time / n_steps
    hd, hp = dense_driver(model.n_sites), basis_energies(model)
    (c1, c2), (a1, a2) = qsim._CF4_NODES, qsim._CF4_WEIGHTS
    psi = uniform_state(model.n_sites).amplitudes
    for k in range(n_steps):
        s1, s2 = (k + c1) / n_steps, (k + c2) / n_steps
        d1, d2 = schedule.a_of(s1), schedule.a_of(s2)
        p1, p2 = schedule.b_of(s1), schedule.b_of(s2)
        for w1, w2 in ((a2, a1), (a1, a2)):
            h = (w1 * d1 + w2 * d2) * hd
            np.fill_diagonal(h, (w1 * p1 + w2 * p2) * hp)
            lam, v = np.linalg.eigh(h)
            psi = v @ (np.exp(-1j * dt * lam) * (v.T @ psi))
    return psi


class TestPhaseLayer:
    def test_gamma_zero_identity(self):
        s = uniform_state(3)
        m = random_model(np.random.default_rng(0), 3, integer=False)
        out = apply_phase_layer(s, m, 0.0)
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_offset_only_is_global_phase(self):
        m = IsingModel.from_terms(2, [], offset=1.3)
        s = uniform_state(2)
        out = apply_phase_layer(s, m, 0.7)
        np.testing.assert_allclose(out.probabilities(), s.probabilities(), atol=1e-15)

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 3, integer=False)
        s = random_state(rng, 3)
        gamma = 0.83
        expected = expm(-1j * gamma * dense_problem(m)) @ s.amplitudes
        out = apply_phase_layer(s, m, gamma)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)


    @pytest.mark.parametrize("integer", [True, False])
    def test_level_indexed_phases_bitwise_equal_to_direct(self, integer):
        rng = np.random.default_rng(3)
        if integer:
            m = to_ising(generate_instance(10, 3, ALPHA_C[3], 4))
        else:
            # float couplings: nearly every basis state has its own level
            m = IsingModel.from_terms(10, [((i,), float(rng.normal())) for i in range(10)])
        e = basis_energies(m)
        for gamma in rng.normal(scale=2.0, size=20):
            assert np.array_equal(phase_factors(m, gamma), np.exp(-1j * gamma * e))


class TestMixerLayer:
    def test_beta_zero_identity(self):
        s = uniform_state(3)
        out = apply_mixer_layer(s, 0.0)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_half_pi_flips_single_qubit(self):
        out = apply_mixer_layer(basis_state(1, 0), np.pi / 2)
        assert out.probabilities()[1] == pytest.approx(1.0, abs=1e-12)

    # with 5-qubit blocks: one block up to n = 5, two equal or unequal blocks
    # at 6..8; three and four blocks are checked at n = 12 and 16 below
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_expm_oracle(self, n):
        rng = np.random.default_rng(2)
        s = random_state(rng, n)
        beta = 0.41
        expected = expm(-1j * beta * dense_driver(n)) @ s.amplitudes
        out = apply_mixer_layer(s, beta)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_stacked_states_rotate_independently(self, n):
        rng = np.random.default_rng(7)
        pair = np.stack([random_state(rng, n).amplitudes for _ in range(2)])
        out = rotate_mixer(pair, n, 0.63)
        for row, amps in zip(out, pair):
            assert np.array_equal(row, rotate_mixer(amps, n, 0.63))

    # no dense matrix at these sizes: apply_driver, which rotates nothing, is
    # the oracle of the derivative, and the inverse rotation that of the norm
    @pytest.mark.parametrize("n", [12, 16])
    def test_beta_derivative_is_driver(self, n):
        psi = random_state(np.random.default_rng(9), n).amplitudes
        beta, h = 0.83, 1e-5
        fd = (rotate_mixer(psi, n, beta + h) - rotate_mixer(psi, n, beta - h)) / (2 * h)
        exact = -1j * apply_driver(rotate_mixer(psi, n, beta), n)
        np.testing.assert_allclose(fd, exact, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [12, 16])
    def test_inverse_rotation_restores_state(self, n):
        psi = random_state(np.random.default_rng(10), n).amplitudes
        back = rotate_mixer(rotate_mixer(psi, n, 1.37), n, -1.37)
        np.testing.assert_allclose(back, psi, rtol=0, atol=1e-13)

    def test_driver_matches_dense_matrix(self):
        rng = np.random.default_rng(8)
        psi = random_state(rng, 4).amplitudes
        np.testing.assert_allclose(apply_driver(psi, 4), dense_driver(4) @ psi, atol=1e-14)


class TestRunQaoa:
    def test_zero_angles_uniform(self):
        m = random_model(np.random.default_rng(3), 4, integer=False)
        out = run_qaoa(m, [0.0], [0.0])
        np.testing.assert_allclose(out.probabilities(), np.full(16, 1 / 16), atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 4, integer=False)
        out = run_qaoa(m, rng.normal(size=3), rng.normal(size=3))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    def test_empty_params_rejected(self):
        m = random_model(np.random.default_rng(5), 2, integer=False)
        with pytest.raises(ValueError):
            run_qaoa(m, [], [])

    def test_matches_unitary_product_oracle(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4, integer=False)
        gammas, betas = rng.normal(size=2), rng.normal(size=2)
        u = np.eye(16, dtype=complex)
        for g, b in zip(gammas, betas):
            u = expm(-1j * b * dense_driver(4)) @ expm(-1j * g * dense_problem(m)) @ u
        expected = u @ uniform_state(4).amplitudes
        out = run_qaoa(m, gammas, betas)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)


class TestEvolveFixed:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 3, integer=False)
        s = random_state(rng, 3)
        out = evolve_fixed(s, m, 0.4, 0.0)
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 3, integer=False)
        s = random_state(rng, 3)
        w, t = 0.45, 1.7
        alpha = problem_norm_ratio(m)
        h = (1 - w) * alpha * dense_problem(m) + w * dense_driver(3)
        expected = expm(-1j * t * h) @ s.amplitudes
        out = evolve_fixed(s, m, w, t)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-7)

    def test_proposal_magnitudes_symmetric(self):
        # the proposal needs |U_zz'| == |U_z'z|
        m = random_model(np.random.default_rng(9), 4, integer=False)
        cols = []
        for z in range(16):
            out = evolve_fixed(basis_state(4, z), m, 0.5, 3.0)
            cols.append(out.amplitudes)
        u = np.stack(cols, axis=1)
        np.testing.assert_allclose(np.abs(u), np.abs(u.T), atol=1e-8)

    def test_rejects_nonfinite_time(self):
        m = random_model(np.random.default_rng(10), 2, integer=False)
        with pytest.raises(ValueError):
            evolve_fixed(uniform_state(2), m, 0.5, float("nan"))

    def test_rejects_state_of_other_size(self):
        m = random_model(np.random.default_rng(41), 3, integer=False)
        with pytest.raises(DimensionError):
            evolve_fixed(uniform_state(4), m, 0.5, 1.0)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_dense_path_exact(self, n):
        # up to qsim._DENSE_MAX the propagator is exp(-iHt) itself
        rng = np.random.default_rng(42 + n)
        m = random_model(rng, n, n_terms=2 * n, integer=False)
        s = random_state(rng, n)
        w, t = 0.35, 7.3
        h = (1 - w) * problem_norm_ratio(m) * dense_problem(m) + w * dense_driver(n)
        expected = expm(-1j * t * h) @ s.amplitudes
        out = evolve_fixed(s, m, w, t)
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-10)

    def test_dense_proposal_symmetric_over_qe_ranges(self):
        # |U| = |U^T| for (w, t) drawn as the QE kernel draws them
        rng = np.random.default_rng(52)
        m = random_model(rng, 5, n_terms=10, integer=False)
        for _ in range(5):
            w = rng.uniform(*mcmc.QE_DRIVER_WEIGHT_RANGE)
            t = rng.uniform(*mcmc.QE_TIME_RANGE)
            u = np.stack([evolve_fixed(basis_state(5, z), m, w, t).amplitudes
                          for z in range(32)], axis=1)
            np.testing.assert_allclose(np.abs(u), np.abs(u.T), rtol=0, atol=1e-12)


class TestRunAnnealing:
    def test_zero_time_is_uniform(self):
        m = random_model(np.random.default_rng(11), 3, integer=False)
        out = run_annealing(m, linear_schedule(0.0))
        np.testing.assert_allclose(out.probabilities(), np.full(8, 1 / 8), atol=1e-12)

    def test_pure_problem_hamiltonian_keeps_probabilities(self):
        m = random_model(np.random.default_rng(12), 3, integer=False)
        sched = AnnealSchedule(2.0, lambda s: 0.0, lambda s: 1.0)
        out = run_annealing(m, sched)
        np.testing.assert_allclose(out.probabilities(), np.full(8, 1 / 8), atol=1e-9)

    def test_matches_expm_for_constant_hamiltonian(self):
        # constant A=B=1/2 makes the exact propagator a matrix exponential
        rng = np.random.default_rng(13)
        m = random_model(rng, 3, integer=False)
        sched = AnnealSchedule(1.5, lambda s: 0.5, lambda s: 0.5)
        h = 0.5 * dense_driver(3) + 0.5 * dense_problem(m)
        expected = expm(-1j * 1.5 * h) @ uniform_state(3).amplitudes
        out = run_annealing(m, sched)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-7)

    def test_step_halving_consistency(self):
        m = random_model(np.random.default_rng(14), 5, integer=False)
        coarse = _anneal_cf4(m, linear_schedule(5.0), 500)  # dt = 0.01
        fine = _anneal_cf4(m, linear_schedule(5.0), 1000)
        tvd = 0.5 * np.abs(np.abs(coarse) ** 2 - np.abs(fine) ** 2).sum()
        assert tvd < 1e-6

    def test_norm_is_one(self):
        m = random_model(np.random.default_rng(15), 4, integer=False)
        out = run_annealing(m, linear_schedule(3.0))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [3, 9])
    @pytest.mark.parametrize("total_time", [-5.0, float("nan"), float("inf"), float("-inf")])
    def test_rejects_bad_total_time(self, n, total_time):
        m = random_model(np.random.default_rng(60), n, integer=False)
        with pytest.raises(ValueError):
            run_annealing(m, linear_schedule(total_time))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("weight", ["a_of", "b_of"])
    @pytest.mark.parametrize("late", [False, True])
    def test_rejects_nonfinite_schedule_weight(self, bad, weight, late):
        # constant, or only at the nodes of the last steps
        weights = {"a_of": lambda s: 1.0 - s, "b_of": lambda s: s}
        weights[weight] = (lambda s: bad if s > 0.99 else s) if late else (lambda s: bad)
        sched = AnnealSchedule(2.0, weights["a_of"], weights["b_of"])
        with pytest.raises(ValueError, match="schedule weights"):
            run_annealing(load_fixture("five_site_threefold"), sched)

    def test_cf4_fourth_order(self):
        # halving the step divides a 4th-order error by about 16; a 2nd-order
        # scheme (such as CF4 with its two exponentials swapped) by about 4
        m = random_model(np.random.default_rng(62), 4, integer=False)
        sched = linear_schedule(4.0)
        ref = _anneal_cf4(m, sched, 1024)  # dt = 1/256
        errs = [np.linalg.norm(_anneal_cf4(m, sched, n_steps) - ref)
                for n_steps in (16, 32)]  # dt = 0.25, 0.125
        assert errs[0] > 1e-8  # above rounding, so the ratio measures the order
        assert errs[0] / errs[1] >= 12.0

    def test_dense_constant_hamiltonian_exact_at_dense_max(self):
        # CF4 steps are exact exponentials, so a constant H leaves no step error
        rng = np.random.default_rng(63)
        m = random_model(rng, 7, n_terms=14, integer=False)
        sched = AnnealSchedule(2.5, lambda s: 0.6, lambda s: 0.4)
        h = 0.6 * dense_driver(7) + 0.4 * dense_problem(m)
        expected = expm(-1j * 2.5 * h) @ uniform_state(7).amplitudes
        out = _anneal_cf4(m, sched, 5)  # dt = 0.5
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("norm", [0.0, 1e-3, 0.25, 0.999, 1.0, 1.001, 2.5, 37.0])
    def test_taylor_split(self, norm):
        # ceil(norm) applications of 1-norm theta <= 1, and the least degree
        # whose first omitted term theta^(m+1) / (m+1)! is below 2^-53
        reps, degree = _taylor_split(norm)
        assert reps == max(1, math.ceil(norm))
        theta = norm / reps
        assert theta**(degree + 1) / math.factorial(degree + 1) < 2.0**-53
        assert degree == 0 or theta**degree / math.factorial(degree) >= 2.0**-53

    @pytest.mark.parametrize("total_time", [0.1, 20.0, 1000.0])
    @pytest.mark.parametrize("model", [*FIXTURE_NAMES, 3, 4, 5, 6, 7])
    def test_matches_eigh_oracle(self, model, total_time):
        # a fixture at the default step count, where dt ||H||_1 is below 1 at
        # T = 0.1 and 20 and takes 2-3 applications per exponential at
        # T = 1000; or a random model of that many sites at an eighth of the
        # steps, which keeps the eigh oracle cheap at n = 7 and takes 6-14
        # applications at T = 1000 and, from n = 4, 2 at T = 20
        if isinstance(model, int):
            model = random_model(np.random.default_rng(70 + model), model, n_terms=model,
                                 integer=False)
            n_steps = math.ceil(8 * math.sqrt(total_time))
        else:
            model = load_fixture(model)
            n_steps = math.ceil(64 * math.sqrt(total_time))
        sched = linear_schedule(total_time)
        out = _anneal_cf4(model, sched, n_steps)
        assert np.abs(out - eigh_cf4(model, sched, n_steps)).max() <= 1e-12

    def test_coarse_steps_match_eigh_oracle(self):
        # dt = 5: dt ||H||_1 is above 24, so each exponential is split into
        # 25 Taylor applications
        model, sched = load_fixture("five_site_fourfold"), linear_schedule(100.0)
        out = _anneal_cf4(model, sched, 20)
        assert np.abs(out - eigh_cf4(model, sched, 20)).max() <= 1e-12


def test_capacity_above_dense_max():
    # time evolution is dense only, up to qsim._DENSE_MAX = 7 sites
    m = random_model(np.random.default_rng(65), 8, n_terms=16, integer=False)
    with pytest.raises(CapacityError):
        evolve_fixed(uniform_state(8), m, 0.5, 1.0)
    with pytest.raises(CapacityError):
        run_annealing(m, linear_schedule(1.0))
    with pytest.raises(CapacityError):
        run_chain(m, Temperature(1.0), QeKernel(), 1, rng_seed=66)
    # the input checks come first
    with pytest.raises(ValueError, match="anneal time"):
        run_annealing(m, linear_schedule(-1.0))


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "anneal_rk4_golden.json").read_text()
)["probabilities"]


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
@pytest.mark.parametrize("total_time", ["0.1", "0.67", "3.3", "20.0", "148.7", "1000.0"])
def test_anneal_matches_rk4_golden(fixture, total_time):
    # default steps on the five-site fixtures against probabilities recorded
    # with fixed-step RK4 (dt = min(0.01, T/1e4)), the integrator used at
    # every size before the dense path
    golden = np.array(GOLDEN[fixture][total_time])
    out = run_annealing(load_fixture(fixture), linear_schedule(float(total_time)))
    assert 0.5 * np.abs(out.probabilities() - golden).sum() <= 1e-7


class TestMeasurement:
    def test_basis_state_delta(self):
        d = measure_distribution(basis_state(3, 5))
        assert d.shape == (8,) and d[5] == 1.0
        assert d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_distribution_normalized(self):
        rng = np.random.default_rng(16)
        d = measure_distribution(random_state(rng, 6))
        assert d.sum() == pytest.approx(1.0, abs=1e-9)

    def test_sampling_frequencies_chi2(self):
        rng = np.random.default_rng(17)
        m = random_model(rng, 4, integer=False)
        state = run_qaoa(m, [0.4, 0.2], [0.3, 0.5])
        probs = measure_distribution(state)
        draws = sample(state, 100_000, rng)
        counts = np.bincount((draws @ (1 << np.arange(4))).astype(int), minlength=16)
        _, p = stats.chisquare(counts, f_exp=probs * 100_000)
        assert p > 0.001

    def test_sample_returns_bit_rows(self):
        out = sample(basis_state(3, 0b011), 5, np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.tile([1.0, 1.0, 0.0], (5, 1)))

