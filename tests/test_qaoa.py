import json

import numpy as np
import pytest

from fairmc import qaoa, qsim
from fairmc.experiments import ALPHA_C, to_ising
from fairmc.fixtures import FIXTURE_NAMES, load_fixture
from fairmc.ising import IsingModel, basis_energies
from fairmc.qaoa import (
    LinearSchedule,
    QaoaParams,
    effective_time,
    expand,
    expectation,
    expectation_and_gradient,
    fixed_angles_from_set,
    optimize,
    optimize_free,
    schedule_from_json,
    schedule_to_json,
)
from fairmc.qsim import run_qaoa
from fairmc.sat import generate_instance


def random_model(rng, n, n_terms=8, integer=False, max_order=2):
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, min(max_order, n) + 1))
        sites = sorted(rng.choice(n, size=order, replace=False).tolist())
        coeff = float(rng.choice([-1.0, 1.0])) if integer else float(rng.normal())
        terms.append((sites, coeff))
    return IsingModel.from_terms(n, terms)


def central_diff(fun, x, h=1e-6):
    """The oracle: (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate."""
    return np.array([(fun(x + h * e) - fun(x - h * e)) / (2 * h) for e in np.eye(len(x))])


def objective(model, angle_map, p):
    """x -> (expectation, gradient) through one of the optimizer's angle maps."""
    to_params, pull_back = angle_map(p)

    def fun(x):
        value, d_gamma, d_beta = expectation_and_gradient(model, to_params(x))
        return value, pull_back(d_gamma, d_beta)

    return fun


def linear_value(model, p):
    return lambda x: expectation(model, expand(LinearSchedule.from_array(x), p))


def free_value(model, p):
    return lambda x: expectation(model, QaoaParams(tuple(x[:p]), tuple(x[p:])))


class TestExpand:
    def test_zero_slopes_constant(self):
        s = LinearSchedule(0.0, 0.3, 0.0, -0.7)
        p = expand(s, 4)
        assert p.betas == (0.3,) * 4
        assert p.gammas == (-0.7,) * 4

    def test_unit_slope(self):
        s = LinearSchedule(1.0, 0.0, 1.0, 0.0)
        p = expand(s, 5)
        np.testing.assert_allclose(p.betas, [0.2, 0.4, 0.6, 0.8, 1.0])
        np.testing.assert_allclose(p.gammas, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_linear_in_parameters(self):
        a = LinearSchedule(0.5, -0.2, 0.1, 0.9)
        b = LinearSchedule(-0.3, 0.4, 0.7, -0.6)
        summed = LinearSchedule(0.2, 0.2, 0.8, 0.3)
        pa, pb, ps = expand(a, 3), expand(b, 3), expand(summed, 3)
        np.testing.assert_allclose(
            np.array(ps.betas), np.array(pa.betas) + np.array(pb.betas), atol=1e-15
        )
        np.testing.assert_allclose(
            np.array(ps.gammas), np.array(pa.gammas) + np.array(pb.gammas), atol=1e-15
        )

    def test_effective_time_closed_form(self):
        s = LinearSchedule(0.5, -0.2, 0.1, 0.9)
        for p in (1, 3, 7):
            params = expand(s, p)
            closed = (0.5 + 0.1) * (p + 1) / 2 + p * (-0.2 + 0.9)
            assert effective_time(params) == pytest.approx(closed, abs=1e-12)


class TestExpectation:
    def test_zero_angles_is_mean_energy(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 4)
        val = expectation(m, QaoaParams((0.0,), (0.0,)))
        assert val == pytest.approx(basis_energies(m).mean(), abs=1e-12)

    def test_bounded_below_by_minimum(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 4)
        emin = basis_energies(m).min()
        for _ in range(10):
            params = QaoaParams(tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
            assert expectation(m, params) >= emin - 1e-12

    def test_matches_dense_matvec_oracle(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 4)
        params = QaoaParams(tuple(rng.normal(size=2)), tuple(rng.normal(size=2)))
        psi = run_qaoa(m, params.gammas, params.betas).amplitudes
        h = np.diag(basis_energies(m))
        oracle = np.real(np.conj(psi) @ (h @ psi))
        assert expectation(m, params) == pytest.approx(oracle, abs=1e-10)

    def test_offset_shifts_value_exactly(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 4)
        shifted = IsingModel(m.n_sites, m.terms, m.offset + 2.5)
        params = QaoaParams(tuple(rng.normal(size=2)), tuple(rng.normal(size=2)))
        assert expectation(shifted, params) == pytest.approx(
            expectation(m, params) + 2.5, abs=1e-10
        )


class TestAdjointGradient:
    @pytest.mark.parametrize("integer", [False, True])
    # 2 * _MIXER_BLOCK + 1: the backward pair rotation runs through three blocks
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 2 * qsim._MIXER_BLOCK + 1])
    def test_matches_central_differences(self, n, integer):
        rng = np.random.default_rng(100 + 2 * n + integer)
        for p in range(1, 6):
            m = random_model(rng, n, integer=integer, max_order=3)
            for fun, value, dim in (
                (objective(m, qaoa._linear_angles, p), linear_value(m, p), 4),
                (objective(m, qaoa._free_angles, p), free_value(m, p), 2 * p),
            ):
                x = rng.uniform(-2.0, 2.0, size=dim)
                _, grad = fun(x)
                np.testing.assert_allclose(grad, central_diff(value, x), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("integer", [False, True])
    def test_value_bitwise_equals_expectation(self, integer):
        rng = np.random.default_rng(110 + integer)
        m = random_model(rng, 5, integer=integer, max_order=3)
        for p in (1, 3, 5):
            x = rng.uniform(-2.0, 2.0, size=4)
            assert objective(m, qaoa._linear_angles, p)(x)[0] == linear_value(m, p)(x)
            x = rng.uniform(-2.0, 2.0, size=2 * p)
            assert objective(m, qaoa._free_angles, p)(x)[0] == free_value(m, p)(x)

    def test_one_circuit_per_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qaoa, "run_qaoa", lambda *a: calls.append(a) or run_qaoa(*a))
        m = random_model(np.random.default_rng(120), 4)
        expectation_and_gradient(m, QaoaParams((0.3, -0.2), (0.5, 0.1)))
        assert len(calls) == 1

    def test_gamma_gradient_vanishes_without_mixer(self):
        # at beta = 0 the phase layer leaves every |amplitude| uniform
        m = random_model(np.random.default_rng(121), 4)
        _, d_gamma, _ = expectation_and_gradient(m, QaoaParams((0.7,), (0.0,)))
        assert d_gamma[0] == pytest.approx(0.0, abs=1e-12)


class TestEffectiveTime:
    def test_zeros(self):
        assert effective_time(QaoaParams((0.0, 0.0), (0.0, 0.0))) == 0.0

    def test_arithmetic(self):
        params = QaoaParams((0.3, 0.4), (0.1, 0.2))
        assert effective_time(params) == pytest.approx(1.0, abs=1e-12)


class TestOptimize:
    def test_improves_on_zero_baseline(self):
        m = IsingModel.from_terms(2, [((0, 1), -1.0)])
        rng = np.random.default_rng(4)
        schedule = optimize(m, p=2, starts=4, rng=rng)
        baseline = expectation(m, QaoaParams((0.0, 0.0), (0.0, 0.0)))
        assert expectation(m, expand(schedule, 2)) < baseline

    def test_never_worse_than_multistart_initials(self):
        m = random_model(np.random.default_rng(7), 4)
        rng = np.random.default_rng(8)
        # replay the start points the optimizer will draw
        rng_replay = np.random.default_rng(8)
        initials = [
            expectation(m, expand(LinearSchedule.from_array(
                rng_replay.uniform(-2, 2, size=4)), 3))
            for _ in range(5)
        ]
        schedule = optimize(m, p=3, starts=5, rng=rng)
        assert expectation(m, expand(schedule, 3)) <= min(initials) + 1e-12

    def test_beats_random_search_oracle(self):
        m = random_model(np.random.default_rng(9), 4)
        schedule = optimize(m, p=3, starts=5, rng=np.random.default_rng(10))
        opt_val = expectation(m, expand(schedule, 3))
        rng = np.random.default_rng(11)
        random_vals = [
            expectation(m, expand(LinearSchedule.from_array(rng.uniform(-2, 2, 4)), 3))
            for _ in range(1000)
        ]
        assert opt_val <= min(random_vals) + 1e-9

    def test_free_optimization_canonical_sign(self):
        m = random_model(np.random.default_rng(12), 3)
        params = optimize_free(m, p=2, starts=3, rng=np.random.default_rng(13))
        assert effective_time(params) >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_schedule_canonical_sign(self, seed):
        m = random_model(np.random.default_rng(14 + seed), 3)
        schedule = optimize(m, p=3, starts=2, rng=np.random.default_rng(seed))
        assert effective_time(expand(schedule, 3)) >= 0.0

    def test_golden_best_values_on_3sat(self):
        # best of 10 starts at p = 5, recorded with central-difference
        # gradients; exact gradients must reach the same minima
        golden = {0: 0.5764458930651133, 1: 1.6841116123609283, 2: 1.0428564849464628}
        for seed, best in golden.items():
            m = to_ising(generate_instance(8, 3, ALPHA_C[3], 1000 + seed))
            schedule = optimize(m, 5, 10, np.random.default_rng(seed))
            assert expectation(m, expand(schedule, 5)) == pytest.approx(best, abs=1e-6)


class TestBitwisePins:
    """Exact optimizer outputs on fixed seeds, compared with ==: a refactor
    of the optimizer must reproduce every returned float."""

    # (p, seed) -> (beta_slope, beta_intcp, gamma_slope, gamma_intcp), 4 starts
    LINEAR = {
        (3, 0): (-0.6652815075425409, 0.31235383124706484,
                 0.32660890385703245, 1.7191004826955445),
        (3, 1): (1.2640886010753962, 0.3559147706360286,
                 -1.8117946610889417, 0.9682817027531229),
        (3, 2): (-0.49338944573320603, 0.6687652930674842,
                 0.9486149508406332, -0.010713989744212109),
        (5, 0): (-1.494355070685016, 1.7009787904118232,
                 0.0464510010380067, 1.8054822745587646),
        (5, 1): (0.7704686539689677, 2.5170135650669887,
                 -2.2247590843043556, 0.1560720399452041),
        (5, 2): (-0.48401977585544603, 0.6490940145687177,
                 1.116079662514072, 0.028541584163554574),
    }
    # fixture -> (gammas, betas) at p = 3, 3 starts, rng seed 20 + index
    FREE = {
        "five_site_threefold": (
            (1.638525644925775, 0.41162143119741545, 1.3218658430196852),
            (-0.48915800072707616, 1.6684435566540985, 2.124218499779858)),
        "five_site_fourfold": (
            (-0.2803145373014616, -1.4025907757500617, 1.8993280471273544),
            (1.3134891290385275, -0.7825015331827623, 0.18364597098542645)),
        "five_site_sixfold": (
            (-1.4520436891936548, -1.2329688243914667, 2.1929109653769125),
            (-0.6872136776163741, 0.2715091570367087, 2.8839558730360357)),
    }

    @pytest.mark.parametrize("p, seed", sorted(LINEAR))
    def test_linear_schedule_on_3sat(self, p, seed):
        m = to_ising(generate_instance(8, 3, ALPHA_C[3], 1000 + seed))
        schedule = optimize(m, p, 4, np.random.default_rng(seed))
        assert schedule == LinearSchedule(*self.LINEAR[p, seed])

    @pytest.mark.parametrize("index, name", list(enumerate(FIXTURE_NAMES)))
    def test_free_angles_on_fixtures(self, index, name):
        params = optimize_free(load_fixture(name), 3, 3, np.random.default_rng(20 + index))
        assert params == QaoaParams(*self.FREE[name])


class TestFixedAngles:
    def test_single_schedule_is_itself(self):
        s = LinearSchedule(0.1, 0.2, 0.3, 0.4)
        assert fixed_angles_from_set([s]) == s

    def test_symmetric_pair_gives_center(self):
        a = LinearSchedule(0.0, 0.0, 0.0, 0.0)
        b = LinearSchedule(1.0, 2.0, 3.0, 4.0)
        assert fixed_angles_from_set([a, b]) == LinearSchedule(0.5, 1.0, 1.5, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fixed_angles_from_set([])

    def test_is_preset_type(self):
        fa = fixed_angles_from_set([LinearSchedule(0, 0, 0, 0)])
        assert isinstance(fa, LinearSchedule)


class TestPersistence:
    def test_roundtrip(self):
        # the pair the pipeline writes schedule files with and reads them back
        s = LinearSchedule(0.11, -0.22, 0.33, -0.44)
        d = json.loads(json.dumps(schedule_to_json(s, 5, -1.25)))
        assert schedule_from_json(d) == s
        assert d["p"] == 5 and d["expectation"] == -1.25
