import json

import numpy as np
import pytest

from fairmc.ising import IsingModel, basis_energies
from fairmc.qaoa import (
    FixedAngles,
    LinearSchedule,
    QaoaParams,
    effective_time,
    expand,
    expectation,
    fixed_angles_from_set,
    optimize,
    optimize_free,
    schedule_from_json,
    schedule_to_json,
)
from fairmc.qsim import run_qaoa


def random_model(rng, n, n_terms=8):
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, 3))
        sites = sorted(rng.choice(n, size=order, replace=False).tolist())
        terms.append((sites, float(rng.normal())))
    return IsingModel.from_terms(n, terms)


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
        schedule, _ = optimize(m, p=2, starts=4, rng=rng)
        baseline = expectation(m, QaoaParams((0.0, 0.0), (0.0, 0.0)))
        assert expectation(m, expand(schedule, 2)) < baseline

    def test_trace_final_value_matches_reevaluation(self):
        m = random_model(np.random.default_rng(5), 4)
        schedule, trace = optimize(m, p=3, starts=3, rng=np.random.default_rng(6))
        assert trace[-1][1] == pytest.approx(
            expectation(m, expand(schedule, 3)), abs=1e-9
        )

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
        schedule, _ = optimize(m, p=3, starts=5, rng=rng)
        assert expectation(m, expand(schedule, 3)) <= min(initials) + 1e-12

    def test_beats_random_search_oracle(self):
        m = random_model(np.random.default_rng(9), 4)
        schedule, _ = optimize(m, p=3, starts=5, rng=np.random.default_rng(10))
        opt_val = expectation(m, expand(schedule, 3))
        rng = np.random.default_rng(11)
        random_vals = [
            expectation(m, expand(LinearSchedule.from_array(rng.uniform(-2, 2, 4)), 3))
            for _ in range(1000)
        ]
        assert opt_val <= min(random_vals) + 1e-9

    def test_free_optimization_canonical_sign(self):
        m = random_model(np.random.default_rng(12), 3)
        params, _ = optimize_free(m, p=2, starts=3, rng=np.random.default_rng(13))
        assert effective_time(params) >= 0.0


class TestFixedAngles:
    def test_single_schedule_is_itself(self):
        s = LinearSchedule(0.1, 0.2, 0.3, 0.4)
        assert fixed_angles_from_set([s]).schedule == s

    def test_symmetric_pair_gives_center(self):
        a = LinearSchedule(0.0, 0.0, 0.0, 0.0)
        b = LinearSchedule(1.0, 2.0, 3.0, 4.0)
        fa = fixed_angles_from_set([a, b])
        assert fa.schedule == LinearSchedule(0.5, 1.0, 1.5, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fixed_angles_from_set([])

    def test_is_preset_type(self):
        fa = fixed_angles_from_set([LinearSchedule(0, 0, 0, 0)])
        assert isinstance(fa, FixedAngles)


class TestPersistence:
    def test_roundtrip(self):
        # the pair the pipeline writes schedule files with and reads them back
        s = LinearSchedule(0.11, -0.22, 0.33, -0.44)
        d = json.loads(json.dumps(schedule_to_json(s, 5, -1.25)))
        assert schedule_from_json(d) == s
        assert d["p"] == 5 and d["expectation"] == -1.25
