import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from fairmc import made
from fairmc.ising import bit_rows
from fairmc.made import (
    EPS,
    MadeNetwork,
    TrainConfig,
    exact_probabilities,
    load_checkpoint,
    log_prob,
    log_prob_batch,
    sample,
    sample_batch,
    save_checkpoint,
    train,
    training_digest,
)


def zero_net(n):
    net = MadeNetwork(n, rng=np.random.default_rng(0))
    net.weights = [np.zeros_like(w) for w in net.weights]
    net.biases = [np.zeros_like(b) for b in net.biases]
    return net


def random_net(n, seed=0, scale=1.0):
    net = MadeNetwork(n, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    net.weights = [w + scale * rng.normal(size=w.shape) * 0.3 for w in net.weights]
    net.biases = [rng.normal(size=b.shape) * 0.3 for b in net.biases]
    return net


class TestLogProb:
    def test_zero_weights_uniform(self):
        net = zero_net(5)
        for z in (0, 7, 31):
            assert log_prob(net, bit_rows(z, 5)) == pytest.approx(
                -5 * np.log(2), abs=1e-12
            )

    def test_normalization_exhaustive(self):
        for n in (4, 8, 12):
            net = random_net(n, seed=n)
            total = exact_probabilities(net).sum()
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_probability_floor(self):
        # clamping guarantees every state is proposable
        net = random_net(6, scale=30.0)  # drive conditionals into the clamp
        probs = exact_probabilities(net)
        assert probs.min() >= EPS**6 * 0.99

    def test_batch_matches_single(self):
        net = random_net(6)
        bits = bit_rows(np.arange(20), 6)
        batched = log_prob_batch(net, bits)
        singles = [log_prob(net, row) for row in bits]
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_single_is_one_row_of_the_batch(self, n):
        # bit for bit against a one-row batch; a taller batch may round its
        # matrix products differently
        net = random_net(n, seed=n)
        for x in bit_rows(np.random.default_rng(n).integers(0, 1 << n, 20), n):
            assert log_prob(net, x) == log_prob_batch(net, x[None])[0]


class TestMasking:
    def test_autoregressive_property(self):
        # perturbing bit j must not change any conditional at position <= j
        rng = np.random.default_rng(3)
        net = random_net(5)
        x = (rng.random(5) > 0.5).astype(float)
        base = net.conditionals(x[None])[0]
        for j in range(5):
            y = x.copy()
            y[j] = 1.0 - y[j]
            out = net.conditionals(y[None])[0]
            for v in range(j + 1):
                assert out[v] == base[v]

    def test_first_variable_is_unconditional(self):
        net = random_net(4)
        vals = {net.conditionals(np.array([x], dtype=float))[0, 0]
                for x in np.ndindex(2, 2, 2, 2)}
        assert len(vals) == 1


class TestSample:
    def test_zero_net_uniform(self):
        net = zero_net(4)
        rng = np.random.default_rng(5)
        bits = sample_batch(net, 40_000, rng)
        z = (bits * (1 << np.arange(4))).sum(axis=1).astype(int)
        counts = np.bincount(z, minlength=16)
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_single_draw_type(self):
        s = sample(random_net(6), np.random.default_rng(0))
        assert s.shape == (6,) and s.dtype == np.float64 and set(s) <= {0.0, 1.0}

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_single_draw_is_one_row_of_the_batch(self, n):
        net = random_net(n, seed=n)
        for seed in range(20):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(sample(net, rng_a), sample_batch(net, 1, rng_b)[0])
            # and the two generators end in the same state
            assert rng_a.random() == rng_b.random()

    def test_consistency_chi2_n8(self):
        net = random_net(8, seed=8)
        probs = exact_probabilities(net)
        rng = np.random.default_rng(6)
        bits = sample_batch(net, 100_000, rng)
        z = (bits * (1 << np.arange(8))).sum(axis=1).astype(int)
        counts = np.bincount(z, minlength=256)
        _, p = stats.chisquare(counts, f_exp=probs * 100_000)
        assert p > 0.001

    def test_consistency_tvd_peaked_net(self):
        net = random_net(8, seed=9)
        net.biases[-1][:] = 4.0  # concentrate mass so sampling noise is small
        probs = exact_probabilities(net)
        bits = sample_batch(net, 100_000, np.random.default_rng(7))
        z = (bits * (1 << np.arange(8))).sum(axis=1).astype(int)
        freq = np.bincount(z, minlength=256) / 100_000
        assert 0.5 * np.abs(freq - probs).sum() < 0.01


class TestTrain:
    def test_memorizes_single_string(self, monkeypatch):
        monkeypatch.setattr(made, "LEARNING_RATE", 0.02)
        monkeypatch.setattr(made, "PLATEAU_EPOCHS", 800)
        target = 0b00101101  # "10110100", x_0 first
        cfg = TrainConfig(epochs=800, rng_seed=1)
        net, curve = train(bit_rows(np.full(200, target), 8), cfg)
        assert curve[-1] < 0.05
        bits = sample_batch(net, 5000, np.random.default_rng(8))
        z = (bits * (1 << np.arange(8))).sum(axis=1).astype(int)
        assert np.mean(z == target) > 0.99

    def test_loss_final_not_above_initial(self):
        rng = np.random.default_rng(9)
        x = bit_rows(rng.integers(0, 64, size=300), 6)
        net, curve = train(x, TrainConfig(epochs=30, rng_seed=2))
        assert curve[-1] <= curve[0]
        final = float(-np.mean(log_prob_batch(net, x)))
        assert final <= curve[0] + 1e-9

    def test_gradient_check_finite_differences(self):
        net = random_net(3, seed=10, scale=0.5)
        rng = np.random.default_rng(11)
        batch = (rng.random((16, 3)) > 0.5).astype(float)
        assert made._gradient_error(net, batch) < 1e-4

    def test_beats_uniform_baseline_on_circuit_samples(self):
        from fairmc.qaoa import expand, optimize
        from fairmc.qsim import measure_distribution, run_qaoa
        from fairmc.sat import generate_instance, to_ising

        model = to_ising(generate_instance(6, 2, 1.0, 3))
        schedule = optimize(model, p=5, starts=3, rng=np.random.default_rng(12))
        params = expand(schedule, 5)
        state = run_qaoa(model, params.gammas, params.betas)
        target = measure_distribution(state)
        draws = np.random.default_rng(13).choice(64, size=1000, p=target)
        net, _ = train(bit_rows(draws, 6), TrainConfig(epochs=300, rng_seed=3))
        learned = exact_probabilities(net)
        tvd_net = 0.5 * np.abs(learned - target).sum()
        tvd_uniform = 0.5 * np.abs(np.full(64, 1 / 64) - target).sum()
        assert tvd_net < tvd_uniform

    # (n, samples, epochs, seed, skewed samples) -> (epochs run, sha256 of the
    # checkpoint bytes, sha256 of the space-joined float.hex of the loss curve),
    # recorded before training moved to one flat parameter buffer; the last
    # case stops on the plateau rule
    PINNED = {
        (5, 200, 50, 1, True): (
            50,
            "baa8070eb8a230deb51a126f437d3cd1586bf6b8a76de71a15eedde85319ad53",
            "8a089fd4099fb0be60874dc1f49f17a8ad666e71d6bc29a78f139a16f946fed8"),
        (10, 500, 100, 2, True): (
            100,
            "e2b9e4a48ce1352f5f0c687e1736febde057ab4266cb106d10680673c6f3b0f0",
            "1c611c2218434b7c0a300ae01c1f2b6abf3d6864081cdb032ab97e65a8d12d26"),
        (5, 200, 2000, 3, False): (
            397,
            "e6553ec4c6e911023d2bdfefeb162c3d33c1952763b9584331d31c6c163f7c9e",
            "1a28e758a465b54200ee8d18c8c8b367238ff41478f1c8052ab968cb447e090d"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_training(self, case, tmp_path):
        n, size, epochs, seed, skew = case
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 1 << n, size)
        if skew:
            z &= rng.integers(0, 1 << n, size)
        net, curve = train(bit_rows(z, n), TrainConfig(epochs=epochs, rng_seed=seed))
        save_checkpoint(net, tmp_path / "net.json")
        checkpoint = hashlib.sha256((tmp_path / "net.json").read_bytes()).hexdigest()
        losses = hashlib.sha256(" ".join(map(float.hex, curve)).encode()).hexdigest()
        assert (len(curve) - 1, checkpoint, losses) == self.PINNED[case]

    def test_non_finite_loss_raises(self, monkeypatch):
        monkeypatch.setattr(made, "LEARNING_RATE", float("inf"))
        x = bit_rows(np.arange(200) % 32, 5)
        with np.errstate(all="ignore"), pytest.raises(made.TrainingError, match="epoch 1"):
            train(x, TrainConfig(epochs=5, rng_seed=0))

    def test_returned_net_owns_its_arrays(self):
        rng = np.random.default_rng(15)
        x = bit_rows(rng.integers(0, 64, size=300), 6)
        net, curve = train(x, TrainConfig(epochs=30, rng_seed=4))
        arrays = net.weights + net.biases
        for i, a in enumerate(arrays):
            assert a.base is None
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert float(-np.mean(log_prob_batch(net, x))) in curve
        weights = [w.copy() for w in net.weights]
        net.biases[-1][:] = 5.0
        for w, before in zip(net.weights, weights):
            np.testing.assert_array_equal(w, before)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 3)), TrainConfig())
        with pytest.raises(ValueError):
            train(np.zeros(3), TrainConfig())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = random_net(5, seed=14)
        path = tmp_path / "net.json"
        save_checkpoint(net, path, digest=training_digest(bit_rows(np.arange(10), 5)))
        loaded = load_checkpoint(path)
        assert loaded.to_json_dict() == net.to_json_dict()
        x = np.array([1.0, 0, 1, 0, 1])
        np.testing.assert_allclose(loaded.conditionals(x[None]), net.conditionals(x[None]))

    @pytest.mark.parametrize("key, value", [
        ("hidden_sizes", [8]), ("hidden_sizes", [20, 20]), ("hidden_sizes", []),
        ("variable_order", [4, 3, 2, 1, 0]), ("variable_order", [0, 1, 2, 3]),
    ])
    def test_other_architecture_refused(self, tmp_path, key, value):
        path = tmp_path / "net.json"
        save_checkpoint(random_net(5), path)
        d = json.loads(path.read_text())
        path.write_text(json.dumps({**d, key: value}))
        with pytest.raises(ValueError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, index, shape", [
        ("weights", 0, (1, 4)), ("weights", 1, (4, 4)), ("biases", 0, (4,)),
        ("biases", 1, (1,)),
    ])
    def test_wrongly_shaped_array_refused(self, tmp_path, key, index, shape):
        # a 4-input net: weights (16, 4) and (4, 16), biases (16,) and (4,)
        path = tmp_path / "net.json"
        save_checkpoint(random_net(4), path)
        d = json.loads(path.read_text())
        d[key][index] = np.zeros(shape).tolist()
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"{key}\[{index}\] has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, index, value", [
        ("weights", 0, float("nan")), ("weights", 1, float("inf")),
        ("biases", 0, float("-inf")), ("biases", 1, float("nan")),
    ])
    def test_non_finite_array_refused(self, tmp_path, key, index, value):
        # json writes NaN and Infinity and reads them back
        path = tmp_path / "net.json"
        save_checkpoint(random_net(4), path)
        d = json.loads(path.read_text())
        a = np.asarray(d[key][index])
        a.flat[1] = value
        d[key][index] = a.tolist()
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=rf"{key}\[{index}\] has non-finite"):
            load_checkpoint(path)

    def test_missing_array_refused(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(random_net(4), path)
        d = json.loads(path.read_text())
        path.write_text(json.dumps({**d, "biases": d["biases"][:1]}))
        with pytest.raises(ValueError, match="1 biases, expected 2"):
            load_checkpoint(path)

    def test_digest_pinned(self):
        # recorded with the digest of the per-sample bitstrings it replaced
        z = np.random.default_rng(31).integers(0, 1 << 9, 40)
        assert training_digest(bit_rows(z, 9)) == "60a92dc04581880b"
        assert training_digest(bit_rows(np.arange(10), 5)) == "f6a667aca778faa5"
