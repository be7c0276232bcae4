"""Masked autoregressive distribution estimator over fixed-length bitstrings.

A small masked MLP factorizes q(b) = prod_i q(b_i | b_0 .. b_{i-1}) in the
natural order of the bits; masks zero every connection that would look
ahead, so the factorization (and hence normalization) is exact by
construction.  Conditionals are sigmoid outputs clamped to [EPS, 1-EPS],
which floors every state's probability at EPS^N > 0 and keeps
independence-sampler chains irreducible.  Bit strings are float rows of 0s
and 1s, x_0 first (`ising.bit_rows`); a batch is a (count, N) matrix.

Implemented directly in numpy with analytic backprop: the network is tiny
(one hidden layer of width HIDDEN_PER_INPUT * N = 4N) and this keeps
training bit-reproducible with no framework dependency.  While `train` runs,
every weight and bias is a view into one flat parameter buffer and Adam
updates it in one in-place pass per step: at these sizes a step costs numpy
calls, not arithmetic.  Training is bit-reproducible: a fixed seed gives the
same checkpoint bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from fairmc.fileio import atomic_write
from fairmc.ising import bit_rows

EPS = 1e-7
# the hidden layer's width per input
HIDDEN_PER_INPUT = 4
# minibatch Adam's batch size and step size
BATCH_SIZE = 64
LEARNING_RATE = 1e-3
# training stops once this many epochs pass without improving the best
# dataset NLL by more than PLATEAU_TOL
PLATEAU_EPOCHS = 50
PLATEAU_TOL = 1e-5


class TrainingError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TrainConfig:
    epochs: int = 500
    rng_seed: int = 0


class MadeNetwork:
    """Masked MLP over N inputs in natural order: `weights[0]` maps the inputs
    to a tanh hidden layer of width HIDDEN_PER_INPUT * N and `weights[1]`
    that layer to the N logits; the masks are fixed at build."""

    def __init__(self, n_inputs, *, rng):
        if n_inputs < 1:
            raise ValueError("need at least one input")
        self.n_inputs = n = n_inputs
        width = HIDDEN_PER_INPUT * n
        # input and output i have degree i + 1; the hidden degrees cycle
        # through 1..N-1 (all 1s when N == 1: the outputs see no input)
        degree = np.arange(1, n + 1)
        hidden = np.arange(width) % max(n - 1, 1) + 1
        self.masks = [
            (hidden[:, None] >= degree[None, :]).astype(np.float64),
            # strict: output i ignores input i
            (degree[:, None] > hidden[None, :]).astype(np.float64),
        ]
        scale = np.sqrt(2.0 / (n + width))
        self.weights = [rng.normal(0.0, scale, size=(width, n)),
                        rng.normal(0.0, scale, size=(n, width))]
        self.biases = [np.zeros(width), np.zeros(n)]

    # -- forward -----------------------------------------------------------

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        """q(b_i = 1 | bits before i), clamped to [EPS, 1-EPS].  x: (count, N)."""
        return self._forward(x)[0]

    def _forward(self, x):
        """Returns (clamped conditionals, per-layer activations for backprop,
        masked weights)."""
        masked = [w * m for w, m in zip(self.weights, self.masks)]
        acts = [x]
        h = x
        for wm, b in zip(masked[:-1], self.biases):
            h = h @ wm.T
            h += b
            np.tanh(h, out=h)
            acts.append(h)
        p = h @ masked[-1].T
        p += self.biases[-1]
        # p = 1 / (1 + exp(-logits)), in place
        np.negative(p, out=p)
        np.exp(p, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)
        # the clamp, as np.clip computes it; a NaN stays NaN for train's check
        np.maximum(p, EPS, out=p)
        np.minimum(p, 1.0 - EPS, out=p)
        return p, acts, masked

    # -- persistence ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        n = self.n_inputs
        return {
            "format": 1,
            "n_inputs": n,
            "hidden_sizes": [HIDDEN_PER_INPUT * n],
            "variable_order": list(range(n)),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MadeNetwork":
        if d.get("format") != 1:
            raise ValueError(f"unknown checkpoint format {d.get('format')}")
        n = d["n_inputs"]
        layout = (d["hidden_sizes"], d["variable_order"])
        if layout != ([HIDDEN_PER_INPUT * n], list(range(n))):
            raise ValueError(
                f"checkpoint is not a natural-order net of width {HIDDEN_PER_INPUT}N: "
                f"hidden_sizes {layout[0]}, variable_order {layout[1]}")
        net = cls(n, rng=np.random.default_rng(0))
        # a wrongly shaped array could still give normalized probabilities, and
        # a non-finite one makes the chains reject every candidate silently
        for key in ("weights", "biases"):
            built = getattr(net, key)
            stored = [np.asarray(a, dtype=np.float64) for a in d[key]]
            if len(stored) != len(built):
                raise ValueError(f"checkpoint has {len(stored)} {key}, expected {len(built)}")
            for i, (a, b) in enumerate(zip(stored, built)):
                if a.shape != b.shape:
                    raise ValueError(
                        f"checkpoint {key}[{i}] has shape {a.shape}, expected {b.shape}")
                if not np.isfinite(a).all():
                    raise ValueError(f"checkpoint {key}[{i}] has non-finite entries")
            setattr(net, key, stored)
        return net


def log_prob(net: MadeNetwork, x: np.ndarray) -> float:
    """log q of one bit row: `log_prob_batch` of a one-row matrix."""
    return float(log_prob_batch(net, x[None])[0])


def log_prob_batch(net: MadeNetwork, bits: np.ndarray) -> np.ndarray:
    q1 = net.conditionals(bits)
    return np.sum(np.where(bits > 0.5, np.log(q1), np.log1p(-q1)), axis=-1)


def sample(net: MadeNetwork, rng: np.random.Generator) -> np.ndarray:
    """One ancestral draw as a bit row: `sample_batch` of one row."""
    return sample_batch(net, 1, rng)[0]


def sample_batch(net: MadeNetwork, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N) bit matrix of independent ancestral draws; they match
    exp(log_prob) exactly, clamping included."""
    x = np.zeros((count, net.n_inputs))
    for v in range(net.n_inputs):
        q1 = net.conditionals(x)[:, v]
        x[:, v] = (rng.random(count) < q1).astype(np.float64)
    return x


def exact_probabilities(net: MadeNetwork) -> np.ndarray:
    """exp(log_prob) for all 2^N states, indexed by packed bits (N <= 16)."""
    n = net.n_inputs
    if n > 16:
        raise ValueError("exhaustive evaluation limited to 16 inputs")
    return np.exp(log_prob_batch(net, bit_rows(np.arange(1 << n), n)))


def _gradients(net, batch, grads_w, grads_b):
    """Mean-NLL gradients over `batch` by analytic backprop, written into the
    arrays `grads_w` and `grads_b`; returns the batch's clamped conditionals."""
    q1, acts, masked = net._forward(batch)
    # d(nll)/d(logit) = (q - b)/bsz; zero where the clamp is active
    active = (q1 > EPS) & (q1 < 1.0 - EPS)
    delta = q1 - batch
    delta *= active
    delta /= len(batch)
    for l in reversed(range(len(masked))):
        np.matmul(delta.T, acts[l], out=grads_w[l])
        grads_w[l] *= net.masks[l]
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ masked[l]
            delta *= 1.0 - acts[l] ** 2
    return q1


def _gradient_error(net, batch) -> float:
    """Worst relative gap between `_gradients` and central differences of the
    mean NLL from `log_prob_batch`, over every parameter of `net`."""
    grads_w = [np.empty_like(w) for w in net.weights]
    grads_b = [np.empty_like(b) for b in net.biases]
    _gradients(net, batch, grads_w, grads_b)
    h = 1e-5
    worst = 0.0
    for p_arr, g_arr in zip(net.weights + net.biases, grads_w + grads_b):
        for idx in np.ndindex(p_arr.shape):
            orig = p_arr[idx]
            p_arr[idx] = orig + h
            up = -np.mean(log_prob_batch(net, batch))
            p_arr[idx] = orig - h
            dn = -np.mean(log_prob_batch(net, batch))
            p_arr[idx] = orig
            fd, g = (up - dn) / (2 * h), g_arr[idx]
            if abs(fd) > 1e-12 or abs(g) > 1e-12:
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g)))
    return float(worst)


def _views(flat, net):
    """Arrays shaped as `net`'s weights and biases, as views into `flat`."""
    views, lo = [], 0
    for a in net.weights + net.biases:
        views.append(flat[lo : lo + a.size].reshape(a.shape))
        lo += a.size
    return views[: len(net.weights)], views[len(net.weights) :]


def train(x: np.ndarray, cfg: TrainConfig) -> tuple[MadeNetwork, list[float]]:
    """Fit to the rows of the (count, N) bit matrix `x` by minibatch Adam on
    the mean NLL; returns (network, loss curve).

    The loss curve holds the full-dataset NLL after every epoch; the returned
    network is the best-epoch snapshot, so its final NLL never exceeds the
    initial one.  Training stops early once PLATEAU_EPOCHS epochs pass
    without improving the best NLL by more than PLATEAU_TOL.

    During training the weights and biases are views into one flat buffer
    and the gradients into another, so each Adam step is one in-place pass
    over all parameters.  A fixed seed reproduces the network bit for bit;
    the returned network owns its arrays.
    """
    x_all = np.ascontiguousarray(x, dtype=np.float64)
    if x_all.ndim != 2 or len(x_all) == 0:
        raise ValueError(f"need a nonempty (count, N) bit matrix, got shape {x_all.shape}")
    n = x_all.shape[1]
    batch_size, lr = BATCH_SIZE, LEARNING_RATE

    rng = np.random.default_rng(cfg.rng_seed)
    net = MadeNetwork(n, rng=rng)

    theta = np.concatenate([p.ravel() for p in net.weights + net.biases])
    net.weights, net.biases = _views(theta, net)
    grad = np.empty_like(theta)
    grads_w, grads_b = _views(grad, net)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    update = np.empty_like(theta)
    denom = np.empty_like(theta)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    def dataset_nll():
        return float(-np.mean(log_prob_batch(net, x_all)))

    curve = [dataset_nll()]
    best_nll = curve[0]
    best = theta.copy()
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        shuffled = x_all[rng.permutation(len(x_all))]
        for lo in range(0, len(x_all), batch_size):
            q1 = _gradients(net, shuffled[lo : lo + batch_size], grads_w, grads_b)
            # the clamp bounds every q1, so the loss is non-finite only on a NaN
            if np.isnan(q1.sum()):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            step += 1
            # the operation order sets how every parameter rounds, and with
            # it the checkpoint bytes: m = beta1*m + (1-beta1)*g,
            # v = beta2*v + ((1-beta2)*g)*g, then
            # theta -= (lr * m/(1-beta1^t)) / (sqrt(v/(1-beta2^t)) + eps)
            m *= beta1
            np.multiply(grad, 1 - beta1, out=update)
            m += update
            v *= beta2
            np.multiply(grad, 1 - beta2, out=update)
            update *= grad
            v += update
            np.divide(m, 1 - beta1**step, out=update)
            update *= lr
            np.divide(v, 1 - beta2**step, out=denom)
            np.sqrt(denom, out=denom)
            denom += adam_eps
            update /= denom
            theta -= update
        curve.append(dataset_nll())
        if curve[-1] < best_nll - PLATEAU_TOL:
            best_nll = curve[-1]
            np.copyto(best, theta)
            best_epoch = epoch
        elif epoch - best_epoch >= PLATEAU_EPOCHS:
            break

    best_w, best_b = _views(best, net)
    net.weights = [w.copy() for w in best_w]
    net.biases = [b.copy() for b in best_b]
    return net, curve


def training_digest(x: np.ndarray) -> str:
    """sha256 prefix of the rows of bit matrix `x`, each written as its
    '0'/'1' characters x_0 first."""
    chars = (np.asarray(x) > 0.5).astype(np.uint8) + np.uint8(ord("0"))
    return hashlib.sha256(chars.tobytes()).hexdigest()[:16]


def save_checkpoint(net: MadeNetwork, path, *, digest: str = "") -> None:
    with atomic_write(path) as f:
        json.dump({**net.to_json_dict(), "training_data_digest": digest}, f)


def load_checkpoint(path) -> MadeNetwork:
    with open(path) as f:
        return MadeNetwork.from_json_dict(json.load(f))
