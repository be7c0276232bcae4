"""Masked autoregressive distribution estimator over fixed-length bitstrings.

A small masked MLP factorizes q(b) = prod_i q(b_i | b_before_i) in a fixed
variable order; masks zero every connection that would violate the ordering,
so the factorization (and hence normalization) is exact by construction.
Conditionals are sigmoid outputs clamped to [EPS, 1-EPS], which floors every
state's probability at EPS^N > 0 and keeps independence-sampler chains
irreducible.

Implemented directly in numpy with analytic backprop: the network is tiny
(one hidden layer of width 4N) and this keeps training bit-reproducible with
no framework dependency.  While `train` runs, every weight and bias is a view
into one flat parameter buffer and Adam updates it in one in-place pass per
step: at these sizes a step costs numpy calls, not arithmetic.  Training is
bit-reproducible: a fixed seed gives the same checkpoint bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fairmc.fileio import atomic_write
from fairmc.ising import DimensionError, SpinConfig

EPS = 1e-7
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
    """Masked MLP; `weights[l]` maps layer l activations, masks fixed at build."""

    def __init__(self, n_inputs, hidden_sizes, variable_order=None, *, rng):
        if n_inputs < 1:
            raise ValueError("need at least one input")
        self.n_inputs = n_inputs
        self.hidden_sizes = tuple(hidden_sizes)
        self.variable_order = tuple(
            variable_order if variable_order is not None else range(n_inputs)
        )
        if sorted(self.variable_order) != list(range(n_inputs)):
            raise ValueError("variable_order must be a permutation of 0..N-1")

        # degree of input i = 1-based position in the ordering
        n = n_inputs
        in_deg = np.empty(n, dtype=np.int64)
        for pos, v in enumerate(self.variable_order):
            in_deg[v] = pos + 1
        self.degrees = [in_deg]
        for width in self.hidden_sizes:
            # cyclic degrees 1..N-1 (all 1s when N == 1: outputs see no input)
            span = max(n - 1, 1)
            self.degrees.append(np.arange(width, dtype=np.int64) % span + 1)
        self.degrees.append(in_deg)

        self.masks = []
        for l in range(len(self.degrees) - 1):
            prev, cur = self.degrees[l], self.degrees[l + 1]
            if l == len(self.degrees) - 2:
                m = cur[:, None] > prev[None, :]  # strict: output i ignores input i
            else:
                m = cur[:, None] >= prev[None, :]
            self.masks.append(m.astype(np.float64))

        self.weights = []
        self.biases = []
        sizes = [n, *self.hidden_sizes, n]
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    # -- forward -----------------------------------------------------------

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        """q(b_i = 1 | bits before i), clamped to [EPS, 1-EPS].  x: (..., N)."""
        h, _, _ = self._forward(np.atleast_2d(x))
        return h if x.ndim > 1 else h[0]

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
        return {
            "format": 1,
            "n_inputs": self.n_inputs,
            "hidden_sizes": list(self.hidden_sizes),
            "variable_order": list(self.variable_order),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MadeNetwork":
        if d.get("format") != 1:
            raise ValueError(f"unknown checkpoint format {d.get('format')}")
        net = cls(d["n_inputs"], d["hidden_sizes"], d["variable_order"],
                  rng=np.random.default_rng(0))
        net.weights = [np.asarray(w, dtype=np.float64) for w in d["weights"]]
        net.biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
        return net


def log_prob(net: MadeNetwork, config: SpinConfig) -> float:
    if config.n != net.n_inputs:
        raise DimensionError(f"config has {config.n} bits, net expects {net.n_inputs}")
    x = config.bit_array().astype(np.float64)
    q1 = net.conditionals(x)
    return float(np.sum(np.where(x > 0.5, np.log(q1), np.log1p(-q1))))


def log_prob_batch(net: MadeNetwork, bits: np.ndarray) -> np.ndarray:
    q1 = net.conditionals(bits)
    return np.sum(np.where(bits > 0.5, np.log(q1), np.log1p(-q1)), axis=-1)


def sample(net: MadeNetwork, rng) -> SpinConfig:
    """One ancestral draw; matches exp(log_prob) exactly, clamping included."""
    x = np.zeros(net.n_inputs)
    for v in net.variable_order:
        q1 = net.conditionals(x)[v]
        x[v] = 1.0 if rng.random() < q1 else 0.0
    return SpinConfig.from_bits(x.astype(np.int64))


def sample_batch(net: MadeNetwork, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N) bit matrix of independent ancestral draws."""
    x = np.zeros((count, net.n_inputs))
    for v in net.variable_order:
        q1 = net.conditionals(x)[:, v]
        x[:, v] = (rng.random(count) < q1).astype(np.float64)
    return x


def exact_probabilities(net: MadeNetwork) -> np.ndarray:
    """exp(log_prob) for all 2^N states, indexed by packed bits (N <= 16)."""
    n = net.n_inputs
    if n > 16:
        raise ValueError("exhaustive evaluation limited to 16 inputs")
    z = np.arange(1 << n, dtype=np.uint64)
    bits = ((z[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1))
    return np.exp(log_prob_batch(net, bits.astype(np.float64)))


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


def train(
    samples: Sequence[SpinConfig], cfg: TrainConfig
) -> tuple[MadeNetwork, list[float]]:
    """Fit by minibatch Adam on the mean NLL; returns (network, loss curve).

    The loss curve holds the full-dataset NLL after every epoch; the returned
    network is the best-epoch snapshot, so its final NLL never exceeds the
    initial one.  Training stops early once PLATEAU_EPOCHS epochs pass
    without improving the best NLL by more than PLATEAU_TOL.

    During training the weights and biases are views into one flat buffer
    and the gradients into another, so each Adam step is one in-place pass
    over all parameters.  A fixed seed reproduces the network bit for bit;
    the returned network owns its arrays.
    """
    if not samples:
        raise ValueError("need a nonempty training set")
    n = samples[0].n
    if any(s.n != n for s in samples):
        raise DimensionError("training samples must share one length")
    x_all = np.stack([s.bit_array().astype(np.float64) for s in samples])
    batch_size, lr = BATCH_SIZE, LEARNING_RATE

    rng = np.random.default_rng(cfg.rng_seed)
    net = MadeNetwork(n, (4 * n,), rng=rng)

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


def training_digest(samples: Sequence[SpinConfig]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.to_bitstring().encode())
    return h.hexdigest()[:16]


def save_checkpoint(net: MadeNetwork, path, *, digest: str = "") -> None:
    with atomic_write(path) as f:
        json.dump({**net.to_json_dict(), "training_data_digest": digest}, f)


def load_checkpoint(path) -> MadeNetwork:
    with open(path) as f:
        return MadeNetwork.from_json_dict(json.load(f))
