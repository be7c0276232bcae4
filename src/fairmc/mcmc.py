"""Metropolis-Hastings chain engine.

`run_chain` runs one of three update families, each with one acceptance rule:

* MadeKernel  -- state-independent draws from a trained autoregressive net
                 (independence sampler), accepted with
                 min(1, exp(-beta*dE) * q(cur)/q(cand)) from the net's exact
                 log q.
* single-spin-flip sweeps (SsfSweepUpdate) and the hybrid composite
  (HybridUpdate: one neural independence step followed by one N-flip sweep),
  which preserve the target because each sub-update does.
* a generic kernel: any object with a `tag` and `propose(bits, rng)`
  mapping the current state's packed bits to the candidate's.  The proposal
  must be symmetric, q(a|b) = q(b|a), and is accepted with
  min(1, exp(-beta*dE)).  QeKernel is one: it measures after short
  evolution from the current basis state under the exact dense exp(-iHt),
  so U = U^T and |U_zz'| = |U_z'z| given the per-step draw of (driver
  weight, time), uniform in QE_DRIVER_WEIGHT_RANGE and QE_TIME_RANGE and
  made before proposing.  Models above qsim._DENSE_MAX sites raise
  CapacityError.

Energies: `run_chain` reads every energy from the model's basis-energy
table (`ising.basis_energies` as a list), built once before the first step
whatever the update: a MADE or generic-kernel candidate's energy is
table[candidate], and `_table_sweep`, the one single-spin-flip loop (PT-ICM
runs it too), reads each flip's.  Every recorded energy is therefore exactly
`energy_of_bits` of its state.  The table bounds every update to
ising.MAX_BRUTEFORCE_SITES (24) sites: above it `basis_energies` raises
CapacityError before the first step.  The list costs about 32 B per basis
state, about 134 MB at 22 sites.  A sweep's site order is drawn with
`_site_order`, which makes the permutation of `random.shuffle` from the same
`getrandbits` calls, so the random stream is the one a shuffle would
consume.

MADE candidates (MadeKernel and HybridUpdate) are drawn in blocks of up to
MADE_BLOCK: one `made.sample_batch` and one `made.log_prob_batch` call per
block.  The proposal ignores the current state, so candidates drawn ahead
of time are i.i.d. with exactly the per-step proposal distribution.  The
chain carries log q of its current state; after a sweep moves it, log q is
looked up in a per-chain table filled from the blocks, or computed once with
`made.log_prob` on a miss.

Random streams: the candidates come from a numpy Generator seeded from
`rng_seed` alone; the chain's `random.Random(rng_seed)` draws the initial
state, every accept test, the sweep orders and the generic kernel's
proposals.  A chain is therefore deterministic for a fixed seed.

Step accounting: a neural or generic-kernel update is 1 transition, a sweep
is N transitions, a hybrid step is N+1.  Traces record every transition
including rejections (the repeated state is what `metrics.visits` counts).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Union

import numpy as np

from fairmc import made as made_mod
from fairmc.ising import (
    DimensionError,
    IsingModel,
    SpinConfig,
    Temperature,
    basis_energies,
    bit_rows,
    energy_of_bits,
)
from fairmc.made import MadeNetwork
from fairmc.qsim import basis_state, evolve_fixed, measure_distribution

# MADE candidates drawn per block (capped at the steps left in the chain)
MADE_BLOCK = 256
_MADE_STREAM = 0x4D414445  # tags the candidate generator's seed
# QeKernel's ranges of the driver weight w and the evolution time t
QE_DRIVER_WEIGHT_RANGE = (0.25, 0.6)
QE_TIME_RANGE = (2.0, 20.0)


# ---------------------------------------------------------------------------
# kernels


class MadeKernel:
    """Independence sampler from a trained autoregressive network.

    The proposal ignores the current state; exact forward/reverse densities
    come from the network's log_prob, so the acceptance ratio is computable
    and detailed balance holds exactly.  `run_chain` draws its candidates in
    blocks (see the module docstring).
    """

    tag = "made"

    def __init__(self, net: MadeNetwork):
        self.net = net


class QeKernel:
    """Propose by measuring exp(-iHt)|current> with a mixed Hamiltonian.

    H = (1-w) * alpha * H_P + w * H_d with (w, t) drawn fresh per proposal,
    uniform in QE_DRIVER_WEIGHT_RANGE and QE_TIME_RANGE, *before* evolving,
    so forward and reverse proposals share the same unitary and
    q(a|b) = q(b|a) exactly (U = exp(-iHt) is exact, from one eigh of the
    dense H, and complex-symmetric).  `run_chain` therefore accepts its
    candidates with no q ratio.  Proposing raises ising.CapacityError for a
    model above qsim._DENSE_MAX sites.
    """

    tag = "qe"

    def __init__(self, model: IsingModel):
        self.model = model

    def propose(self, bits: int, rng) -> int:
        lo, hi = QE_DRIVER_WEIGHT_RANGE
        w = lo + (hi - lo) * rng.random()
        t0, t1 = QE_TIME_RANGE
        t = t0 + (t1 - t0) * rng.random()
        n = self.model.n_sites
        state = evolve_fixed(basis_state(n, bits), self.model, w, t)
        probs = measure_distribution(state)
        z = int(np.searchsorted(np.cumsum(probs), rng.random()))
        return min(z, len(probs) - 1)


# ---------------------------------------------------------------------------
# single steps


def _accept(log_ratio: float, rng) -> bool:
    return log_ratio >= 0.0 or rng.random() < math.exp(log_ratio)


@functools.cache  # one small entry per site count
def _order_plan(n: int) -> tuple[list[int], tuple[tuple[int, int, int], ...]]:
    """The identity order of n sites (copied, never changed) and the
    Fisher-Yates steps of `random.shuffle` on n items: (i, i + 1, bit length
    of i + 1) for i = n - 1 down to 1."""
    return list(range(n)), tuple((i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _site_order(n: int, rng: random.Random) -> list[int]:
    """The permutation `rng.shuffle(list(range(n)))` makes, from the same
    `getrandbits` calls: each index below i + 1 is drawn as CPython's
    `_randbelow_with_getrandbits` draws it (k = (i + 1).bit_length() bits,
    redrawn while >= i + 1), without its per-item method calls."""
    identity, steps = _order_plan(n)
    order = identity[:]
    getrandbits = rng.getrandbits
    for i, m, k in steps:
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


def _table_sweep(table, bits, energy, beta, rng, record=None, tag_id=0):
    """N sequential single-spin-flip Metropolis updates in a fresh random
    site order (`_site_order`).  `table` is the model's basis energies as a
    list and `energy` is table[bits], so a flip's difference is
    table[flipped] - energy.  Calls `record(bits, energy, accepted, tag_id)`
    after every site when given.  Returns (bits, energy)."""
    uniform = rng.random
    exp = math.exp
    minus_beta = -beta
    for site in _site_order(len(table).bit_length() - 1, rng):  # len = 2^N
        flipped = bits ^ (1 << site)
        flipped_energy = table[flipped]
        d = flipped_energy - energy
        if d <= 0.0 or uniform() < exp(minus_beta * d):
            bits, energy = flipped, flipped_energy
            if record is not None:
                record(bits, energy, True, tag_id)
        elif record is not None:
            record(bits, energy, False, tag_id)
    return bits, energy


def _made_candidates(net, steps, rng_seed, log_q_table):
    """Yield `steps` MADE candidates as (bits, log q), drawn in blocks of up
    to MADE_BLOCK; each block's log q also goes into `log_q_table`."""
    gen = np.random.default_rng([rng_seed % (1 << 64), _MADE_STREAM])
    weights = np.uint64(1) << np.arange(net.n_inputs, dtype=np.uint64)
    for start in range(0, steps, MADE_BLOCK):
        x = made_mod.sample_batch(net, min(MADE_BLOCK, steps - start), gen)
        log_q = made_mod.log_prob_batch(net, x).tolist()
        bits = (x.astype(np.uint64) * weights).sum(axis=1).tolist()
        log_q_table.update(zip(bits, log_q))
        yield from zip(bits, log_q)


# ---------------------------------------------------------------------------
# chain traces


@dataclass
class ChainTrace:
    """Per-transition record of a chain run (append-only)."""

    states: np.ndarray  # uint64 packed bits, one per transition
    energies: np.ndarray
    accepted: np.ndarray
    tags: np.ndarray  # uint8 index into tag_legend
    tag_legend: tuple[str, ...]
    n_steps: int  # composite steps executed

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        """Every transition is recorded: record i is transition i + 1."""
        return len(self.states)


class _TraceBuilder:
    def __init__(self):
        self.states: list[int] = []
        self.energies: list[float] = []
        self.accepted: list[bool] = []
        self.tags: list[int] = []
        self.legend: list[str] = []
        self._legend_ids: dict[str, int] = {}

    def tag_id(self, tag: str) -> int:
        if tag not in self._legend_ids:
            self._legend_ids[tag] = len(self.legend)
            self.legend.append(tag)
        return self._legend_ids[tag]

    def record(self, bits, e, acc, tag_id):
        self.states.append(bits)
        self.energies.append(e)
        self.accepted.append(acc)
        self.tags.append(tag_id)

    def build(self, n_steps) -> ChainTrace:
        return ChainTrace(
            states=np.array(self.states, dtype=np.uint64),
            energies=np.array(self.energies, dtype=np.float64),
            accepted=np.array(self.accepted, dtype=bool),
            tags=np.array(self.tags, dtype=np.uint8),
            tag_legend=tuple(self.legend),
            n_steps=n_steps,
        )


@dataclass
class SsfSweepUpdate:
    """Composite update: one full sweep (N transitions) per step."""


@dataclass
class HybridUpdate:
    """One neural independence step plus one sweep (N+1 transitions).

    Both sub-updates preserve the Boltzmann distribution, hence so does the
    composition; the sweep explores the Hamming neighborhood of the proposed
    state, covering ground states the network under-represents.
    """

    net: MadeNetwork


# QeKernel stands for any generic kernel: a `tag` and a symmetric `propose`
Update = Union[MadeKernel, SsfSweepUpdate, HybridUpdate, QeKernel]

def run_chain(
    model: IsingModel,
    t: Temperature,
    update: Update,
    steps: int,
    init: SpinConfig | None = None,
    rng_seed: int = 0,
) -> ChainTrace:
    """Run `steps` composite updates and record every transition.

    One acceptance rule per update family: MadeKernel and the neural half of
    HybridUpdate accept with min(1, exp(-beta*dE) * q(cur)/q(cand)); sweeps
    accept each flip with min(1, exp(-beta*dE)); any other `update` is a
    generic kernel whose `propose(bits, rng)` maps the current state's
    packed bits to the candidate's, and whose proposal must be symmetric,
    since it is accepted with min(1, exp(-beta*dE)) and no q ratio.

    Deterministic for a fixed seed.  `init` is a SpinConfig, or None for a
    uniform draw.  Raises DimensionError when a MADE net's input count
    differs from the model's site count.  Every update type reads its
    energies from the model's basis-energy table, so every update type is
    bounded by ising.MAX_BRUTEFORCE_SITES: above it run_chain raises
    CapacityError before the first step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = model.n_sites
    neural = isinstance(update, (MadeKernel, HybridUpdate))
    if neural and update.net.n_inputs != n:
        raise DimensionError(f"net has {update.net.n_inputs} inputs, model has {n} sites")
    rng = random.Random(rng_seed)
    if init is None:
        bits = rng.getrandbits(n)
    elif init.n != n:
        raise ValueError("init length does not match the model")
    else:
        bits = init.bits

    table = basis_energies(model).tolist()
    builder = _TraceBuilder()
    beta = t.beta
    energy = energy_of_bits(model, bits)

    if isinstance(update, SsfSweepUpdate):
        tag_id = builder.tag_id("ssf")
        for _ in range(steps):
            bits, energy = _table_sweep(table, bits, energy, beta, rng, builder.record, tag_id)
    elif neural:
        hybrid = isinstance(update, HybridUpdate)
        made_tag = builder.tag_id("made")
        ssf_tag = builder.tag_id("ssf") if hybrid else None
        log_q_table: dict[int, float] = {}
        log_q = None  # log q(current), looked up when first needed
        for cand, cand_log_q in _made_candidates(update.net, steps, rng_seed, log_q_table):
            if log_q is None:
                log_q = log_q_table.get(bits)
                if log_q is None:
                    log_q = made_mod.log_prob(update.net, bit_rows(bits, n))
                    log_q_table[bits] = log_q
            cand_e = table[cand]
            if _accept(-beta * (cand_e - energy) + log_q - cand_log_q, rng):
                bits, energy, log_q, acc = cand, cand_e, cand_log_q, True
            else:
                acc = False
            builder.record(bits, energy, acc, made_tag)
            if hybrid:
                swept, energy = _table_sweep(
                    table, bits, energy, beta, rng, builder.record, ssf_tag)
                if swept != bits:
                    bits, log_q = swept, None
    else:
        tag_id = builder.tag_id(update.tag)
        for _ in range(steps):
            cand = update.propose(bits, rng)
            cand_e = table[cand]
            if _accept(-beta * (cand_e - energy), rng):
                bits, energy, acc = cand, cand_e, True
            else:
                acc = False
            builder.record(bits, energy, acc, tag_id)

    return builder.build(steps)
