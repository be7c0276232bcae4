"""Metropolis-Hastings engine with pluggable proposal kernels.

Acceptance follows min(1, exp(-beta*dE) * Q(cur|cand)/Q(cand|cur)); kernels
that guarantee Q symmetry return no log-q values and the ratio drops out.
Three proposal families are provided:

* QeKernel    -- measure after short symmetric-unitary evolution from the
                 current basis state.  The evolution operator satisfies
                 U = U^T (exact dense propagation up to qsim._DENSE_MAX
                 sites, symmetric Trotter steps above), so |U_zz'| = |U_z'z|
                 and the proposal is exactly symmetric given the per-step
                 draw of (driver weight, time), which is made before
                 proposing.
* MadeKernel  -- state-independent draws from a trained autoregressive net
                 (independence sampler; exact log-q both ways).
* single-spin-flip sweeps and the hybrid composite (one neural independence
  step followed by one N-flip sweep), which preserve the target because each
  sub-update does.

`run_chain` is the only chain engine; PT-ICM reuses its sweep.  MADE
candidates (MadeKernel and HybridUpdate) are drawn in blocks of up to
MADE_BLOCK: one `made.sample_batch`, one `made.log_prob_batch` and one
`ising.energy_of_bits_batch` call per block.  The proposal ignores the
current state, so candidates drawn ahead of time are i.i.d. with exactly the
per-step proposal distribution.  The chain carries log q of its current
state; after a sweep moves it, log q is looked up in a per-chain table filled
from the blocks, or computed once with `made.log_prob` on a miss.

Random streams: the candidates come from a numpy Generator seeded from
`rng_seed` alone; the chain's `random.Random(rng_seed)` draws the initial
state, every accept test, the sweep orders and the QE/uniform/custom
proposals.  A chain is therefore deterministic for a fixed seed.

Step accounting: a neural or quantum-evolution update is 1 transition, a
sweep is N transitions, a hybrid step is N+1.  Traces record every transition
including rejections (the repeated state is what histograms must count).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Protocol, Union

import numpy as np

from fairmc import made as made_mod
from fairmc.ising import (
    DimensionError,
    IsingModel,
    SpinConfig,
    Temperature,
    energy_of_bits,
    energy_of_bits_batch,
)
from fairmc.made import MadeNetwork
from fairmc.qsim import basis_state, evolve_fixed, measure_distribution

SYMMETRIC = None

# MADE candidates drawn per block (capped at the steps left in the chain)
MADE_BLOCK = 256
_MADE_STREAM = 0x4D414445  # tags the candidate generator's seed


@dataclass(frozen=True)
class Proposal:
    candidate: SpinConfig
    log_q_forward: float | None = SYMMETRIC
    log_q_reverse: float | None = SYMMETRIC


class ProposalKernel(Protocol):
    tag: str

    def propose(self, current: SpinConfig, rng) -> Proposal: ...


# ---------------------------------------------------------------------------
# kernels


class UniformKernel:
    """Uniform independence proposals; trivially symmetric."""

    tag = "uniform"

    def __init__(self, n_sites: int):
        self.n_sites = n_sites

    def propose(self, current, rng) -> Proposal:
        if hasattr(rng, "getrandbits"):
            z = rng.getrandbits(self.n_sites)
        else:
            z = int(rng.integers(1 << self.n_sites))
        return Proposal(SpinConfig(z, self.n_sites))


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


def kernel_made(net: MadeNetwork) -> MadeKernel:
    return MadeKernel(net)


def proposal_floor(net: MadeNetwork) -> float:
    """Every state's proposal probability is at least EPS^N (clamped
    conditionals), which is what keeps independence chains irreducible."""
    return made_mod.EPS**net.n_inputs


@dataclass
class QeHyper:
    """Per-proposal draw ranges for the quantum-evolution kernel."""

    driver_weight_range: tuple[float, float] = (0.25, 0.6)
    time_range: tuple[float, float] = (2.0, 20.0)
    # Trotter step, used only above qsim._DENSE_MAX sites; up to that size
    # the evolution is exact and this value is ignored
    trotter_dt: float = 0.05


class QeKernel:
    """Propose by measuring exp(-iHt)|current> with a mixed Hamiltonian.

    H = (1-w) * alpha * H_P + w * H_d with (w, t) drawn fresh per proposal
    *before* evolving, so forward and reverse proposals share the same
    unitary and q(a|b) = q(b|a) exactly (U is complex-symmetric).  Up to
    qsim._DENSE_MAX sites U = exp(-iHt) is exact (one eigh of the dense H);
    above it U is a product of symmetric Trotter steps of length
    `hyper.trotter_dt`, which is still exactly complex-symmetric.
    """

    tag = "qe"

    def __init__(self, model: IsingModel, hyper: QeHyper | None = None):
        self.model = model
        self.hyper = hyper or QeHyper()

    def propose(self, current, rng) -> Proposal:
        lo, hi = self.hyper.driver_weight_range
        w = lo + (hi - lo) * rng.random()
        t0, t1 = self.hyper.time_range
        t = t0 + (t1 - t0) * rng.random()
        state = evolve_fixed(
            basis_state(self.model.n_sites, current.bits),
            self.model,
            w,
            t,
            dt=self.hyper.trotter_dt,
        )
        probs = measure_distribution(state).probs
        z = int(np.searchsorted(np.cumsum(probs), rng.random()))
        z = min(z, len(probs) - 1)
        return Proposal(SpinConfig(z, self.model.n_sites))


def kernel_qe_mcmc(model: IsingModel, hyper: QeHyper | None = None) -> QeKernel:
    return QeKernel(model, hyper)


# ---------------------------------------------------------------------------
# single steps


def _accept(log_ratio: float, rng) -> bool:
    return log_ratio >= 0.0 or rng.random() < math.exp(log_ratio)


def spin_flip_sweep(bits, energy, beta, site_masks, rng, record=None, tag_id=0):
    """N sequential single-spin-flip Metropolis updates in a fresh random
    site order; each flip uses the incremental energy difference from
    `site_masks` (`IsingModel.site_masks`).  Calls `record(bits, energy,
    accepted, tag_id)` after every site when given.  Returns (bits, energy).
    """
    order = list(range(len(site_masks)))
    rng.shuffle(order)
    for site in order:
        d = 0.0
        for mask, coeff in site_masks[site]:
            d -= 2.0 * coeff * (1 - 2 * ((bits & mask).bit_count() & 1))
        if d <= 0.0 or rng.random() < math.exp(-beta * d):
            bits ^= 1 << site
            energy += d
            if record is not None:
                record(bits, energy, True, tag_id)
        elif record is not None:
            record(bits, energy, False, tag_id)
    return bits, energy


def _made_candidates(model, net, steps, rng_seed, log_q_table):
    """Yield `steps` MADE candidates as (bits, log q, energy), drawn in
    blocks of up to MADE_BLOCK; each block's log q also goes into
    `log_q_table`."""
    gen = np.random.default_rng([rng_seed % (1 << 64), _MADE_STREAM])
    weights = np.uint64(1) << np.arange(net.n_inputs, dtype=np.uint64)
    for start in range(0, steps, MADE_BLOCK):
        x = made_mod.sample_batch(net, min(MADE_BLOCK, steps - start), gen)
        log_q = made_mod.log_prob_batch(net, x).tolist()
        z = (x.astype(np.uint64) * weights).sum(axis=1)
        bits = z.tolist()
        log_q_table.update(zip(bits, log_q))
        yield from zip(bits, log_q, energy_of_bits_batch(model, z).tolist())


# ---------------------------------------------------------------------------
# chain traces


@dataclass
class ChainTrace:
    """Per-transition record of a chain run (append-only, thinned)."""

    n_sites: int
    states: np.ndarray  # uint64 packed bits, one per kept transition
    energies: np.ndarray
    accepted: np.ndarray
    tags: np.ndarray  # uint8 index into tag_legend
    transition_index: np.ndarray  # 1-based cumulative transition count
    tag_legend: tuple[str, ...]
    n_steps: int  # composite steps executed
    n_transitions: int
    thinning: int = 1
    rng_seed: int | None = None

    def __len__(self) -> int:
        return len(self.states)

    def configs(self) -> list[SpinConfig]:
        return [SpinConfig(int(z), self.n_sites) for z in self.states]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "bitstring", "energy", "accepted", "kernel_tag"])
            for i in range(len(self.states)):
                w.writerow(
                    [
                        int(self.transition_index[i]),
                        SpinConfig(int(self.states[i]), self.n_sites).to_bitstring(),
                        f"{self.energies[i]:.12g}",
                        int(self.accepted[i]),
                        self.tag_legend[self.tags[i]],
                    ]
                )

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            n_sites=self.n_sites,
            states=self.states,
            energies=self.energies,
            accepted=self.accepted,
            tags=self.tags,
            transition_index=self.transition_index,
            tag_legend=np.array(self.tag_legend),
            n_steps=self.n_steps,
            n_transitions=self.n_transitions,
            thinning=self.thinning,
            rng_seed=-1 if self.rng_seed is None else self.rng_seed,
        )

    @classmethod
    def load(cls, path) -> "ChainTrace":
        d = np.load(path, allow_pickle=False)
        seed = int(d["rng_seed"])
        return cls(
            n_sites=int(d["n_sites"]),
            states=d["states"],
            energies=d["energies"],
            accepted=d["accepted"],
            tags=d["tags"],
            transition_index=d["transition_index"],
            tag_legend=tuple(str(s) for s in d["tag_legend"]),
            n_steps=int(d["n_steps"]),
            n_transitions=int(d["n_transitions"]),
            thinning=int(d["thinning"]),
            rng_seed=None if seed == -1 else seed,
        )


class _TraceBuilder:
    def __init__(self, n_sites, thinning, rng_seed):
        self.n_sites = n_sites
        self.thinning = thinning
        self.rng_seed = rng_seed
        self.states: list[int] = []
        self.energies: list[float] = []
        self.accepted: list[bool] = []
        self.tags: list[int] = []
        self.tindex: list[int] = []
        self.legend: list[str] = []
        self._legend_ids: dict[str, int] = {}
        self.transitions = 0

    def tag_id(self, tag: str) -> int:
        if tag not in self._legend_ids:
            self._legend_ids[tag] = len(self.legend)
            self.legend.append(tag)
        return self._legend_ids[tag]

    def record(self, bits, e, acc, tag_id):
        self.transitions += 1
        if self.transitions % self.thinning == 0:
            self.states.append(bits)
            self.energies.append(e)
            self.accepted.append(acc)
            self.tags.append(tag_id)
            self.tindex.append(self.transitions)

    def build(self, n_steps) -> ChainTrace:
        return ChainTrace(
            n_sites=self.n_sites,
            states=np.array(self.states, dtype=np.uint64),
            energies=np.array(self.energies, dtype=np.float64),
            accepted=np.array(self.accepted, dtype=bool),
            tags=np.array(self.tags, dtype=np.uint8),
            transition_index=np.array(self.tindex, dtype=np.uint64),
            tag_legend=tuple(self.legend),
            n_steps=n_steps,
            n_transitions=self.transitions,
            thinning=self.thinning,
            rng_seed=self.rng_seed,
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


Update = Union[ProposalKernel, SsfSweepUpdate, HybridUpdate]

RANDOM_INIT = "random"


def run_chain(
    model: IsingModel,
    t: Temperature,
    update: Update,
    steps: int,
    init: SpinConfig | str = RANDOM_INIT,
    rng_seed: int = 0,
    thinning: int = 1,
) -> ChainTrace:
    """Run `steps` composite updates and record every transition.

    Deterministic for a fixed seed.  `init` is a SpinConfig or RANDOM_INIT
    for a uniform draw.  The trace keeps every `thinning`-th transition.
    Raises DimensionError when a MADE net's input count differs from the
    model's site count.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = model.n_sites
    neural = isinstance(update, (MadeKernel, HybridUpdate))
    if neural and update.net.n_inputs != n:
        raise DimensionError(f"net has {update.net.n_inputs} inputs, model has {n} sites")
    rng = random.Random(rng_seed)
    if init == RANDOM_INIT:
        bits = rng.getrandbits(n)
    elif isinstance(init, SpinConfig):
        if init.n != n:
            raise ValueError("init length does not match the model")
        bits = init.bits
    else:
        raise ValueError(f"bad init {init!r}")

    builder = _TraceBuilder(n, thinning, rng_seed)
    beta = t.beta
    site_masks = model.site_masks
    energy = energy_of_bits(model, bits)

    if isinstance(update, SsfSweepUpdate):
        tag_id = builder.tag_id("ssf")
        for _ in range(steps):
            bits, energy = spin_flip_sweep(
                bits, energy, beta, site_masks, rng, builder.record, tag_id
            )
    elif neural:
        hybrid = isinstance(update, HybridUpdate)
        made_tag = builder.tag_id("made")
        ssf_tag = builder.tag_id("ssf") if hybrid else None
        log_q_table: dict[int, float] = {}
        log_q = None  # log q(current), looked up when first needed
        for cand, cand_log_q, cand_e in _made_candidates(
            model, update.net, steps, rng_seed, log_q_table
        ):
            if log_q is None:
                log_q = log_q_table.get(bits)
                if log_q is None:
                    log_q = made_mod.log_prob(update.net, SpinConfig(bits, n))
                    log_q_table[bits] = log_q
            if _accept(-beta * (cand_e - energy) + log_q - cand_log_q, rng):
                bits, energy, log_q, acc = cand, cand_e, cand_log_q, True
            else:
                acc = False
            builder.record(bits, energy, acc, made_tag)
            if hybrid:
                swept, energy = spin_flip_sweep(
                    bits, energy, beta, site_masks, rng, builder.record, ssf_tag
                )
                if swept != bits:
                    bits, log_q = swept, None
    else:
        tag_id = builder.tag_id(getattr(update, "tag", "kernel"))
        for _ in range(steps):
            prop = update.propose(SpinConfig(bits, n), rng)
            cand_e = energy_of_bits(model, prop.candidate.bits)
            log_ratio = -beta * (cand_e - energy)
            if prop.log_q_forward is not None:
                log_ratio += prop.log_q_reverse - prop.log_q_forward
            if _accept(log_ratio, rng):
                bits, energy, acc = prop.candidate.bits, cand_e, True
            else:
                acc = False
            builder.record(bits, energy, acc, tag_id)

    return builder.build(steps)
