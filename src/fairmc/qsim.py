"""Dense statevector simulation.

Basis layout: amplitude index z holds qubit i in bit i, so z is exactly the
packed-bits integer of a SpinConfig (bit 1 <=> spin -1).  The driver is the
transverse field H_d = -sum_i sigma_x_i throughout; diagonal problem terms
come from an IsingModel.

QAOA layers are applied directly at any size.  Phase factors are computed
once per distinct energy level.  The mixer is a product of commuting
single-qubit rotations, so it factors over blocks of up to _MIXER_BLOCK
qubits: each block is one small matmul with that block's Kronecker power of
the rotation.  The array-level layers (`phase_factors`, `rotate_mixer`,
`apply_driver`) also serve the adjoint gradient in `qaoa`.
Time evolution under any other Hamiltonian builds the real-symmetric
2^n x 2^n matrix H.  `evolve_fixed` diagonalises it, exp(-iHt) =
V exp(-i Lambda t) V^T, which is exact.  `run_annealing` runs the linear
anneal (1 - s) H_d + s H_P with the fourth-order commutator-free Magnus
integrator CF4 (two exponentials per step), each applied to the state as a
truncated Taylor polynomial, so it needs only products of H with the state.
Both are limited to _DENSE_MAX sites and raise ising.CapacityError above it.

The operations that return a StateVector (`apply_phase_layer`,
`apply_mixer_layer`, `run_qaoa`, `evolve_fixed`, `run_annealing`) return new
values and preserve the norm to ~1e-9 or better.  The array-level layers
return arrays: `phase_factors` the unit-modulus factors, `rotate_mixer` its
input rotated by a unitary (norm kept), and `apply_driver` H_d psi, whose
norm is not psi's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from fairmc.ising import (
    CapacityError,
    DimensionError,
    IsingModel,
    basis_energies,
    bit_rows,
    energy_levels,
)

# dense time evolution up to this many sites.  The pipeline evolves only the
# five-site fixtures; at n = 9, for a random 3-SAT instance on a 2-vCPU Xeon
# VM, one T = 20 CF4 anneal would take 0.7 s and one `evolve_fixed` (an eigh
# of the 512 x 512 H) 50 ms, so a QE-MCMC chain 50 ms per step
_DENSE_MAX = 7

# qubits per mixer matmul.  A block's matrix is 2^k x 2^k, so larger blocks
# mean fewer passes over the state but 2^k flops per amplitude each.  5 was
# fastest or within noise of it at n = 5..16, with two BLAS threads and with
# one, on a 2-vCPU Xeon VM; 8 was 2.5-4.5x slower at n = 16
_MIXER_BLOCK = 5

# CF4 (Blanes & Moan 2006): Gauss nodes and the weights of its two exponentials
_CF4_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)
_CF4_WEIGHTS = ((3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12)

# an anneal's Taylor polynomials stop before the first term whose 1-norm
# bound falls below this, the double-precision unit roundoff
_TAYLOR_TOL = 2.0**-53


@dataclass(frozen=True, eq=False)
class StateVector:
    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude count must be 2**n_qubits")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def basis_state(n_qubits: int, z: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[z] = 1.0
    return StateVector(amps, n_qubits)


def uniform_state(n_qubits: int) -> StateVector:
    dim = 1 << n_qubits
    return StateVector(np.full(dim, dim**-0.5, dtype=np.complex128), n_qubits)


def phase_factors(model: IsingModel, gamma: float) -> np.ndarray:
    """exp(-i * gamma * E(z)) for every basis state z.

    Evaluated once per energy level and gathered through the level index;
    each entry is bitwise equal to np.exp(-1j * gamma * basis_energies(model)).
    """
    levels, idx = energy_levels(model)
    return np.exp(-1j * gamma * levels)[idx]


def apply_phase_layer(state: StateVector, model: IsingModel, gamma: float) -> StateVector:
    """Multiply each amplitude by exp(-i * gamma * E(z)); diagonal, unitary."""
    if model.n_sites != state.n_qubits:
        raise DimensionError(
            f"model has {model.n_sites} sites, state has {state.n_qubits} qubits"
        )
    return StateVector(state.amplitudes * phase_factors(model, gamma), state.n_qubits)


@lru_cache(maxsize=_MIXER_BLOCK)
def _hamming_distances(k: int) -> np.ndarray:
    """popcount(i ^ j) for all i, j < 2^k, read-only."""
    z = np.arange(1 << k)
    d = np.bitwise_count(z[:, None] ^ z)
    d.setflags(write=False)
    return d


def _block_rotation(k: int, beta: float) -> np.ndarray:
    """R^{(x)k} for the one-qubit R = [[cos b, i sin b], [i sin b, cos b]]:
    entry (i, j) is cos(b)^(k-d) (i sin b)^d with d = popcount(i ^ j),
    gathered from the k + 1 powers.  Complex-symmetric."""
    d = np.arange(k + 1)
    return (np.cos(beta) ** (k - d) * (1j * np.sin(beta)) ** d)[_hamming_distances(k)]


def rotate_mixer(amps: np.ndarray, n_qubits: int, beta: float) -> np.ndarray:
    """exp(-i * beta * H_d) applied along the last axis of `amps`, whose
    length is 2^n_qubits: exp(+i beta sigma_x) on every qubit, the 2x2
    rotation R = [[cos b, i sin b], [i sin b, cos b]].

    The qubits are split into ceil(n / _MIXER_BLOCK) blocks of near-equal
    size, and each block of k qubits is rotated by one matmul with R^{(x)k}
    (`_block_rotation`): the lowest block multiplies the rows of
    amps.reshape(..., 2^k) from the right (R^{(x)k} is symmetric), every
    other block multiplies amps.reshape(..., 2^k, 2^low) from the left, low
    being the number of qubits below it.
    Leading axes are independent states: each is its own matmul batch item,
    so a stacked row rotates bitwise as it would alone.
    """
    shape = amps.shape
    n_blocks = -(-n_qubits // _MIXER_BLOCK)
    rows = amps.size >> n_qubits
    low, r = 0, None
    for block in range(n_blocks):
        k = n_qubits // n_blocks + (block < n_qubits % n_blocks)
        if r is None or len(r) != 1 << k:  # blocks of equal size share R
            r = _block_rotation(k, beta)
        if low == 0:
            amps = amps.reshape(rows, -1, 1 << k) @ r
        else:
            amps = r @ amps.reshape(-1, 1 << k, 1 << low)
        low += k
    return amps.reshape(shape)


def apply_driver(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """H_d psi = -sum_i psi[z ^ 2^i] along the last axis, one qubit at a
    time: the amplitude pairs of qubit i are swapped through a
    (..., 2, 2^i) view and subtracted.  It shares no code with
    `rotate_mixer`, so it serves as an independent check of it
    (d/d beta rotate_mixer(psi, n, beta) = -i H_d rotate_mixer(psi, n, beta))."""
    out = np.zeros_like(amps)
    for qubit in range(n_qubits):
        view = out.reshape(-1, 2, 1 << qubit)
        view -= amps.reshape(-1, 2, 1 << qubit)[:, ::-1, :]
    return out


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """exp(-i * beta * H_d) with H_d = -sum sigma_x (see `rotate_mixer`)."""
    return StateVector(rotate_mixer(state.amplitudes, state.n_qubits, beta),
                       state.n_qubits)


def run_qaoa(
    model: IsingModel, gammas: Sequence[float], betas: Sequence[float]
) -> StateVector:
    """Alternating phase/mixer layers applied to the uniform superposition."""
    if len(gammas) != len(betas) or len(gammas) == 0:
        raise ValueError("need equal, nonempty gamma and beta lists")
    state = uniform_state(model.n_sites)
    for g, b in zip(gammas, betas):
        state = apply_phase_layer(state, model, g)
        state = apply_mixer_layer(state, b)
    return state


def problem_norm_ratio(model: IsingModel) -> float:
    """||H_d||_F / ||H_P||_F, the problem-strength normalization for mixed
    proposal Hamiltonians; 1.0 for an identically-zero problem."""
    hp = float(np.linalg.norm(basis_energies(model)))
    if hp == 0.0:
        return 1.0
    # ||H_d||_F^2 = ||sum_i sigma_x_i||_F^2 = n * 2^n (cross terms are traceless)
    return float(np.sqrt(model.n_sites * (1 << model.n_sites))) / hp


@lru_cache(maxsize=_DENSE_MAX + 1)
def _dense_driver(n_qubits: int) -> np.ndarray:
    """H_d = -sum_i sigma_x_i as a read-only dense matrix (zero diagonal)."""
    dim = 1 << n_qubits
    z = np.arange(dim)
    hd = np.zeros((dim, dim))
    for i in range(n_qubits):
        hd[z, z ^ (1 << i)] -= 1.0
    hd.setflags(write=False)
    return hd


def _require_dense(n_sites: int) -> None:
    if n_sites > _DENSE_MAX:
        raise CapacityError(
            f"time evolution is limited to {_DENSE_MAX} sites, model has {n_sites}"
        )


def evolve_fixed(
    state: StateVector, model: IsingModel, driver_weight: float, time: float
) -> StateVector:
    """exp(-i H t)|state> for H = (1-w) * alpha * H_P + w * H_d, with alpha
    the `problem_norm_ratio` of the model.

    Exact: one eigh of the dense H = V diag(lam) V^T.  V is real, so the
    propagator V exp(-i lam t) V^T is complex-symmetric (U = U^T, so
    |<z|U|z'>| = |<z'|U|z>| to rounding), which is what the quantum-proposal
    kernel needs.

    Raises ValueError for a non-finite `time`, DimensionError for a state of
    another size, and CapacityError above _DENSE_MAX sites.
    """
    if not np.isfinite(time):
        raise ValueError(f"evolution time must be finite, got {time}")
    if model.n_sites != state.n_qubits:
        raise DimensionError(
            f"model has {model.n_sites} sites, state has {state.n_qubits} qubits"
        )
    _require_dense(model.n_sites)
    if time == 0.0:
        return StateVector(state.amplitudes.copy(), state.n_qubits)
    h = driver_weight * _dense_driver(model.n_sites)
    np.fill_diagonal(
        h, (1.0 - driver_weight) * problem_norm_ratio(model) * basis_energies(model)
    )
    lam, v = np.linalg.eigh(h)
    amps = v @ (np.exp(-1j * time * lam) * (v.T @ state.amplitudes))
    return StateVector(amps, state.n_qubits)


def _taylor_split(norm: float) -> tuple[int, int]:
    """(applications, degree) for exp(-i tau H) psi with ||tau H||_1 <= norm:
    ceil(norm) equal applications, each of 1-norm theta <= 1, of the Taylor
    polynomial of the least degree m whose first omitted term
    theta^(m+1) / (m+1)! is below _TAYLOR_TOL."""
    reps = max(1, math.ceil(norm))
    theta = norm / reps
    degree, term = 0, theta
    while term >= _TAYLOR_TOL:
        degree += 1
        term *= theta / (degree + 1)
    return reps, degree


def _cf4_nodes(n_steps: int) -> np.ndarray:
    """The anneal fractions s = (k + c) / n_steps at the two Gauss nodes c of
    each of n_steps equal steps k, in order."""
    return np.array([(k + c) / n_steps for k in range(n_steps) for c in _CF4_NODES])


def _anneal_cf4(model: IsingModel, total_time: float, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """CF4 from the uniform state over [0, total_time] for
    H = A H_d + B H_P, in len(a) / 2 equal steps: `a` and `b` hold A and B
    at the nodes of `_cf4_nodes`, two per step.

    With H_k = H(t + c_k dt) at the Gauss nodes, one step applies
    exp(-i dt (a2 H_1 + a1 H_2)) and then exp(-i dt (a1 H_1 + a2 H_2)).
    Each exponential exp(-i dt H) is applied to the state as a Taylor
    polynomial, sum_j (-i tau H)^j psi / j!, summed from the powers
    (tau H)^j psi.  One split serves the whole anneal: with A and B an
    exponential's driver and problem weights, ||dt H||_1 =
    dt (|A| n + |B| max|E(z)|), and its largest value over all 2 n_steps
    exponentials, `norm`, makes each exponential ceil(norm) applications,
    with tau = dt / ceil(norm), of the polynomial whose degree
    `_taylor_split` picks.
    """
    dt = total_time / (len(a) // 2)
    a1, a2 = _CF4_WEIGHTS
    # the driver and problem weight of each exponential, two per step
    mix = np.array([[a2, a1], [a1, a2]])
    drive = (a.reshape(-1, 2) @ mix.T).ravel()
    problem = (b.reshape(-1, 2) @ mix.T).ravel()
    hd = _dense_driver(model.n_sites)
    hp = basis_energies(model)
    norm = dt * float(np.max(np.abs(drive) * model.n_sites
                             + np.abs(problem) * np.abs(hp).max()))
    reps, degree = _taylor_split(norm)
    tau = dt / reps
    coeffs = np.cumprod([1.0, *(-1j / np.arange(1, degree + 1))])  # (-i)^j / j!
    # buffers for the whole anneal: tau H, and row j of `powers` holds
    # (tau H)^j psi; H is real, so it multiplies the (re, im) pairs
    h = np.empty_like(hd)
    powers = np.empty((degree + 1, len(hp)), dtype=np.complex128)
    pairs = powers.view(np.float64).reshape(degree + 1, -1, 2)
    powers[0] = uniform_state(model.n_sites).amplitudes
    for d, p in zip(tau * drive, tau * problem):
        np.multiply(hd, d, out=h)
        np.fill_diagonal(h, p * hp)
        for _ in range(reps):
            for j in range(degree):
                np.matmul(h, pairs[j], out=pairs[j + 1])
            powers[0] = coeffs @ powers
    return powers[0].copy()


def run_annealing(model: IsingModel, total_time: float) -> StateVector:
    """Integrate i d|psi>/dt = [(1 - s) H_d + s H_P] |psi>, s = t / T, from
    the uniform superposition (the driver ground state) to t = T = total_time.

    CF4, the fourth-order commutator-free Magnus integrator (Blanes & Moan
    2006), in ceil(64 sqrt(T)) equal steps (`_anneal_cf4`).  Its steps are
    two exponentials of H at the Gauss nodes, each applied to the state as a
    Taylor polynomial: the largest 1-norm of dt H over the anneal, `norm`,
    splits every exponential into ceil(norm) equal applications of 1-norm at
    most 1, and the degree is the least whose first omitted term is below
    2^-53.

    Raises ValueError for a negative or non-finite total time, and
    CapacityError above _DENSE_MAX sites.
    """
    if not (np.isfinite(total_time) and total_time >= 0.0):
        raise ValueError(f"anneal time must be finite and non-negative, got {total_time}")
    _require_dense(model.n_sites)
    if total_time == 0.0:
        return uniform_state(model.n_sites)
    s = _cf4_nodes(math.ceil(64 * math.sqrt(total_time)))
    return StateVector(_anneal_cf4(model, total_time, 1.0 - s, s), model.n_sites)


def measure_distribution(state: StateVector) -> np.ndarray:
    """The array of measurement probabilities |<z|psi>|^2, indexed by z, summing to one."""
    p = state.probabilities()
    return p / p.sum()


def sample(state: StateVector, count: int, rng: np.random.Generator) -> np.ndarray:
    """Exact categorical draws from the measurement distribution, as the
    (count, N) bit matrix of `ising.bit_rows`: row j holds draw j's bits."""
    p = measure_distribution(state)
    return bit_rows(rng.choice(len(p), size=count, p=p), state.n_qubits)
