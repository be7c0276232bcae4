"""Dense statevector simulation for up to 16 qubits.

Basis layout: amplitude index z holds qubit i in bit i, so z is exactly the
packed-bits integer of a SpinConfig (bit 1 <=> spin -1).  The driver is the
transverse field H_d = -sum_i sigma_x_i throughout; diagonal problem terms
come from an IsingModel.

Time evolution under a Hamiltonian that is not a QAOA layer picks its method
from the model's size.  Up to _DENSE_MAX sites the real-symmetric 2^n x 2^n
matrix H is built and diagonalised, exp(-iHt) = V exp(-i Lambda t) V^T:
`evolve_fixed` is then exact, and `run_annealing` uses the fourth-order
commutator-free Magnus integrator CF4 (two such exponentials per step).
Above it, where one eigh costs more than the many cheap matrix-free steps,
`evolve_fixed` uses symmetric Trotter steps and `run_annealing` uses RK4
with a matrix-free driver.  QAOA layers are always applied directly.

All public operations preserve the norm to ~1e-9 or better and return new
StateVector values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from fairmc.ising import DimensionError, IsingModel, SpinConfig, basis_energies

MAX_QUBITS = 16

# exact dense propagation (one eigh per exponential) up to this many sites.
# Above it RK4 with the matrix-free driver anneals 2-3x faster than CF4 (n = 8);
# one exact QE step would still beat Trotter stepping up to n = 9, but the
# pipeline runs QE proposals only on the five-site fixtures
_DENSE_MAX = 7

# CF4 (Blanes & Moan 2006): Gauss nodes and the weights of its two exponentials
_CF4_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)
_CF4_WEIGHTS = ((3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12)


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class StateVector:
    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude count must be 2**n_qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class OutputDistribution:
    """Measurement probabilities |<z|psi>|^2 over the computational basis."""

    probs: np.ndarray
    n_qubits: int

    def __post_init__(self):
        if not np.isclose(self.probs.sum(), 1.0, atol=1e-9):
            raise ValueError(f"probabilities sum to {self.probs.sum()}, expected 1")


@dataclass(frozen=True)
class AnnealSchedule:
    """Interpolation weights for H(t) = A(t) H_d + B(t) H_P, t in [0, T]."""

    total_time: float
    a_of: Callable[[float], float]
    b_of: Callable[[float], float]


def linear_schedule(total_time: float) -> AnnealSchedule:
    """A(s) = 1 - s, B(s) = s: the standard reference schedule."""
    return AnnealSchedule(total_time, lambda s: 1.0 - s, lambda s: s)


def basis_state(n_qubits: int, z: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[z] = 1.0
    return StateVector(amps, n_qubits)


def uniform_state(n_qubits: int) -> StateVector:
    dim = 1 << n_qubits
    return StateVector(np.full(dim, dim**-0.5, dtype=np.complex128), n_qubits)


def apply_phase_layer(state: StateVector, model: IsingModel, gamma: float) -> StateVector:
    """Multiply each amplitude by exp(-i * gamma * E(z)); diagonal, unitary."""
    if model.n_sites != state.n_qubits:
        raise DimensionError(
            f"model has {model.n_sites} sites, state has {state.n_qubits} qubits"
        )
    phases = np.exp(-1j * gamma * basis_energies(model))
    return StateVector(state.amplitudes * phases, state.n_qubits)


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """exp(-i * beta * H_d) with H_d = -sum sigma_x, i.e. exp(+i beta sigma_x)
    on every qubit: the 2x2 rotation [[cos b, i sin b], [i sin b, cos b]]."""
    c, s = np.cos(beta), 1j * np.sin(beta)
    amps = state.amplitudes
    for qubit in range(state.n_qubits):
        a = amps.reshape(-1, 2, 1 << qubit)
        lo, hi = a[:, 0, :], a[:, 1, :]
        a = np.stack((c * lo + s * hi, s * lo + c * hi), axis=1)
        amps = a.reshape(-1)
    return StateVector(amps, state.n_qubits)


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


def driver_frobenius_norm(n_qubits: int) -> float:
    # ||sum_i sigma_x_i||_F^2 = n * 2^n (cross terms are traceless)
    return float(np.sqrt(n_qubits * (1 << n_qubits)))


def problem_norm_ratio(model: IsingModel) -> float:
    """||H_d||_F / ||H_P||_F, the problem-strength normalization for mixed
    proposal Hamiltonians; 1.0 for an identically-zero problem."""
    hp = float(np.linalg.norm(basis_energies(model)))
    if hp == 0.0:
        return 1.0
    return driver_frobenius_norm(model.n_sites) / hp


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


def _expm_apply(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i t h) psi for a real-symmetric h, from one eigh h = V diag(lam) V^T.

    V is real, so the propagator V exp(-i lam t) V^T is complex-symmetric:
    |<z|U|z'>| = |<z'|U|z>| to rounding.
    """
    lam, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * t * lam) * (v.T @ psi))


def _trotter_step_factors(model, driver_weight, alpha, dt):
    # symmetric split  Mix(w*dt/2) Phase((1-w)*alpha*dt) Mix(w*dt/2):
    # every factor is complex-symmetric in this basis, so each step (and any
    # product of steps) satisfies U = U^T exactly.
    half_mix = driver_weight * dt / 2.0
    phase_angle = (1.0 - driver_weight) * alpha * dt
    return half_mix, phase_angle


def _evolve_n_steps(state, model, driver_weight, alpha, time, n_steps):
    dt = time / n_steps
    half_mix, phase_angle = _trotter_step_factors(model, driver_weight, alpha, dt)
    for _ in range(n_steps):
        state = apply_mixer_layer(state, half_mix)
        state = apply_phase_layer(state, model, phase_angle)
        state = apply_mixer_layer(state, half_mix)
    return state


def _check_step(dt: float | None) -> None:
    if dt is not None and not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"step size must be finite and positive, got {dt}")


def evolve_fixed(
    state: StateVector,
    model: IsingModel,
    driver_weight: float,
    time: float,
    *,
    alpha_norm: float | None = None,
    tol: float = 1e-7,
    dt: float | None = None,
) -> StateVector:
    """exp(-i H t)|state> for H = (1-w) * alpha * H_P + w * H_d.

    Up to _DENSE_MAX sites the result is exact: one eigh of the dense H, and
    `tol` and `dt` are not used.  The propagator is complex-symmetric
    (U = U^T), which is what the quantum-proposal kernel needs.

    Above _DENSE_MAX, second-order symmetric Trotter stepping.  With `dt`
    set, uses that fixed step (the resulting operator is still exactly
    symmetric).  Otherwise the step count doubles until halved-step
    self-consistency reaches `tol` in max amplitude error.

    Raises ValueError for a non-finite `time` or a non-finite or
    non-positive `dt`.
    """
    if not np.isfinite(time):
        raise ValueError(f"evolution time must be finite, got {time}")
    _check_step(dt)
    if model.n_sites != state.n_qubits:
        raise DimensionError(
            f"model has {model.n_sites} sites, state has {state.n_qubits} qubits"
        )
    if time == 0.0:
        return StateVector(state.amplitudes.copy(), state.n_qubits)
    alpha = problem_norm_ratio(model) if alpha_norm is None else alpha_norm
    if model.n_sites <= _DENSE_MAX:
        h = driver_weight * _dense_driver(model.n_sites)
        np.fill_diagonal(h, (1.0 - driver_weight) * alpha * basis_energies(model))
        return StateVector(_expm_apply(h, time, state.amplitudes), state.n_qubits)
    if dt is not None:
        n = max(1, int(np.ceil(abs(time) / dt)))
        return _evolve_n_steps(state, model, driver_weight, alpha, time, n)
    n = max(4, int(np.ceil(abs(time) / 0.1)))
    prev = _evolve_n_steps(state, model, driver_weight, alpha, time, n)
    for _ in range(24):
        n *= 2
        cur = _evolve_n_steps(state, model, driver_weight, alpha, time, n)
        if np.max(np.abs(cur.amplitudes - prev.amplitudes)) < tol:
            return cur
        prev = cur
    raise IntegrationError(f"Trotter stepping did not converge to {tol}")


def _driver_apply(n_qubits: int):
    """Matrix-free application of H_d = -sum sigma_x (closure over n)."""

    def apply(v):
        acc = np.zeros_like(v)
        for i in range(n_qubits):
            acc -= v.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)
        return acc

    return apply


def _anneal_cf4(model: IsingModel, schedule: AnnealSchedule, n_steps: int) -> np.ndarray:
    """CF4 from the uniform state over [0, T] in n_steps equal steps.

    With H_k = H(t + c_k dt) at the Gauss nodes, one step applies
    exp(-i dt (a2 H_1 + a1 H_2)) and then exp(-i dt (a1 H_1 + a2 H_2)).
    """
    dt = schedule.total_time / n_steps
    hd = _dense_driver(model.n_sites)
    hp = basis_energies(model)
    (c1, c2), (a1, a2) = _CF4_NODES, _CF4_WEIGHTS
    psi = uniform_state(model.n_sites).amplitudes
    for k in range(n_steps):
        s1, s2 = (k + c1) / n_steps, (k + c2) / n_steps
        d1, d2 = schedule.a_of(s1), schedule.a_of(s2)
        p1, p2 = schedule.b_of(s1), schedule.b_of(s2)
        for w1, w2 in ((a2, a1), (a1, a2)):
            h = (w1 * d1 + w2 * d2) * hd
            np.fill_diagonal(h, (w1 * p1 + w2 * p2) * hp)
            psi = _expm_apply(h, dt, psi)
    return psi


def run_annealing(
    model: IsingModel,
    schedule: AnnealSchedule,
    *,
    dt: float | None = None,
) -> StateVector:
    """Integrate i d|psi>/dt = [A(t) H_d + B(t) H_P] |psi> from the uniform
    superposition (the driver ground state) to t = total_time.

    Up to _DENSE_MAX sites: CF4, the fourth-order commutator-free Magnus
    integrator (Blanes & Moan 2006), whose steps are two exact dense
    exponentials of H at the Gauss nodes; ceil(64 sqrt(T)) steps unless `dt`
    is given.  Above it: fixed-step RK4 with a matrix-free driver and
    dt = min(0.01, T/1e4) unless overridden; the state is renormalized every
    step to absorb integrator drift.  A given `dt` is shortened so that a
    whole number of steps spans T.

    Raises ValueError for a negative or non-finite total time and for a
    non-finite or non-positive `dt`.
    """
    T = schedule.total_time
    if not (np.isfinite(T) and T >= 0.0):
        raise ValueError(f"anneal time must be finite and non-negative, got {T}")
    _check_step(dt)
    if T == 0.0:
        return uniform_state(model.n_sites)
    dense = model.n_sites <= _DENSE_MAX
    if dt is not None:
        steps = np.ceil(T / dt)
    elif dense:
        steps = math.ceil(64 * math.sqrt(T))
    else:
        steps = np.ceil(T / min(0.01, T / 1e4))
    if not np.isfinite(steps):
        raise IntegrationError(f"bad step size {dt} for total time {T}")
    n_steps = int(steps)
    if dense:
        return StateVector(_anneal_cf4(model, schedule, n_steps), model.n_sites)
    dt = T / n_steps

    hp = basis_energies(model)
    hd_apply = _driver_apply(model.n_sites)

    def rhs(t, v):
        a, b = schedule.a_of(t / T), schedule.b_of(t / T)
        return -1j * (a * hd_apply(v) + b * (hp * v))

    psi = uniform_state(model.n_sites).amplitudes
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, psi)
        k2 = rhs(t + dt / 2, psi + (dt / 2) * k1)
        k3 = rhs(t + dt / 2, psi + (dt / 2) * k2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        nrm = np.linalg.norm(psi)
        if nrm < 0.5 or not np.isfinite(nrm):
            raise IntegrationError(f"integration diverged at t={t}")
        psi = psi / nrm
        t += dt
    return StateVector(psi, model.n_sites)


def measure_distribution(state: StateVector) -> OutputDistribution:
    p = state.probabilities()
    return OutputDistribution(p / p.sum(), state.n_qubits)


def sample(state: StateVector, count: int, rng: np.random.Generator) -> list[SpinConfig]:
    """Exact categorical draws from the measurement distribution."""
    p = measure_distribution(state).probs
    zs = rng.choice(len(p), size=count, p=p)
    return [SpinConfig(int(z), state.n_qubits) for z in zs]


def distribution_to_csv(dist: OutputDistribution, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bitstring", "probability"])
        for z, p in enumerate(dist.probs):
            w.writerow([SpinConfig(z, dist.n_qubits).to_bitstring(), f"{p:.12g}"])
