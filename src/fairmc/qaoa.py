"""QAOA parameter schedules, cost expectation, and classical optimization.

Two parameterizations are supported: free angles (2p parameters) and the
4-parameter linear schedule

    beta_l  = beta_slope  * (l/p) + beta_intcp
    gamma_l = gamma_slope * (l/p) + gamma_intcp,      l = 1..p,

whose optima concentrate strongly across instances, making instance-
independent "fixed angles" (component-wise medians) practical.

One optimizer serves both: multi-start BFGS over x, where an angle map takes
x to the circuit's 2p angles and pulls their gradient back to x.  The
gradient comes from adjoint differentiation (Jones & Gacon 2020,
arXiv:2009.02823): one forward circuit gives the expectation, and one
backward sweep that un-applies the layers gives its derivative in all 2p
angles.

One sign rule serves both too: the best x is negated when the effective time
of its angles is negative.  Flipping the sign of every angle conjugates the
state and leaves both the measurement distribution and the expectation
unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as sciopt

from fairmc.ising import IsingModel, basis_energies
from fairmc.qsim import apply_driver, phase_factors, rotate_mixer, run_qaoa

START_BOX = 2.0  # multi-start initial points are uniform in [-2, 2]^d


class OptimizationError(RuntimeError):
    """Every optimization start produced non-finite values."""


@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas) or len(self.gammas) == 0:
            raise ValueError("need equal, nonempty gamma/beta tuples")

    @property
    def p(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class LinearSchedule:
    beta_slope: float
    beta_intcp: float
    gamma_slope: float
    gamma_intcp: float

    def as_array(self) -> np.ndarray:
        return np.array(astuple(self))

    @classmethod
    def from_array(cls, x: Sequence[float]) -> "LinearSchedule":
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


def expand(schedule: LinearSchedule, p: int) -> QaoaParams:
    """Evaluate the linear schedule at layer fractions l/p, l = 1..p."""
    if p < 1:
        raise ValueError("depth must be >= 1")
    fracs = np.arange(1, p + 1) / p
    betas = schedule.beta_slope * fracs + schedule.beta_intcp
    gammas = schedule.gamma_slope * fracs + schedule.gamma_intcp
    return QaoaParams(tuple(gammas.tolist()), tuple(betas.tolist()))


def expectation(model: IsingModel, params: QaoaParams) -> float:
    """<psi| H_P |psi> = sum_z |a_z|^2 E(z) for the circuit's output state."""
    state = run_qaoa(model, params.gammas, params.betas)
    return float(state.probabilities() @ basis_energies(model))


def expectation_and_gradient(
    model: IsingModel, params: QaoaParams
) -> tuple[float, np.ndarray, np.ndarray]:
    """The cost expectation and its derivatives in the gammas and the betas.

    Adjoint differentiation: with psi the output state and lambda = H_P psi,
    walk the layers backwards.  At each mixer d/d beta_l = 2 Im<lambda|H_d psi>,
    at each phase layer d/d gamma_l = 2 Im<lambda|H_P psi>, and the layer is
    then un-applied to both vectors.  The value is bitwise equal to
    `expectation`.
    """
    n = model.n_sites
    e = basis_energies(model)
    state = run_qaoa(model, params.gammas, params.betas)
    value = float(state.probabilities() @ e)
    # rows psi and lambda, carried back through the circuit together
    pair = np.stack((state.amplitudes, e * state.amplitudes))
    d_gamma, d_beta = np.empty(params.p), np.empty(params.p)
    for layer in reversed(range(params.p)):
        psi, lam = pair
        d_beta[layer] = 2.0 * np.vdot(lam, apply_driver(psi, n)).imag
        pair = rotate_mixer(pair, n, -params.betas[layer])
        psi, lam = pair
        d_gamma[layer] = 2.0 * np.vdot(lam, e * psi).imag
        pair = pair * phase_factors(model, -params.gammas[layer])
    return value, d_gamma, d_beta


def effective_time(params: QaoaParams) -> float:
    """Total evolution time when each angle is read as a duration."""
    return float(sum(params.betas) + sum(params.gammas))


def _linear_angles(p: int):
    """The angle map x -> QaoaParams of the linear schedule
    x = [beta_slope, beta_intcp, gamma_slope, gamma_intcp], and its gradient
    pull-back (d_gamma, d_beta) -> d/dx."""
    fracs = np.arange(1, p + 1) / p
    return (
        lambda x: expand(LinearSchedule.from_array(x), p),
        lambda d_gamma, d_beta: np.array(
            [fracs @ d_beta, d_beta.sum(), fracs @ d_gamma, d_gamma.sum()]),
    )


def _free_angles(p: int):
    """The angle map of the free angles x = [gammas, betas], and its
    gradient pull-back."""
    return (
        lambda x: QaoaParams(tuple(x[:p]), tuple(x[p:])),
        lambda d_gamma, d_beta: np.concatenate((d_gamma, d_beta)),
    )


def _minimize(
    model: IsingModel, p: int, starts: int, rng: np.random.Generator, dim: int, angle_map
) -> np.ndarray:
    """Multi-start BFGS of the cost expectation over x in R^dim, with
    `angle_map(p)` giving x -> QaoaParams and the gradient pull-back.

    Each evaluation is one forward circuit and one backward sweep
    (`expectation_and_gradient`).  Starts are uniform in [-START_BOX,
    START_BOX]^dim; starts ending on a non-finite value are skipped.  Returns
    the best x, negated when the effective time of its angles is negative.
    Raises OptimizationError when every start ends on a non-finite value.
    """
    if p < 1 or starts < 1:
        raise ValueError("need p >= 1 and starts >= 1")
    to_params, pull_back = angle_map(p)

    def fun(x):
        value, d_gamma, d_beta = expectation_and_gradient(model, to_params(x))
        return value, pull_back(d_gamma, d_beta)

    best = None
    for _ in range(starts):
        x0 = rng.uniform(-START_BOX, START_BOX, size=dim)
        res = sciopt.minimize(fun, x0, jac=True, method="BFGS")
        # strict < keeps the lowest start index on ties
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise OptimizationError("all optimization starts diverged")
    return -best.x if effective_time(to_params(best.x)) < 0 else best.x


def optimize(
    model: IsingModel, p: int, starts: int, rng: np.random.Generator
) -> LinearSchedule:
    """Minimize the cost expectation over the 4-dim linear-schedule space:
    the best schedule of `starts` BFGS runs (`_minimize`), sign-canonicalized.
    Raises OptimizationError when every start ends on a non-finite value."""
    return LinearSchedule.from_array(_minimize(model, p, starts, rng, 4, _linear_angles))


def optimize_free(
    model: IsingModel, p: int, starts: int, rng: np.random.Generator
) -> QaoaParams:
    """`optimize` over the unconstrained 2p angles (gammas, betas)."""
    to_params, _ = _free_angles(p)
    return to_params(_minimize(model, p, starts, rng, 2 * p, _free_angles))


def fixed_angles_from_set(schedules: Sequence[LinearSchedule]) -> LinearSchedule:
    """The instance-independent preset: the component-wise median over a set
    of per-instance optimized schedules."""
    if not schedules:
        raise ValueError("need at least one schedule")
    arr = np.stack([s.as_array() for s in schedules])
    return LinearSchedule.from_array(np.median(arr, axis=0))


def schedule_to_json(schedule: LinearSchedule, p: int, value: float | None) -> dict:
    """`value` is the schedule's cost expectation, None (JSON null) if it has none."""
    return {**asdict(schedule), "expectation": value, "p": p}


def schedule_from_json(d: dict) -> LinearSchedule:
    return LinearSchedule(
        d["beta_slope"], d["beta_intcp"], d["gamma_slope"], d["gamma_intcp"]
    )
