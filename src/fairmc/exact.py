"""Exact reference matrices for the oracle tests and `fairmc validate`.

Everything here is built by brute force over all 2^n basis states, for
small n, and apart from the code it checks: the driver is assembled from
Kronecker products, not from bit flips as `qsim` does, and transition
matrices are written out from their definitions, not by running a chain.
Production code supplies only the basis energies and, in
`qe_proposal_matrix`, the quantum-evolution proposal rows, which are read
from `qsim.evolve_fixed`, the code under test.

Transition matrices are row-stochastic: P[z, z'] is the probability of
moving from basis state z to z'.
"""

from __future__ import annotations

import itertools

import numpy as np

from fairmc.ising import IsingModel, basis_energies
from fairmc.qsim import basis_state, evolve_fixed, measure_distribution

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def boltzmann(model: IsingModel, beta: float) -> np.ndarray:
    """The target distribution exp(-beta E(z)) / Z over all basis states."""
    e = basis_energies(model)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def mh_matrix(
    model: IsingModel, beta: float, q: np.ndarray, log_q: np.ndarray | None = None
) -> np.ndarray:
    """Metropolis-Hastings transition matrix for the proposal matrix `q`.

    A move z -> z' (z' != z) is proposed with q[z, z'] and accepted with
    min(1, exp(-beta (E(z') - E(z))) q(z) / q(z')).  The q ratio is present
    only for an independence proposal, whose per-state pmf is passed as
    `log_q`; without it the proposal is taken as symmetric and the ratio
    drops out, as it does in the symmetric kernels.  The diagonal takes the
    rejected mass.
    """
    e = basis_energies(model)
    log_ratio = -beta * (e[None, :] - e[:, None])
    if log_q is not None:
        log_ratio = log_ratio + log_q[:, None] - log_q[None, :]
    p = q * np.exp(np.minimum(log_ratio, 0.0))
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def ssf_sweep_matrix(model: IsingModel, beta: float) -> np.ndarray:
    """One sweep of single-site flips in a uniformly random site order: the
    average, over every permutation, of the product of the site matrices."""
    n, dim = model.n_sites, 1 << model.n_sites
    # site i's proposal moves z to z ^ 2^i with probability 1
    z = np.arange(dim)
    site_mats = [mh_matrix(model, beta, np.eye(dim)[z ^ (1 << i)]) for i in range(n)]
    total = np.zeros((dim, dim))
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        p = np.eye(dim)
        for site in perm:
            p = p @ site_mats[site]
        total += p
    return total / len(perms)


def qe_proposal_matrix(model: IsingModel, driver_weight: float, time: float) -> np.ndarray:
    """q[z, z'] = |<z'| U |z>|^2 for U = `evolve_fixed` at fixed (w, t): the
    QE kernel's proposal once its per-step draw of (w, t) is made."""
    n = model.n_sites
    return np.array([
        measure_distribution(evolve_fixed(basis_state(n, z), model, driver_weight, time))
        for z in range(1 << n)
    ])


def dense_driver(n: int) -> np.ndarray:
    """H_d = -sum_i sigma_x_i from Kronecker products, qubit i on bit i."""
    h = np.zeros((1 << n, 1 << n))
    for i in range(n):
        op = np.array([[1.0]])
        # kron builds from the highest bit down, so append qubit 0 last
        for qubit in reversed(range(n)):
            op = np.kron(op, _SX if qubit == i else np.eye(2))
        h -= op
    return h


def dense_problem(model: IsingModel) -> np.ndarray:
    """The diagonal problem Hamiltonian H_P = diag(E(z))."""
    return np.diag(basis_energies(model))
