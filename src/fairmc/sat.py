"""CNF formulas, random k-SAT generation, exact enumeration, Ising mapping.

Boolean/spin convention (project-wide): x = (1 - s)/2, i.e. x_i equals bit i
of a SpinConfig and s = +1 means x = 0.

A clause is a tuple of DIMACS literals, in memory as on disk: +v for x_{v-1},
-v for its negation, sorted by variable (see `CnfFormula`).

A clause is penalized by 1 exactly when all its literals are false, so the
energy of the mapped Ising model equals the number of unsatisfied clauses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from fairmc.fileio import atomic_write
from fairmc.ising import (
    MAX_BRUTEFORCE_SITES,
    CapacityError,
    IsingModel,
    SpinConfig,
)

GENERATION_RETRY_BUDGET = 10**6

# standard SAT/UNSAT threshold densities; the generator takes alpha explicitly
ALPHA_C = {2: 1.0, 3: 4.267}


class UnsupportedWidthError(ValueError):
    """Clause width outside what the Ising mapping supports (k <= 3)."""


class InfeasibleDensityError(ValueError):
    """Requested more distinct clauses than the clause universe contains."""


class GenerationError(RuntimeError):
    """Retry budget exhausted while filtering generated instances."""


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables x_0 .. x_{n_vars - 1}.

    A clause is a tuple of DIMACS literals: +v for x_{v-1}, -v for its
    negation.  Its variables are distinct, and it is stored sorted by
    variable, as `write_dimacs` puts it on disk.  Raises ValueError for a
    literal 0, a variable outside 1..n_vars or a repeated variable.
    """

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        clauses = tuple(tuple(sorted(c, key=abs)) for c in self.clauses)
        for c in clauses:
            variables = [abs(lit) for lit in c]
            if not all(0 < v <= self.n_vars for v in variables):
                raise ValueError(f"clause {c}: variables must be in 1..{self.n_vars}")
            if len(set(variables)) != len(variables):
                raise ValueError(f"clause {c}: repeated variable")
        object.__setattr__(self, "clauses", clauses)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


def to_ising(formula: CnfFormula) -> IsingModel:
    """Penalty Hamiltonian: energy(sigma) == number of unsatisfied clauses.

    Each clause contributes the product over its literals of the factor that
    is 1 exactly when the literal is false: (1+s)/2 for a positive literal,
    (1-s)/2 for a negated one.  Expanding gives terms of order up to k with
    dyadic coefficients, so the equality with the clause count is exact.
    """
    if any(len(c) > 3 for c in formula.clauses):
        raise UnsupportedWidthError("Ising mapping implemented for clause width <= 3")
    offset = 0.0
    terms: list[tuple[tuple[int, ...], float]] = []
    for clause in formula.clauses:
        kk = len(clause)
        scale = 0.5**kk
        for r in range(kk + 1):
            for subset in combinations(clause, r):
                coeff = scale
                for lit in subset:
                    coeff *= -1.0 if lit < 0 else 1.0
                sites = tuple(abs(lit) - 1 for lit in subset)
                if sites:
                    terms.append((sites, coeff))
                else:
                    offset += coeff
    return IsingModel.from_terms(formula.n_vars, terms, offset)


def clause_universe_size(n: int, k: int) -> int:
    return math.comb(n, k) * 2**k


def generate_instance(n: int, k: int, alpha_c: float, rng_seed) -> CnfFormula:
    """M = floor(alpha_c * n) + 1 distinct clauses drawn uniformly at random.

    Each clause has k distinct variables; the draw is uniform (by rejection)
    over the comb(n,k) * 2^k possible clauses.  Deterministic for a fixed seed.
    """
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    m = int(alpha_c * n) + 1
    if m > clause_universe_size(n, k):
        raise InfeasibleDensityError(
            f"{m} distinct clauses requested from a universe of "
            f"{clause_universe_size(n, k)}"
        )
    rng = np.random.default_rng(rng_seed)
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < m:
        variables = np.sort(rng.choice(n, size=k, replace=False))
        signs = rng.integers(0, 2, size=k)
        clause = tuple(-(v + 1) if negated else v + 1
                       for v, negated in zip(variables.tolist(), signs.tolist()))
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(clause)
    return CnfFormula(n, tuple(clauses))


def _unsat_mask_per_clause(clause: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    mask = np.ones(len(z), dtype=bool)
    for lit in clause:
        bit = (z >> np.uint64(abs(lit) - 1)) & np.uint64(1)
        mask &= bit == (np.uint64(1) if lit < 0 else np.uint64(0))
    return mask


def unsatisfied_counts_all(formula: CnfFormula) -> np.ndarray:
    """Unsatisfied-clause count for every assignment, indexed by packed bits."""
    if formula.n_vars > MAX_BRUTEFORCE_SITES:
        raise CapacityError(
            f"exhaustive evaluation limited to {MAX_BRUTEFORCE_SITES} variables")
    z = np.arange(1 << formula.n_vars, dtype=np.uint64)
    counts = np.zeros(len(z), dtype=np.int64)
    for c in formula.clauses:
        counts += _unsat_mask_per_clause(c, z)
    return counts


def enumerate_solutions(formula: CnfFormula) -> list[SpinConfig]:
    """All satisfying assignments in ascending bit order (exhaustive)."""
    counts = unsatisfied_counts_all(formula)
    return [SpinConfig(int(z), formula.n_vars) for z in np.nonzero(counts == 0)[0]]


@dataclass(frozen=True)
class InstanceEntry:
    formula: CnfFormula
    solutions: tuple[SpinConfig, ...]
    seed: int


@dataclass(frozen=True)
class InstanceSet:
    """Verified-satisfiable instances with their full solution lists."""

    entries: tuple[InstanceEntry, ...]
    k: int
    alpha: float


def _draw_seed(base_seed: int, n: int, attempt: int) -> int:
    # distinct deterministic stream per (size, attempt) task
    return (base_seed ^ (n * 0x9E3779B97F4A7C15) ^ attempt) & (2**63 - 1)


def build_instance_set(
    sizes: Sequence[int],
    k: int,
    per_size: int,
    alpha_c: float,
    seed: int,
) -> InstanceSet:
    """Generate and filter instances until `per_size` with >= 2 solutions each.

    Instances with fewer than two solutions are discarded and redrawn with a
    fresh derived seed, up to GENERATION_RETRY_BUDGET draws per size.
    """
    if per_size < 1:
        raise ValueError(f"per_size must be at least 1, got {per_size}")
    entries: list[InstanceEntry] = []
    for n in sizes:
        accepted = 0
        for attempt in range(GENERATION_RETRY_BUDGET):
            draw_seed = _draw_seed(seed, n, attempt)
            formula = generate_instance(n, k, alpha_c, draw_seed)
            solutions = enumerate_solutions(formula)
            if len(solutions) >= 2:
                entries.append(InstanceEntry(formula, tuple(solutions), draw_seed))
                accepted += 1
                if accepted == per_size:
                    break
        else:
            raise GenerationError(
                f"could not find {per_size} instances with >=2 solutions at n={n}"
            )
    return InstanceSet(tuple(entries), k, alpha_c)


# ---------------------------------------------------------------------------
# DIMACS + manifest persistence


def write_dimacs(formula: CnfFormula, path) -> None:
    with atomic_write(path) as f:
        f.write(f"p cnf {formula.n_vars} {formula.n_clauses}\n")
        for c in formula.clauses:
            f.write(" ".join(map(str, c)) + " 0\n")


def read_dimacs(path) -> CnfFormula:
    """The formula of a DIMACS file with one clause per line.  Raises
    ValueError naming `path` for a missing or malformed header, a clause
    count other than the header's, or a clause `CnfFormula` refuses."""
    n_vars = n_clauses = None
    clauses = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("c"):
                    continue
                if line.startswith("p"):
                    parts = line.split()
                    if len(parts) != 4 or parts[1] != "cnf":
                        raise ValueError(f"malformed header: {line!r}")
                    n_vars, n_clauses = int(parts[2]), int(parts[3])
                    continue
                ints = [int(tok) for tok in line.split()]
                if ints and ints[-1] == 0:
                    ints = ints[:-1]
                if ints:
                    clauses.append(tuple(ints))
        if n_vars is None:
            raise ValueError("missing 'p cnf' header")
        if len(clauses) != n_clauses:
            raise ValueError(f"{len(clauses)} clauses, the header says {n_clauses}")
        return CnfFormula(n_vars, tuple(clauses))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_instance_set(instset: InstanceSet, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"k": instset.k, "alpha_c": instset.alpha, "entries": []}
    for i, entry in enumerate(instset.entries):
        name = f"instance_{i:04d}.cnf"
        write_dimacs(entry.formula, directory / name)
        manifest["entries"].append(
            {
                "file": name,
                "seed": entry.seed,
                "n_vars": entry.formula.n_vars,
                "solutions": [s.to_bitstring() for s in entry.solutions],
            }
        )
    # resume reads an existing manifest as "instances done": write it last, atomically
    with atomic_write(directory / "manifest.json") as f:
        json.dump(manifest, f, indent=1)


def load_instance_set(directory) -> InstanceSet:
    directory = Path(directory)
    with open(directory / "manifest.json") as f:
        manifest = json.load(f)
    entries = []
    for ent in manifest["entries"]:
        formula = read_dimacs(directory / ent["file"])
        solutions = tuple(SpinConfig.from_bitstring(s) for s in ent["solutions"])
        entries.append(InstanceEntry(formula, solutions, ent["seed"]))
    return InstanceSet(tuple(entries), manifest["k"], manifest["alpha_c"])
