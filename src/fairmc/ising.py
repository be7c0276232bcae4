"""Classical Ising energy functions with up to k-body interaction terms.

Energies have the form

    E(s) = offset + sum_t c_t * prod_{i in sites(t)} s_i,     s_i in {+1, -1}

Spin configurations are bit-packed into a single integer with the convention

    bit b_i = 1  <=>  s_i = -1,   i.e.  s_i = 1 - 2*b_i,

so bit i of the packed word is also the Boolean value x_i used by the SAT
mapping (x = (1 - s)/2).  All values are immutable; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_SITES = 64
MAX_BRUTEFORCE_SITES = 24

# ground-state tie tolerance; k-SAT models and the fixtures have distinct
# energies at least 1 apart, so on them it ties exactly the minimal states
DEGENERACY_ATOL = 1e-9


class DimensionError(ValueError):
    """Configuration length does not match the model."""


class CapacityError(ValueError):
    """Problem too large for exhaustive enumeration."""


@dataclass(frozen=True)
class SpinConfig:
    """Bit-packed assignment of n spins, bit i = 1 meaning s_i = -1."""

    bits: int
    n: int

    def __post_init__(self):
        if not 0 < self.n <= MAX_SITES:
            raise ValueError(f"n must be in 1..{MAX_SITES}, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for n sites")

    def to_bitstring(self) -> str:
        """x_0 x_1 ... x_{n-1}, left to right."""
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    @classmethod
    def from_bitstring(cls, s: str) -> "SpinConfig":
        """Parse x_0 x_1 ... x_{n-1}, left to right; ValueError unless every
        character is 0 or 1."""
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"not a bitstring of 0s and 1s: {s!r}")
        return cls(int(s[::-1], 2), len(s))

    def __len__(self) -> int:
        return self.n


def bit_rows(z, n: int) -> np.ndarray:
    """Bits x_0 .. x_{n-1} of packed states as float rows of 0s and 1s: shape
    (n,) for one state, (count, n) for a vector of `count` states."""
    z = np.asarray(z, dtype=np.uint64)[..., None]
    return ((z >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.float64)


@dataclass(frozen=True)
class IsingTerm:
    """One k-body coupling: coefficient times the product of spins at `sites`."""

    sites: tuple[int, ...]
    coeff: float

    def __post_init__(self):
        if len(self.sites) == 0:
            raise ValueError("terms must touch at least one site (use the model offset)")
        if list(self.sites) != sorted(set(self.sites)):
            raise ValueError(f"sites must be strictly increasing, got {self.sites}")


@dataclass(frozen=True)
class IsingModel:
    """Immutable k-body Ising energy function in canonical (merged) form.

    The term masks and the hash are computed once per instance; equality
    and the hash value are those of the fields.
    """

    n_sites: int
    terms: tuple[IsingTerm, ...]
    offset: float = 0.0

    def __post_init__(self):
        if not 0 < self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be in 1..{MAX_SITES}")
        for t in self.terms:
            if t.sites[-1] >= self.n_sites:
                raise ValueError(f"term {t.sites} exceeds n_sites={self.n_sites}")

    @classmethod
    def from_terms(
        cls,
        n_sites: int,
        terms: Iterable[tuple[Sequence[int], float]],
        offset: float = 0.0,
    ) -> "IsingModel":
        """Merge duplicate site sets and drop exact zeros -> canonical form."""
        merged: dict[tuple[int, ...], float] = {}
        for sites, coeff in terms:
            key = tuple(sorted(sites))
            if len(set(key)) != len(key):
                raise ValueError(f"repeated site in term {sites}")
            merged[key] = merged.get(key, 0.0) + coeff
        canon = tuple(
            IsingTerm(sites, c)
            for sites, c in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if c != 0.0
        )
        return cls(n_sites, canon, offset)

    @property
    def max_order(self) -> int:
        return max((len(t.sites) for t in self.terms), default=0)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n_sites, self.terms, self.offset))

    @cached_property
    def term_masks(self) -> tuple[tuple[int, float], ...]:
        """(bit mask over sites, coefficient) per term, for popcount evaluation."""
        out = []
        for t in self.terms:
            mask = 0
            for s in t.sites:
                mask |= 1 << s
            out.append((mask, t.coeff))
        return tuple(out)

    @classmethod
    def from_json_dict(cls, d: dict) -> "IsingModel":
        return cls.from_terms(
            d["n_sites"],
            [(t["sites"], t["coeff"]) for t in d["terms"]],
            d.get("offset", 0.0),
        )


@dataclass(frozen=True)
class Temperature:
    """Inverse temperature beta > 0."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


def energy_of_bits(model: IsingModel, bits: int) -> float:
    """E(s) = offset + sum_t c_t * prod_{i in t} s_i of a bit-packed state."""
    e = model.offset
    for mask, coeff in model.term_masks:
        # product of spins = (-1)^{popcount of down spins in the term}
        e += coeff * (1 - 2 * ((bits & mask).bit_count() & 1))
    return e


@lru_cache(maxsize=8)
def basis_energies(model: IsingModel) -> np.ndarray:
    """Energies of all 2^n basis states, indexed by the packed-bits integer.

    Requires n_sites <= MAX_BRUTEFORCE_SITES.  Each term adds +-c_t to every
    entry in place, as a broadcast over the (2,)*n view whose axis n - 1 - i
    is bit i, in `energy_of_bits`'s term order: every entry is bitwise equal
    to its result.  Cached per model for the chains, the statevector layers
    and enumeration; only 8 entries, since a table is 2^n * 8 B and a stage
    visits its instances once each, in order.
    """
    n = model.n_sites
    if n > MAX_BRUTEFORCE_SITES:
        raise CapacityError(f"basis enumeration limited to {MAX_BRUTEFORCE_SITES} sites")
    e = np.full(1 << n, model.offset, dtype=np.float64)
    cube = e.reshape((2,) * n)
    spin = np.array([1.0, -1.0])  # s_i at bit i = 0, 1
    for t in model.terms:
        term = np.array(t.coeff)
        for site in t.sites:  # broadcast from the right: lands on axis n - 1 - site
            term = term * spin.reshape((2,) + (1,) * site)
        cube += term
    e.setflags(write=False)
    return e


@lru_cache(maxsize=8)
def energy_levels(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """The distinct basis energies and, per basis state, its level's index:
    `levels[idx]` equals `basis_energies(model)` exactly.

    A k-SAT instance has few levels (21 at n = 16), so a function of the
    energy evaluated on `levels` and gathered through `idx` costs a fraction
    of evaluating it on all 2^n entries, and gives the same bits.
    """
    levels, idx = np.unique(basis_energies(model), return_inverse=True)
    levels.setflags(write=False)
    idx.setflags(write=False)
    return levels, idx


def ground_states_bruteforce(model: IsingModel) -> tuple[float, list[SpinConfig]]:
    """Exhaustive minimum energy and all attaining configs, ascending bit order.

    Every state within DEGENERACY_ATOL of the minimum counts as attaining it.
    """
    e = basis_energies(model)
    emin = float(e.min())
    idx = np.nonzero(e <= emin + DEGENERACY_ATOL)[0]
    return emin, [SpinConfig(int(z), model.n_sites) for z in idx]
