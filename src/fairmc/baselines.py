"""Classical baselines: PT-ICM for 2-body models, WalkSATlm for CNF.

PT-ICM runs two independent replica families over a temperature ladder;
neighboring temperatures exchange configurations with probability
min(1, exp((b_i - b_j)(E_i - E_j))), and same-temperature pairs across the
families undergo Houdayer cluster moves, which exactly conserve the pair's
total energy.  Cluster moves need an interaction graph, so models with
3-body terms are rejected.

WalkSAT flips variables of uniformly chosen unsatisfied clauses: a random
variable with probability `NOISE_P`, otherwise WalkSATlm's greedy pick (Cai,
Luo & Su 2015): the fewest broken clauses, ties broken by the largest
lmake = w1 make1 + w2 make2 (`LM_WEIGHTS`).
Enumeration mode alternates solving with blocking clauses until as many
distinct solutions have been found as the caller's exact count.
Blocking clauses are kept as a table of blocked solutions rather than as
width-n clauses, with the same unsatisfied-clause order and flip scores as
the appended clauses would give, so every random draw is unchanged.  The
reference that appends them, `add_blocking_clause`, lives in
tests/test_baselines.py, which checks `_Assignment.block` against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from fairmc.ising import IsingModel, SpinConfig, basis_energies, energy_of_bits
from fairmc.mcmc import ChainTrace, _table_sweep, _TraceBuilder
# enumerate_solutions is not called here; the benchmark's tracer times the
# exact enumeration under this name as well as under fairmc.sat
from fairmc.sat import CnfFormula, enumerate_solutions  # noqa: F401


class UnsupportedModelError(ValueError):
    """Cluster moves require an interaction graph: 2-body terms only."""


# ---------------------------------------------------------------------------
# PT-ICM


@dataclass
class PtIcmStats:
    """Exchange/cluster accounting over all replicas, emitted alongside the
    coldest trace."""

    rounds: int
    exchange_attempts: int
    exchange_accepts: int
    icm_attempts: int
    icm_moves: int  # attempts with a nonempty cluster
    total_transitions: int  # all replicas: N per sweep + exchanges + icm


def interaction_adjacency(model: IsingModel) -> list[int]:
    """Each site's neighbours in the model's 2-body terms, as a bit mask per
    site; raises UnsupportedModelError for a model with 3-body terms."""
    if model.max_order > 2:
        raise UnsupportedModelError(
            "PT-ICM needs a pairwise interaction graph; model has "
            f"{model.max_order}-body terms"
        )
    adj = [0] * model.n_sites
    for t in model.terms:
        if len(t.sites) == 2:
            i, j = t.sites
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def houdayer_cluster(bits_a: int, bits_b: int, adj: list[int], rng) -> int:
    """The Houdayer move of two bit-packed replicas: the mask of a uniformly
    chosen anti-aligned site's connected component, over the neighbour masks
    `adj` (`interaction_adjacency`), inside the anti-aligned (overlap -1)
    domain; 0, and no random draw, when the replicas are equal.

    The start is the k-th set bit of the domain, k = int(u * c) % c for one
    uniform u and c anti-aligned sites; the component grows by whole
    frontiers, which reaches the same sites as any visit order.

    Flipping the mask in both replicas changes E_a and E_b by opposite
    amounts, so E_a + E_b is invariant.
    """
    diff = bits_a ^ bits_b
    if diff == 0:
        return 0
    c = diff.bit_count()
    rest = diff
    for _ in range(int(rng.random() * c) % c):
        rest &= rest - 1  # clear the lowest set bit
    cluster = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & diff & ~cluster
        cluster |= frontier
    return cluster


def pt_icm_run(
    model: IsingModel,
    betas: tuple[float, ...],
    rounds: int,
    rng_seed: int,
) -> tuple[ChainTrace, PtIcmStats]:
    """`rounds` PT rounds over the ascending inverse temperatures `betas`,
    seeded from `rng_seed`; returns the coldest (largest-beta) replica's
    trace from the first family and the exchange/ICM statistics of all
    replicas.  The trace records every transition of that replica: the N
    flips of its sweep, its exchange with the next-warmer replica and its
    Houdayer move; `PtIcmStats.total_transitions` counts those of every
    replica.  Raises ValueError for an empty or non-ascending ladder, and
    CapacityError above ising.MAX_BRUTEFORCE_SITES sites.

    Each round: one SSF sweep per replica, neighbor exchanges within each
    family, and one Houdayer move (`houdayer_cluster`) per temperature across
    the families.  The 2T sweeps of a round run over slots built once:
    (the family's bits list, its energies list, temperature index, beta,
    the trace's record for the coldest replica of the first family or None).

    The sweeps are those of `run_chain` (`mcmc._table_sweep`), which read
    the model's basis-energy table; it is built before the first round and
    holds about 32 B per basis state.  The initial energies come from
    `energy_of_bits` and the energies after a Houdayer move from the table,
    so every recorded energy is exactly `energy_of_bits` of its state.
    """
    adj = interaction_adjacency(model)  # validates 2-body up front
    # a single temperature leaves two SSF replicas joined only by Houdayer
    # moves; real runs want >= 2
    if not betas:
        raise ValueError("need at least one temperature")
    if list(betas) != sorted(betas):
        raise ValueError("betas must be ascending")
    n_temps = len(betas)
    n = model.n_sites
    rng = random.Random(rng_seed)
    uniform = rng.random
    exp = math.exp

    table = basis_energies(model).tolist()

    # two families x n_temps replicas
    bits = [[rng.getrandbits(n) for _ in range(n_temps)] for _ in range(2)]
    energies = [[energy_of_bits(model, z) for z in fam] for fam in bits]
    bits0, bits1 = bits
    energies0, energies1 = energies

    cold = n_temps - 1
    builder = _TraceBuilder(("ssf", "exchange", "icm"))
    record = builder.record
    ssf_tag, ex_tag, icm_tag = range(3)  # indices into the legend
    exchange_accepts = icm_moves = 0
    sweep_slots = [
        (fam_bits, fam_energies, ti, betas[ti],
         record if fam_bits is bits0 and ti == cold else None)
        for fam_bits, fam_energies in zip(bits, energies)
        for ti in range(n_temps)
    ]
    # (lower index, beta difference) of each neighbouring pair
    pairs = [(ti, betas[ti] - betas[ti + 1]) for ti in range(n_temps - 1)]

    for _ in range(rounds):
        for fam_bits, fam_energies, ti, beta, rec in sweep_slots:
            fam_bits[ti], fam_energies[ti] = _table_sweep(
                table, fam_bits[ti], fam_energies[ti], beta, rng, rec, ssf_tag
            )

        for fam_bits, fam_energies in zip(bits, energies):
            for ti, db in pairs:
                x = db * (fam_energies[ti] - fam_energies[ti + 1])
                accepted = x >= 0.0 or uniform() < exp(x)
                if accepted:
                    exchange_accepts += 1
                    fam_bits[ti], fam_bits[ti + 1] = fam_bits[ti + 1], fam_bits[ti]
                    fam_energies[ti], fam_energies[ti + 1] = (
                        fam_energies[ti + 1],
                        fam_energies[ti],
                    )
            # the coldest replica's exchange is the first family's last pair
            if fam_bits is bits0 and pairs:
                record(bits0[cold], energies0[cold], accepted, ex_tag)

        for ti in range(n_temps):
            cluster = houdayer_cluster(bits0[ti], bits1[ti], adj, rng)
            if cluster:
                icm_moves += 1
                bits0[ti] ^= cluster
                bits1[ti] ^= cluster
                energies0[ti] = table[bits0[ti]]
                energies1[ti] = table[bits1[ti]]
        record(bits0[cold], energies0[cold], bool(cluster), icm_tag)

    # per round: 2T sweeps of N flips, 2(T - 1) exchanges, T Houdayer moves
    exchange_attempts = rounds * 2 * (n_temps - 1)
    icm_attempts = rounds * n_temps
    stats = PtIcmStats(
        rounds=rounds,
        exchange_attempts=exchange_attempts,
        exchange_accepts=exchange_accepts,
        icm_attempts=icm_attempts,
        icm_moves=icm_moves,
        total_transitions=rounds * 2 * n_temps * n + exchange_attempts + icm_attempts,
    )
    return builder.build(rounds), stats


# ---------------------------------------------------------------------------
# WalkSAT

# probability of a random variable instead of the greedy pick
NOISE_P = 0.5
# WalkSATlm's weights of make1 and make2 in its tie-break score
LM_WEIGHTS = (6.0, 1.0)


@dataclass
class WalkSatResult:
    solution: SpinConfig | None  # None = NOT_FOUND within the flip budget
    flips_used: int

    @property
    def found(self) -> bool:
        return self.solution is not None


def _true_count(masks: tuple[int, int], bits: int) -> int:
    """True literals of a clause with (positive, negated) variable masks."""
    positive, negated = masks
    return (bits & positive).bit_count() + (negated & ~bits).bit_count()


class _Assignment:
    """Incremental truth-count bookkeeping for flip scoring.

    Blocked solutions (see `block`) stand for blocking clauses appended after
    the formula's own.  The blocking clause of solution s holds all n
    variables and is false only at s, so its truth count is the Hamming
    distance to s: it is unsatisfied iff bits == s, flipping v breaks it iff
    bits ^ (1 << v) == s, makes it (make1) iff bits == s, and brings it to
    one true literal (make2) iff bits ^ (1 << u) == s for some u != v.
    Blocking clauses are numbered after the formula's clauses in blocking
    order and their events are applied after the formula's, so `unsat`
    keeps the order that the appended clauses would give.
    """

    def __init__(self, formula: CnfFormula, bits: int = 0):
        self.n = formula.n_vars
        self.clause_vars = [tuple(abs(lit) - 1 for lit in c) for c in formula.clauses]
        self.all_vars = tuple(range(self.n))  # a blocking clause's variables
        # (positive, negated) variable masks of each clause, for `_true_count`
        self.masks = [
            (sum(1 << (lit - 1) for lit in c if lit > 0),
             sum(1 << (-lit - 1) for lit in c if lit < 0))
            for c in formula.clauses
        ]
        # occ[v] = [(clause index, literal is positive)]
        self.occ: list[list[tuple[int, bool]]] = [[] for _ in range(self.n)]
        for ci, c in enumerate(formula.clauses):
            for lit in c:
                self.occ[abs(lit) - 1].append((ci, lit > 0))
        self.blocked: dict[int, int] = {}  # solution bits -> clause index
        self._near_of: int | None = None  # bits that `_near` was computed for
        self._near = 0
        self.reset(bits)

    def reset(self, bits: int) -> None:
        """Recount every clause at a new assignment."""
        self.bits = bits
        self.true_count = [_true_count(m, bits) for m in self.masks]
        self.unsat = [ci for ci, tc in enumerate(self.true_count) if tc == 0]
        if bits in self.blocked:
            self.unsat.append(self.blocked[bits])
        self.unsat_pos = {ci: i for i, ci in enumerate(self.unsat)}

    def block(self, solution_bits: int) -> None:
        """Append the blocking clause of `solution_bits` (false only there)."""
        if not all(_true_count(m, solution_bits) for m in self.masks):
            raise ValueError("blocking clause requires a satisfying assignment")
        ci = len(self.masks) + len(self.blocked)
        self.blocked[solution_bits] = ci
        self._near_of = None
        if self.bits == solution_bits:
            self._toggle(ci)

    def variables(self, ci: int) -> tuple[int, ...]:
        return self.clause_vars[ci] if ci < len(self.clause_vars) else self.all_vars

    def lit_true(self, v: int, positive: bool) -> bool:
        return (self.bits >> v & 1) == (1 if positive else 0)

    def _blocked_neighbors(self) -> int:
        """Mask of the variables whose flip lands on a blocked solution."""
        if self._near_of != self.bits:
            self._near_of = self.bits
            self._near = sum(
                1 << u for u in range(self.n) if self.bits ^ (1 << u) in self.blocked
            )
        return self._near

    def scores(self, v: int) -> tuple[int, int, int]:
        """(break, make1, make2) when flipping variable v."""
        brk = mk1 = mk2 = 0
        for ci, positive in self.occ[v]:
            tc = self.true_count[ci]
            if self.lit_true(v, positive):
                if tc == 1:
                    brk += 1
            else:
                if tc == 0:
                    mk1 += 1
                elif tc == 1:
                    mk2 += 1
        if self.blocked:
            near = self._blocked_neighbors()
            lands = near >> v & 1
            brk += lands
            mk1 += self.bits in self.blocked
            mk2 += near.bit_count() - lands
        return brk, mk1, mk2

    def _toggle(self, ci: int) -> None:
        """Move clause ci into or out of `unsat` (swap-remove)."""
        pos = self.unsat_pos.pop(ci, None)
        if pos is None:
            self.unsat_pos[ci] = len(self.unsat)
            self.unsat.append(ci)
            return
        last = self.unsat[-1]
        self.unsat[pos] = last
        if last != ci:
            self.unsat_pos[last] = pos
        self.unsat.pop()

    def flip(self, v: int) -> None:
        for ci, positive in self.occ[v]:
            if self.lit_true(v, positive):
                self.true_count[ci] -= 1
                if self.true_count[ci] == 0:
                    self._toggle(ci)
            else:
                self.true_count[ci] += 1
                if self.true_count[ci] == 1:
                    self._toggle(ci)
        left = self.bits
        self.bits ^= 1 << v
        if self.blocked:
            # the blocking clause of the solution left is satisfied again, the
            # one of the solution entered is broken; blocked solutions satisfy
            # every base clause, so at most one clause is unsatisfied when
            # either happens and the order of the two does not matter
            for ci in (self.blocked.get(left), self.blocked.get(self.bits)):
                if ci is not None:
                    self._toggle(ci)


def _pick_variable(asg: _Assignment, clause_vars, rng) -> int:
    if rng.random() < NOISE_P:
        return clause_vars[rng.randrange(len(clause_vars))]
    w1, w2 = LM_WEIGHTS
    best, best_key = [], None
    for v in clause_vars:
        brk, mk1, mk2 = asg.scores(v)
        key = (brk, -(w1 * mk1 + w2 * mk2))  # freebies first, then lmake
        if best_key is None or key < best_key:
            best, best_key = [v], key
        elif key == best_key:
            best.append(v)
    return best[rng.randrange(len(best))]


def walksat_run(asg: _Assignment, max_flips: int, rng: random.Random) -> WalkSatResult:
    """Stochastic local search from a uniform random assignment, for at most
    `max_flips` flips.  `rng` draws the start and every pick
    (`walksat_enumerate` seeds it).

    `asg` holds the formula and carries the clause bookkeeping and the
    blocked solutions from one run of an enumeration to the next.
    """
    asg.reset(rng.getrandbits(asg.n))
    for flips in range(max_flips + 1):
        if not asg.unsat:
            return WalkSatResult(SpinConfig(asg.bits, asg.n), flips)
        if flips == max_flips:
            break
        ci = asg.unsat[rng.randrange(len(asg.unsat))]
        v = _pick_variable(asg, asg.variables(ci), rng)
        asg.flip(v)
    return WalkSatResult(None, max_flips)


@dataclass
class EnumerationResult:
    solutions: list[SpinConfig]
    # flips of every run: a complete enumeration stops at its last solution,
    # an incomplete one also counts the run that exhausted its budget
    total_flips: int
    flips_at_solution: list[int]  # cumulative flips when each solution appeared
    complete: bool  # found as many solutions as the exact count

    @property
    def flips_to_last_solution(self) -> int:
        return self.flips_at_solution[-1] if self.flips_at_solution else 0


def walksat_enumerate(
    formula: CnfFormula, n_solutions: int, max_flips: int, rng_seed: int
) -> EnumerationResult:
    """Enumerate solutions by repeated solving with blocking clauses.

    `n_solutions` is the formula's exact solution count, as the instance
    manifest holds it (`len(sat.enumerate_solutions(formula))`).  Enumeration
    stops, complete, once that many have been found; with a count of 0 (an
    UNSAT formula) it returns at once with no flips.  Each run (`walksat_run`)
    has a budget of `max_flips` flips, and one `random.Random(rng_seed)`
    draws for all of them.  A run that exhausts its
    flip budget before then ends the enumeration, flagged incomplete rather
    than raised.  Each blocking clause removes exactly its own solution, so
    the runs are those of repeated solving on the growing blocked formula.
    """
    rng = random.Random(rng_seed)
    asg = _Assignment(formula)
    solutions: list[SpinConfig] = []
    flips_at: list[int] = []
    total = 0
    while len(solutions) < n_solutions:
        res = walksat_run(asg, max_flips, rng)
        total += res.flips_used
        if not res.found:
            return EnumerationResult(solutions, total, flips_at, complete=False)
        solutions.append(res.solution)
        flips_at.append(total)
        asg.block(res.solution.bits)
    return EnumerationResult(solutions, total, flips_at, complete=True)
