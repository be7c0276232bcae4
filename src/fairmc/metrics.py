"""Fairness and solution-counting diagnostics.

The central quantity is the ratio of the most to least frequently sampled
ground state (1 = perfectly fair); it is undefined whenever some ground state
was never sampled, and such runs are excluded from ratio averages.  A
total-variation distance to the uniform ground-state distribution is emitted
alongside as a supplementary, noise-robust measure.

A count vector is the one type these statistics pass around: a float64
ndarray holding one weight per ground state, in ascending-bits order.
`visits` makes one from a chain's visited states (occurrence counts, and the
steps until all were seen), `histogram` from a measurement probability vector
(`qsim.measure_distribution`, restricted and renormalized); pooled trials add
theirs elementwise, and an i.i.d. draw of hits is one as it stands.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fairmc.fileio import atomic_write
from fairmc.ising import SpinConfig

INCOMPLETE = None  # sentinel for runs that never visited every ground state


@dataclass(frozen=True)
class FairnessReport:
    max_min_ratio: float | None  # None when some ground state has zero weight
    all_found: bool
    tvd_to_uniform: float
    n_ground: int


def frequencies(counts: np.ndarray) -> np.ndarray:
    """Weights scaled to sum to one; all zeros when they sum to zero."""
    total = counts.sum()
    if total == 0:
        return np.zeros_like(counts)
    return counts / total


def _ground_bits(ground_states: Sequence[SpinConfig]) -> list[int]:
    bits = sorted(s.bits for s in ground_states)
    if not bits:
        raise ValueError("ground-state list must be nonempty")
    return bits


def histogram(probs: np.ndarray, ground_states: Sequence[SpinConfig]) -> np.ndarray:
    """Weight per ground state, in ascending-bits order: the probabilities of
    a measurement distribution over all 2^N basis states restricted to the
    ground manifold, renormalized."""
    return frequencies(probs[_ground_bits(ground_states)])


def visits(states: np.ndarray, ground_states: Sequence[SpinConfig]):
    """Occurrence count of each ground state, in ascending-bits order, among a
    chain's visited `states` (packed bits, record i being transition i + 1),
    and the transition count at which every ground state had been visited,
    or INCOMPLETE when the chain ended first.  A WalkSAT enumeration reads
    its count off itself (`_run_walksat_trial`)."""
    bits = np.array(_ground_bits(ground_states), dtype=np.uint64)
    idx = np.minimum(np.searchsorted(bits, states), len(bits) - 1)
    hit = bits[idx] == states
    ground_idx = idx[hit]
    counts = np.bincount(ground_idx, minlength=len(bits)).astype(np.float64)
    if not counts.all():
        return counts, INCOMPLETE
    first = np.full(len(bits), len(states))  # each ground state's first record
    np.minimum.at(first, ground_idx, np.flatnonzero(hit))
    return counts, int(first.max()) + 1


def fairness(counts: np.ndarray) -> FairnessReport:
    """Fairness of a count vector."""
    n = len(counts)
    freqs = frequencies(counts)
    all_found = bool(np.all(counts > 0))
    ratio = float(freqs.max() / freqs.min()) if all_found else None
    if counts.sum() == 0:
        tvd = math.nan
    else:
        tvd = float(0.5 * np.abs(freqs - 1.0 / n).sum())
    return FairnessReport(ratio, all_found, tvd, n)


# ---------------------------------------------------------------------------
# aggregation across instances


@dataclass
class ResultRecord:
    """One (instance, algorithm) outcome in long format, pooled over trials.

    `steps` is the mean, over the instance's trials, of the transitions (or
    WalkSAT flips) until every ground state was found.  Only trials that
    finished count; it is INCOMPLETE (None) when none did.  The paper does
    not say how trials are averaged, so this choice belongs to the code; the
    integer per-trial counts are kept in `metrics/trials.csv`.
    """

    k: int
    n: int
    algorithm: str
    instance: int
    n_ground: int
    max_min_ratio: float | None
    all_found: bool
    tvd_to_uniform: float
    steps: float | None  # INCOMPLETE -> None, excluded from step averages


def _quantiles(values):
    if not values:
        return {"mean": None, "median": None, "q25": None, "q75": None}
    arr = np.array(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "q25": float(np.quantile(arr, 0.25)),
        "q75": float(np.quantile(arr, 0.75)),
    }


def aggregate(records: Sequence[ResultRecord]) -> list[dict]:
    """Group by (k, N, algorithm): ratio/step quantiles and all-found counts.

    Runs with an undefined ratio or INCOMPLETE steps are excluded from the
    respective statistics (the same rule for every algorithm).  The step
    quantiles are taken over the per-instance means in `ResultRecord.steps`.
    """
    if not records:
        raise ValueError("nothing to aggregate")
    groups: dict[tuple, list[ResultRecord]] = {}
    for r in records:
        groups.setdefault((r.k, r.n, r.algorithm), []).append(r)
    rows = []
    for (k, n, algo), grp in sorted(groups.items()):
        ratios = [r.max_min_ratio for r in grp if r.max_min_ratio is not None]
        steps = [r.steps for r in grp if r.steps is not None]
        row = {
            "k": k,
            "n": n,
            "algorithm": algo,
            "instances": len(grp),
            "all_found": sum(r.all_found for r in grp),
            "ratio_defined": len(ratios),
            "steps_defined": len(steps),
        }
        row.update({f"ratio_{key}": v for key, v in _quantiles(ratios).items()})
        row.update({f"steps_{key}": v for key, v in _quantiles(steps).items()})
        rows.append(row)
    return rows


def superiority_counts(records: Sequence[ResultRecord]) -> list[dict]:
    """Per (k, N) and algorithm pair: on how many instances the first
    algorithm needed strictly fewer steps (ties counted separately)."""
    by_instance: dict[tuple, dict[str, float]] = {}
    for r in records:
        if r.steps is not None:
            by_instance.setdefault((r.k, r.n, r.instance), {})[r.algorithm] = r.steps
    pair_rows: dict[tuple, dict] = {}
    for (k, n, _), algo_steps in by_instance.items():
        algos = sorted(algo_steps)
        for i, a in enumerate(algos):
            for b in algos[i + 1 :]:
                key = (k, n, a, b)
                row = pair_rows.setdefault(
                    key,
                    {"k": k, "n": n, "algorithm_a": a, "algorithm_b": b,
                     "a_wins": 0, "b_wins": 0, "ties": 0},
                )
                if algo_steps[a] < algo_steps[b]:
                    row["a_wins"] += 1
                elif algo_steps[a] > algo_steps[b]:
                    row["b_wins"] += 1
                else:
                    row["ties"] += 1
    return [pair_rows[k] for k in sorted(pair_rows)]


def records_from_csv(path) -> list[ResultRecord]:
    out = []
    with open(path) as f:
        reader = csv.DictReader(f)
        for row in reader:
            out.append(
                ResultRecord(
                    k=int(row["k"]),
                    n=int(row["n"]),
                    algorithm=row["algorithm"],
                    instance=int(row["instance"]),
                    n_ground=int(row["n_ground"]),
                    max_min_ratio=float(row["max_min_ratio"])
                    if row["max_min_ratio"] != ""
                    else None,
                    all_found=row["all_found"] == "True",
                    tvd_to_uniform=float(row["tvd_to_uniform"]),
                    steps=float(row["steps"]) if row["steps"] != "" else None,
                )
            )
    return out


def rows_to_csv(rows: Sequence[dict], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with atomic_write(path) as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for row in rows:
            w.writerow({k: ("" if v is None else v) for k, v in row.items()})
