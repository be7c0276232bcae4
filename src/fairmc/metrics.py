"""Fairness and solution-counting diagnostics.

The central quantity is the ratio of the most to least frequently sampled
ground state (1 = perfectly fair); it is undefined whenever some ground state
was never sampled, and such runs are excluded from ratio averages.  A
total-variation distance to the uniform ground-state distribution is emitted
alongside as a supplementary, noise-robust measure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from fairmc.fileio import atomic_write
from fairmc.ising import SpinConfig
from fairmc.mcmc import ChainTrace
from fairmc.qsim import OutputDistribution

INCOMPLETE = None  # sentinel for runs that never visited every ground state
_WALK_CHUNK = 1024  # trace records converted at a time by steps_to_enumerate


@dataclass(frozen=True)
class GroundStateHistogram:
    """Sample weight per ground state, in canonical (ascending-bits) order.

    Counts are real-valued so exact distributions can be binned with the same
    type; trace histograms hold integers.
    """

    ground_states: tuple[SpinConfig, ...]
    counts: np.ndarray

    @property
    def total_gs_samples(self) -> float:
        return float(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        total = self.total_gs_samples
        if total == 0:
            return np.zeros_like(self.counts)
        return self.counts / total


@dataclass(frozen=True)
class FairnessReport:
    max_min_ratio: float | None  # None when some ground state has zero weight
    all_found: bool
    tvd_to_uniform: float
    n_ground: int


def histogram(source, ground_states: Sequence[SpinConfig]) -> GroundStateHistogram:
    """Bin a chain trace (occurrence counts) or an exact output distribution
    (probabilities restricted to the ground manifold, renormalized)."""
    gs = tuple(sorted(ground_states, key=lambda s: s.bits))
    if not gs:
        raise ValueError("ground-state list must be nonempty")
    index = {s.bits: i for i, s in enumerate(gs)}

    if isinstance(source, ChainTrace):
        counts = np.zeros(len(gs))
        states, hits = np.unique(source.states, return_counts=True)
        for z, hit in zip(states.tolist(), hits.tolist()):
            i = index.get(z)
            if i is not None:
                counts[i] = hit
        return GroundStateHistogram(gs, counts)

    if isinstance(source, OutputDistribution):
        raw = np.array([source.probs[s.bits] for s in gs])
        total = raw.sum()
        counts = raw / total if total > 0 else raw
        return GroundStateHistogram(gs, counts)

    raise TypeError(f"cannot histogram {type(source).__name__}")


def fairness(hist: GroundStateHistogram) -> FairnessReport:
    n = len(hist.ground_states)
    freqs = hist.frequencies()
    all_found = bool(np.all(hist.counts > 0))
    ratio = float(freqs.max() / freqs.min()) if all_found else None
    if hist.total_gs_samples == 0:
        tvd = math.nan
    else:
        tvd = float(0.5 * np.abs(freqs - 1.0 / n).sum())
    return FairnessReport(ratio, all_found, tvd, n)


def steps_to_enumerate(trace: ChainTrace, ground_states: Sequence[SpinConfig]):
    """Transition count at which every ground state has been visited (record
    i is transition i + 1), or INCOMPLETE when the chain ended first.  A
    WalkSAT enumeration reads its count off itself (`_run_walksat_trial`).
    """
    remaining = {s.bits for s in ground_states}
    # walk Python ints, converted a chunk at a time so that an early finish
    # converts few records
    for start in range(0, len(trace.states), _WALK_CHUNK):
        for i, z in enumerate(trace.states[start:start + _WALK_CHUNK].tolist(), start):
            remaining.discard(z)
            if not remaining:
                return i + 1
    return INCOMPLETE


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


def records_to_csv(records: Sequence[ResultRecord], path) -> None:
    cols = [f.name for f in fields(ResultRecord)]
    with atomic_write(path) as f:
        w = csv.writer(f)
        w.writerow(cols)
        for r in records:
            w.writerow(["" if getattr(r, c) is None else getattr(r, c) for c in cols])


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
