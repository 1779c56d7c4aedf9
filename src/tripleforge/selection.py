"""Budgeted sample selection over the pool-to-test distance set.

Three strategies plus a random baseline: ``topk`` ranks pool samples by how
often they appear among each test sample's nearest neighbors; ``balance``
walks that ranking while an annotator checks relation labels to fill
per-relation quotas; ``coverage`` greedily picks the pool sample closest to a
block of still-uncovered test samples until every test sample is covered.
All strategies are deterministic: ties fall back to lower total distance
where meaningful and then to ascending sample id.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import AnnotationOracle, Sample, Schema, TripleSet
from .prompting import Demonstration
from .similarity import PairwiseDistanceSet


@dataclass(frozen=True)
class SelectionResult:
    """Chosen sample ids plus the audit trail of how they were picked."""

    strategy: str
    budget: int
    chosen: tuple[str, ...]
    checked_ids: tuple[str, ...]
    tie_break_hits: int = 0
    warnings: tuple[str, ...] = ()
    per_relation_tallies: Optional[dict[str, int]] = None
    quota_shortfall: Optional[dict[str, int]] = None
    covered_tests: Optional[dict[str, tuple[str, ...]]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.chosen) > self.budget:
            raise ValueError("chosen exceeds budget")
        if len(set(self.chosen)) != len(self.chosen):
            raise ValueError("chosen contains duplicates")
        if self.checked_count < len(self.chosen):
            raise ValueError("checked_count below number of chosen samples")

    @property
    def checked_count(self) -> int:
        return len(self.checked_ids)

    def to_json_dict(self) -> dict:
        """The set fields, shallow: ``asdict`` would deep-copy every id."""
        out = {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}
        return {**out, "checked_ids": sorted(self.checked_ids), "checked_count": self.checked_count}


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in ascending id order (equal ids by row)."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _ranked_pool(P: PairwiseDistanceSet, u: int) -> tuple[list[int], np.ndarray, int]:
    """Global pool order: frequency among per-test u-nearest lists (desc),
    then total distance to the test set (asc), then id (asc)."""
    entries = P.entries
    # a stable sort breaks distance ties within a test column by row
    nearest = np.argsort(entries, axis=0, kind="stable")[:u]
    freq = np.bincount(nearest.ravel(), minlength=P.n)
    totals = entries.sum(axis=1)
    ranked = np.lexsort((_id_ranks(P.unlabeled_ids), totals, -freq))
    ranked_freq = freq[ranked]
    ties = int(np.count_nonzero(ranked_freq[1:] == ranked_freq[:-1]))
    return ranked.tolist(), freq, ties


def select_top_k(P: PairwiseDistanceSet, u: int, B: int) -> SelectionResult:
    """Pick the B pool samples that most often sit among the u nearest
    neighbors of a test sample."""
    if u < 1 or B < 1:
        raise ValueError("u and B must be >= 1")
    ranked, _freq, ties = _ranked_pool(P, u)
    warnings: list[str] = []
    if B > P.n:
        warnings.append(f"budget {B} exceeds pool size {P.n}; returning the entire pool")
    chosen = tuple(P.unlabeled_ids[i] for i in ranked[:B])
    return SelectionResult(strategy="topk", budget=B, chosen=chosen,
                           checked_ids=chosen, tie_break_hits=ties,
                           warnings=tuple(warnings))


def select_balance(P: PairwiseDistanceSet, schema: Schema, B: int,
                   oracle: AnnotationOracle, u: int = 5) -> SelectionResult:
    """Walk the top-k ranking filling a floor(B/R)-per-relation quota.

    Each candidate costs one oracle check to reveal its gold relation labels;
    it is accepted when any of its relations is still under quota (all of its
    relations' tallies then increment); a quota of 0 is met at once.  The
    leftover budget goes to the highest-ranked samples not yet accepted, each
    checked too, so the number of checked samples can exceed B even though
    at most B are annotated.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    quota = B // len(schema.relation_types)
    ranked, _freq, ties = _ranked_pool(P, u)
    ranked_ids = [P.unlabeled_ids[i] for i in ranked]

    tallies: dict[str, int] = {r: 0 for r in schema.relation_types}
    accepted: list[str] = []
    checked: list[str] = []
    for sid in ranked_ids:
        if len(accepted) >= B or all(tallies[r] >= quota for r in schema.relation_types):
            break
        labels = oracle.check(sid)
        checked.append(sid)
        if any(tallies.get(r, 0) < quota for r in labels):
            accepted.append(sid)
            for r in labels:
                tallies[r] = tallies.get(r, 0) + 1

    shortfall = {r: quota - tallies[r] for r in schema.relation_types if tallies[r] < quota}
    warnings = tuple(
        f"relation {r!r} short by {missing} after exhausting the pool"
        for r, missing in sorted(shortfall.items())
    )

    taken = set(accepted)
    refill = [sid for sid in ranked_ids if sid not in taken][:B - len(accepted)]
    for sid in refill:
        oracle.check(sid)

    return SelectionResult(
        strategy="balance", budget=B, chosen=tuple(accepted + refill),
        checked_ids=tuple(dict.fromkeys(checked + refill)), tie_break_hits=ties,
        warnings=warnings, per_relation_tallies=tallies,
        quota_shortfall=shortfall,
    )


def select_coverage(P: PairwiseDistanceSet, B: int) -> SelectionResult:
    """Greedy coverage: each round scores every live pool row by the sum of
    its ceil(M/B) smallest distances to still-live test columns, picks the
    minimizer, and discards that row plus the test columns it covered.  Stops
    early once every test column is covered.

    A row's score adds its smallest distances in ascending order, left to
    right; ties in score go to the lower id.  A round counts as a tie-break
    hit when, in row order, some live row's score equals the lowest score of
    the rows before it."""
    if B < 1:
        raise ValueError("B must be >= 1")
    entries = P.entries
    block = math.ceil(P.m / B)  # frozen at loop start
    id_ranks = _id_ranks(P.unlabeled_ids)
    live_rows = np.ones(P.n, dtype=bool)
    live_cols = np.ones(P.m, dtype=bool)
    chosen: list[str] = []
    covered: dict[str, tuple[str, ...]] = {}
    ties = 0

    for _ in range(B):
        rows, cols = np.flatnonzero(live_rows), np.flatnonzero(live_cols)
        if not rows.size or not cols.size:
            break
        live = entries[np.ix_(rows, cols)]
        k = min(block, cols.size)
        smallest = np.sort(np.partition(live, k - 1, axis=1)[:, :k], axis=1)
        totals = np.zeros(rows.size, dtype=np.float64)
        for slot in range(k):
            totals += smallest[:, slot]
        if np.any(totals[1:] == np.minimum.accumulate(totals)[:-1]):
            ties += 1
        best = np.lexsort((id_ranks[rows], totals))[0]
        best_cols = cols[np.argsort(live[best], kind="stable")[:k]]
        sid = P.unlabeled_ids[rows[best]]
        chosen.append(sid)
        covered[sid] = tuple(P.test_ids[j] for j in best_cols)
        live_rows[rows[best]] = False
        live_cols[best_cols] = False

    return SelectionResult(
        strategy="coverage", budget=B, chosen=tuple(chosen),
        checked_ids=tuple(chosen), tie_break_hits=ties,
        covered_tests=covered,
    )


def select_random(pool_ids: Sequence[str], B: int, seed: int) -> SelectionResult:
    """Seeded uniform sample without replacement."""
    if B < 1:
        raise ValueError("B must be >= 1")
    if B > len(pool_ids):
        raise ValueError(f"budget {B} exceeds pool size {len(pool_ids)}")
    chosen = tuple(random.Random(seed).sample(list(pool_ids), B))
    return SelectionResult(strategy="random", budget=B, chosen=chosen,
                           checked_ids=chosen, seed=seed)


# Every strategy by name.  The config, the CLI choices and the select stage
# read the names from here.
STRATEGIES: dict[str, Callable[..., SelectionResult]] = {
    "topk": select_top_k,
    "balance": select_balance,
    "coverage": select_coverage,
    "random": select_random,
}


def order_demonstrations(chosen: Sequence[str], P: PairwiseDistanceSet,
                         samples_by_id: Mapping[str, Sample],
                         gold_by_id: Mapping[str, TripleSet],
                         most_similar_last: bool = True) -> list[Demonstration]:
    """The chosen samples as demonstrations in prompt order, ordered by mean
    distance to the test set.

    With ``most_similar_last`` (the default) the largest mean distance comes
    first, so the most similar demonstration sits next to the query; without
    it the most similar comes first.  Equal means go to the lower id.
    """
    row = {sid: i for i, sid in enumerate(P.unlabeled_ids)}
    missing = [sid for sid in chosen if sid not in row]
    if missing:
        raise ValueError(f"chosen ids not in the distance set: {missing[:5]}")
    sign = -1.0 if most_similar_last else 1.0
    ordered = sorted(chosen, key=lambda sid: (sign * float(P.entries[row[sid]].mean()), sid))
    return [Demonstration(sample=samples_by_id[sid], gold=gold_by_id[sid]) for sid in ordered]
