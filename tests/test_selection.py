import math
import random

import numpy as np
import pytest

from tripleforge.core import Sample, Schema, TripleSet
from tripleforge.retriever import PairwiseDistanceSet
from tripleforge.selection import (
    SelectionResult,
    order_demonstrations,
    select_balance,
    select_coverage,
    select_random,
    select_top_k,
)

from conftest import make_gold_store, make_triple


def P_of(rows, pool_ids=None, test_ids=None) -> PairwiseDistanceSet:
    entries = np.asarray(rows, dtype=np.float64)
    n, m = entries.shape
    return PairwiseDistanceSet(
        tuple(pool_ids or (f"x{i + 1}" for i in range(n))),
        tuple(test_ids or (f"t{j + 1}" for j in range(m))),
        entries,
    )


@pytest.mark.parametrize("select", [
    lambda P, B: select_balance(P, Schema(("T",), ("A",)), B=B, gold={}, u=1),
    lambda P, B: select_coverage(P, B=B),
    lambda P, B: select_random(P.unlabeled_ids, B, seed=0),
], ids=["balance", "coverage", "random"])
@pytest.mark.parametrize("B", [0, -1])
def test_budget_below_one_rejected(select, B):
    with pytest.raises(ValueError, match="B must be >= 1"):
        select(P_of(np.ones((2, 2))), B)


class TestTopK:
    def test_hand_counted_frequencies(self):
        # nearest-2 lists: t1 -> {x1, x2}, t2 -> {x1, x3}, t3 -> {x2, x1}
        P = P_of([
            [0.1, 0.1, 0.2],
            [0.2, 0.9, 0.1],
            [0.9, 0.2, 0.9],
        ])
        result = select_top_k(P, u=2, B=2)
        assert result.chosen == ("x1", "x2")  # frequencies 3 and 2

    def test_all_distances_equal_takes_lowest_index_ids(self):
        P = P_of(np.ones((4, 3)))
        result = select_top_k(P, u=2, B=3)
        assert result.chosen == ("x1", "x2", "x3")

    def test_u_saturation_falls_back_to_total_distance(self):
        P = P_of([
            [0.5, 0.5],
            [0.1, 0.1],
            [0.3, 0.3],
        ])
        result = select_top_k(P, u=10, B=3)  # every freq == M
        assert result.chosen == ("x2", "x3", "x1")

    def test_budget_above_pool_returns_all_with_warning(self):
        P = P_of(np.ones((3, 2)))
        result = select_top_k(P, u=1, B=5)
        assert set(result.chosen) == {"x1", "x2", "x3"}
        assert result.warnings and "exceeds pool size" in result.warnings[0]

    def test_invalid_args(self):
        P = P_of(np.ones((2, 2)))
        with pytest.raises(ValueError):
            select_top_k(P, u=0, B=1)
        with pytest.raises(ValueError):
            select_top_k(P, u=1, B=0)

    def test_pure_function(self):
        P = P_of(np.arange(12, dtype=float).reshape(4, 3) % 5)
        assert select_top_k(P, 2, 2) == select_top_k(P, 2, 2)


def ascending_column(n):
    """P with one test column whose entries rank the pool x1 < x2 < ..."""
    return P_of([[0.1 * (i + 1)] for i in range(n)])


class TestBalance:
    schema3 = Schema(("T",), ("A", "B", "C"))

    def test_quota_one_per_relation_when_pool_permits(self):
        gold = make_gold_store({"x1": ["A"], "x2": ["A"], "x3": ["B"],
                                "x4": ["C"], "x5": ["B"]})
        result = select_balance(ascending_column(5), self.schema3, B=3, gold=gold, u=1)
        assert result.chosen == ("x1", "x3", "x4")
        assert result.per_relation_tallies == {"A": 1, "B": 1, "C": 1}
        assert result.quota_shortfall == {}

    def test_walk_continues_past_budget_rank(self):
        # first B-ranked samples all share one relation: the walk checks more
        # than B samples to satisfy the other quotas
        gold = make_gold_store({"x1": ["A"], "x2": ["A"], "x3": ["A"],
                                "x4": ["B"], "x5": ["C"]})
        result = select_balance(ascending_column(5), self.schema3, B=3, gold=gold, u=1)
        assert result.chosen == ("x1", "x4", "x5")
        assert result.checked_ids == ("x1", "x2", "x3", "x4", "x5")
        assert result.checked_count == 5 > 3

    def test_missing_relation_refills_from_global_order(self):
        gold = make_gold_store({"x1": ["A"], "x2": ["A"], "x3": ["B"],
                                "x4": ["A"], "x5": ["B"], "x6": ["A"]})
        result = select_balance(ascending_column(6), self.schema3, B=3, gold=gold, u=1)
        # C does not exist in the pool: walk exhausts all 6, refill tops up
        assert result.chosen == ("x1", "x3", "x2")
        assert result.quota_shortfall == {"C": 1}
        assert result.checked_count == 6
        assert result.warnings

    def test_multi_relation_sample_credits_all_tallies(self):
        gold = make_gold_store({"x1": ["A", "B"], "x2": ["B"], "x3": ["C"]})
        result = select_balance(ascending_column(3), self.schema3, B=3, gold=gold, u=1)
        assert result.chosen[0] == "x1"
        assert result.per_relation_tallies["A"] == 1
        assert result.per_relation_tallies["B"] >= 1

    def test_budget_below_relation_count_degenerates_to_ranking_prefix(self):
        gold = make_gold_store({f"x{i}": ["A"] for i in range(1, 5)})
        schema = Schema(("T",), ("A", "B", "C", "D", "E"))
        result = select_balance(ascending_column(4), schema, B=2, gold=gold, u=1)
        assert result.chosen == ("x1", "x2")  # quota floor(2/5) = 0

    def test_budget_below_relation_count_is_topk_checking_only_the_chosen(self):
        # quota floor(B/R) = 0 is met before the walk: the refill takes the
        # topk prefix and no other sample is checked
        rng = random.Random(4)
        schema = Schema(("T",), ("A", "B", "C", "D", "E"))
        for _ in range(20):
            n = rng.randint(1, 8)
            P = P_of([[float(rng.randint(0, 4)) for _ in range(3)] for _ in range(n)])
            gold = make_gold_store({sid: [rng.choice(schema.relation_types)]
                                    for sid in P.unlabeled_ids})
            for B in range(1, len(schema.relation_types)):
                result = select_balance(P, schema, B, gold, u=2)
                assert result.chosen == select_top_k(P, 2, B).chosen
                assert result.checked_ids == result.chosen

    def test_annotated_within_budget_while_checked_exceeds(self):
        gold = make_gold_store({"x1": ["A"], "x2": ["A"], "x3": ["A"],
                                "x4": ["A"], "x5": ["B"], "x6": ["C"]})
        result = select_balance(ascending_column(6), self.schema3, B=3, gold=gold, u=1)
        assert len(result.chosen) <= 3 < result.checked_count


class TestCoverage:
    def test_hand_trace(self):
        P = P_of([
            [0.1, 0.2, 0.9, 0.9],
            [0.8, 0.8, 0.1, 0.2],
            [0.5, 0.5, 0.5, 0.5],
        ])
        result = select_coverage(P, B=2)
        assert result.chosen == ("x1", "x2")
        assert result.covered_tests == {"x1": ("t1", "t2"), "x2": ("t3", "t4")}

    def test_budget_at_least_m_discards_one_column_per_round(self):
        rng = np.random.default_rng(0)
        P = P_of(rng.uniform(0.1, 1.0, size=(6, 3)))
        result = select_coverage(P, B=5)  # ceil(3/5) = 1
        assert len(result.chosen) == 3
        covered = [t for ts in result.covered_tests.values() for t in ts]
        assert sorted(covered) == ["t1", "t2", "t3"]

    def test_identical_rows_pick_lowest_ids_and_partition_tests(self):
        P = P_of(np.full((4, 4), 0.5))
        result = select_coverage(P, B=2)
        assert result.chosen == ("x1", "x2")
        covered = [t for ts in result.covered_tests.values() for t in ts]
        assert sorted(covered) == ["t1", "t2", "t3", "t4"]
        assert result.tie_break_hits > 0

    def test_each_test_column_discarded_at_most_once(self):
        rng = np.random.default_rng(1)
        P = P_of(rng.uniform(0.1, 1.0, size=(5, 7)))
        result = select_coverage(P, B=3)
        covered = [t for ts in result.covered_tests.values() for t in ts]
        assert len(covered) == len(set(covered))

    def test_full_coverage_when_loop_ends_by_discard(self):
        rng = np.random.default_rng(2)
        P = P_of(rng.uniform(0.1, 1.0, size=(8, 4)))
        result = select_coverage(P, B=4)  # block size 1: all columns go
        covered = {t for ts in result.covered_tests.values() for t in ts}
        assert covered == set(P.test_ids)


class TestRandom:
    def test_seeded_repeatable(self):
        ids = [f"x{i}" for i in range(10)]
        assert select_random(ids, 4, seed=7).chosen == select_random(ids, 4, seed=7).chosen

    def test_budget_equals_pool_is_a_permutation(self):
        ids = [f"x{i}" for i in range(6)]
        result = select_random(ids, 6, seed=1)
        assert sorted(result.chosen) == sorted(ids)

    def test_budget_above_pool_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool size"):
            select_random(["a", "b"], 3, seed=0)


class TestOrderDemonstrations:
    def build(self, rows, chosen, most_similar_last=True):
        P = P_of(rows)
        samples = {sid: Sample(sid, f"text of {sid}") for sid in P.unlabeled_ids}
        gold = {sid: TripleSet.of([make_triple()]) for sid in P.unlabeled_ids}
        return order_demonstrations(chosen, P, samples, gold,
                                    most_similar_last=most_similar_last)

    def test_largest_mean_distance_first(self):
        demos = self.build([[0.9, 0.9], [0.2, 0.2]], ["x1", "x2"])
        assert [d.sample.id for d in demos] == ["x1", "x2"]

    def test_equal_means_tie_break_by_id(self):
        demos = self.build([[0.5, 0.5], [0.5, 0.5]], ["x2", "x1"])
        assert [d.sample.id for d in demos] == ["x1", "x2"]

    def test_singleton(self):
        demos = self.build([[0.3]], ["x1"])
        assert len(demos) == 1 and demos[0].sample.id == "x1"

    def test_flip_puts_most_similar_first(self):
        demos = self.build([[0.9], [0.2]], ["x1", "x2"], most_similar_last=False)
        assert [d.sample.id for d in demos] == ["x2", "x1"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="not in the distance set"):
            self.build([[0.5]], ["nope"])


def coverage_reference(pool_ids, test_ids, entries, budget):
    """Independent re-implementation of the coverage loop, list-based."""
    n, m = len(pool_ids), len(test_ids)
    block = math.ceil(m / budget)
    live_rows = list(range(n))
    live_cols = list(range(m))
    picks = []
    for _ in range(budget):
        if not live_cols or not live_rows:
            break
        candidates = []
        for i in live_rows:
            ranked = sorted(((entries[i][j], j) for j in live_cols))[:block]
            candidates.append((sum(d for d, _ in ranked), pool_ids[i], i,
                               [j for _, j in ranked]))
        candidates.sort(key=lambda c: (c[0], c[1]))
        total, sid, row, cols = candidates[0]
        picks.append(sid)
        live_rows.remove(row)
        for j in cols:
            live_cols.remove(j)
    return picks


class TestAgainstReference:
    def test_coverage_matches_reference_on_random_instances(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            B = rng.randint(1, 4)
            entries = [[float(rng.randint(0, 12)) for _ in range(m)] for _ in range(n)]
            P = P_of(entries)
            expected = coverage_reference(P.unlabeled_ids, P.test_ids, entries, B)
            assert list(select_coverage(P, B).chosen) == expected


class TestRescaleInvariance:
    def test_strategies_invariant_to_positive_scaling(self):
        rng = random.Random(1)
        schema = Schema(("T",), ("A", "B"))
        for _ in range(30):
            n = rng.randint(3, 7)
            m = rng.randint(1, 5)
            B = rng.randint(1, 3)
            entries = np.array([[float(rng.randint(0, 10)) for _ in range(m)]
                                for _ in range(n)])
            P = P_of(entries)
            gold = make_gold_store({
                sid: [rng.choice(["A", "B"])] for sid in P.unlabeled_ids
            })
            for c in (0.5, 2.0, 10.0):
                scaled = PairwiseDistanceSet(P.unlabeled_ids, P.test_ids, P.entries * c)
                assert select_top_k(P, 2, B).chosen == select_top_k(scaled, 2, B).chosen
                assert select_coverage(P, B).chosen == select_coverage(scaled, B).chosen
                assert (select_balance(P, schema, B, gold, u=2).chosen
                        == select_balance(scaled, schema, B, gold, u=2).chosen)
                assert (select_random(P.unlabeled_ids, B, seed=3).chosen
                        == select_random(scaled.unlabeled_ids, B, seed=3).chosen)


class TestSelectionResultInvariants:
    def test_chosen_over_budget_rejected(self):
        with pytest.raises(ValueError, match="exceeds budget"):
            SelectionResult(strategy="topk", budget=1, chosen=("a", "b"),
                            checked_ids=("a", "b"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            SelectionResult(strategy="topk", budget=3, chosen=("a", "a"),
                            checked_ids=("a",))

    def test_json_dict_shape(self):
        result = SelectionResult(strategy="coverage", budget=2, chosen=("a",),
                                 checked_ids=("a",), covered_tests={"a": ("t1",)})
        out = result.to_json_dict()
        assert out["strategy"] == "coverage" and out["covered_tests"] == {"a": ("t1",)}
