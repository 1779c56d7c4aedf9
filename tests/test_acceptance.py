"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Everything runs offline against the bundled mini dataset
and the deterministic mock provider.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import itertools
import json
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

from tripleforge.core import Sample, Schema, Triple, TripleSet
from tripleforge.evaluation import micro_f1
from tripleforge.pipeline import EVAL_JSON, STAGES
from tripleforge.prompting import PromptFormat, parse_output, serialize_triples
from tripleforge.retriever import (
    PairwiseDistanceSet,
    RetrieverModel,
    TrainConfig,
    compute_P,
    make_training_pairs,
    train,
)
from tripleforge.selection import (
    select_balance,
    select_coverage,
    select_random,
    select_top_k,
)
from tripleforge.similarity import HashingEmbedder, PoolDistanceMatrix, set_distance

from conftest import make_gold_store, make_triple
from test_kernels_reference import batch_grad, reference_batch_loss


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL — {title}")
        raise
    print(f"[criterion {number}] PASS — {title}")


# --- 1: set-distance kernel -------------------------------------------------

def test_c1_hausdorff_kernel():
    with criterion(1, "average Hausdorff kernel: identity, symmetry, fixture, permutation"):
        rng = np.random.default_rng(101)
        z = [rng.normal(size=3) for _ in range(4)]
        assert set_distance(z, z) == pytest.approx(0.0, abs=1e-9)

        a, b, c = np.array([0.0]), np.array([1.0]), np.array([3.0])
        assert set_distance([a], [b, c]) == pytest.approx(3.0, abs=1e-9)

        pyrand = random.Random(11)
        for _ in range(500):
            zi = [rng.normal(size=2) for _ in range(pyrand.randint(1, 5))]
            zj = [rng.normal(size=2) for _ in range(pyrand.randint(1, 5))]
            forward = set_distance(zi, zj)
            assert forward == pytest.approx(set_distance(zj, zi), abs=1e-9)
            zi2, zj2 = list(zi), list(zj)
            pyrand.shuffle(zi2)
            pyrand.shuffle(zj2)
            assert set_distance(zi2, zj2) == pytest.approx(forward, abs=1e-9)
            assert forward >= 0.0


# --- 2: coverage loop fidelity ------------------------------------------------

def coverage_reference(pool_ids, test_ids, entries, budget):
    """Independent list-based re-implementation of the coverage loop."""
    n, m = len(pool_ids), len(test_ids)
    block = math.ceil(m / budget)
    live_rows = list(range(n))
    live_cols = list(range(m))
    picks = []
    for _ in range(budget):
        if not live_cols or not live_rows:
            break
        scored = []
        for i in live_rows:
            nearest = sorted(((entries[i][j], j) for j in live_cols))[:block]
            scored.append((sum(d for d, _ in nearest), pool_ids[i], i,
                           [j for _, j in nearest]))
        scored.sort(key=lambda item: (item[0], item[1]))
        _, sid, row, cols = scored[0]
        picks.append(sid)
        live_rows.remove(row)
        for j in cols:
            live_cols.remove(j)
    return picks


def test_c2_coverage_algorithm_fidelity():
    with criterion(2, "coverage: hand trace exact + 1,000-instance brute-force agreement"):
        hand = PairwiseDistanceSet(
            ("x1", "x2", "x3"), ("t1", "t2", "t3", "t4"),
            np.array([
                [0.1, 0.2, 0.9, 0.9],
                [0.8, 0.8, 0.1, 0.2],
                [0.5, 0.5, 0.5, 0.5],
            ]),
        )
        result = select_coverage(hand, B=2)
        assert result.chosen == ("x1", "x2")
        assert result.covered_tests == {"x1": ("t1", "t2"), "x2": ("t3", "t4")}

        rng = random.Random(202)
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            B = rng.randint(1, 4)
            entries = [[float(rng.randint(0, 12)) for _ in range(m)] for _ in range(n)]
            ids = tuple(f"x{i + 1}" for i in range(n))
            tids = tuple(f"t{j + 1}" for j in range(m))
            P = PairwiseDistanceSet(ids, tids, np.array(entries))
            assert list(select_coverage(P, B).chosen) == coverage_reference(ids, tids, entries, B)


# --- 3: rescale invariance ---------------------------------------------------

def test_c3_selection_rescale_invariance():
    with criterion(3, "all four strategies invariant to scaling P by 0.5, 2, 10 (200 instances)"):
        rng = random.Random(303)
        schema = Schema(("T",), ("A", "B", "C"))
        for _ in range(200):
            n = rng.randint(3, 8)
            m = rng.randint(1, 6)
            B = rng.randint(1, 4)
            u = rng.randint(1, 3)
            entries = np.array([[float(rng.randint(0, 10)) for _ in range(m)]
                                for _ in range(n)])
            ids = tuple(f"x{i + 1}" for i in range(n))
            P = PairwiseDistanceSet(ids, tuple(f"t{j + 1}" for j in range(m)), entries)
            gold = make_gold_store({sid: [rng.choice(["A", "B", "C"])] for sid in ids})
            baseline = {
                "topk": select_top_k(P, u, B).chosen,
                "coverage": select_coverage(P, B).chosen,
                "balance": select_balance(P, schema, B, gold, u=u).chosen,
                "random": select_random(ids, min(B, n), seed=5).chosen,
            }
            for c in (0.5, 2.0, 10.0):
                scaled = PairwiseDistanceSet(P.unlabeled_ids, P.test_ids, P.entries * c)
                assert select_top_k(scaled, u, B).chosen == baseline["topk"]
                assert select_coverage(scaled, B).chosen == baseline["coverage"]
                assert select_balance(scaled, schema, B, gold, u=u).chosen == baseline["balance"]
                assert select_random(scaled.unlabeled_ids, min(B, n),
                                     seed=5).chosen == baseline["random"]


# --- 4: retriever objective ----------------------------------------------------

def test_c4_retriever_gradient_and_planted_task():
    with criterion(4, "regression gradient vs finite differences, planted-affine "
                      "convergence, identity init equals raw distances"):
        rng = np.random.default_rng(404)

        # analytic vs central finite differences on a 2-pair batch
        embeddings = rng.normal(size=(4, 3))
        diffs = embeddings[[0, 2]] - embeddings[[1, 3]]
        targets = np.array([2.0, 0.7])
        weights = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        analytic = batch_grad(weights, diffs, targets)
        h = 1e-6
        fd = np.zeros_like(weights)
        for r in range(3):
            for c in range(3):
                plus, minus = weights.copy(), weights.copy()
                plus[r, c] += h
                minus[r, c] -= h
                fd[r, c] = (reference_batch_loss(plus, diffs, targets)
                            - reference_batch_loss(minus, diffs, targets)) / (2 * h)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) <= 1e-4

        # planted affine map: validation loss falls to <= 10% of initial
        n, dim = 12, 6
        base_embeddings = rng.normal(size=(n, dim))
        planted = rng.normal(size=(dim, dim)) * 0.8
        projected = base_embeddings @ planted.T
        entries = np.linalg.norm(projected[:, None, :] - projected[None, :, :], axis=-1)
        matrix = PoolDistanceMatrix(tuple(f"s{i}" for i in range(n)),
                                    entries[np.triu_indices(n, 1)], "stub")
        cfg = TrainConfig(epochs=200, learning_rate=0.02, validation_fraction=0.10, seed=0,
                          weight_decay=0.0)
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        _, history = train(pairs, base_embeddings, cfg)
        best = min(e["validation_loss_mean"] for e in history.epochs)
        assert best <= 0.10 * history.initial_validation_loss

        # identity-initialized model reproduces raw base-embedding distances
        base = HashingEmbedder(dim=32)
        model = RetrieverModel(base, np.eye(base.dim))
        pool = [Sample(f"p{i}", f"pool sentence {i} alpha") for i in range(4)]
        test = [Sample("t0", "query sentence beta")]
        P = compute_P(model, pool, test)
        *pool_rows, query = base.embed([s.text for s in pool] + [test[0].text])
        for i, row in enumerate(pool_rows):
            raw = float(np.linalg.norm(row - query))
            assert P.entries[i, 0] == raw


# --- 5: parser round trips -------------------------------------------------------

FIELD_CHARS = "abcdefgh XYZ|\\,:()\"'0123456789=."


def random_field(rng: random.Random) -> str:
    while True:
        text = "".join(rng.choice(FIELD_CHARS) for _ in range(rng.randint(1, 10)))
        if text.strip() == text and text:
            return text


def random_triple_set(rng: random.Random) -> TripleSet:
    return TripleSet.of(
        Triple(predicate=random_field(rng), subject_type=random_field(rng),
               subject=random_field(rng), object_type=random_field(rng),
               object=random_field(rng))
        for _ in range(rng.randint(0, 4))
    )


def without_spans(ts: TripleSet) -> TripleSet:
    return TripleSet.of(
        Triple(predicate=t.predicate, subject_type=t.subject_type, subject=t.subject,
               object_type=t.object_type, object=t.object)
        for t in ts
    )


def test_c5_parser_round_trip_and_fuzz():
    with criterion(5, "1,000 serialize/parse round trips per format, 10,000-input "
                      "fuzz without exceptions, table output strictly shorter than code"):
        rng = random.Random(505)
        for fmt in PromptFormat:
            for _ in range(1000):
                ts = random_triple_set(rng)
                raw = serialize_triples(fmt, ts)
                parsed = parse_output(fmt, raw, "an unrelated sentence")
                assert parsed.skipped_rows == 0
                assert without_spans(parsed.triples) == ts
                if len(ts) > 0:
                    table = serialize_triples(PromptFormat.TABLEIE, ts)
                    code = serialize_triples(PromptFormat.CODEIE, ts)
                    assert len(table) < len(code)

        fuzz_chars = FIELD_CHARS + "\n\t\r\x00é汉"
        formats = itertools.cycle(PromptFormat)
        for _ in range(10000):
            raw = "".join(rng.choice(fuzz_chars) for _ in range(rng.randint(0, 120)))
            parse_output(next(formats), raw, "Booth shot Lincoln")


# --- 6: end-to-end with the mock provider ------------------------------------------

ALL_STAGES = ("preextract", "distances", "train", "select", "run", "eval", "cost")


def test_c6_end_to_end_mock_run(run_config):
    with criterion(6, "mock echo-gold + coverage (B=4) reaches strict F1 = 1.000; "
                      "replay byte-identical with zero provider calls"):
        cfg = run_config(strategy="coverage", budget=4)
        outcomes = {name: STAGES[name](cfg) for name in ALL_STAGES}
        report = json.loads((cfg.run_dir / EVAL_JSON).read_text())
        assert report["f1"] == 1.0 and report["precision"] == 1.0 and report["recall"] == 1.0

        report_files = ("eval_report.json", "eval_report.txt",
                        "cost_report.json", "cost_report.txt")
        before = {name: (cfg.run_dir / name).read_bytes() for name in report_files}
        outcomes = {name: STAGES[name](cfg) for name in ALL_STAGES}
        after = {name: (cfg.run_dir / name).read_bytes() for name in report_files}
        assert before == after
        assert outcomes["preextract"].info["llm_calls"] == 0
        assert outcomes["run"].info["llm_calls"] == 0


# --- 7: evaluation oracle ------------------------------------------------------------

def test_c7_evaluation_oracle():
    with criterion(7, "worked half-overlap example scores exactly 0.5; duplicated "
                      "correct predictions do not inflate TP"):
        gold_a = make_triple(s_span=(0, 5), o_span=(11, 18))
        gold_b = make_triple(pred="Live_In", o="Washington", s_span=(0, 5), o_span=(25, 35))
        pred_c = make_triple(pred="Work_For", o="ACME", s_span=(0, 5), o_span=(40, 44))
        report = micro_f1(
            {"s1": TripleSet.of([gold_a, pred_c])},
            {"s1": TripleSet.of([gold_a, gold_b])},
        )
        assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)

        duplicate = make_triple(s="BOOTH", s_span=(0, 5), o_span=(11, 18))
        report = micro_f1({"s1": TripleSet.of([gold_a, duplicate])},
                          {"s1": TripleSet.of([gold_a])})
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)


# --- 8: annotation budget accounting ---------------------------------------------------

def test_c8_budget_accounting():
    with criterion(8, "relation-starved balance: annotated <= B while checked > B"):
        # ranking is front-loaded with one over-represented relation
        relations = {"x1": ["A"], "x2": ["A"], "x3": ["A"], "x4": ["A"],
                     "x5": ["B"], "x6": ["C"]}
        gold = make_gold_store(relations)
        entries = np.array([[0.1 * (i + 1)] for i in range(6)])
        P = PairwiseDistanceSet(tuple(relations), ("t1",), entries)
        schema = Schema(("T",), ("A", "B", "C"))
        B = 3
        result = select_balance(P, schema, B, gold, u=1)
        assert len(result.chosen) <= B
        assert result.checked_count > B
        assert len(result.chosen) == B
