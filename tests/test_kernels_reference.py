"""The array kernels against the loop versions they replaced.

The ``reference_*`` functions below are the loop implementations of
``pool_distances``, ``compute_P``, ``_ranked_pool``, ``select_coverage``,
``make_training_pairs``, the parsers' ``_split_unescaped`` and the
per-query ``render_few_shot`` as they were before the array kernels (and the
regex splitter and the batch renderer), the retriever's loss, analytic
gradient and validation loss pair by pair (``reference_batch_loss``,
``batch_grad`` and ``reference_mean_pair_loss``), which ``train`` takes from
the pool's Gram matrix instead, the per-text
``HashingEmbedder.embed`` as it was before the batch embedder, the
parsers' ``_escape`` and ``_unescape`` loops as they were before their
escape-free fast paths and their regex substitutions, and ``LlmGateway.cache_key`` as one ``json.dumps``
of the whole request, before the streamed key with its hashed shared
prefix, and ``save_arrays``'s ``np.savez`` straight into the file,
before every artifact went through ``write_artifact``, and ``core.Triple``,
``TripleSet`` and ``_check_field`` as they were before the slotted classes
and their one checking pass, ``select_balance`` as it was before its one
refill slice, and ``micro_f1`` with ``strict_match`` and ``_greedy_match``
as they were before the multiset count, kept verbatim as oracles apart from
renaming and returning pairs as tuples (``reference_select_balance`` also
reads labels from a gold store, not an annotator, and no longer re-checks its
refill).  The kernels must agree with them
bit for bit: equal float entries, equal chosen ids, covered tests, tie-break
counts and checked ids, equal gold reads and eval reports, equal prompt
strings, parses, cache keys and ``.npz`` bytes, and equal triples, hashes
and error messages; the Gram kernel sums in another order, so it must agree
to 1e-12.
Matrices are built from a few distinct values with duplicated rows and
columns, so that distance and score ties are common.
"""
import hashlib
import json
import logging
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tripleforge import prompting, retriever, similarity
from tripleforge.core import (_LINE_BREAK, DatasetError, Sample, Schema, Span, Triple, TripleSet,
                              load_dataset)
from tripleforge.evaluation import EvalReport, RelationCounts, _safe_div, micro_f1
from tripleforge.gateway import LlmGateway, LlmRequest
from tripleforge.prompting import (
    FEW_SHOT_INSTRUCTION,
    TABLE_HEADER,
    Demonstration,
    PromptFormat,
    _escape,
    _split_unescaped,
    _unescape,
    parse_output,
    render_few_shot,
    serialize_triples,
)
from tripleforge.retriever import (
    PairwiseDistanceSet,
    RetrieverModel,
    TrainConfig,
    _loss_and_grad,
    _radii,
    compute_P,
    make_training_pairs,
    save_checkpoint,
    train,
)
from tripleforge.selection import SelectionResult, _ranked_pool, select_balance, select_coverage
from tripleforge.similarity import (
    HashingEmbedder,
    PoolDistanceMatrix,
    _text_array,
    embed_triple_sets,
    pool_distances,
    set_distance,
    set_distances,
)

from conftest import DATA_DIR, make_gold_store

log = logging.getLogger(__name__)

# every character ``str.splitlines`` breaks at; none lies above U+2029
LINE_BREAK_CHARS = [c for c in map(chr, range(0x202A)) if len(f"a{c}b".splitlines()) == 2]


# --- oracles: the loop versions -------------------------------------------------

def reference_set_distance(zi, zj) -> float:
    a = np.atleast_2d(np.asarray(zi, dtype=np.float64))
    b = np.atleast_2d(np.asarray(zj, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("set distance undefined for empty triple set")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"embedding dim mismatch: {a.shape[1]} vs {b.shape[1]}")
    pairwise = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return float(pairwise.min(axis=1).mean() + pairwise.min(axis=0).mean())


def reference_pool_distances(preextracted, provider) -> PoolDistanceMatrix:
    """All-pairs set distances over the pool, in the mapping's id order."""
    embedded = embed_triple_sets(preextracted, provider)
    ids = list(embedded.keys())
    n = len(ids)
    entries = []  # the strict upper triangle, row by row
    for i in range(n):
        for j in range(i + 1, n):
            d = reference_set_distance(embedded[ids[i]], embedded[ids[j]])
            entries.append(d)
    return PoolDistanceMatrix(sample_ids=tuple(ids), entries=np.array(entries, dtype=np.float64),
                              provider=provider.name)


def reference_embed(text: str, dim: int) -> np.ndarray:
    """Feature-hashed unigram and bigram counts of one text, L2-normalized."""
    vec = np.zeros(dim, dtype=np.float64)
    tokens = text.split()
    grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        index = int.from_bytes(digest[:4], "little") % dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        vec[index] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def reference_compute_P(model, pool_samples, test_samples) -> PairwiseDistanceSet:
    """Project every sample once and take all pool-to-test L2 distances
    (``model.base`` is a ``HashingEmbedder``)."""
    if not pool_samples or not test_samples:
        raise ValueError("both pool and test sets must be non-empty")
    pool = np.stack([model.weights @ reference_embed(s.text, model.base.dim)
                     for s in pool_samples])
    test = np.stack([model.weights @ reference_embed(s.text, model.base.dim)
                     for s in test_samples])
    # cell-by-cell 1-D norms: bitwise identical to the defining single-pair
    # distance, unlike a broadcast axis reduction whose summation order differs
    entries = np.empty((len(pool_samples), len(test_samples)), dtype=np.float64)
    for i in range(entries.shape[0]):
        for j in range(entries.shape[1]):
            entries[i, j] = np.linalg.norm(pool[i] - test[j])
    return PairwiseDistanceSet(
        unlabeled_ids=tuple(s.id for s in pool_samples),
        test_ids=tuple(s.id for s in test_samples),
        entries=entries,
        provider=f"retriever/{model.base.name}",
    )


def reference_ranked_pool(P, u):
    """Global pool order: frequency among per-test u-nearest lists (desc),
    then total distance to the test set (asc), then id (asc)."""
    entries = P.entries
    n, m = entries.shape
    freq = np.zeros(n, dtype=np.int64)
    for j in range(m):
        nearest = sorted(range(n), key=lambda i: (entries[i, j], i))[:u]
        freq[nearest] += 1
    totals = entries.sum(axis=1)
    ranked = sorted(range(n), key=lambda i: (-freq[i], totals[i], P.unlabeled_ids[i]))
    ties = sum(1 for a, b in zip(ranked, ranked[1:]) if freq[a] == freq[b])
    return ranked, freq, ties


def reference_select_coverage(P, B) -> SelectionResult:
    """Greedy coverage: each round scores every live pool row by the sum of
    its ceil(M/B) smallest distances to still-live test columns, picks the
    minimizer, and discards that row plus the test columns it covered.  Stops
    early once every test column is covered."""
    if B < 1:
        raise ValueError("B must be >= 1")
    entries = P.entries
    n, m = P.n, P.m
    block = math.ceil(m / B)  # frozen at loop start
    live_rows = set(range(n))
    live_cols = set(range(m))
    chosen: list[str] = []
    covered: dict[str, tuple[str, ...]] = {}
    ties = 0

    for _ in range(B):
        if not live_cols or not live_rows:
            break
        best_key = None
        best_row = -1
        best_cols: list[int] = []
        tie_seen = False
        for i in sorted(live_rows):
            cols = sorted(live_cols, key=lambda j: (entries[i, j], j))[:block]
            total = float(sum(entries[i, j] for j in cols))
            key = (total, P.unlabeled_ids[i])
            if best_key is None or key < best_key:
                tie_seen = tie_seen or (best_key is not None and key[0] == best_key[0])
                best_key, best_row, best_cols = key, i, cols
            elif key[0] == best_key[0]:
                tie_seen = True
        if tie_seen:
            ties += 1
        sid = P.unlabeled_ids[best_row]
        chosen.append(sid)
        covered[sid] = tuple(P.test_ids[j] for j in best_cols)
        live_rows.discard(best_row)
        live_cols.difference_update(best_cols)

    return SelectionResult(
        strategy="coverage", budget=B, chosen=tuple(chosen),
        checked_ids=tuple(chosen), tie_break_hits=ties,
        covered_tests=covered,
    )


def reference_select_balance(P: PairwiseDistanceSet, schema: Schema, B: int,
                             gold: Mapping[str, TripleSet], u: int = 5) -> SelectionResult:
    """Walk the top-k ranking filling a floor(B/R)-per-relation quota.

    Each candidate costs one check of its gold relation labels;
    it is accepted when any of its relations is still under quota (all of its
    relations' tallies then increment).  Leftover budget is refilled from the
    remaining ranking, so the number of checked samples can exceed B even
    though at most B are annotated.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    quota = B // len(schema.relation_types)
    ranked, _freq, ties = _ranked_pool(P, u)
    ranked_ids = [P.unlabeled_ids[i] for i in ranked]

    tallies: dict[str, int] = {r: 0 for r in schema.relation_types}
    accepted: list[str] = []
    checked: list[str] = []

    def quotas_met() -> bool:
        return all(tallies[r] >= quota for r in schema.relation_types)

    for sid in ranked_ids:
        if quota == 0 or quotas_met() or len(accepted) >= B:
            break
        labels = tuple(sorted({t.predicate for t in gold[sid]}))
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

    chosen = list(accepted)
    chosen_set, checked_set = set(chosen), set(checked)
    for sid in ranked_ids:
        if len(chosen) >= min(B, P.n):
            break
        if sid not in chosen_set:
            if sid not in checked_set:
                checked.append(sid)
                checked_set.add(sid)
            chosen.append(sid)
            chosen_set.add(sid)

    return SelectionResult(
        strategy="balance", budget=B, chosen=tuple(chosen),
        checked_ids=tuple(dict.fromkeys(checked)), tie_break_hits=ties,
        warnings=warnings, per_relation_tallies=tallies,
        quota_shortfall=shortfall,
    )


def reference_make_training_pairs(matrix, validation_fraction, seed):
    """(train, validation, held_out) with pairs as (i, j, target) tuples."""
    n = matrix.n
    rng = random.Random(seed)
    indices = list(range(n))
    rng.shuffle(indices)
    held_count = min(max(1, round(validation_fraction * n)), n - 2)
    held = set(indices[:held_count])
    train = []
    validation = []
    k = 0  # the position of (i, j) in the upper-triangle entries
    for i in range(n):
        for j in range(i + 1, n):
            pair = (i, j, float(matrix.entries[k]))
            k += 1
            (validation if i in held or j in held else train).append(pair)
    return tuple(train), tuple(validation), tuple(sorted(held))


def reference_batch_loss(weights: np.ndarray, diffs: np.ndarray, targets: np.ndarray) -> float:
    """Sum of squared residuals between targets and projected distances."""
    projected = diffs @ weights.T
    radii = np.linalg.norm(projected, axis=1)
    return float(np.sum((targets - radii) ** 2))


def batch_grad(weights: np.ndarray, diffs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Analytic gradient of ``reference_batch_loss`` with respect to the weights."""
    projected = diffs @ weights.T
    radii = np.linalg.norm(projected, axis=1)
    coeff = np.zeros_like(radii)
    safe = radii > 1e-12
    coeff[safe] = 2.0 * (radii[safe] - targets[safe]) / radii[safe]
    return (projected * coeff[:, None]).T @ diffs


def reference_mean_pair_loss(weights: np.ndarray, pairs: np.ndarray, targets: np.ndarray,
                             embeddings: np.ndarray) -> float:
    """Each sample projected on its own, then the whole batch of pair norms."""
    projected = np.stack([weights @ row for row in embeddings])
    radii = np.linalg.norm(projected[pairs[:, 0]] - projected[pairs[:, 1]], axis=1)
    return float(np.sum((targets - radii) ** 2)) / len(pairs)


def reference_split_unescaped(text, sep, maxsplit=-1):
    """Split on an unescaped separator sequence, leaving escapes intact."""
    parts = []
    buf = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            buf.append(text[i:i + 2])
            i += 2
            continue
        if text.startswith(sep, i) and (maxsplit < 0 or len(parts) < maxsplit):
            parts.append("".join(buf))
            buf = []
            i += len(sep)
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts


def reference_escape(text: str, specials: str) -> str:
    out = []
    for ch in text:
        if ch == "\\" or ch in specials:
            out.append("\\")
        out.append(ch)
    return "".join(out)


def reference_unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def reference_cache_key(gateway, request) -> str:
    """SHA-256 over the response-determining request content; stable
    across runs and platforms.  Requests are always greedy and unstopped;
    the two literals keep the keys of existing completion logs."""
    material = json.dumps(
        {
            "provider": gateway.provider.name,
            "model_id": request.model_id,
            "prompt": request.prompt,
            "temperature": 0.0,
            "stop_sequences": [],
        },
        sort_keys=True,
        ensure_ascii=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def reference_render_few_shot(fmt, demos, query) -> str:
    """Compose a few-shot prompt from demonstrations in the order given (the
    last one adjacent to the query)."""
    for d in demos:
        if len(d.gold) == 0:
            log.warning("demonstration %s has no gold triples", d.sample.id)

    parts: list[str] = [FEW_SHOT_INSTRUCTION, "\n"]
    for d in demos:
        parts.append(d.sample.text)
        parts.append("\n")
        if fmt is PromptFormat.TABLEIE:
            parts.append(TABLE_HEADER)
            parts.append("\n")
        serialized = serialize_triples(fmt, d.gold)
        if serialized:
            parts.append(serialized)
            parts.append("\n")
        parts.append("\n")
    parts.append(query.text)
    if fmt is PromptFormat.TABLEIE:
        parts.append("\n")
        parts.append(TABLE_HEADER)
    return "".join(parts)


def reference_strict_match(pred: Triple, gold: Triple) -> bool:
    """Strict criterion: predicate, entity types, and both spans must match.
    A prediction with an unrecovered span can never match."""
    return (
        pred.predicate == gold.predicate
        and pred.subject_type == gold.subject_type
        and pred.object_type == gold.object_type
        and pred.subject_span is not None
        and pred.subject_span == gold.subject_span
        and pred.object_span is not None
        and pred.object_span == gold.object_span
    )


def reference_greedy_match(preds: Sequence[Triple],
                           golds: Sequence[Triple]) -> tuple[list[bool], list[bool]]:
    """Greedy one-to-one matching: each prediction consumes the first
    unconsumed gold it strictly matches.  Returns (pred hit flags, gold
    consumed flags)."""
    consumed = [False] * len(golds)
    hits = [False] * len(preds)
    for idx, p in enumerate(preds):
        for k, g in enumerate(golds):
            if not consumed[k] and reference_strict_match(p, g):
                consumed[k] = True
                hits[idx] = True
                break
    return hits, consumed


def reference_micro_f1(predictions: Mapping[str, TripleSet], gold: Mapping[str, TripleSet],
                       parse_skipped_rows: int = 0) -> EvalReport:
    """Micro-averaged strict P/R/F1 over all samples.

    Every gold sample is scored; samples absent from ``predictions`` count
    all their gold triples as misses.  A prediction for an id not in the
    gold store is an error.
    """
    unknown = [sid for sid in predictions if sid not in gold]
    if unknown:
        raise ValueError(f"predictions for unknown sample ids: {sorted(unknown)[:5]}")

    tp = fp = fn = 0
    unalignable = 0
    per_relation: dict[str, dict[str, int]] = {}

    def rel(r: str) -> dict[str, int]:
        return per_relation.setdefault(r, {"tp": 0, "fp": 0, "fn": 0})

    for sid in gold:
        golds = list(gold[sid])
        preds = list(predictions.get(sid, TripleSet()))
        for p in preds:
            if p.subject_span is None:
                unalignable += 1
            if p.object_span is None:
                unalignable += 1
        hits, consumed = reference_greedy_match(preds, golds)
        for p, hit in zip(preds, hits):
            if hit:
                tp += 1
                rel(p.predicate)["tp"] += 1
            else:
                fp += 1
                rel(p.predicate)["fp"] += 1
        for k, g in enumerate(golds):
            if not consumed[k]:
                fn += 1
                rel(g.predicate)["fn"] += 1

    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn,
        per_relation={r: RelationCounts(**c) for r, c in per_relation.items()},
        parse_skipped_rows=parse_skipped_rows,
        unalignable_entities=unalignable,
    )


# --- inputs with forced ties ----------------------------------------------------

@st.composite
def tied_matrices(draw, max_rows=8, max_cols=10):
    """(n, m) non-negative matrix over a few distinct values, inexact in binary
    so that summation order shows, with some rows and columns duplicated."""
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    levels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(4) * 3.0
    codes = np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)))
    entries = levels[codes].reshape(n, m)
    for _ in range(draw(st.integers(0, 2))):
        entries[draw(st.integers(0, n - 1))] = entries[draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(0, 2))):
        entries[:, draw(st.integers(0, m - 1))] = entries[:, draw(st.integers(0, m - 1))]
    return entries


@st.composite
def distance_sets(draw):
    entries = draw(tied_matrices())
    n, m = entries.shape
    # ids out of row order, so the id tie-break differs from the row tie-break
    pool_ids = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    return PairwiseDistanceSet(tuple(pool_ids), tuple(f"t{j}" for j in range(m)), entries)


@st.composite
def embedding_sets(draw, dim):
    """Embedding sets built from a few rows of small integers and inexact
    floats; sets repeat rows and whole sets repeat, so minima tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.vstack([rng.integers(-2, 3, size=(3, dim)), rng.normal(size=(3, dim))])
    sizes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=6))
    sets = [rows[draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))] for k in sizes]
    return sets + sets[:draw(st.integers(0, 2))]


# --- similarity -------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 20))
def test_set_distances_match_the_pairwise_loop(data, dim):
    A = data.draw(embedding_sets(dim))
    B = data.draw(embedding_sets(dim))
    expected = np.array([[reference_set_distance(a, b) for b in B] for a in A])
    assert np.array_equal(set_distances(A, B), expected)
    assert set_distance(A[0], B[-1]) == expected[0, -1]
    # the same object on both sides is an ordinary rectangle
    assert np.array_equal(set_distances(A, A),
                          np.array([[reference_set_distance(a, b) for b in A] for a in A]))


VOCAB = ["ann", "bob", "works", "for", "acme", "lives", "in", "paris", "kill", "org"]


@st.composite
def embed_batches(draw):
    """Texts with repeated grams, non-ASCII tokens, empty and whitespace-only
    texts and arbitrary strings; whole texts repeat within the batch."""
    words = st.sampled_from(VOCAB + ["Zoë", "東京", "naïve", "α-β"])
    text = st.one_of(st.lists(words, max_size=8).map(" ".join),
                     st.sampled_from(["", " ", "\t \u3000\x1c", "ann ann ann", "ann bob ann bob"]),
                     st.text(max_size=12))
    texts = draw(st.lists(text, max_size=12))
    return texts + draw(st.lists(st.sampled_from(texts), max_size=4)) if texts else texts


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from([1, 7, 64]), texts=embed_batches())
@example(dim=7, texts=[])
@example(dim=1, texts=["", "   ", "a a a", "a a a", "日本 語 日本 語"])
def test_hashing_embed_matches_the_per_text_loop(dim, texts):
    got = HashingEmbedder(dim).embed(texts)
    want = np.stack([reference_embed(t, dim) for t in texts]) if texts else np.zeros((0, dim))
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(texts=st.lists(
    st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(" ".join),
             min_size=1, max_size=9),
    min_size=1, max_size=40))
def test_pool_distances_match_the_loop_version(texts):
    preextracted = {f"s{i}": verbal for i, verbal in enumerate(texts)}
    provider = HashingEmbedder(dim=16)
    got = pool_distances(preextracted, provider)
    want = reference_pool_distances(preextracted, provider)
    assert got.sample_ids == want.sample_ids
    assert np.array_equal(got.entries, want.entries)


@pytest.mark.parametrize("sides, extra", [(0, 0), (0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["0", "1", "2", "side-1", "side", "side+1", "2side+1"])
def test_pool_distances_across_strip_boundaries_match_the_loop_version(sides, extra):
    # a strip is one block run of at most ``side`` embedding rows at dim 64
    n = sides * math.isqrt(similarity._BLOCK_ELEMENTS // 64) + extra
    rng = np.random.default_rng(n)
    preextracted = {f"s{i}": [" ".join(rng.choice(VOCAB, 3)) for _ in range(rng.integers(1, 4))]
                    for i in range(n)}
    provider = HashingEmbedder(dim=64)
    got = pool_distances(preextracted, provider)
    want = reference_pool_distances(preextracted, provider)
    assert got.sample_ids == want.sample_ids
    assert np.array_equal(got.entries, want.entries)


class TableEmbedder:
    """Embeds the text ``"7"`` as row 7 of a fixed table."""

    def __init__(self, table: np.ndarray):
        self.table, self.dim, self.name = table, table.shape[1], "table"

    def embed(self, texts):
        return self.table[[int(t) for t in texts]]


@pytest.mark.parametrize("dim, block", [(1, 1 << 10), (64, 1 << 16)])
def test_distances_across_column_chunks_match_the_loop_version(monkeypatch, dim, block):
    # A block side is 32 rows at both settings.  A run of ten 3-row sets takes
    # B 34 columns at a time, so B's 120 rows (sets of 1, 4 and 7) span four
    # chunks whose edges fall inside sets.  The set of block // dim + 1 rows
    # has a run of its own whose chunks are one column wide.  (At dim 1 the
    # real block would need a 65,537-row set for that, so the block is smaller.)
    monkeypatch.setattr(similarity, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(dim)
    table = np.vstack([rng.integers(-2, 3, size=(20, dim)), rng.normal(size=(20, dim))])
    a_rows = [rng.integers(0, len(table), size) for size in [3] * 25 + [block // dim + 1] + [3] * 5]
    b_rows = [rng.integers(0, len(table), size) for size in [1, 4, 7] * 10]
    A, B = [table[r] for r in a_rows], [table[r] for r in b_rows]
    want = np.array([[reference_set_distance(a, b) for b in B] for a in A])
    assert np.array_equal(set_distances(A, B), want)
    preextracted = {f"s{i}": [str(row) for row in rows] for i, rows in enumerate(a_rows + b_rows)}
    got = pool_distances(preextracted, TableEmbedder(table))
    assert np.array_equal(got.entries,
                          reference_pool_distances(preextracted, TableEmbedder(table)).entries)


def test_pool_distance_cells_equal_set_distance_bitwise():
    rng = np.random.default_rng(7)
    words = VOCAB + ["x", "y", "z"]
    preextracted = {
        f"s{i}": [" ".join(rng.choice(words, 3)) for _ in range(int(rng.integers(1, 12)))]
        for i in range(70)  # more than one strip, so cells from blocks off the diagonal
    }
    provider = HashingEmbedder(dim=64)
    matrix = pool_distances(preextracted, provider)
    embedded = embed_triple_sets(preextracted, provider)
    sets = [embedded[sid] for sid in matrix.sample_ids]
    k = 0
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            assert matrix.entries[k] == set_distance(sets[i], sets[j]) == set_distance(sets[j],
                                                                                        sets[i])
            k += 1
    assert k == len(matrix.entries)


# --- retriever --------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       pool_words=st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12),
       test_words=st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12))
def test_compute_P_matches_the_cell_by_cell_norms(seed, pool_words, test_words):
    base = HashingEmbedder(dim=32)
    rng = np.random.default_rng(seed)
    model = RetrieverModel(base=base, weights=np.eye(32) + 0.3 * rng.normal(size=(32, 32)))
    # one- and two-word sentences repeat, so whole rows and columns repeat
    pool = [Sample(f"p{i}", " ".join(pool_words[i:i + 2])) for i in range(len(pool_words))]
    test = [Sample(f"t{j}", " ".join(test_words[j:j + 2])) for j in range(len(test_words))]
    got = compute_P(model, pool, test)
    want = reference_compute_P(model, pool, test)
    assert (got.unlabeled_ids, got.test_ids, got.provider) == (
        want.unlabeled_ids, want.test_ids, want.provider)
    assert np.array_equal(got.entries, want.entries)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 30), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**16))
def test_training_pairs_match_the_pair_loop(n, fraction, seed):
    points = np.random.default_rng(seed).normal(size=(n, 2))
    entries = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    matrix = PoolDistanceMatrix(tuple(f"s{i}" for i in range(n)),
                                entries[np.triu_indices(n, 1)], "stub")
    got = make_training_pairs(matrix, fraction, seed)
    train, validation, held = reference_make_training_pairs(matrix, fraction, seed)
    assert got.held_out == held
    for pairs, targets, want in ((got.train, got.train_targets, train),
                                 (got.validation, got.validation_targets, validation)):
        assert [(int(i), int(j), float(d)) for (i, j), d in zip(pairs, targets)] == list(want)


def rows_with_repeats(rng: np.random.Generator, n: int, dim: int, distinct: int) -> np.ndarray:
    """``n`` rows drawn from ``distinct`` normal ones, so some rows repeat."""
    return rng.normal(size=(distinct, dim))[rng.integers(0, distinct, size=n)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.integers(1, 16),
       distinct=st.integers(1, 40),
       pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=1,
                      max_size=80))
@example(seed=1, n=6, dim=3, distinct=2, pairs=[(0, 1), (0, 1), (2, 2), (1, 0), (3, 4)])
def test_gram_loss_and_grad_match_the_per_pair_definitions(seed, n, dim, distinct, pairs):
    # any pair list: repeated pairs, (i, i) pairs and pairs of equal rows,
    # which train merges into one row before it takes the Gram matrix
    rng = np.random.default_rng(seed)
    embeddings = rows_with_repeats(rng, n, dim, min(distinct, n))
    pairs = np.array(pairs) % n
    weights = np.eye(dim) + 0.3 * rng.normal(size=(dim, dim))
    targets = 3.0 * rng.random(len(pairs))
    rows, inverse = np.unique(embeddings, axis=0, return_inverse=True)
    projected = rows @ weights.T
    cells = inverse[pairs[:, 0]] * len(rows) + inverse[pairs[:, 1]]
    loss, grad = _loss_and_grad(projected, rows, cells, *_radii(projected, cells), targets)

    diffs = embeddings[pairs[:, 0]] - embeddings[pairs[:, 1]]
    want_loss = reference_batch_loss(weights, diffs, targets)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
    # the summed gradient is relative to its terms' summed magnitudes, since
    # terms of opposite sign may cancel to a far smaller sum (1.4e-12 of the
    # sum's own norm at dim 1)
    projected_diffs = diffs @ weights.T
    radii = np.linalg.norm(projected_diffs, axis=1)
    safe = radii > 1e-12
    coeff = np.zeros_like(radii)
    coeff[safe] = 2.0 * (radii[safe] - targets[safe]) / radii[safe]
    scale = np.linalg.norm(np.abs(projected_diffs * coeff[:, None]).T @ np.abs(diffs))
    assert np.linalg.norm(grad - batch_grad(weights, diffs, targets)) <= 1e-12 * scale


@st.composite
def training_problems(draw):
    """(pairs, embeddings, config) on a pool of 3-40 samples whose embeddings
    are drawn from fewer distinct rows than samples, so some pairs have a zero
    difference and the gradient's zero-radius guard runs."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    embeddings = rows_with_repeats(rng, n, draw(st.integers(1, 8)), draw(st.integers(1, n - 1)))
    points = rng.normal(size=(n, 2))
    entries = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    matrix = PoolDistanceMatrix(tuple(f"s{i}" for i in range(n)),
                                entries[np.triu_indices(n, 1)], "stub")
    seed = draw(st.integers(0, 2**16))
    pairs = make_training_pairs(matrix, draw(st.sampled_from([0.1, 0.3])), seed)
    config = TrainConfig(
        epochs=draw(st.integers(0, 20)),
        learning_rate=draw(st.sampled_from([1e-3, 0.03, 0.5])),
        seed=seed,
        weight_decay=draw(st.sampled_from([0.0, 0.01, 0.3])),
    )
    return pairs, embeddings, config


@settings(max_examples=80, deadline=None)
@given(problem=training_problems())
def test_validation_loss_matches_the_pair_loop(problem):
    # the initial and the best epoch's validation loss, against the loss of
    # the identity and of the returned weights taken pair by pair
    pairs, embeddings, config = problem
    weights, history = train(pairs, embeddings, config)
    best = (history.epochs[history.best_epoch - 1]["validation_loss_mean"]
            if history.best_epoch else history.initial_validation_loss)
    for got, at in ((history.initial_validation_loss, np.eye(embeddings.shape[1])),
                    (best, weights)):
        want = reference_mean_pair_loss(at, pairs.validation, pairs.validation_targets, embeddings)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

# --- parsing ----------------------------------------------------------------------

# the escape character and the grammars' separators, quotes and brackets, so
# that drawn texts often hold escapes and often hold none, and two line breaks,
# which a backslash escapes like any other character
escape_heavy_text = st.lists(
    st.sampled_from(["a", " ", "|", ",", ":", "(", ")", '"', "\\", "\x1c", "\n", "\u2028",
                     ", ", ": "]),
    max_size=16).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=escape_heavy_text,
       sep=st.sampled_from(["|", ", ", ": "]), maxsplit=st.sampled_from([-1, 0, 1, 2]))
@example(text="a, b: c, d", sep=", ", maxsplit=1)
@example(text="a, b: c, d", sep=", ", maxsplit=-1)
def test_split_unescaped_matches_the_character_loop(text, sep, maxsplit):
    assert _split_unescaped(text, sep, maxsplit) == reference_split_unescaped(text, sep, maxsplit)


@settings(max_examples=500, deadline=None)
@given(text=escape_heavy_text, specials=st.sampled_from(["|", ",:()", '"']))
@example(text="plain", specials="|")
@example(text="a\\", specials="|")
def test_escape_and_unescape_match_the_character_loops(text, specials):
    escaped = _escape(text, specials)
    assert escaped == reference_escape(text, specials)
    assert _unescape(text) == reference_unescape(text)
    assert _unescape(escaped) == text


# --- prompting --------------------------------------------------------------------

# every structural character of the three grammars, plus the escape character
# (a triple's fields must be non-blank)
cell_text = st.text(alphabet=st.sampled_from(list("ab |\",:()\\")), min_size=1,
                    max_size=10).filter(str.strip)


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(list(PromptFormat)),
       triples=st.lists(st.builds(Triple, predicate=cell_text, subject_type=cell_text,
                                  subject=cell_text, object_type=cell_text, object=cell_text),
                        max_size=4),
       noise=st.lists(escape_heavy_text, max_size=3))
def test_parse_output_matches_the_character_loops(fmt, triples, noise):
    """Serializing and parsing with the fast paths equals doing both with the
    loop helpers, on random triples plus stray lines; the sentence holds the
    subjects, so that some spans align."""
    ts = TripleSet.of(triples)
    sentence = " ".join(t.subject for t in ts) + " ."
    raw = "\n".join([serialize_triples(fmt, ts), *noise])
    got = parse_output(fmt, raw, sentence)
    with mock.patch.object(prompting, "_split_unescaped", reference_split_unescaped), \
            mock.patch.object(prompting, "_unescape", reference_unescape), \
            mock.patch.object(prompting, "_escape", reference_escape):
        assert "\n".join([serialize_triples(fmt, ts), *noise]) == raw
        want = parse_output(fmt, raw, sentence)
    assert got == want


@st.composite
def demonstration_lists(draw):
    """0-5 demonstrations, some with empty gold."""
    demos = []
    for k in range(draw(st.integers(0, 5))):
        triples = draw(st.lists(st.builds(
            Triple, predicate=cell_text, subject_type=cell_text, subject=cell_text,
            object_type=cell_text, object=cell_text), max_size=3))
        demos.append(Demonstration(Sample(f"d{k}", draw(cell_text)), TripleSet.of(triples)))
    return demos


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(list(PromptFormat)), demos=demonstration_lists(),
       texts=st.lists(cell_text, min_size=1, max_size=5))
def test_batch_render_matches_the_per_query_render(fmt, demos, texts):
    queries = [Sample(f"q{k}", text) for k, text in enumerate(texts)]
    prefix, bodies = render_few_shot(fmt, demos, queries)
    assert [prefix + body for body in bodies] == [
        reference_render_few_shot(fmt, demos, q) for q in queries]
    # the demonstration block is in the prefix alone
    assert all(body.startswith(q.text) for body, q in zip(bodies, queries))


# sha256 of the NUL-joined few-shot prompts for the mini test set, with every
# pool sample as a demonstration; taken from the per-query renderer.  The
# prompt bytes are the gateway's cache keys, so any change here orphans every
# cached response.
MINI_PROMPT_SHA256 = {
    PromptFormat.TABLEIE: "1fe798f0b9b621011dce257505d567df9e2ea4e9f24a19c4e02dbd7fb2e5b4cd",
    PromptFormat.TEXTIE: "b054648097a7e3aa677c18a6a55c7794e08e23abb797c159ef59abf00b44adbf",
    PromptFormat.CODEIE: "3ad97a91f9aa193979cb5f2b5f86e9947c1030cdc51199099b893a535e0279be",
}


def test_mini_fixture_prompt_bytes_pinned():
    pool = load_dataset(DATA_DIR / "train.jsonl")
    test = load_dataset(DATA_DIR / "test.jsonl")
    demos = [Demonstration(s, pool.gold[s.id].triples) for s in pool.samples]
    for fmt, want in MINI_PROMPT_SHA256.items():
        prefix, bodies = render_few_shot(fmt, demos, test.samples)
        prompts = [prefix + body for body in bodies]
        assert len(prompts) == len(test.samples)
        assert hashlib.sha256("\0".join(prompts).encode("utf-8")).hexdigest() == want, fmt


# --- selection --------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(P=distance_sets(), u=st.integers(1, 10))
def test_ranked_pool_matches_the_sorted_loop(P, u):
    ranked, freq, ties = _ranked_pool(P, u)
    want_ranked, want_freq, want_ties = reference_ranked_pool(P, u)
    assert ranked == want_ranked
    assert np.array_equal(freq, want_freq)
    assert ties == want_ties and type(ties) is int


@settings(max_examples=150, deadline=None)
@given(P=distance_sets(), B=st.integers(1, 12))
def test_select_coverage_matches_the_greedy_loop(P, B):
    got = select_coverage(P, B)
    want = reference_select_coverage(P, B)
    assert got.chosen == want.chosen
    assert got.covered_tests == want.covered_tests
    assert got.tie_break_hits == want.tie_break_hits
    assert got.checked_ids == want.checked_ids
    assert got.to_json_dict() == want.to_json_dict()


def test_select_coverage_counts_ties_on_an_all_equal_matrix():
    P = PairwiseDistanceSet(("b", "a", "c"), ("x", "y", "z"), np.ones((3, 3)))
    got, want = select_coverage(P, 2), reference_select_coverage(P, 2)
    assert got == want
    assert got.chosen == ("a", "b") and got.tie_break_hits == 2


def test_select_coverage_sums_scores_left_to_right():
    # Added left to right, row "z" scores 1.4 and row "a" 1.4000000000000001;
    # numpy's pairwise sum gives both 1.4 and would hand the pick to "a".
    entries = np.array([[0.1] * 7 + [0.7], [0.1] * 5 + [0.3] * 3])
    P = PairwiseDistanceSet(("z", "a"), tuple(f"t{j}" for j in range(8)), entries)
    got, want = select_coverage(P, 1), reference_select_coverage(P, 1)
    assert got == want
    assert got.chosen == ("z",) and got.tie_break_hits == 0


class RecordingGold(dict):
    """A gold store that keeps every sample id it is read at, in order."""

    def __init__(self, gold):
        super().__init__(gold)
        self.calls: list[str] = []

    def __getitem__(self, sample_id: str) -> TripleSet:
        self.calls.append(sample_id)
        return super().__getitem__(sample_id)


@st.composite
def balance_problems(draw):
    """A tied distance set, a schema of 1-5 relations, and a gold store
    whose samples carry 0-3 labels, some of them outside the schema."""
    P = draw(distance_sets())
    relations = tuple(f"R{k}" for k in range(draw(st.integers(1, 5))))
    labels = st.lists(st.sampled_from(relations + ("X", "Y")), max_size=3)
    gold = make_gold_store({sid: draw(labels) for sid in P.unlabeled_ids})
    return P, Schema(("T",), relations), gold


def tied_column(n):
    return PairwiseDistanceSet(tuple(f"p{i}" for i in range(n)), ("t",), np.ones((n, 1)))


@settings(max_examples=120, deadline=None)
@given(problem=balance_problems(), B=st.integers(1, 12), u=st.integers(1, 10))
# B below the number of relations: quota 0, the refill alone
@example(problem=(tied_column(4), Schema(("T",), ("A", "B", "C")),
                  make_gold_store({"p0": ["A"], "p1": ["B"], "p2": [], "p3": ["C"]})), B=2, u=1)
# a label outside the schema takes quota room; B larger than the pool
@example(problem=(tied_column(3), Schema(("T",), ("A", "B")),
                  make_gold_store({"p0": ["X"], "p1": ["X", "A"], "p2": ["A"]})), B=9, u=2)
def test_select_balance_matches_the_two_loop_walk(problem, B, u):
    P, schema, gold = problem
    got_gold, want_gold = RecordingGold(gold), RecordingGold(gold)
    got = select_balance(P, schema, B, got_gold, u=u)
    want = reference_select_balance(P, schema, B, want_gold, u=u)
    assert got == want
    assert list(got.per_relation_tallies.items()) == list(want.per_relation_tallies.items())
    assert got_gold.calls == want_gold.calls


# --- evaluation -------------------------------------------------------------------

# Few values per field, so strict keys collide within a sample; gold triples
# may lack spans, as ``micro_f1``'s TripleSet arguments allow.
scored_triples = st.builds(
    Triple, predicate=st.sampled_from(["Kill", "Live_In"]),
    subject_type=st.sampled_from(["Per", "Loc"]), subject=st.sampled_from(["a", "A"]),
    object_type=st.just("Per"), object=st.sampled_from(["b", "B"]),
    subject_span=st.sampled_from([None, (0, 1), (2, 3)]),
    object_span=st.sampled_from([None, (4, 5)]))


@st.composite
def scoring_problems(draw):
    """(predictions, gold) over up to 4 samples.  Some predictions are gold
    triples with another subject surface: the same strict key."""
    gold = {f"s{k}": TripleSet.of(draw(st.lists(scored_triples, max_size=4)))
            for k in range(draw(st.integers(0, 4)))}
    predictions = {}
    for sid in draw(st.lists(st.sampled_from(sorted(gold)), unique=True)) if gold else []:
        resurfaced = [Triple(t.predicate, t.subject_type, draw(st.sampled_from(["a", "A"])),
                             t.object_type, t.object, t.subject_span, t.object_span)
                      for t in gold[sid] if draw(st.booleans())]
        predictions[sid] = TripleSet.of(draw(st.lists(scored_triples, max_size=4)) + resurfaced)
    return predictions, gold


@settings(max_examples=150, deadline=None)
@given(problem=scoring_problems(), skipped=st.integers(0, 3))
# two predictions with one strict key, one gold: one TP, one FP
@example(problem=({"s0": TripleSet.of([Triple("Kill", "Per", "a", "Per", "b", (0, 1), (4, 5)),
                                       Triple("Kill", "Per", "A", "Per", "b", (0, 1), (4, 5))])},
                  {"s0": TripleSet.of([Triple("Kill", "Per", "a", "Per", "b", (0, 1), (4, 5))])}),
         skipped=0)
# a gold triple without spans is matched by nothing, not even its own copy
@example(problem=({"s0": TripleSet.of([Triple("Kill", "Per", "a", "Per", "b")])},
                  {"s0": TripleSet.of([Triple("Kill", "Per", "a", "Per", "b")])}), skipped=1)
def test_micro_f1_matches_the_greedy_match(problem, skipped):
    predictions, gold = problem
    got = micro_f1(predictions, gold, parse_skipped_rows=skipped)
    want = reference_micro_f1(predictions, gold, parse_skipped_rows=skipped)
    assert got == want
    assert got.to_table_text() == want.to_table_text()


# --- cache keys -------------------------------------------------------------------

class NamedProvider:
    """A provider whose name a test can change between keys."""

    def __init__(self, name):
        self.name = name

    def generate(self, request):
        raise AssertionError("cache_key never calls the provider")


# JSON escapes, quotes, control characters, U+2028, non-ASCII, an astral
# character and both halves of a surrogate pair on their own (JSON's
# "\ud800" loads into a str)
key_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é",
                         "\U0001F600", json.loads('"\\ud800"'), "\udfff", "a", " "]),
        st.characters(blacklist_categories=())),
    min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(prompt=key_text)
@example(prompt="Extract the triples.\nBüchner wrote Woyzeck .")
@example(prompt="\U0001F600\U000103FF\u2028\"\\")
def test_cache_key_matches_the_json_body_at_every_split(tmp_path_factory, prompt):
    provider = NamedProvider("mock")
    gw = LlmGateway(provider, tmp_path_factory.mktemp("keys"))
    names, model_ids = ("mock", 'hé"ttp\\'), ("m1", "gpt-é\u2028\"x")
    want = {}
    for name in names:
        provider.name = name
        for model_id in model_ids:
            want[name, model_id] = reference_cache_key(
                gw, LlmRequest(model_id=model_id, prompt=prompt))
    # each prefix is keyed under every name and model in turn, twice over
    for cut in range(len(prompt) + 1):
        for _ in range(2):
            for name in names:
                provider.name = name
                for model_id in model_ids:
                    request = LlmRequest(model_id=model_id, prompt=prompt, prefix=prompt[:cut])
                    assert gw.cache_key(request) == want[name, model_id], (name, model_id, cut)


@settings(max_examples=60, deadline=None)
@given(prompts=st.lists(key_text, min_size=2, max_size=2), cuts=st.lists(
    st.integers(0, 12), min_size=2, max_size=2), order=st.permutations(range(8)))
def test_gateways_sharing_the_key_head_match_the_json_body(tmp_path_factory, prompts, cuts,
                                                           order):
    # the head of a key is cached once for all gateways: two gateways with
    # their own provider names key requests on two prefixes, interleaved
    gateways = [LlmGateway(NamedProvider(name), tmp_path_factory.mktemp("keys"))
                for name in ("mock", 'hé"ttp\\')]
    keyed = [LlmRequest(model_id=model_id, prompt=prompt, prefix=prompt[:cut])
             for prompt, cut in zip(prompts, cuts) for model_id in ("m1", "gpt-é")]
    calls = [(gw, request) for gw in gateways for request in keyed]
    for k in order + order:
        gw, request = calls[k]
        assert gw.cache_key(request) == reference_cache_key(gw, request), (k, request)


# --- numeric artifacts --------------------------------------------------------------

def reference_save_arrays(path, kind: str, **arrays) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, kind=_text_array(kind), **{
            name: _text_array(value) if isinstance(value, (str, list)) else value
            for name, value in arrays.items()})


def artifact_bytes(directory, save, codec) -> bytes:
    """The bytes ``save(path)`` writes with ``codec`` as ``save_arrays``."""
    path = directory / f"{codec.__name__}.npz"
    with mock.patch.object(similarity, "save_arrays", codec), \
            mock.patch.object(retriever, "save_arrays", codec):
        save(path)
    return path.read_bytes()


artifact_ids = st.lists(
    st.text(st.sampled_from(["a", "7", " ", "é", "Ω", "\U0001F600", " ", "-"]), max_size=4),
    unique=True, max_size=5)


@settings(max_examples=60, deadline=None)
@given(ids=artifact_ids, test_ids=artifact_ids, dim=st.integers(1, 4),
       seed=st.integers(0, 2**16), provider=st.sampled_from(["hash-64", "stub-é", ""]))
@example(ids=[], test_ids=[], dim=1, seed=0, provider="hash-64")
@example(ids=[""], test_ids=["", "é"], dim=2, seed=1, provider="hash-é")
@example(ids=["Büchner", "李", "\U0001F600"], test_ids=["ä"], dim=3, seed=2, provider="x")
def test_save_arrays_writes_the_bytes_of_one_savez_to_the_file(tmp_path_factory, ids, test_ids,
                                                                dim, seed, provider):
    rng = np.random.default_rng(seed)
    upper = rng.random((len(ids), len(ids)))[np.triu_indices(len(ids), 1)]
    model = RetrieverModel(HashingEmbedder(dim), rng.standard_normal((dim + 1, dim)))
    artifacts = {
        "pool": PoolDistanceMatrix(ids, upper, provider).save,
        "pairwise": PairwiseDistanceSet(ids, test_ids, rng.random((len(ids), len(test_ids))),
                                        provider).save,
        "checkpoint": lambda path: save_checkpoint(model, path),
    }
    for kind, save in artifacts.items():
        directory = tmp_path_factory.mktemp(kind)
        assert (artifact_bytes(directory, save, similarity.save_arrays)
                == artifact_bytes(directory, save, reference_save_arrays)), kind


# --- triples ----------------------------------------------------------------------

def reference_check_field(name: str, value: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
    stripped = value.strip()
    if not stripped:
        raise ValueError(f"{name} must be non-empty after trimming")
    if _LINE_BREAK.search(stripped):
        raise ValueError(f"{name} must not contain line breaks")
    return stripped


@dataclass(frozen=True)
class ReferenceTriple:
    """One extracted fact: typed subject, predicate, typed object.

    Spans are [start, end) character offsets into the owning sentence and are
    optional; surface fields are stored trimmed.
    """

    predicate: str
    subject_type: str
    subject: str
    object_type: str
    object: str
    subject_span: Optional[Span] = None
    object_span: Optional[Span] = None

    def __post_init__(self) -> None:
        for name in ("predicate", "subject_type", "subject", "object_type", "object"):
            object.__setattr__(self, name, reference_check_field(name, getattr(self, name)))
        for name in ("subject_span", "object_span"):
            span = getattr(self, name)
            if span is None:
                continue
            start, end = span
            # not isinstance: a JSON true or false loads as bool, an int subclass
            if not (type(start) is int and type(end) is int and 0 <= start < end):
                raise ValueError(f"{name} must satisfy 0 <= start < end, got {span}")
            object.__setattr__(self, name, (start, end))

    def validate_spans(self, sentence: str, owner: str = "") -> None:
        """Check that each present span selects exactly the surface string."""
        for span, surface, name in (
            (self.subject_span, self.subject, "subject"),
            (self.object_span, self.object, "object"),
        ):
            if span is None:
                continue
            start, end = span
            if end > len(sentence):
                raise DatasetError(f"{owner}: {name} span {span} exceeds sentence length {len(sentence)}")
            if sentence[start:end] != surface:
                raise DatasetError(
                    f"{owner}: {name} span {span} selects {sentence[start:end]!r}, expected {surface!r}"
                )

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "subject_type": self.subject_type,
            "subject": self.subject,
            "object_type": self.object_type,
            "object": self.object,
            "subject_span": list(self.subject_span) if self.subject_span else None,
            "object_span": list(self.object_span) if self.object_span else None,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ReferenceTriple":
        def span(key: str) -> Optional[Span]:
            value = raw.get(key)
            if value is None:
                return None
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ValueError(f"{key} must be a [start, end] pair, got {value!r}")
            return (value[0], value[1])

        return cls(
            predicate=raw["predicate"],
            subject_type=raw["subject_type"],
            subject=raw["subject"],
            object_type=raw["object_type"],
            object=raw["object"],
            subject_span=span("subject_span"),
            object_span=span("object_span"),
        )


@dataclass(frozen=True)
class ReferenceTripleSet:
    """Ordered, duplicate-free collection of triples (order = extraction order)."""

    triples: tuple[ReferenceTriple, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.triples)) != len(self.triples):
            raise ValueError("TripleSet contains field-for-field duplicate triples")

    @classmethod
    def of(cls, triples: Iterable[ReferenceTriple]) -> "ReferenceTripleSet":
        """Build a TripleSet, dropping exact duplicates while preserving order."""
        return cls(tuple(dict.fromkeys(triples)))

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def to_list(self) -> list[dict]:
        return [t.to_dict() for t in self.triples]

    @classmethod
    def from_list(cls, raw: Sequence[Mapping]) -> "ReferenceTripleSet":
        return cls.of(ReferenceTriple.from_dict(r) for r in raw)


class Text(str):
    """A ``str`` subclass, which the checks accept like a ``str``."""


FIELD_NAMES = ("predicate", "subject_type", "subject", "object_type", "object")
SPAN_NAMES = ("subject_span", "object_span")
# str.strip removes each of these; U+3000 is no line break, but \x1c is
field_edges = st.sampled_from(["", " ", "\t", "\u3000", "\x1c", "\u00a0", "\n", "\u2028", "   "])
field_values = st.one_of(
    st.builds("{}{}{}".format, field_edges,
              st.text(st.sampled_from(["a", "b", " ", "é", "\u3000", "\x00", "\t", "\x1c",
                                       *LINE_BREAK_CHARS]), max_size=4),
              field_edges),
    st.sampled_from(["a", "a ", "a\x1c", "a\x1cb", "a\u3000", "a\u3000b", "", "   ", " \u3000\t",
                     *(f"a{c}b" for c in LINE_BREAK_CHARS)]),
    st.sampled_from(["a", " a\u3000", "a\x1cb", ""]).map(Text),
    st.sampled_from([0, 7, None, b"a", b""]),
)
# mostly fields that pass, so that the later fields and the spans get checked
some_fields = st.tuples(*[st.one_of(*[st.sampled_from(["a", " Kill ", "é b"])] * 3,
                                    field_values)] * 5)
span_values = st.one_of(
    st.none(),
    st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
    st.lists(st.integers(-2, 6), min_size=0, max_size=3),
    st.sampled_from([(True, 5), (0, True), [False, 1], (0.0, 5), (0, 5.0), [1.5, 2.5], 5, 2.0,
                     "ab", (0, "5"), (3, 3), (4, 2), (-1, 2), [0, 2**70]]),
)


def built(make):
    """``to_dict()`` and ``hash`` of what ``make()`` returns, or the type and
    message of what it raises."""
    try:
        triple = make()
    except Exception as exc:  # the comparison is over every exception type
        return type(exc), str(exc)
    return triple.to_dict(), hash(triple)


@settings(max_examples=1500, deadline=None)
@given(fields=some_fields, spans=st.tuples(span_values, span_values))
@example(fields=("a ", "a\x1c", "\u3000a", " a", "a"), spans=((0, 1), [1, 2]))
@example(fields=("a", "b", "a\x1cb", "c", "d"), spans=(None, None))
@example(fields=("a", "b", "c", "d", "e f"), spans=((True, 2), None))
@example(fields=(Text(" a "), "b", "c", "d", "e"), spans=(None, (0, 1)))
def test_triple_matches_the_reference_class(fields, spans):
    got = built(lambda: Triple(*fields, *spans))
    assert got == built(lambda: ReferenceTriple(*fields, *spans))
    keywords = dict(zip(FIELD_NAMES + SPAN_NAMES, fields + spans))
    assert built(lambda: Triple(**keywords)) == got


@settings(max_examples=800, deadline=None)
@given(fields=some_fields, spans=st.tuples(span_values, span_values),
       missing=st.sets(st.sampled_from(FIELD_NAMES + SPAN_NAMES), max_size=2))
@example(fields=("a", "b", "c", "d", "e"), spans=([0, 1, 2], None), missing={"object"})
@example(fields=("a", "b", "c", "d", "e"), spans=(None, 5), missing={"predicate"})
def test_from_dict_matches_the_reference_class(fields, spans, missing):
    raw = {k: v for k, v in zip(FIELD_NAMES + SPAN_NAMES, fields + spans) if k not in missing}
    got = built(lambda: Triple.from_dict(raw))
    assert got == built(lambda: ReferenceTriple.from_dict(raw))
    if missing & set(FIELD_NAMES):
        assert got[0] is KeyError


def test_from_dict_looks_up_every_field_before_it_checks_a_span():
    raw = {"predicate": "a", "subject_type": "b", "subject": "c", "object_type": "d",
           "subject_span": [0, 1, 2]}
    with pytest.raises(KeyError, match="object"):
        Triple.from_dict(raw)
    with pytest.raises(KeyError, match="object"):
        ReferenceTriple.from_dict(raw)


# a few names and spans, so that equal triples are often drawn twice
triple_dicts = st.fixed_dictionaries({
    "predicate": st.sampled_from(["Kill", " Kill", "Work_For"]),
    "subject_type": st.just("Peop"),
    "subject": st.sampled_from(["Booth", "Booth\u3000", "Ann"]),
    "object_type": st.just("Peop"),
    "object": st.sampled_from(["Lincoln", "Lincoln\x1c"]),
    "subject_span": st.sampled_from([None, [0, 5], (0, 5)]),
    "object_span": st.sampled_from([None, [6, 13]]),
})


@settings(max_examples=300, deadline=None)
@given(raws=st.lists(st.one_of(triple_dicts, triple_dicts.map(lambda r: r | {"subject": "a\nb"}),
                               triple_dicts.map(lambda r: {**r, "object_span": [True, 5]})),
                     max_size=8))
def test_triple_sets_match_the_reference_class(raws):
    def listed(make):
        try:
            triple_set = make()
        except Exception as exc:  # the comparison is over every exception type
            return type(exc), str(exc)
        return triple_set.to_list(), [hash(t) for t in triple_set]

    got = listed(lambda: TripleSet.from_list(raws))
    assert got == listed(lambda: ReferenceTripleSet.from_list(raws))
    clean = [r for r in raws if "a\nb" not in r.values() and r["object_span"] != [True, 5]]
    assert (listed(lambda: TripleSet.of(Triple.from_dict(r) for r in clean))
            == listed(lambda: ReferenceTripleSet.of([ReferenceTriple.from_dict(r) for r in clean])))
