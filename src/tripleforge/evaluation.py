"""Strict relation F1 and output-cost reporting.

A predicted triple is correct only when its predicate, both entity types,
and both recovered character spans all equal a gold triple's.  Matching is
greedy one-to-one per sample (gold consumed in file order), so duplicated
correct predictions count as false positives rather than inflating TP.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .core import Triple, TripleSet
from .prompting import count_characters


def strict_match(pred: Triple, gold: Triple) -> bool:
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


def _greedy_match(preds: Sequence[Triple], golds: Sequence[Triple]) -> tuple[list[bool], list[bool]]:
    """Greedy one-to-one matching: each prediction consumes the first
    unconsumed gold it strictly matches.  Returns (pred hit flags, gold
    consumed flags)."""
    consumed = [False] * len(golds)
    hits = [False] * len(preds)
    for idx, p in enumerate(preds):
        for k, g in enumerate(golds):
            if not consumed[k] and strict_match(p, g):
                consumed[k] = True
                hits[idx] = True
                break
    return hits, consumed


@dataclass(frozen=True)
class RelationCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    per_relation: dict[str, RelationCounts]
    parse_skipped_rows: int = 0
    unalignable_entities: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_table_text(self) -> str:
        lines = [
            f"precision {self.precision:.4f}",
            f"recall    {self.recall:.4f}",
            f"f1        {self.f1:.4f}",
            f"tp {self.tp}  fp {self.fp}  fn {self.fn}",
            f"parse-skipped rows: {self.parse_skipped_rows}  "
            f"unalignable entities: {self.unalignable_entities}",
        ]
        if self.per_relation:
            width = max(len(r) for r in self.per_relation)
            lines.append("")
            lines.append(f"{'relation'.ljust(width)}  TP  FP  FN")
            for rel, c in sorted(self.per_relation.items()):
                lines.append(f"{rel.ljust(width)}  {c.tp:>2}  {c.fp:>2}  {c.fn:>2}")
        return "\n".join(lines) + "\n"


def _safe_div(num: int, den: int) -> float:
    return num / den if den else 0.0


def micro_f1(predictions: Mapping[str, TripleSet], gold: Mapping[str, TripleSet],
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
        hits, consumed = _greedy_match(preds, golds)
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


@dataclass(frozen=True)
class CostReport:
    """Character statistics over raw model outputs."""

    total_chars: int
    avg_chars: float
    min_chars: int
    max_chars: int
    count: int

    def __post_init__(self) -> None:
        if not self.min_chars <= self.avg_chars <= self.max_chars:
            raise ValueError("cost report requires min <= avg <= max")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_table_text(self) -> str:
        headers = ["# Total", "# Avg.", "# Min.", "# Max."]
        values = [f"{self.total_chars:,}", f"{self.avg_chars:.2f}",
                  str(self.min_chars), str(self.max_chars)]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        header_row = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        value_row = "  ".join(v.ljust(w) for v, w in zip(values, widths))
        return f"{header_row}\n{value_row}\n"


def cost_report(outputs: Sequence[str]) -> CostReport:
    """Build the cost report from one raw output string per test sample."""
    total, avg, mn, mx = count_characters(outputs)
    return CostReport(total_chars=total, avg_chars=avg, min_chars=mn,
                      max_chars=mx, count=len(outputs))
