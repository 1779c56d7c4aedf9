"""Strict relation F1 and output-cost reporting.

A predicted triple is correct only when its strict key, the predicate, both
entity types and both recovered character spans, equals a gold triple's in
the same sample.  A prediction missing a span matches nothing.  The true
positives of a sample are the multiset intersection of its predicted and
gold keys: a key predicted twice and annotated once is one true positive and
one false positive, so duplicated correct predictions never inflate TP.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Triple, TripleSet


def _strict_key(t: Triple) -> tuple:
    return (t.predicate, t.subject_type, t.object_type, t.subject_span, t.object_span)


def _aligned(t: Triple) -> bool:
    return t.subject_span is not None and t.object_span is not None


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

    preds = [(sid, t) for sid, ts in predictions.items() for t in ts]
    golds = [(sid, t) for sid, ts in gold.items() for t in ts]
    hits = (Counter((sid, _strict_key(t)) for sid, t in preds if _aligned(t))
            & Counter((sid, _strict_key(t)) for sid, t in golds))
    tp_by: Counter[str] = Counter()
    for (_sid, key), n in hits.items():
        tp_by[key[0]] += n
    predicted = Counter(t.predicate for _sid, t in preds)
    annotated = Counter(t.predicate for _sid, t in golds)

    tp = sum(tp_by.values())
    fp, fn = len(preds) - tp, len(golds) - tp
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn,
        per_relation={r: RelationCounts(tp=tp_by[r], fp=predicted[r] - tp_by[r],
                                        fn=annotated[r] - tp_by[r])
                      for r in sorted(predicted.keys() | annotated.keys())},
        parse_skipped_rows=parse_skipped_rows,
        unalignable_entities=sum((t.subject_span is None) + (t.object_span is None)
                                 for _sid, t in preds),
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

    def to_table_text(self) -> str:
        headers = ["# Total", "# Avg.", "# Min.", "# Max."]
        values = [f"{self.total_chars:,}", f"{self.avg_chars:.2f}",
                  str(self.min_chars), str(self.max_chars)]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        header_row = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        value_row = "  ".join(v.ljust(w) for v, w in zip(values, widths))
        return f"{header_row}\n{value_row}\n"


def cost_report(outputs: Sequence[str]) -> CostReport:
    """Build the cost report from one raw output string per test sample,
    counting code points.  Raises on an empty list because the average and
    extrema are undefined."""
    if not outputs:
        raise ValueError("cost report requires at least one output")
    lengths = [len(o) for o in outputs]
    total = sum(lengths)
    return CostReport(total_chars=total, avg_chars=total / len(lengths),
                      min_chars=min(lengths), max_chars=max(lengths), count=len(lengths))
