"""Domain types for relational triple extraction: triples, samples, gold
annotations, dataset ingestion, and the annotation oracle that reveals gold
labels on demand while auditing how many samples were checked vs annotated.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

Span = tuple[int, int]


class DatasetError(ValueError):
    """Raised for malformed dataset files or invariant violations at load time."""


def _check_field(name: str, value: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
    stripped = value.strip()
    if not stripped:
        raise ValueError(f"{name} must be non-empty after trimming")
    if "\n" in stripped or "\r" in stripped:
        # all prompt grammars are line-based; a field spanning lines cannot
        # round-trip through any of them
        raise ValueError(f"{name} must not contain line breaks")
    return stripped


@dataclass(frozen=True)
class Triple:
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
            object.__setattr__(self, name, _check_field(name, getattr(self, name)))
        for name in ("subject_span", "object_span"):
            span = getattr(self, name)
            if span is None:
                continue
            start, end = span
            if not (isinstance(start, int) and isinstance(end, int) and 0 <= start < end):
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
    def from_dict(cls, raw: Mapping) -> "Triple":
        def span(key: str) -> Optional[Span]:
            value = raw.get(key)
            if value is None:
                return None
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ValueError(f"{key} must be a [start, end] pair, got {value!r}")
            return (int(value[0]), int(value[1]))

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
class TripleSet:
    """Ordered, duplicate-free collection of triples (order = extraction order)."""

    triples: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.triples)) != len(self.triples):
            raise ValueError("TripleSet contains field-for-field duplicate triples")

    @classmethod
    def of(cls, triples: Iterable[Triple]) -> "TripleSet":
        """Build a TripleSet, dropping exact duplicates while preserving order."""
        return cls(tuple(dict.fromkeys(triples)))

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def to_list(self) -> list[dict]:
        return [t.to_dict() for t in self.triples]

    @classmethod
    def from_list(cls, raw: Sequence[Mapping]) -> "TripleSet":
        return cls.of(Triple.from_dict(r) for r in raw)


@dataclass(frozen=True)
class Sample:
    """A raw sentence with a stable identifier."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not self.text:
            raise ValueError(f"sample {self.id!r}: text must be non-empty")
        if "\n" in self.text or "\r" in self.text:
            raise ValueError(f"sample {self.id!r}: text must be a single line")


@dataclass(frozen=True)
class GoldAnnotation:
    """Gold triples for one sample; every triple carries both spans."""

    sample_id: str
    triples: TripleSet

    def __post_init__(self) -> None:
        for t in self.triples:
            if t.subject_span is None or t.object_span is None:
                raise ValueError(f"gold triple for {self.sample_id!r} is missing a span")

    def relation_labels(self) -> tuple[str, ...]:
        return tuple(sorted({t.predicate for t in self.triples}))


@dataclass(frozen=True)
class Schema:
    """Entity-type and relation-type label inventory of a dataset."""

    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]

    def __post_init__(self) -> None:
        for name, labels in (("entity_types", self.entity_types), ("relation_types", self.relation_types)):
            if not labels:
                raise ValueError(f"schema {name} must be non-empty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"schema {name} contains duplicates")


@dataclass
class Dataset:
    """One loaded split: samples in file order, gold by sample id, label schema.

    ``schema`` is None when the file carries neither labels nor a schema
    header line (a fully unlabeled split).
    """

    split: str
    samples: list[Sample]
    gold: dict[str, GoldAnnotation]
    schema: Optional[Schema]

    def sample_by_id(self) -> dict[str, Sample]:
        return {s.id: s for s in self.samples}

    def gold_triples(self) -> dict[str, TripleSet]:
        return {sid: ann.triples for sid, ann in self.gold.items()}


def verbalize_triple(t: Triple) -> str:
    """Render a triple as the flat string ``subject_type subject predicate
    object_type object`` used as embedding input."""
    return " ".join((t.subject_type, t.subject, t.predicate, t.object_type, t.object))


def align_entity_offsets(sentence: str, surface: str) -> Optional[Span]:
    """Locate ``surface`` in ``sentence``: first case-sensitive occurrence,
    falling back to the first case-insensitive one; None when absent."""
    if not surface:
        return None
    idx = sentence.find(surface)
    if idx >= 0:
        return (idx, idx + len(surface))
    m = re.search(re.escape(surface), sentence, flags=re.IGNORECASE)
    if m is not None:
        return (m.start(), m.end())
    return None


class AnnotationOracle:
    """Simulated human annotator over a hidden gold store.

    ``check`` reveals only which relation labels a sample carries (cheap
    inspection); ``annotate`` reveals the full gold triples.  Both are
    idempotent on the audit sets and annotated ids are always a subset of
    checked ids.
    """

    def __init__(self, gold: Mapping[str, GoldAnnotation]):
        self._gold = dict(gold)
        self._checked: set[str] = set()
        self._annotated: set[str] = set()

    @property
    def checked_ids(self) -> frozenset[str]:
        return frozenset(self._checked)

    @property
    def annotated_ids(self) -> frozenset[str]:
        return frozenset(self._annotated)

    @property
    def checked_count(self) -> int:
        return len(self._checked)

    @property
    def annotated_count(self) -> int:
        return len(self._annotated)

    def _require(self, sample_id: str) -> GoldAnnotation:
        try:
            return self._gold[sample_id]
        except KeyError:
            raise KeyError(f"unknown sample id {sample_id!r} in annotation oracle") from None

    def check(self, sample_id: str) -> tuple[str, ...]:
        ann = self._require(sample_id)
        self._checked.add(sample_id)
        return ann.relation_labels()

    def annotate(self, sample_id: str) -> GoldAnnotation:
        ann = self._require(sample_id)
        self._checked.add(sample_id)
        self._annotated.add(sample_id)
        return ann


_SPLITS = ("train", "valid", "test")


def load_dataset(path: str | Path, split: str = "train") -> Dataset:
    """Load a JSONL split into samples, a validated gold store, and a schema.

    ``path`` may be the JSONL file itself or a directory containing
    ``<split>.jsonl``.  Records: ``{"id", "text", "triples": [...]}``; the
    ``triples`` key is omitted on unlabeled splits.  An optional first line
    ``{"entity_types": [...], "relation_types": [...]}`` declares a schema
    header merged with labels found in the data.
    """
    if split not in _SPLITS:
        raise DatasetError(f"unknown split {split!r}, expected one of {_SPLITS}")
    path = Path(path)
    if path.is_dir():
        path = path / f"{split}.jsonl"
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")

    samples: list[Sample] = []
    gold: dict[str, GoldAnnotation] = {}
    seen_ids: set[str] = set()
    entity_types: list[str] = []
    relation_types: list[str] = []

    def note_label(pool: list[str], label: str) -> None:
        if label not in pool:
            pool.append(label)

    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise DatasetError(f"{path}:{lineno}: record must be a JSON object")

            if lineno == 1 and "id" not in record and (
                "entity_types" in record or "relation_types" in record
            ):
                for label in record.get("entity_types", []):
                    note_label(entity_types, label)
                for label in record.get("relation_types", []):
                    note_label(relation_types, label)
                continue

            try:
                sample = Sample(id=str(record["id"]), text=record["text"])
            except KeyError as exc:
                raise DatasetError(f"{path}:{lineno}: record missing {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
            if sample.id in seen_ids:
                raise DatasetError(f"{path}:{lineno}: duplicate sample id {sample.id!r}")
            seen_ids.add(sample.id)
            samples.append(sample)

            if "triples" not in record:
                continue
            try:
                triples = TripleSet.from_list(record["triples"])
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetError(f"{path}:{lineno}: sample {sample.id!r}: bad triple: {exc}") from exc
            for t in triples:
                t.validate_spans(sample.text, owner=f"sample {sample.id!r}")
                note_label(relation_types, t.predicate)
                note_label(entity_types, t.subject_type)
                note_label(entity_types, t.object_type)
            try:
                gold[sample.id] = GoldAnnotation(sample_id=sample.id, triples=triples)
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc

    if not samples:
        raise DatasetError(f"{path}: no samples")

    schema = None
    if entity_types and relation_types:
        schema = Schema(tuple(sorted(entity_types)), tuple(sorted(relation_types)))
    return Dataset(split=split, samples=samples, gold=gold, schema=schema)
