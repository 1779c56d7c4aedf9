"""Domain types for relational triple extraction: triples, samples, gold
triple sets and dataset ingestion.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

Span = tuple[int, int]


class DatasetError(ValueError):
    """Raised for malformed dataset files or invariant violations at load time."""


# Every boundary ``str.splitlines`` breaks at.  The prompt grammars parse model
# output with it, so a field holding one cannot round-trip through any of them.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _check_field(name: str, value: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
    stripped = value.strip()
    if not stripped:
        raise ValueError(f"{name} must be non-empty after trimming")
    # every _LINE_BREAK character is unprintable: a printable value skips the
    # regex search, which costs several times as much
    if not stripped.isprintable() and _LINE_BREAK.search(stripped):
        raise ValueError(f"{name} must not contain line breaks")
    return stripped


def _span(name: str, span) -> Optional[Span]:
    if span is None:
        return None
    start, end = span
    # not isinstance: a JSON true or false loads as bool, an int subclass
    if not (type(start) is int and type(end) is int and 0 <= start < end):
        raise ValueError(f"{name} must satisfy 0 <= start < end, got {span}")
    return (start, end)


def _pair(raw: Mapping, key: str):
    value = raw.get(key)
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{key} must be a [start, end] pair, got {value!r}")
    return (value[0], value[1])


@dataclass(frozen=True, init=False, slots=True)
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

    def __init__(self, predicate: str, subject_type: str, subject: str, object_type: str,
                 object: str, subject_span: Optional[Span] = None,
                 object_span: Optional[Span] = None) -> None:
        # every field is checked once, in this order, and set once through
        # its slot's setter (below the class)
        _set_predicate(self, _check_field("predicate", predicate))
        _set_subject_type(self, _check_field("subject_type", subject_type))
        _set_subject(self, _check_field("subject", subject))
        _set_object_type(self, _check_field("object_type", object_type))
        _set_object(self, _check_field("object", object))
        _set_subject_span(self, _span("subject_span", subject_span))
        _set_object_span(self, _span("object_span", object_span))

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
        # a missing key raises KeyError before a bad span raises ValueError
        fields = (raw["predicate"], raw["subject_type"], raw["subject"], raw["object_type"],
                  raw["object"])
        return cls(*fields, _pair(raw, "subject_span"), _pair(raw, "object_span"))


# The slot setters that ``Triple.__init__`` stores through: the frozen class
# refuses ``setattr``, the ``object`` parameter shadows the builtin, and a
# setter call costs about half of one through ``object.__setattr__``.
(_set_predicate, _set_subject_type, _set_subject, _set_object_type, _set_object,
 _set_subject_span, _set_object_span) = (Triple.__dict__[f].__set__ for f in Triple.__slots__)


@dataclass(frozen=True, slots=True)
class TripleSet:
    """Ordered, duplicate-free collection of triples (order = extraction order)."""

    triples: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.triples)) != len(self.triples):
            raise ValueError("TripleSet contains field-for-field duplicate triples")

    @classmethod
    def of(cls, triples: Iterable[Triple]) -> "TripleSet":
        """Build a TripleSet, dropping exact duplicates while preserving order."""
        # dict.fromkeys already leaves no duplicate for __post_init__ to find
        ts = object.__new__(cls)
        object.__setattr__(ts, "triples", tuple(dict.fromkeys(triples)))
        return ts

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
        if not (isinstance(self.id, str) and self.id):
            raise ValueError(f"sample id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.text, str):
            raise ValueError(f"sample {self.id!r}: text must be a string, got {type(self.text).__name__}")
        if not self.text:
            raise ValueError(f"sample {self.id!r}: text must be non-empty")
        if _LINE_BREAK.search(self.text):
            raise ValueError(f"sample {self.id!r}: text must be a single line")


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
    """One loaded split: samples in file order, gold triples by sample id
    (every gold triple carries both spans), label schema.

    ``schema`` is None when the file carries neither labels nor a schema
    header line (a fully unlabeled split).
    """

    samples: list[Sample]
    gold: dict[str, TripleSet]
    schema: Optional[Schema]

    def sample_by_id(self) -> dict[str, Sample]:
        return {s.id: s for s in self.samples}


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


def load_dataset(path: str | Path, _split: object = None) -> Dataset:
    """Load a JSONL file into samples, a validated gold store, and a schema.

    Records: ``{"id", "text", "triples": [...]}``; the ``triples`` key is
    omitted on unlabeled splits.  An optional first record
    ``{"entity_types": [...], "relation_types": [...]}`` declares a schema
    header merged with labels found in the data.

    The file is parsed once per process for as long as its bytes stay the
    same (the four most recently used files are kept); every call returns
    its own ``samples`` list and ``gold`` dict, and a file that fails to
    parse is parsed, and fails, again on the next call.  A second argument
    (the split name of the old ``(path, split)`` form) is ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"dataset file not found: {path}")
    dataset = _parse_dataset(path, path.read_bytes())
    # the containers are the only parts of a parsed Dataset that are not frozen
    return replace(dataset, samples=list(dataset.samples), gold=dict(dataset.gold))


# Keyed on the path and the bytes, not the mtime: every stage loads the pool
# and test files again, and a file rewritten in place is parsed again.
@functools.lru_cache(maxsize=4)
def _parse_dataset(path: Path, data: bytes) -> Dataset:
    """Parse the bytes of the JSONL file ``path``; errors name ``path:lineno``."""
    samples: list[Sample] = []
    gold: dict[str, TripleSet] = {}
    seen_ids: set[str] = set()
    entity_types: set[str] = set()
    relation_types: set[str] = set()
    first_record = True

    # bytes.splitlines breaks at \n, \r and \r\n only, as open() does;
    # str.splitlines would also break at U+2028 inside a JSON string
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from None
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{path}:{lineno}: record must be a JSON object")

        is_header = first_record and "id" not in record and (
            "entity_types" in record or "relation_types" in record
        )
        first_record = False
        if is_header:
            for key, labels in (("entity_types", entity_types),
                                ("relation_types", relation_types)):
                value = record.get(key, [])
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise DatasetError(f"{path}:{lineno}: {key} must be a JSON array of strings")
                labels.update(value)
            continue

        try:
            sample_id = record["id"]
            if type(sample_id) is int:  # not bool
                sample_id = str(sample_id)
            sample = Sample(id=sample_id, text=record["text"])
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
            t.validate_spans(sample.text, owner=f"{path}:{lineno}: sample {sample.id!r}")
            relation_types.add(t.predicate)
            entity_types.update((t.subject_type, t.object_type))
        if any(t.subject_span is None or t.object_span is None for t in triples):
            raise DatasetError(f"{path}:{lineno}: gold triple for {sample.id!r} is missing a span")
        gold[sample.id] = triples

    if not samples:
        raise DatasetError(f"{path}: no samples")

    schema = None
    if entity_types and relation_types:
        schema = Schema(tuple(sorted(entity_types)), tuple(sorted(relation_types)))
    return Dataset(samples=samples, gold=gold, schema=schema)
