"""Prompt rendering and output parsing for three extraction formats.

``tableie`` emits one pipe-delimited row per triple under a fixed header and
is the only format usable zero-shot; ``textie`` and ``codeie`` are few-shot
baseline grammars.  Parsing is lenient: malformed lines are skipped and
recorded, never fatal, because model output is untrusted.
"""
from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass
from typing import Sequence, Union

from .core import Sample, Triple, TripleSet, align_entity_offsets

log = logging.getLogger(__name__)

TABLE_HEADER = "|step|predicate|subject type|subject|object type|object|"
ZERO_SHOT_INSTRUCTION = "Extract the relational triples from the sentence below."
FEW_SHOT_INSTRUCTION = "Extract the relational triples from the sentences below."
CODE_HEADER = "def extract():"


class PromptFormat(enum.Enum):
    TABLEIE = "tableie"
    TEXTIE = "textie"
    CODEIE = "codeie"


@dataclass(frozen=True)
class Demonstration:
    """An annotated in-context example."""

    sample: Sample
    gold: TripleSet


@dataclass(frozen=True)
class ParsedExtraction:
    """Result of parsing raw model output: recovered triples plus skip audit."""

    triples: TripleSet
    diagnostics: tuple[tuple[str, str], ...] = ()

    @property
    def skipped_rows(self) -> int:
        return len(self.diagnostics)


# --- escaping -------------------------------------------------------------
# The serializers escape the backslash plus each grammar's structural
# characters so that any single-line cell content round-trips.  Both
# substitutions take a function: before Python 3.12, ``re`` expands a template
# such as r"\1" in Python code at every match, which is slower.

def _escape(text: str, specials: str) -> str:
    if "\\" not in text and not any(ch in text for ch in specials):
        return text
    return re.sub("[" + re.escape("\\" + specials) + "]", lambda m: "\\" + m[0], text)


# an escape pair; a backslash that ends the text stays as it is
_ESCAPE_PAIR = re.compile(r"\\(.)", re.DOTALL)


def _unescape(text: str) -> str:
    return _ESCAPE_PAIR.sub(lambda m: m[1], text) if "\\" in text else text


def _split_unescaped(text: str, sep: str, maxsplit: int = -1) -> list[str]:
    """Split on an unescaped separator sequence, leaving escapes intact.

    Text without a backslash has no escapes, so ``str.split`` splits it the
    same way.  Otherwise one regex matches escape pairs and separators left
    to right, so the ordinary characters between them cost no Python work."""
    if "\\" not in text:
        return text.split(sep, maxsplit)
    parts: list[str] = []
    start = 0
    for m in re.finditer(r"\\(?s:.)|" + re.escape(sep), text):
        if m.group() == sep and (maxsplit < 0 or len(parts) < maxsplit):
            parts.append(text[start:m.start()])
            start = m.end()
    parts.append(text[start:])
    return parts


# --- serialization --------------------------------------------------------

def _table_row(step: int, t: Triple) -> str:
    cells = (t.predicate, t.subject_type, t.subject, t.object_type, t.object)
    return "|" + "|".join([str(step)] + [_escape(c, "|") for c in cells]) + "|"


def _text_line(t: Triple) -> str:
    st, s, p, ot, o = (
        _escape(t.subject_type, ",:()"),
        _escape(t.subject, ",:()"),
        _escape(t.predicate, ",:()"),
        _escape(t.object_type, ",:()"),
        _escape(t.object, ",:()"),
    )
    return f"({st}: {s}, {p}, {ot}: {o})"


def _code_line(t: Triple) -> str:
    def q(value: str) -> str:
        return '"' + _escape(value, '"') + '"'

    return (f'    triple(predicate={q(t.predicate)}, subject_type={q(t.subject_type)}, '
            f'subject={q(t.subject)}, object_type={q(t.object_type)}, object={q(t.object)})')


def serialize_triples(fmt: PromptFormat, ts: TripleSet) -> str:
    """Serialize a triple set under the given grammar (no table header;
    the codeie block includes its ``def extract():`` opener)."""
    if fmt is PromptFormat.TABLEIE:
        return "\n".join(_table_row(k, t) for k, t in enumerate(ts, start=1))
    if fmt is PromptFormat.TEXTIE:
        return "\n".join(_text_line(t) for t in ts)
    return "\n".join([CODE_HEADER] + [_code_line(t) for t in ts])


# --- parsing --------------------------------------------------------------
# One loop serves all grammars.  A grammar's line reader takes a stripped,
# non-blank line and returns the five fields (predicate, subject type,
# subject, object type, object), None for a line to skip silently, or the
# reason the line is rejected.

Fields = Union[list[str], str, None]


def _is_divider_row(cells: Sequence[str]) -> bool:
    # markdown separator rows like |---|:--:|; never produced by the
    # serializer, whose step cell is always numeric
    return all(c.strip() and set(c.strip()) <= set("-:= ") for c in cells)


def _table_fields(stripped: str) -> Fields:
    if stripped in (TABLE_HEADER, TABLE_HEADER.rstrip("|")):
        return None
    if not stripped.startswith("|"):
        return "not a table row"
    cells = _split_unescaped(stripped[1:], "|")
    if not cells[-1].strip():
        cells.pop()  # the final pipe's empty cell; a missing final pipe is tolerated
    if _is_divider_row(cells):
        return None
    if len(cells) != 6:
        return f"wrong cell count: expected 6, got {len(cells)}"
    return [_unescape(c.strip()) for c in cells[1:]]


def _text_fields(stripped: str) -> Fields:
    if not (stripped.startswith("(") and stripped.endswith(")")):
        return "not a parenthesized triple"
    segments = _split_unescaped(stripped[1:-1], ", ")
    if len(segments) != 3:
        return f"wrong segment count: expected 3, got {len(segments)}"
    subj_part = _split_unescaped(segments[0], ": ", maxsplit=1)
    obj_part = _split_unescaped(segments[2], ": ", maxsplit=1)
    if len(subj_part) != 2 or len(obj_part) != 2:
        return "missing 'type: surface' separator"
    return [_unescape(x) for x in (segments[1], subj_part[0], subj_part[1],
                                   obj_part[0], obj_part[1])]


_QUOTED = r'"((?:[^"\\]|\\.)*)"'

_CODE_ROW = re.compile(
    r"^triple\(predicate=" + _QUOTED
    + r", subject_type=" + _QUOTED
    + r", subject=" + _QUOTED
    + r", object_type=" + _QUOTED
    + r", object=" + _QUOTED + r"\)$"
)


def _code_fields(stripped: str) -> Fields:
    if stripped == CODE_HEADER:
        return None
    m = _CODE_ROW.match(stripped)
    if m is None:
        return "not a triple(...) call"
    return [_unescape(g) for g in m.groups()]


_LINE_READERS = {
    PromptFormat.TABLEIE: _table_fields,
    PromptFormat.TEXTIE: _text_fields,
    PromptFormat.CODEIE: _code_fields,
}


def _triple_from_fields(fields: Sequence[str], sentence: str) -> Triple:
    predicate, subject_type, subject, object_type, obj = fields
    return Triple(
        predicate=predicate,
        subject_type=subject_type,
        subject=subject,
        object_type=object_type,
        object=obj,
        subject_span=align_entity_offsets(sentence, subject.strip()),
        object_span=align_entity_offsets(sentence, obj.strip()),
    )


def parse_output(fmt: PromptFormat, raw: str, sentence: str) -> ParsedExtraction:
    """Parse raw model output against ``sentence``; never raises on bad input."""
    read = _LINE_READERS[fmt]
    triples: list[Triple] = []
    diagnostics: list[tuple[str, str]] = []
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        fields = read(stripped)
        if fields is None:
            continue
        if isinstance(fields, str):
            diagnostics.append((line, fields))
            continue
        try:
            triples.append(_triple_from_fields(fields, sentence))
        except ValueError as exc:
            diagnostics.append((line, f"invalid triple: {exc}"))
    return ParsedExtraction(triples=TripleSet.of(triples), diagnostics=tuple(diagnostics))


# --- prompt assembly ------------------------------------------------------

def render_zero_shot(sample: Sample) -> str:
    """Three-line zero-shot prompt: instruction, sentence, table header."""
    return f"{ZERO_SHOT_INSTRUCTION}\n{sample.text}\n{TABLE_HEADER}"


def render_few_shot(fmt: PromptFormat, demos: Sequence[Demonstration],
                    queries: Sequence[Sample]) -> tuple[str, list[str]]:
    """Compose one few-shot prompt per query from demonstrations in prompt
    order, as ``selection.order_demonstrations`` returns them: the last one
    sits next to the query.  Returns ``(prefix, bodies)``.

    Every query shares the same demonstrations, so the demonstration block
    is checked, warned about and rendered once per batch; it is ``prefix``,
    and a query's prompt is ``prefix + body``, its body being the query text
    and what follows it.  The prompt bytes are the gateway's cache keys and
    must not change."""
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
    prefix = "".join(parts)
    suffix = "\n" + TABLE_HEADER if fmt is PromptFormat.TABLEIE else ""
    return prefix, [query.text + suffix for query in queries]

