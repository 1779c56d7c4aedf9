import logging

import pytest
from hypothesis import given, settings, strategies as st

from tripleforge.core import Sample, Triple, TripleSet
from tripleforge.evaluation import cost_report
from tripleforge.prompting import (
    CODE_HEADER,
    FEW_SHOT_INSTRUCTION,
    TABLE_HEADER,
    Demonstration,
    ParsedExtraction,
    PromptFormat,
    parse_output,
    render_few_shot,
    render_zero_shot,
    serialize_triples,
)

from conftest import make_triple

NASTY = "ab |\\,:()\"'=x"  # includes every structural character of the grammars

field_text = (
    st.text(alphabet=NASTY, min_size=1, max_size=12)
    .filter(lambda s: s.strip() == s and s)
)


@st.composite
def triple_sets(draw, max_size=4):
    triples = draw(st.lists(
        st.builds(
            Triple,
            predicate=field_text, subject_type=field_text, subject=field_text,
            object_type=field_text, object=field_text,
        ),
        min_size=0, max_size=max_size,
    ))
    return TripleSet.of(triples)


def strip_spans(ts: TripleSet) -> TripleSet:
    return TripleSet.of(
        Triple(predicate=t.predicate, subject_type=t.subject_type, subject=t.subject,
               object_type=t.object_type, object=t.object)
        for t in ts
    )


class TestRenderZeroShot:
    def test_exact_prompt(self):
        prompt = render_zero_shot(Sample("s1", "Booth shot Lincoln."))
        assert prompt == (
            "Extract the relational triples from the sentence below.\n"
            "Booth shot Lincoln.\n"
            "|step|predicate|subject type|subject|object type|object|"
        )

    def test_pipe_in_sentence_not_escaped(self):
        prompt = render_zero_shot(Sample("s1", "a | b"))
        assert prompt.splitlines()[1] == "a | b"

    def test_prompts_differ_only_in_sentence_line(self):
        a = render_zero_shot(Sample("s1", "First sentence .")).splitlines()
        b = render_zero_shot(Sample("s2", "Second sentence .")).splitlines()
        assert a[0] == b[0] and a[2] == b[2] and a[1] != b[1]


class TestSerialize:
    def test_table_row(self):
        ts = TripleSet.of([make_triple()])
        assert serialize_triples(PromptFormat.TABLEIE, ts) == "|1|Kill|Per|Booth|Per|Lincoln|"

    def test_table_pipe_escaped(self):
        ts = TripleSet.of([make_triple(s="A|B")])
        assert r"A\|B" in serialize_triples(PromptFormat.TABLEIE, ts)

    def test_table_steps_are_one_based(self):
        ts = TripleSet.of([make_triple(), make_triple(o="Kennedy")])
        rows = serialize_triples(PromptFormat.TABLEIE, ts).splitlines()
        assert rows[0].startswith("|1|") and rows[1].startswith("|2|")

    def test_text_line(self):
        ts = TripleSet.of([make_triple()])
        assert serialize_triples(PromptFormat.TEXTIE, ts) == "(Per: Booth, Kill, Per: Lincoln)"

    def test_code_block(self):
        ts = TripleSet.of([make_triple()])
        assert serialize_triples(PromptFormat.CODEIE, ts) == (
            "def extract():\n"
            '    triple(predicate="Kill", subject_type="Per", subject="Booth", '
            'object_type="Per", object="Lincoln")'
        )

    @given(triple_sets(max_size=3).filter(lambda ts: len(ts) > 0))
    def test_tableie_strictly_shorter_than_codeie(self, ts):
        table = serialize_triples(PromptFormat.TABLEIE, ts)
        code = serialize_triples(PromptFormat.CODEIE, ts)
        assert len(table) < len(code)


class TestParse:
    def test_single_row(self):
        parsed = parse_output(PromptFormat.TABLEIE, "|1|Kill|Per|Booth|Per|Lincoln|",
                              "Booth shot Lincoln")
        assert len(parsed.triples) == 1 and parsed.skipped_rows == 0
        (t,) = parsed.triples
        assert t.subject_span == (0, 5) and t.object_span == (11, 18)

    def test_wrong_cell_count_skipped_with_reason(self):
        parsed = parse_output(PromptFormat.TABLEIE, "|1|Kill|Per|Booth|", "x")
        assert len(parsed.triples) == 0 and parsed.skipped_rows == 1
        assert "cell count" in parsed.diagnostics[0][1]

    @pytest.mark.parametrize("fmt, raw, reason", [
        (PromptFormat.TABLEIE, "|1| |Per|a|Per|b|",
         "invalid triple: predicate must be non-empty after trimming"),
        (PromptFormat.TEXTIE, "(Per Booth, Kill, Per: Lincoln)",
         "missing 'type: surface' separator"),
    ])
    def test_bad_line_skipped_with_reason(self, fmt, raw, reason):
        parsed = parse_output(fmt, raw, "a b")
        assert len(parsed.triples) == 0 and parsed.diagnostics == ((raw, reason),)

    def test_header_lines_ignored(self):
        raw = TABLE_HEADER + "\n|1|Kill|Per|Booth|Per|Lincoln|\n" + TABLE_HEADER.rstrip("|")
        parsed = parse_output(PromptFormat.TABLEIE, raw, "Booth shot Lincoln")
        assert len(parsed.triples) == 1 and parsed.skipped_rows == 0

    def test_divider_rows_ignored(self):
        raw = "|---|---|---|---|---|---|\n|1|Kill|Per|Booth|Per|Lincoln|"
        parsed = parse_output(PromptFormat.TABLEIE, raw, "x")
        assert len(parsed.triples) == 1 and parsed.skipped_rows == 0

    def test_missing_trailing_pipe_tolerated(self):
        parsed = parse_output(PromptFormat.TABLEIE, "|1|Kill|Per|Booth|Per|Lincoln", "x")
        assert len(parsed.triples) == 1

    def test_chatty_line_recorded(self):
        parsed = parse_output(PromptFormat.TABLEIE, "Here are the triples:", "x")
        assert parsed.skipped_rows == 1 and parsed.triples.triples == ()

    def test_duplicate_rows_deduplicated(self):
        row = "|1|Kill|Per|Booth|Per|Lincoln|"
        parsed = parse_output(PromptFormat.TABLEIE, f"{row}\n{row}", "x")
        assert len(parsed.triples) == 1 and parsed.skipped_rows == 0

    def test_unalignable_entity_gives_missing_span(self):
        parsed = parse_output(PromptFormat.TABLEIE, "|1|Kill|Per|Booth|Per|Lincoln|", "nothing here")
        (t,) = parsed.triples
        assert t.subject_span is None and t.object_span is None

    def test_empty_output_is_valid(self):
        parsed = parse_output(PromptFormat.TEXTIE, "", "x")
        assert isinstance(parsed, ParsedExtraction) and len(parsed.triples) == 0

    @pytest.mark.parametrize("fmt", list(PromptFormat))
    @given(raw=st.text(max_size=200))
    @settings(max_examples=60)
    def test_never_raises_on_fuzz(self, fmt, raw):
        parse_output(fmt, raw, "Booth shot Lincoln")

    @pytest.mark.parametrize("fmt", list(PromptFormat))
    @given(ts=triple_sets())
    @settings(max_examples=120)
    def test_round_trip_identity(self, fmt, ts):
        raw = serialize_triples(fmt, ts)
        parsed = parse_output(fmt, raw, "unrelated sentence")
        assert parsed.skipped_rows == 0
        assert strip_spans(parsed.triples) == ts


def demo(sid, text, triples):
    return Demonstration(sample=Sample(sid, text), gold=TripleSet.of(triples))


def render_prompts(fmt, demos, queries):
    """The full prompts: the shared prefix plus each query's body."""
    prefix, bodies = render_few_shot(fmt, demos, queries)
    return [prefix + body for body in bodies]


class TestRenderFewShot:
    def test_zero_demos_degenerates_to_plural_zero_shot(self):
        query = Sample("q", "Booth shot Lincoln.")
        [prompt] = render_prompts(PromptFormat.TABLEIE, [], [query])
        assert prompt == (
            f"{FEW_SHOT_INSTRUCTION}\nBooth shot Lincoln.\n{TABLE_HEADER}"
        )

    def test_most_similar_demo_adjacent_to_query(self):
        demos = [
            demo("d1", "Far example .", [make_triple()]),
            demo("d2", "Near example .", [make_triple(o="Kennedy")]),
        ]
        [prompt] = render_prompts(PromptFormat.TABLEIE, demos, [Sample("q", "Query .")])
        lines = prompt.splitlines()
        assert lines.index("Near example .") > lines.index("Far example .")
        assert lines[-2] == "Query ."

    def test_header_count_is_demos_plus_one(self):
        demos = [demo(f"d{i}", f"Sentence {i} .", [make_triple()]) for i in range(5)]
        [prompt] = render_prompts(PromptFormat.TABLEIE, demos, [Sample("q", "Query .")])
        assert prompt.count(TABLE_HEADER) == 6

    def test_demos_separated_by_blank_line(self):
        demos = [
            demo("d1", "One .", [make_triple()]),
            demo("d2", "Two .", [make_triple()]),
        ]
        [prompt] = render_prompts(PromptFormat.TEXTIE, demos, [Sample("q", "Query .")])
        assert "(Per: Booth, Kill, Per: Lincoln)\n\nTwo ." in prompt

    def test_codeie_demo_blocks_include_def_header(self):
        demos = [demo("d1", "One .", [make_triple()])]
        [prompt] = render_prompts(PromptFormat.CODEIE, demos, [Sample("q", "Query .")])
        assert prompt.count(CODE_HEADER) == 1
        assert prompt.splitlines()[-1] == "Query ."

    @pytest.mark.parametrize("fmt", list(PromptFormat))
    def test_prefix_is_the_demonstration_block_every_prompt_starts_with(self, fmt):
        demos = [demo("d1", "One .", [make_triple()]),
                 demo("d2", "Two .", [])]
        queries = [Sample("q1", "Query one ."), Sample("q2", "Query two .")]
        prefix, bodies = render_few_shot(fmt, demos, queries)
        assert prefix.startswith(FEW_SHOT_INSTRUCTION + "\nOne .\n")
        assert "Two ." in prefix and prefix.endswith("\n\n")
        suffix = "\n" + TABLE_HEADER if fmt is PromptFormat.TABLEIE else ""
        assert bodies == [q.text + suffix for q in queries]

    def test_byte_deterministic(self):
        demos = [demo("d1", "One .", [make_triple()])]
        query = Sample("q", "Query .")
        assert (render_few_shot(PromptFormat.TABLEIE, demos, [query])
                == render_few_shot(PromptFormat.TABLEIE, demos, [query]))

    def test_empty_gold_warned_once_per_batch(self, caplog):
        demos = [
            demo("d1", "Nothing here .", []),
            demo("d2", "One .", [make_triple()]),
            demo("d3", "Nor here .", []),
        ]
        queries = [Sample(f"q{i}", f"Query {i} .") for i in range(3)]
        with caplog.at_level(logging.WARNING, logger="tripleforge.prompting"):
            _, bodies = render_few_shot(PromptFormat.TABLEIE, demos, queries)
        assert len(bodies) == 3
        assert [r.getMessage() for r in caplog.records] == [
            "demonstration d1 has no gold triples",
            "demonstration d3 has no gold triples",
        ]


class TestCountCharacters:
    """Character counts of raw model outputs, as cost_report computes them:
    (total, average, min, max) over code points."""

    @staticmethod
    def counts(outputs):
        report = cost_report(outputs)
        return (report.total_chars, report.avg_chars, report.min_chars, report.max_chars)

    def test_basic_arithmetic(self):
        assert self.counts(["abc", "de"]) == (5, 2.5, 2, 3)

    def test_single_empty_string(self):
        assert self.counts([""]) == (0, 0.0, 0, 0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            cost_report([])
