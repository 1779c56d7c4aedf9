import copy
import dataclasses
import json
import os
import pickle
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from tripleforge import core
from tripleforge.core import (
    AnnotationOracle,
    DatasetError,
    Sample,
    Triple,
    TripleSet,
    align_entity_offsets,
    load_dataset,
    verbalize_triple,
)

from conftest import DATA_DIR, make_triple

# every character ``str.splitlines`` breaks at; none lies above U+2029
LINE_BREAKS = [c for c in map(chr, range(0x202A)) if len(f"a{c}b".splitlines()) == 2]


class TestTriple:
    def test_fields_are_trimmed(self):
        t = Triple(predicate=" Kill ", subject_type="Per", subject=" Booth ",
                   object_type="Per", object="Lincoln")
        assert t.predicate == "Kill" and t.subject == "Booth"

    @pytest.mark.parametrize("bad", ["", "   ", "\t"])
    def test_empty_field_rejected(self, bad):
        with pytest.raises(ValueError, match="non-empty"):
            make_triple(pred=bad)

    def test_newline_in_field_rejected(self):
        with pytest.raises(ValueError, match="line break"):
            make_triple(s="Boo\nth")

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError, match="start < end"):
            make_triple(s_span=(5, 5))

    def test_span_validation_against_sentence(self):
        t = make_triple(s="Booth", s_span=(0, 5), o="Lincoln", o_span=(11, 18))
        t.validate_spans("Booth shot Lincoln", owner="sample 'x'")
        with pytest.raises(DatasetError, match="sample 'x'"):
            t.validate_spans("Lincoln shot Booth", owner="sample 'x'")

    def test_dict_round_trip(self):
        t = make_triple(s_span=(0, 5), o_span=(11, 18))
        assert Triple.from_dict(t.to_dict()) == t

    @pytest.mark.parametrize("span", [[0, 5.9], [0.0, 5], [True, 5], [0, "5"]])
    def test_from_dict_rejects_non_integer_span_values(self, span):
        raw = make_triple().to_dict() | {"subject_span": span}
        with pytest.raises(ValueError, match="start < end"):
            Triple.from_dict(raw)

    def test_every_line_break_is_unprintable(self):
        # the field check searches for a line break only in unprintable text
        assert LINE_BREAKS and not any(c.isprintable() for c in LINE_BREAKS)
        assert all(core._LINE_BREAK.fullmatch(c) for c in LINE_BREAKS)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        t = make_triple(s_span=(0, 5), o_span=(11, 18))
        back = pickle.loads(pickle.dumps(t, protocol))
        assert back == t and hash(back) == hash(t) and back.subject_span == (0, 5)

    def test_copy_and_deepcopy_are_equal(self):
        t = make_triple(s_span=(0, 5))
        assert copy.copy(t) == t and copy.deepcopy(t) == t

    def test_replace_trims_and_checks_again(self):
        t = make_triple(s_span=(0, 5))
        assert dataclasses.replace(t, subject=" x ") == make_triple(s="x", s_span=(0, 5))
        with pytest.raises(ValueError, match="line break"):
            dataclasses.replace(t, object="a\u2028b")
        with pytest.raises(ValueError, match="start < end"):
            dataclasses.replace(t, object_span=(3, 3))

    @pytest.mark.parametrize("name", ["predicate", "subject", "object", "object_span"])
    def test_fields_cannot_be_assigned(self, name):
        t = make_triple()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, "x")

    def test_slotted_without_instance_dict(self):
        t = make_triple()
        assert not hasattr(t, "__dict__")
        assert Triple.__slots__ == tuple(f.name for f in dataclasses.fields(Triple))


class TestTripleSet:
    def test_of_deduplicates_preserving_order(self):
        a, b = make_triple(), make_triple(o="Kennedy")
        ts = TripleSet.of([a, b, a])
        assert list(ts) == [a, b]

    def test_duplicates_rejected_by_constructor(self):
        a = make_triple()
        with pytest.raises(ValueError, match="duplicate"):
            TripleSet((a, a))

    def test_slotted_set_pickles_and_copies(self):
        ts = TripleSet.of([make_triple(), make_triple(o="Kennedy"), make_triple()])
        assert not hasattr(ts, "__dict__") and len(ts) == 2
        assert pickle.loads(pickle.dumps(ts)) == ts and copy.deepcopy(ts) == ts
        with pytest.raises(dataclasses.FrozenInstanceError):
            ts.triples = ()

    def test_span_difference_is_not_a_duplicate(self):
        a = make_triple(s_span=(0, 5), o_span=(11, 18))
        b = make_triple()
        assert len(TripleSet.of([a, b])) == 2


class TestVerbalize:
    def test_field_order(self):
        assert verbalize_triple(make_triple()) == "Per Booth Kill Per Lincoln"

    def test_internal_spaces_preserved(self):
        t = make_triple(pred="OrgBased_In", st="Loc", s="New York", ot="Org", o="ACME")
        assert verbalize_triple(t) == "Loc New York OrgBased_In Org ACME"

    def test_distinct_on_object_type(self):
        a = make_triple(ot="Per")
        b = make_triple(ot="Loc")
        assert verbalize_triple(a) != verbalize_triple(b)

    @given(st.lists(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
                            min_size=1, max_size=8),
                    min_size=5, max_size=5))
    def test_space_free_fields_recoverable_in_order(self, fields):
        p, st_, s, ot, o = fields
        tokens = verbalize_triple(Triple(predicate=p, subject_type=st_, subject=s,
                                         object_type=ot, object=o)).split(" ")
        assert tokens == [st_, s, p, ot, o]


def _scan_offsets(sentence: str, surface: str):
    # independent oracle: exhaustive position scan, case-sensitive first
    n, m = len(sentence), len(surface)
    for i in range(n - m + 1):
        if sentence[i:i + m] == surface:
            return (i, i + m)
    for i in range(n - m + 1):
        if sentence[i:i + m].lower() == surface.lower():
            return (i, i + m)
    return None


class TestAlignEntityOffsets:
    def test_literal_example(self):
        assert align_entity_offsets("Booth shot Lincoln", "Lincoln") == (11, 18)

    def test_absent(self):
        assert align_entity_offsets("abc", "zzz") is None

    def test_case_sensitive_preferred_over_position(self):
        assert align_entity_offsets("Abc abc", "abc") == (4, 7)

    def test_case_insensitive_fallback(self):
        assert align_entity_offsets("BOOTH shot Lincoln", "booth") == (0, 5)

    @given(st.text(alphabet="aAbB ", max_size=20), st.text(alphabet="aAbB", min_size=1, max_size=4))
    def test_matches_exhaustive_scan(self, sentence, surface):
        assert align_entity_offsets(sentence, surface) == _scan_offsets(sentence, surface)


class TestLoadDataset:
    def test_fixture_sizes_and_order(self, pool_dataset):
        assert len(pool_dataset.samples) == 20
        assert [s.id for s in pool_dataset.samples[:3]] == ["x01", "x02", "x03"]
        assert pool_dataset.schema.relation_types == (
            "Kill", "Live_In", "Located_In", "OrgBased_In", "Work_For")
        assert pool_dataset.schema.entity_types == ("Loc", "Org", "Other", "Per")

    def test_deterministic(self):
        a = load_dataset(DATA_DIR / "train.jsonl", "train")
        b = load_dataset(DATA_DIR / "train.jsonl", "train")
        assert a.samples == b.samples and a.gold == b.gold and a.schema == b.schema

    def test_directory_plus_split(self):
        ds = load_dataset(DATA_DIR, "test")
        assert len(ds.samples) == 8

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "train.jsonl"
        empty.write_text("")
        with pytest.raises(DatasetError, match="no samples"):
            load_dataset(empty, "train")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n{oops\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=":2:"):
            load_dataset(path, "train")

    def test_span_mismatch_names_sample_id(self, tmp_path):
        record = {
            "id": "s9", "text": "Booth shot Lincoln",
            "triples": [{
                "predicate": "Kill", "subject_type": "Per", "subject": "Booth",
                "object_type": "Per", "object": "Lincoln",
                "subject_span": [0, 5], "object_span": [0, 7],
            }],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="s9"):
            load_dataset(path, "train")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(DatasetError, match="duplicate sample id"):
            load_dataset(path, "train")

    def test_duplicate_gold_triples_collapsed(self, tmp_path):
        triple = {
            "predicate": "Kill", "subject_type": "Per", "subject": "Booth",
            "object_type": "Per", "object": "Lincoln",
            "subject_span": [0, 5], "object_span": [11, 18],
        }
        record = {"id": "a", "text": "Booth shot Lincoln", "triples": [triple, dict(triple)]}
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(record) + "\n")
        ds = load_dataset(path, "train")
        assert len(ds.gold["a"].triples) == 1

    def test_unlabeled_split_has_empty_gold_and_no_schema(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text('{"id": "a", "text": "hello there"}\n')
        ds = load_dataset(path, "train")
        assert ds.gold == {} and ds.schema is None

    def test_288_record_file_loads_288_samples(self, tmp_path):
        path = tmp_path / "test.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for k in range(288):
                fh.write(json.dumps({"id": f"r{k}", "text": f"record number {k}"}) + "\n")
        assert len(load_dataset(path, "test").samples) == 288

    @pytest.mark.parametrize("record, message", [
        ('{"id": "a", "text": 123}', "sample 'a': text must be a string, got int"),
        ('{"id": null, "text": "x"}', "sample id must be a non-empty string, got None"),
        ('{"id": true, "text": "x"}', "sample id must be a non-empty string, got True"),
        ('{"id": "", "text": "x"}', "sample id must be a non-empty string"),
        ('["a", "x"]', "record must be a JSON object"),
        ('{"id": "a", "text": "x y", "triples": [{"predicate": "P", "subject_type": "T", '
         '"subject": "x", "object_type": "T", "object": "y"}]}',
         "gold triple for 'a' is missing a span"),
        ('{"id": "a", "text": "abc", "triples": [{"predicate": "P", "subject_type": "T", '
         '"subject": "abc", "object_type": "T", "object": "abcd", "subject_span": [0, 3], '
         '"object_span": [4, 8]}]}',
         r"sample 'a': object span \(4, 8\) exceeds sentence length 3"),
    ])
    def test_bad_record_field_names_line_number(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"bad.jsonl:2: {message}"):
            load_dataset(path, "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="dataset file not found: .*nope.jsonl"):
            load_dataset(tmp_path / "nope.jsonl", "train")

    def test_integer_id_is_kept_as_its_decimal_string(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"id": 7, "text": "seven"}\n{"id": "8", "text": "eight"}\n')
        assert [s.id for s in load_dataset(path, "train").samples] == ["7", "8"]

    def test_invalid_utf8_names_line_number(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "a", "text": "ok"}\r\n\r{"id": "b", "text": "caf\xe9"}\n')
        with pytest.raises(DatasetError, match="latin1.jsonl:3: not valid UTF-8"):
            load_dataset(path, "train")

    def test_gold_span_values_are_not_coerced(self, tmp_path):
        # int() would load [0, 5.9] as (0, 5), a span that selects "Booth"
        triple = {
            "predicate": "Kill", "subject_type": "Per", "subject": "Booth",
            "object_type": "Per", "object": "Lincoln",
            "subject_span": [0, 5.9], "object_span": [11, 18],
        }
        path = tmp_path / "float.jsonl"
        path.write_text(json.dumps({"id": "a", "text": "Booth shot Lincoln", "triples": [triple]}))
        with pytest.raises(DatasetError, match="float.jsonl:1: sample 'a': bad triple"):
            load_dataset(path, "train")

    def test_schema_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "train.jsonl"
        header = {"entity_types": ["Per", "Loc"], "relation_types": ["Live_In"]}
        path.write_text("\n  \n" + json.dumps(header) + '\n{"id": "a", "text": "x"}\n')
        ds = load_dataset(path, "train")
        assert ds.schema is not None and ds.schema.entity_types == ("Loc", "Per")
        assert [s.id for s in ds.samples] == ["a"]

    def test_schema_header_only_as_first_record(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"entity_types": ["Per"]}\n')
        with pytest.raises(DatasetError, match=":2: record missing 'id'"):
            load_dataset(path, "train")

    @pytest.mark.parametrize("key, labels", [
        ("relation_types", "Kill"),  # a string would become the labels K, i, l
        ("entity_types", [["Per"]]),
        ("entity_types", [1, "Per"]),
    ], ids=["string", "nested-list", "number"])
    def test_schema_header_labels_must_be_an_array_of_strings(self, tmp_path, key, labels):
        path = tmp_path / "hdr.jsonl"
        header = {"entity_types": ["Per"], "relation_types": ["Kill"], key: labels}
        path.write_text("\n" + json.dumps(header) + '\n{"id": "a", "text": "x"}\n')
        with pytest.raises(DatasetError, match=f"hdr.jsonl:2: {key} must be a JSON array of strings"):
            load_dataset(path, "train")

    def test_lines_split_as_open_splits_them(self, tmp_path):
        # \r\n and a lone \r end a line; U+2028 inside a JSON string (here in
        # a field the loader ignores) does not
        path = tmp_path / "mixed.jsonl"
        path.write_bytes('{"id": "a", "text": "one", "note": "x\u2028y"}\r\n'
                         '{"id": "b", "text": "three"}\r{"id": "c", "text": "four"}'
                         .encode("utf-8"))
        ds = load_dataset(path, "train")
        assert [(s.id, s.text) for s in ds.samples] == [
            ("a", "one"), ("b", "three"), ("c", "four")]

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_line_break_in_a_triple_surface_names_line_number(self, tmp_path, brk):
        triple = {"predicate": "Kill", "subject_type": "Per", "subject": f"Ann{brk}Lee",
                  "object_type": "Per", "object": "Bob"}
        record = {"id": "a", "text": "Ann Lee shot Bob", "triples": [triple]}
        path = tmp_path / "brk.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n' + json.dumps(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(DatasetError, match="brk.jsonl:2: sample 'a': bad triple: "
                                               "subject must not contain line breaks"):
            load_dataset(path, "train")

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_line_break_in_a_sentence_names_line_number(self, tmp_path, brk):
        path = tmp_path / "brk.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n'
                        + json.dumps({"id": "a", "text": f"one{brk}two"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DatasetError, match="brk.jsonl:2: sample 'a': text must be a single line"):
            load_dataset(path, "train")

    def test_gold_spans_checked_bidirectionally(self, pool_dataset):
        by_id = pool_dataset.sample_by_id()
        for sid, ann in pool_dataset.gold.items():
            text = by_id[sid].text
            for t in ann.triples:
                assert text[slice(*t.subject_span)] == t.subject
                assert text[slice(*t.object_span)] == t.object


@pytest.fixture
def parses(monkeypatch):
    """An empty parse memo for the test, and the file name of every parse."""
    names = []
    parse = core._parse_dataset

    def counting(path, split, data):
        names.append(path.name)
        return parse(path, split, data)

    monkeypatch.setattr(core, "_PARSED", OrderedDict())
    monkeypatch.setattr(core, "_parse_dataset", counting)
    return names


class TestLoadDatasetMemo:
    def test_unchanged_bytes_are_parsed_once(self, parses):
        a = load_dataset(DATA_DIR, "train")
        b = load_dataset(DATA_DIR, "train")
        assert a.samples == b.samples and a.gold == b.gold and a.schema == b.schema
        assert a.split == b.split == "train"
        assert parses == ["train.jsonl"]

    def test_split_is_part_of_the_key(self, parses):
        assert load_dataset(DATA_DIR / "test.jsonl", "test").split == "test"
        assert load_dataset(DATA_DIR / "test.jsonl", "valid").split == "valid"
        assert parses == ["test.jsonl", "test.jsonl"]

    def test_rewrite_with_same_size_and_mtime_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": "a", "text": "alpha"}\n')
        stat = path.stat()
        assert [s.text for s in load_dataset(path).samples] == ["alpha"]
        path.write_text('{"id": "a", "text": "gamma"}\n')
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert [s.text for s in load_dataset(path).samples] == ["gamma"]
        assert len(parses) == 2

    def test_errors_are_not_kept(self, tmp_path, parses):
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{oops\n')
        for _ in range(2):
            with pytest.raises(DatasetError, match=":2: malformed JSON"):
                load_dataset(path)
        path.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n')
        assert [s.id for s in load_dataset(path).samples] == ["a", "b"]
        assert len(parses) == 3

    def test_each_load_returns_its_own_containers(self, parses):
        first = load_dataset(DATA_DIR, "train")
        removed = first.samples.pop()
        first.samples.clear()
        first.gold.clear()
        again = load_dataset(DATA_DIR, "train")
        assert len(again.samples) == 20 and again.samples[-1] == removed
        assert len(again.gold) == 20
        assert parses == ["train.jsonl"]

    def test_same_bytes_at_two_paths_are_two_entries(self, tmp_path, parses):
        data = b'{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n'
        for name in ("one.jsonl", "two.jsonl", "one.jsonl"):
            (tmp_path / name).write_bytes(data)
            with pytest.raises(DatasetError, match=f"{name}:2: duplicate sample id"):
                load_dataset(tmp_path / name)
        data = b'{"id": "a", "text": "x"}\n'
        for name in ("one.jsonl", "two.jsonl", "one.jsonl", "two.jsonl"):
            (tmp_path / name).write_bytes(data)
            assert [s.id for s in load_dataset(tmp_path / name).samples] == ["a"]
        assert parses[3:] == ["one.jsonl", "two.jsonl"]

    def test_keeps_the_four_most_recently_used_files(self, tmp_path, parses):
        paths = [tmp_path / f"f{k}.jsonl" for k in range(5)]
        for k, path in enumerate(paths):
            path.write_text(json.dumps({"id": "a", "text": f"file {k}"}))
        for k in (0, 1, 2, 3, 0, 4, 0, 1):
            load_dataset(paths[k])
        # f0 was used again before f4 arrived, so f4 pushed out f1
        assert parses == ["f0.jsonl", "f1.jsonl", "f2.jsonl", "f3.jsonl", "f4.jsonl", "f1.jsonl"]
        assert len(core._PARSED) == 4


class TestAnnotationOracle:
    def make(self, pool_dataset):
        return AnnotationOracle(pool_dataset.gold)

    def test_check_then_annotate_same_id(self, pool_dataset):
        oracle = self.make(pool_dataset)
        labels = oracle.check("x01")
        assert labels == ("Kill",)
        oracle.annotate("x01")
        assert oracle.checked_count == 1 and oracle.annotated_count == 1

    def test_check_many_annotate_fewer(self, pool_dataset):
        oracle = self.make(pool_dataset)
        ids = [s.id for s in pool_dataset.samples]
        for sid in ids:
            oracle.check(sid)
        for sid in ids[:15]:
            oracle.annotate(sid)
        assert oracle.checked_count == 20 and oracle.annotated_count == 15

    def test_annotate_without_check_enters_both_sets(self, pool_dataset):
        oracle = self.make(pool_dataset)
        oracle.annotate("x02")
        assert oracle.checked_count == 1 and oracle.annotated_count == 1

    def test_idempotent_and_monotone(self, pool_dataset):
        oracle = self.make(pool_dataset)
        for _ in range(3):
            oracle.check("x01")
            oracle.annotate("x01")
            assert oracle.checked_count == 1 and oracle.annotated_count == 1

    def test_unknown_id(self, pool_dataset):
        oracle = self.make(pool_dataset)
        with pytest.raises(KeyError, match="unknown sample id"):
            oracle.check("nope")
        with pytest.raises(KeyError, match="unknown sample id"):
            oracle.annotate("nope")
