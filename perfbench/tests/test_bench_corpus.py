import json

import pytest

import corpus
from tripleforge.core import load_dataset


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    a = corpus.generate(tmp_path / "a", seed=7, pool_size=60, test_size=30)
    b = corpus.generate(tmp_path / "b", seed=7, pool_size=60, test_size=30)
    c = corpus.generate(tmp_path / "c", seed=8, pool_size=60, test_size=30)
    for split in ("pool_path", "test_path"):
        assert getattr(a, split).read_bytes() == getattr(b, split).read_bytes()
        assert getattr(a, split).read_bytes() != getattr(c, split).read_bytes()
    assert a.duplicate_share == b.duplicate_share


def test_every_surface_occurs_once_and_spans_align(tmp_path):
    generated = corpus.generate(tmp_path, seed=3, pool_size=300, test_size=100)
    for path, split in ((generated.pool_path, "train"), (generated.test_path, "test")):
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        for record in records:
            text = record["text"]
            assert 1 <= len(record["triples"]) <= 3
            for triple in record["triples"]:
                for role in ("subject", "object"):
                    assert text.count(triple[role]) == 1
                    start, end = triple[f"{role}_span"]
                    assert text[start:end] == triple[role]
        dataset = load_dataset(path, split)
        assert len(dataset.samples) == len(records)
        assert dataset.schema.relation_types == tuple(corpus.HEADER["relation_types"])


def test_span_rejects_a_repeated_surface():
    with pytest.raises(ValueError):
        corpus.span("Oslo lies in Norway , and Oslo is cold .", "Oslo")
