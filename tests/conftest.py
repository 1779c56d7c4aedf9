from pathlib import Path

import numpy as np
import pytest

from tripleforge.config import PipelineConfig
from tripleforge.core import GoldAnnotation, Triple, TripleSet, load_dataset

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "conll04_mini"


def make_triple(pred="Kill", st="Per", s="Booth", ot="Per", o="Lincoln",
                s_span=None, o_span=None) -> Triple:
    return Triple(predicate=pred, subject_type=st, subject=s,
                  object_type=ot, object=o, subject_span=s_span, object_span=o_span)


def make_gold_store(relations_by_id: dict[str, list[str]]) -> dict[str, GoldAnnotation]:
    """Minimal gold store: one dummy triple per relation label."""
    store = {}
    for sid, relations in relations_by_id.items():
        triples = [
            Triple(predicate=rel, subject_type="T", subject="a", object_type="T",
                   object="b", subject_span=(0, 1), object_span=(2, 3))
            for rel in relations
        ]
        store[sid] = GoldAnnotation(sample_id=sid, triples=TripleSet.of(triples))
    return store


class StubEmbedder:
    """Embedding provider over a fixed text -> vector table."""

    def __init__(self, table: dict[str, list[float]], name: str = "stub"):
        self._table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        dims = {v.shape[0] for v in self._table.values()}
        assert len(dims) == 1
        self.dim = dims.pop()
        self.name = name

    def embed(self, texts) -> np.ndarray:
        return np.array([self._table[t] for t in texts]).reshape(len(texts), self.dim)


@pytest.fixture(scope="session")
def pool_dataset():
    return load_dataset(DATA_DIR / "train.jsonl", "train")


@pytest.fixture(scope="session")
def test_dataset():
    return load_dataset(DATA_DIR / "test.jsonl", "test")


@pytest.fixture
def run_config(tmp_path):
    def factory(**overrides) -> PipelineConfig:
        defaults = dict(
            pool_path=DATA_DIR / "train.jsonl",
            test_path=DATA_DIR / "test.jsonl",
            run_dir=tmp_path / "run",
            strategy="coverage",
            budget=4,
            epochs=2,
            learning_rate=1e-3,
        )
        defaults.update(overrides)
        return PipelineConfig(**defaults)

    return factory
