import json
import math
import time
import tracemalloc
import zipfile

import numpy as np
import pytest
import requests
from hypothesis import HealthCheck, given, settings, strategies as st

from tripleforge import similarity
from tripleforge.gateway import GatewayError, TransientProviderError
from tripleforge.retriever import make_training_pairs
from tripleforge.similarity import (
    HTTP_EMBED_CHUNK,
    PAIRWISE_KIND,
    POOL_KIND,
    HashingEmbedder,
    HttpEmbeddingProvider,
    PairwiseDistanceSet,
    PoolDistanceMatrix,
    embed_triple_sets,
    pool_distances,
    set_distance,
    set_distances,
)

from conftest import StubEmbedder

vectors = st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=2)
vector_sets = st.lists(vectors, min_size=1, max_size=4)


def brute_force_set_distance(zi, zj):
    # literal two-directional mean-of-minima, written with loops
    def directed(a_set, b_set):
        total = 0.0
        for a in a_set:
            total += min(float(np.linalg.norm(np.asarray(a) - np.asarray(b))) for b in b_set)
        return total / len(a_set)

    return directed(zi, zj) + directed(zj, zi)


class TestSetDistance:
    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            set_distance([np.zeros(2)], [np.zeros(3)])

    def test_identical_sets_zero(self):
        z = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert set_distance(z, z) == 0.0

    def test_hand_computed_fixture(self):
        # one singleton vs a pair at distances 1 and 3: 1*1 + (1+3)/2 = 3
        a, b, c = np.array([0.0]), np.array([1.0]), np.array([3.0])
        assert set_distance([a], [b, c]) == pytest.approx(3.0, abs=1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty triple set"):
            set_distance([], [np.zeros(2)])
        with pytest.raises(ValueError, match="empty triple set"):
            set_distance([np.zeros(2)], [])

    @given(vector_sets, vector_sets)
    @settings(max_examples=80)
    def test_symmetric(self, zi, zj):
        assert set_distance(zi, zj) == pytest.approx(set_distance(zj, zi), abs=1e-9)

    @given(vector_sets, vector_sets)
    @settings(max_examples=80)
    def test_matches_brute_force(self, zi, zj):
        assert set_distance(zi, zj) == pytest.approx(brute_force_set_distance(zi, zj), abs=1e-9)

    @given(vector_sets, vector_sets, st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_permutation_invariant(self, zi, zj, rand):
        zi2, zj2 = list(zi), list(zj)
        rand.shuffle(zi2)
        rand.shuffle(zj2)
        assert set_distance(zi, zj) == pytest.approx(set_distance(zi2, zj2), abs=1e-9)

    def test_non_negative(self):
        zi = [np.array([0.0, 1.0])]
        zj = [np.array([5.0, -2.0]), np.array([1.0, 1.0])]
        assert set_distance(zi, zj) >= 0


class TestHashingEmbedder:
    def test_deterministic_and_normalized(self):
        emb = HashingEmbedder(dim=64)
        text = "Per Booth Kill Per Lincoln"
        (a,), (b,) = emb.embed([text]), emb.embed([text])
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert a.shape == (64,)

    def test_different_texts_differ(self):
        emb = HashingEmbedder(dim=64)
        a, b = emb.embed(["alpha beta", "gamma delta"])
        assert not np.array_equal(a, b)

    def test_bigrams_make_order_matter(self):
        emb = HashingEmbedder(dim=64)
        a, b = emb.embed(["a b c", "c b a"])
        assert not np.array_equal(a, b)


def square_of(matrix: PoolDistanceMatrix) -> np.ndarray:
    """The n x n square of a pool matrix's upper-triangle entries."""
    square = np.zeros((matrix.n, matrix.n))
    square[np.triu_indices(matrix.n, 1)] = matrix.entries
    return square + square.T


class TestPoolDistances:
    def fixture_provider(self):
        return StubEmbedder({
            "u": [0.0, 0.0], "v": [1.0, 0.0], "w": [0.0, 2.0], "z": [3.0, 4.0],
        })

    def test_single_sample_zero_matrix(self):
        matrix = pool_distances({"s1": ["u"]}, self.fixture_provider())
        assert matrix.n == 1 and matrix.entries.shape == (0,)  # no pair above the diagonal

    def test_matches_hand_computation(self):
        provider = self.fixture_provider()
        pre = {"a": ["u", "v"], "b": ["w"], "c": ["z"]}
        matrix = pool_distances(pre, provider)
        embedded = {sid: provider.embed(texts) for sid, texts in pre.items()}
        ids = list(pre)
        cells = [(si, sj) for i, si in enumerate(ids) for sj in ids[i + 1:]]
        for d, (si, sj) in zip(matrix.entries, cells, strict=True):
            for a, b in ((si, sj), (sj, si)):
                expected = brute_force_set_distance(embedded[a], embedded[b])
                assert d == pytest.approx(expected, abs=1e-9)

    def test_triple_order_within_sample_irrelevant(self):
        provider = self.fixture_provider()
        m1 = pool_distances({"a": ["u", "v"], "b": ["w"]}, provider)
        m2 = pool_distances({"a": ["v", "u"], "b": ["w"]}, provider)
        assert np.array_equal(m1.entries, m2.entries)

    def test_supply_order_permutes_consistently(self):
        provider = self.fixture_provider()
        pre = {"a": ["u"], "b": ["v"], "c": ["w"]}
        m1 = pool_distances(pre, provider)
        m2 = pool_distances({"c": ["w"], "a": ["u"], "b": ["v"]}, provider)
        perm = [m2.sample_ids.index(sid) for sid in m1.sample_ids]
        assert np.array_equal(square_of(m1), square_of(m2)[np.ix_(perm, perm)])

    def test_memoization_embeds_each_unique_text_once(self):
        calls = []

        class SpyEmbedder(HashingEmbedder):
            def embed(self, texts):
                calls.append(list(texts))
                return super().embed(texts)

        pre = {"a": ["same", "other"], "b": ["same"], "c": ["other", "same"]}
        embedded = embed_triple_sets(pre, SpyEmbedder(dim=16))
        assert calls == [["same", "other"]]
        same, other = HashingEmbedder(dim=16).embed(["same", "other"])
        assert np.array_equal(embedded["c"], np.stack([other, same]))

    def test_empty_preextraction_rejected(self):
        with pytest.raises(ValueError, match="no pre-extracted triples"):
            pool_distances({"a": []}, self.fixture_provider())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pool_takes_one_strip_per_block_run(self, monkeypatch, k):
        # single-triple samples at dim 64 fill a block run with ``side`` sets,
        # so the pool has k strips, each reduced once: k kernel calls, not the
        # k(k+1)/2 block pairs on or above the diagonal
        n = k * math.isqrt(similarity._BLOCK_ELEMENTS // 64)
        calls = count_strips(monkeypatch)
        matrix = pool_distances({f"s{i}": [f"ann{i} bob{i}"] for i in range(n)},
                                HashingEmbedder(dim=64))
        assert matrix.entries.shape == (n * (n - 1) // 2,)
        assert len(calls) == k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_object_on_both_sides_is_a_plain_rectangle(self, monkeypatch, k):
        # k block runs of A, each taken against all of B in one strip: k
        # kernel calls, not k * k blocks
        side = math.isqrt(similarity._BLOCK_ELEMENTS // 64)
        sets = list(np.random.default_rng(k).normal(size=(k * side, 1, 64)))
        full = set_distances(sets, list(sets))
        calls = count_strips(monkeypatch)
        assert np.array_equal(set_distances(sets, sets), full)
        assert len(calls) == k

    def test_peak_memory_is_the_result_plus_one_strip(self):
        # a square of the pool would be twice the triangle on its own
        rng = np.random.default_rng(11)
        words = ["ann", "bob", "works", "for", "acme", "lives", "in", "paris", "x", "y"]
        pre = {f"s{i}": [" ".join(rng.choice(words, 3)) for _ in range(int(rng.integers(1, 4)))]
               for i in range(1000)}
        tracemalloc.start()
        try:
            matrix = pool_distances(pre, HashingEmbedder(dim=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix.entries.nbytes

    def test_save_load_round_trip(self, tmp_path):
        matrix = pool_distances({"a": ["u"], "b": ["v"]}, self.fixture_provider())
        path = tmp_path / "pool.npz"
        matrix.save(path)
        loaded = PoolDistanceMatrix.load(path)
        assert loaded.sample_ids == matrix.sample_ids
        assert np.array_equal(loaded.entries, matrix.entries)
        assert loaded.provider == matrix.provider


def count_strips(monkeypatch) -> list:
    """The list that collects one entry per ``_set_distance_strip`` call."""
    calls = []
    strip = similarity._set_distance_strip
    monkeypatch.setattr(similarity, "_set_distance_strip",
                        lambda *args: calls.append(1) or strip(*args))
    return calls


class TestPoolDistanceMatrixInvariants:
    @pytest.mark.parametrize("entries, message", [
        (np.zeros((3, 3)), r"entries must hold 3 values, got \(3, 3\)"),
        (np.ones(2), r"entries must hold 3 values, got \(2,\)"),
        (np.array([1.0, np.nan, 1.0]), "finite and non-negative"),
        (np.array([1.0, -1.0, 1.0]), "finite and non-negative"),
    ], ids=["square", "wrong-length", "nan", "negative"])
    def test_constructor_refuses(self, entries, message):
        with pytest.raises(ValueError, match=message):
            PoolDistanceMatrix(("a", "b", "c"), entries, "p")


# ids numpy's fixed-width strings can hold: anything without a trailing NUL
sample_ids = st.text(max_size=8).filter(lambda s: not s.endswith("\x00"))
distances = st.floats(0, 1e300, allow_nan=False, allow_infinity=False)
function_scoped_tmp = settings(max_examples=40, deadline=None,
                               suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def pool_matrices(draw) -> PoolDistanceMatrix:
    ids = draw(st.lists(sample_ids, max_size=6))
    n = len(ids)
    upper = draw(st.lists(distances, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return PoolDistanceMatrix(tuple(ids), np.array(upper, dtype=np.float64), draw(sample_ids))


@st.composite
def pairwise_sets(draw) -> PairwiseDistanceSet:
    rows = draw(st.lists(sample_ids, max_size=5))
    cols = draw(st.lists(sample_ids, max_size=5))
    cells = draw(st.lists(distances, min_size=len(rows) * len(cols),
                          max_size=len(rows) * len(cols)))
    entries = np.array(cells, dtype=np.float64).reshape(len(rows), len(cols))
    return PairwiseDistanceSet(tuple(rows), tuple(cols), entries, draw(sample_ids))


def write_raw(path, **members):
    """An ``.npz`` shaped like a one-cell pairwise set file, with ``members``
    replacing its arrays."""
    arrays = {"kind": np.array(PAIRWISE_KIND), "provider": np.array("p"),
              "row_ids": np.array(["a"]), "col_ids": np.array(["t"]),
              "entries": np.array([[1.0]])}
    arrays.update(members)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestDistanceMatrixFiles:
    @given(matrix=pool_matrices())
    @function_scoped_tmp
    def test_pool_round_trip(self, tmp_path, matrix):
        path = tmp_path / "pool.npz"
        matrix.save(path)
        loaded = PoolDistanceMatrix.load(path)
        assert loaded.sample_ids == matrix.sample_ids and loaded.provider == matrix.provider
        assert np.array_equal(loaded.entries, matrix.entries)

    @given(P=pairwise_sets())
    @function_scoped_tmp
    def test_pairwise_round_trip(self, tmp_path, P):
        path = tmp_path / "pairwise.npz"
        P.save(path)
        loaded = PairwiseDistanceSet.load(path)
        assert (loaded.unlabeled_ids, loaded.test_ids, loaded.provider) == (
            P.unlabeled_ids, P.test_ids, P.provider)
        assert np.array_equal(loaded.entries, P.entries)

    def test_equal_matrices_save_to_equal_bytes(self, tmp_path, monkeypatch):
        def pair():
            entries = np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 1.25], [2.0, 1.25, 0.0]])
            return (PoolDistanceMatrix(("a", "b", "c"), [0.5, 2.0, 1.25], "hash-64"),
                    PairwiseDistanceSet(("a", "b"), ("t1", "t2", "t3"), entries[:2].copy(), "x"))

        first, second = pair(), pair()
        for matrix, name in zip(first, ("pool", "pairwise")):
            matrix.save(tmp_path / f"{name}-1.npz")
        # a later clock changes no byte: zip members carry a fixed timestamp
        later = time.time() + 86400 * 400
        localtime = time.localtime
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime", lambda secs=None: localtime(later))
        for matrix, name in zip(second, ("pool", "pairwise")):
            matrix.save(tmp_path / f"{name}-2.npz")
        for name in ("pool", "pairwise"):
            assert (tmp_path / f"{name}-1.npz").read_bytes() == (
                tmp_path / f"{name}-2.npz").read_bytes()

    def test_load_rejects_the_other_kind(self, tmp_path):
        entries = np.array([[0.0, 1.0], [1.0, 0.0]])
        PoolDistanceMatrix(("a", "b"), [1.0], "p").save(tmp_path / "pool.npz")
        PairwiseDistanceSet(("a", "b"), ("a", "b"), entries).save(tmp_path / "pairwise.npz")
        with pytest.raises(ValueError, match=f"not a {PAIRWISE_KIND} artifact"):
            PairwiseDistanceSet.load(tmp_path / "pool.npz")
        with pytest.raises(ValueError, match=f"not a {POOL_KIND} artifact"):
            PoolDistanceMatrix.load(tmp_path / "pairwise.npz")

    def test_raw_file_loads(self, tmp_path):
        write_raw(tmp_path / "p.npz")
        P = PairwiseDistanceSet.load(tmp_path / "p.npz")
        assert (P.unlabeled_ids, P.test_ids, P.entries.tolist(), P.provider) == (
            ("a",), ("t",), [[1.0]], "p")

    @pytest.mark.parametrize("members, message", [
        ({"entries": np.array([[-1.0]])}, "non-negative"),
        ({"entries": np.array([[np.nan]])}, "finite"),
        ({"entries": np.array([[1.0]], dtype=object)}, "allow_pickle"),
        ({"row_ids": np.array(["a"], dtype=object)}, "allow_pickle"),
        ({"entries": np.array([[1.0]], dtype=np.float32)}, "float64"),
        ({"entries": np.array([[1.0, 2.0]])}, "entries must be 1x1"),
    ], ids=["negative", "nan", "object-entries", "object-ids", "float32", "shape"])
    def test_load_rejects_bad_members(self, tmp_path, members, message):
        write_raw(tmp_path / "p.npz", **members)
        with pytest.raises(ValueError, match=message):
            PairwiseDistanceSet.load(tmp_path / "p.npz")

    def test_load_rejects_a_member_that_is_not_npy(self, tmp_path):
        write_raw(tmp_path / "good.npz")
        with zipfile.ZipFile(tmp_path / "good.npz") as good, \
                zipfile.ZipFile(tmp_path / "p.npz", "w") as bad:
            for name in good.namelist():
                bad.writestr(name, b"raw bytes" if name == "entries.npy" else good.read(name))
        with pytest.raises(ValueError, match="entries must be float64"):
            PairwiseDistanceSet.load(tmp_path / "p.npz")

    @pytest.mark.parametrize("cls, members, message", [
        (PairwiseDistanceSet, {"entries": np.array([[np.inf]])}, "finite and non-negative"),
        (PairwiseDistanceSet, {"entries": np.array([[-0.5]])}, "finite and non-negative"),
        (PairwiseDistanceSet, {"col_ids": np.array(["t", "u"])}, "entries must be 1x2"),
        (PoolDistanceMatrix, {"row_ids": np.array(["a", "b"]), "entries": np.array([np.nan])},
         "finite and non-negative"),
        (PoolDistanceMatrix, {"row_ids": np.array(["a", "b", "c"]),
                              "entries": np.array([1.0])}, "entries must hold 3 values"),
        (PoolDistanceMatrix, {"row_ids": np.array(["a", "b"]), "col_ids": np.array(["x"]),
                              "entries": np.array([1.0])}, "col_ids must equal row_ids"),
        # the square layout of a run directory made before the upper triangle
        (PoolDistanceMatrix, {"row_ids": np.array(["a", "b"]), "col_ids": np.array(["a", "b"]),
                              "entries": np.array([[0.0, 1.0], [1.0, 0.0]])},
         r"entries must hold 1 values, got \(2, 2\)"),
    ], ids=["inf", "negative", "ids-off-shape", "pool-nan", "pool-ids-off-shape",
            "pool-col-ids", "pool-square"])
    def test_load_names_the_file_its_constructor_refuses(self, tmp_path, cls, members,
                                                          message):
        kind = POOL_KIND if cls is PoolDistanceMatrix else PAIRWISE_KIND
        path = tmp_path / "m.npz"
        write_raw(path, kind=np.array(kind), **members)
        with pytest.raises(ValueError, match=message) as refused:
            cls.load(path)
        assert str(path) not in str(refused.value)  # the stage that reads it names it

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 40])
    def test_pool_file_holds_the_upper_triangle_training_reads(self, tmp_path, n):
        upper = np.random.default_rng(n).random((n, n))[np.triu_indices(n, 1)]
        matrix = PoolDistanceMatrix(tuple(map(str, range(n))), upper, "p")
        matrix.save(tmp_path / "pool.npz")
        with np.load(tmp_path / "pool.npz") as data:
            saved = data["entries"]
        assert saved.dtype == np.float64 and saved.shape == (n * (n - 1) // 2,)
        assert np.array_equal(saved, upper) and np.array_equal(matrix.entries, upper)
        if n >= 3:  # the smallest pool make_training_pairs splits
            pairs = make_training_pairs(matrix, 0.25, seed=n)
            i, j = np.triu_indices(n, 1)
            held = np.isin(np.arange(n), pairs.held_out)
            in_validation = held[i] | held[j]
            assert np.array_equal(pairs.train_targets, saved[~in_validation])
            assert np.array_equal(pairs.validation_targets, saved[in_validation])

    @pytest.mark.parametrize("cls", [PoolDistanceMatrix, PairwiseDistanceSet])
    def test_load_rejects_an_npy_file(self, tmp_path, cls):
        # np.load hands back a bare array for NPY bytes, not an archive
        np.save(tmp_path / "entries.npy", np.array([[0.0]]))
        with pytest.raises(ValueError, match="damaged .* artifact: an .npy array"):
            cls.load(tmp_path / "entries.npy")

    @pytest.mark.parametrize("build", [lambda: PoolDistanceMatrix(("a", "b"), [1.0], "p"),
                                       lambda: PairwiseDistanceSet(("a",), ("t",), [[1.0]])],
                             ids=["pool", "pairwise"])
    def test_save_refuses_entries_edited_in_place(self, tmp_path, build):
        matrix = build()
        matrix.entries[0] = np.nan
        with pytest.raises(ValueError, match="finite and non-negative"):
            matrix.save(tmp_path / "m.npz")
        assert not (tmp_path / "m.npz").exists()

    def test_save_rejects_ids_numpy_cannot_hold(self, tmp_path):
        path = tmp_path / "p.npz"
        PairwiseDistanceSet(("a",), ("t",), [[1.0]]).save(path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="trailing NUL"):
            PairwiseDistanceSet(("a",), ("t\x00",), [[1.0]]).save(path)
        with pytest.raises(ValueError, match="trailing NUL"):
            PoolDistanceMatrix(("s\x00",), [], "p").save(path)
        assert path.read_bytes() == before  # a refused save leaves the file alone


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        return self._payload


class TestHttpEmbeddingProvider:
    def test_reads_embedding_payload(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(200, {"data": [{"embedding": [1.0, 2.0, 3.0]}]})

        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3,
                                         api_key="k", post=post)
        assert np.array_equal(provider.embed(["text"]), np.array([[1.0, 2.0, 3.0]]))

    def test_dim_mismatch_rejected(self):
        def post(*a, **k):
            return FakeResponse(200, {"data": [{"embedding": [1.0]}]})

        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3,
                                         api_key="k", post=post)
        with pytest.raises(GatewayError, match="dim mismatch"):
            provider.embed(["text"])

    def test_empty_batch_makes_no_request(self):
        posts = []
        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3, api_key="k",
                                         post=lambda *a, **k: posts.append(k))
        assert provider.embed([]).shape == (0, 3) and posts == []

    @pytest.mark.parametrize("n", [1, HTTP_EMBED_CHUNK, HTTP_EMBED_CHUNK + 1,
                                   2 * HTTP_EMBED_CHUNK + 3])
    def test_batch_posts_chunks_in_input_order(self, n):
        inputs = []

        def post(url, json=None, headers=None, timeout=None):
            inputs.append(json["input"])
            rows = [[float(text[1:]), 0.0, 1.0] for text in json["input"]]
            return FakeResponse(200, {"data": [{"embedding": row} for row in rows]})

        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3,
                                         api_key="k", post=post)
        texts = [f"t{i}" for i in range(n)]
        out = provider.embed(texts)
        assert len(inputs) == math.ceil(n / HTTP_EMBED_CHUNK)
        assert inputs == [texts[i:i + HTTP_EMBED_CHUNK] for i in range(0, n, HTTP_EMBED_CHUNK)]
        assert np.array_equal(out[:, 0], np.arange(n)) and out.shape == (n, 3)

    @pytest.mark.parametrize("rows, match", [
        ([[1.0, 2.0, 3.0]], "expected 2 embeddings, got 1"),
        ([[1.0, 2.0, 3.0]] * 3, "expected 2 embeddings, got 3"),
        ([[1.0, 2.0, 3.0], [1.0, 2.0]], "dim mismatch"),
    ])
    def test_reply_of_the_wrong_shape_rejected(self, rows, match):
        provider = HttpEmbeddingProvider(
            "https://x.test", "emb-1", dim=3, api_key="k",
            post=lambda *a, **k: FakeResponse(200, {"data": [{"embedding": r} for r in rows]}))
        with pytest.raises(GatewayError, match=match):
            provider.embed(["a", "b"])

    @pytest.mark.parametrize("value", ["null", "1e400", "NaN", "Infinity"])
    def test_non_finite_reply_rejected_naming_the_row(self, value):
        # the reply as json.loads reads it: null is None, 1e400 is inf, and
        # NaN and Infinity are accepted as extensions
        reply = json.loads(f'{{"data": [{{"embedding": [1.0, 2.0, 3.0]}}, '
                           f'{{"embedding": [1.0, {value}, 3.0]}}]}}')
        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3, api_key="k",
                                         post=lambda *a, **k: FakeResponse(200, reply))
        with pytest.raises(GatewayError, match="malformed embedding response: row 1 "):
            provider.embed(["a", "b"])

    def test_missing_key_rejected(self, monkeypatch):
        monkeypatch.delenv("TRIPLEFORGE_API_KEY", raising=False)
        with pytest.raises(GatewayError, match="TRIPLEFORGE_API_KEY"):
            HttpEmbeddingProvider("https://x.test", "emb-1", dim=3)

    def test_connection_error_is_transient(self):
        def post(*a, **k):
            raise requests.ConnectionError("refused")

        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3, api_key="k", post=post)
        with pytest.raises(TransientProviderError, match="connection failure"):
            provider.embed(["text"])

    def test_503_is_transient(self):
        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3, api_key="k",
                                         post=lambda *a, **k: FakeResponse(503))
        with pytest.raises(TransientProviderError) as raised:
            provider.embed(["text"])
        assert raised.value.status == 503

    def test_503_without_a_retry_is_a_gateway_error(self):
        # the embedder has no retry loop: a caller that catches GatewayError
        # sees the transient failure and its status
        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3, api_key="k",
                                         post=lambda *a, **k: FakeResponse(503))
        with pytest.raises(GatewayError) as raised:
            provider.embed(["text"])
        assert raised.value.status == 503

    def test_400_is_fatal(self):
        provider = HttpEmbeddingProvider("https://x.test", "emb-1", dim=3, api_key="k",
                                         post=lambda *a, **k: FakeResponse(400, text="bad input"))
        with pytest.raises(GatewayError, match="HTTP 400: bad input") as raised:
            provider.embed(["text"])
        assert raised.value.status == 400
