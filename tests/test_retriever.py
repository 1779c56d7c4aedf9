import gc
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from tripleforge.core import Sample
from tripleforge.retriever import (
    CHECKPOINT_KIND,
    PairwiseDistanceSet,
    RetrieverModel,
    TrainConfig,
    TrainingPairs,
    compute_P,
    load_checkpoint,
    make_training_pairs,
    save_checkpoint,
    train,
    train_retriever,
)
from tripleforge.similarity import HashingEmbedder, PoolDistanceMatrix, save_arrays

from conftest import StubEmbedder
from test_kernels_reference import batch_grad, reference_batch_loss, reference_mean_pair_loss


def distance_matrix_from(points: np.ndarray, transform=None) -> np.ndarray:
    """Pool matrix entries: the distances between ``points`` in
    ``np.triu_indices(n, 1)`` order."""
    projected = points if transform is None else points @ transform.T
    square = np.linalg.norm(projected[:, None, :] - projected[None, :, :], axis=-1)
    return square[np.triu_indices(len(points), 1)]


def make_matrix(points: np.ndarray, transform=None) -> PoolDistanceMatrix:
    entries = distance_matrix_from(points, transform)
    ids = tuple(f"s{i:02d}" for i in range(len(points)))
    return PoolDistanceMatrix(ids, entries, "stub")


def same_pairs(a, b) -> bool:
    return (a.held_out == b.held_out
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("train", "train_targets", "validation", "validation_targets")))


class TestMakeTrainingPairs:
    def test_counts_all_unordered_pairs(self):
        rng = np.random.default_rng(0)
        matrix = make_matrix(rng.normal(size=(4, 3)))
        pairs = make_training_pairs(matrix, 0.25, seed=1)
        assert len(pairs.train) + len(pairs.validation) == 6

    def test_sample_level_split(self):
        rng = np.random.default_rng(1)
        matrix = make_matrix(rng.normal(size=(100, 2)))
        pairs = make_training_pairs(matrix, 0.10, seed=3)
        held = set(pairs.held_out)
        assert len(held) == 10
        assert all(i in held or j in held for i, j in pairs.validation)
        assert all(i not in held and j not in held for i, j in pairs.train)
        # every pair touching a held-out sample is in validation
        assert len(pairs.validation) == 45 + 10 * 90
        assert len(pairs.train) == 90 * 89 // 2

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        matrix = make_matrix(rng.normal(size=(10, 2)))
        a = make_training_pairs(matrix, 0.2, seed=5)
        b = make_training_pairs(matrix, 0.2, seed=5)
        assert same_pairs(a, b)
        c = make_training_pairs(matrix, 0.2, seed=6)
        assert not same_pairs(a, c)

    def test_insufficient_pool(self):
        matrix = make_matrix(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="insufficient pool"):
            make_training_pairs(matrix, 0.1, seed=0)

    def test_targets_match_matrix(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(5, 3))
        square = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        pairs = make_training_pairs(make_matrix(points), 0.2, seed=0)
        for split, targets in ((pairs.train, pairs.train_targets),
                               (pairs.validation, pairs.validation_targets)):
            for (i, j), target in zip(split, targets, strict=True):
                assert target == square[i, j]


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        embeddings = rng.normal(size=(4, 3))
        pairs = [(0, 1, 2.0), (2, 3, 0.7)]
        diffs = embeddings[[0, 2]] - embeddings[[1, 3]]
        targets = np.array([2.0, 0.7])
        weights = np.eye(3) + 0.1 * rng.normal(size=(3, 3))

        analytic = batch_grad(weights, diffs, targets)
        h = 1e-6
        fd = np.zeros_like(weights)
        for r in range(3):
            for c in range(3):
                w_plus, w_minus = weights.copy(), weights.copy()
                w_plus[r, c] += h
                w_minus[r, c] -= h
                fd[r, c] = (reference_batch_loss(w_plus, diffs, targets)
                            - reference_batch_loss(w_minus, diffs, targets)) / (2 * h)
        rel_err = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel_err <= 1e-4

    def test_loss_decreases_after_small_gradient_step(self):
        rng = np.random.default_rng(12)
        embeddings = rng.normal(size=(6, 4))
        diffs = embeddings[[0, 1, 2]] - embeddings[[3, 4, 5]]
        targets = np.array([1.0, 2.0, 0.5])
        weights = np.eye(4) + 0.05 * rng.normal(size=(4, 4))
        grad = batch_grad(weights, diffs, targets)
        assert np.linalg.norm(grad) > 0
        before = reference_batch_loss(weights, diffs, targets)
        after = reference_batch_loss(weights - 1e-6 * grad, diffs, targets)
        assert after < before

    def test_zero_gradient_at_exact_fit(self):
        rng = np.random.default_rng(13)
        embeddings = rng.normal(size=(4, 3))
        diffs = embeddings[[0, 2]] - embeddings[[1, 3]]
        targets = np.linalg.norm(diffs, axis=1)  # identity already fits
        grad = batch_grad(np.eye(3), diffs, targets)
        assert np.allclose(grad, 0.0, atol=1e-12)


class TestTrain:
    def planted_setup(self):
        rng = np.random.default_rng(7)
        embeddings = rng.normal(size=(12, 6))
        planted = rng.normal(size=(6, 6)) * 0.8
        return embeddings, make_matrix(embeddings, transform=planted)

    def test_no_training_pairs_rejected(self):
        embeddings, matrix = self.planted_setup()
        pairs = make_training_pairs(matrix, 0.1, seed=0)
        empty = TrainingPairs(pairs.train[:0], pairs.train_targets[:0], pairs.validation,
                              pairs.validation_targets, pairs.held_out)
        with pytest.raises(ValueError, match="no training pairs"):
            train(empty, embeddings, TrainConfig(epochs=1))

    def test_zero_epochs_returns_identity_unchanged(self):
        embeddings, matrix = self.planted_setup()
        cfg = TrainConfig(epochs=0, seed=0)
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        weights, history = train(pairs, embeddings, cfg)
        assert np.array_equal(weights, np.eye(6))
        assert history.epochs == [] and history.best_epoch == 0

    def test_planted_affine_reaches_ten_percent_of_initial(self):
        embeddings, matrix = self.planted_setup()
        cfg = TrainConfig(epochs=200, learning_rate=0.02, validation_fraction=0.10, seed=0,
                          weight_decay=0.0)
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        _, history = train(pairs, embeddings, cfg)
        best = min(e["validation_loss_mean"] for e in history.epochs)
        assert best <= 0.10 * history.initial_validation_loss

    def test_seeded_determinism(self):
        embeddings, matrix = self.planted_setup()
        cfg = TrainConfig(epochs=5, learning_rate=0.01, seed=9, weight_decay=0.0)
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        w1, h1 = train(pairs, embeddings, cfg)
        w2, h2 = train(pairs, embeddings, cfg)
        assert np.array_equal(w1, w2)
        assert h1.epochs == h2.epochs

    def test_returns_best_validation_epoch(self):
        embeddings, matrix = self.planted_setup()
        cfg = TrainConfig(epochs=30, learning_rate=0.02, seed=0, weight_decay=0.0)
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        weights, history = train(pairs, embeddings, cfg)
        best = min(e["validation_loss_mean"] for e in history.epochs)
        assert history.epochs[history.best_epoch - 1]["validation_loss_mean"] == best
        # returned weights really are that epoch's weights: re-evaluating the
        # validation loss reproduces the recorded minimum
        assert reference_mean_pair_loss(weights, pairs.validation, pairs.validation_targets,
                                        embeddings) == pytest.approx(best)

    def test_training_epoch_memory_does_not_grow_with_the_pairs(self):
        # pool-index shapes: 25,200 pairs of dim 64.  A step holds a few
        # n x n arrays (0.5 MB each) and vectors over the pairs; the pairs'
        # differences alone would be 12.9 MB
        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(250, 64))
        train_pairs = rng.integers(0, 250, size=(25_200, 2))
        validation = rng.integers(0, 250, size=(100, 2))
        pairs = TrainingPairs(train_pairs, rng.random(25_200), validation, rng.random(100), ())
        tracemalloc.start()
        try:
            train(pairs, embeddings, TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_divergence_names_epoch(self):
        embeddings, matrix = self.planted_setup()
        cfg = TrainConfig(epochs=50, learning_rate=1e200, weight_decay=1.0, seed=0)
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"divergence.*epoch \d+"):
                train(pairs, embeddings, cfg)


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_training_ranks_validation_pairs_better_than_the_identity(self, seed):
        # 250 samples whose targets weigh 8 of 64 embedding dimensions fully
        # and the rest by 0.2, plus noise: the identity ranks the validation
        # pairs only partly right
        rng = np.random.default_rng(seed)
        embeddings = rng.normal(size=(250, 64))
        planted = np.diag(np.where(np.arange(64) < 8, 1.0, 0.2))
        entries = distance_matrix_from(embeddings, planted)
        matrix = PoolDistanceMatrix(tuple(f"s{i:03d}" for i in range(250)),
                                    entries + 0.1 * rng.random(len(entries)), "stub")
        cfg = TrainConfig()
        pairs = make_training_pairs(matrix, cfg.validation_fraction, cfg.seed)
        _, history = train(pairs, embeddings, cfg)
        assert history.best_epoch > 0
        assert history.best_validation_rho > history.initial_validation_rho


class TestRetrieverModel:
    def test_identity_model_reproduces_base_distances_exactly(self):
        base = HashingEmbedder(dim=32)
        model = RetrieverModel(base, np.eye(base.dim))
        pool = [Sample("a", "alpha beta gamma"), Sample("b", "delta epsilon")]
        test = [Sample("t", "alpha beta zeta")]
        P = compute_P(model, pool, test)
        *pool_rows, query = base.embed([s.text for s in pool] + [test[0].text])
        for i, row in enumerate(pool_rows):
            raw = float(np.linalg.norm(row - query))
            assert P.entries[i, 0] == raw

    def test_identical_text_gives_zero_distance(self):
        model = RetrieverModel(HashingEmbedder(dim=16), np.eye(16))
        pool = [Sample("a", "same words here"), Sample("b", "different words")]
        test = [Sample("t", "same words here")]
        P = compute_P(model, pool, test)
        assert P.entries[0, 0] == 0.0 and P.entries[1, 0] > 0.0

    def test_hand_set_projection(self):
        base = StubEmbedder({"p": [1.0, 0.0], "q": [0.0, 1.0], "t": [0.0, 0.0]})
        weights = np.array([[2.0, 0.0], [0.0, 1.0]])
        model = RetrieverModel(base=base, weights=weights)
        P = compute_P(model, [Sample("p", "p"), Sample("q", "q")], [Sample("t", "t")])
        assert P.entries[0, 0] == pytest.approx(2.0)  # |W p - W t| = |(2,0)|
        assert P.entries[1, 0] == pytest.approx(1.0)  # |W q - W t| = |(0,1)|

    def test_scaling_weights_scales_distances_keeps_rankings(self):
        base = HashingEmbedder(dim=16)
        rng = np.random.default_rng(3)
        weights = np.eye(16) + 0.1 * rng.normal(size=(16, 16))
        m1 = RetrieverModel(base=base, weights=weights)
        m2 = RetrieverModel(base=base, weights=2.0 * weights)
        pool = [Sample(f"x{i}", f"sentence number {i} xyz") for i in range(5)]
        test = [Sample("t1", "sentence number one"), Sample("t2", "a different query")]
        p1 = compute_P(m1, pool, test)
        p2 = compute_P(m2, pool, test)
        assert np.allclose(p2.entries, 2.0 * p1.entries)
        assert np.array_equal(np.argsort(p1.entries, axis=0), np.argsort(p2.entries, axis=0))

    def test_empty_inputs_rejected(self):
        model = RetrieverModel(HashingEmbedder(dim=8), np.eye(8))
        with pytest.raises(ValueError, match="non-empty"):
            compute_P(model, [], [Sample("t", "x")])


class TestTrainRetriever:
    def test_end_to_end_improves_on_identity(self):
        rng = np.random.default_rng(21)
        texts = {f"s{i:02d}": f"sample text number {i}" for i in range(10)}
        base = HashingEmbedder(dim=16)
        embeddings = base.embed(list(texts.values()))
        planted = rng.normal(size=(16, 16)) * 0.5
        entries = distance_matrix_from(embeddings, planted)
        matrix = PoolDistanceMatrix(tuple(texts), entries, base.name)
        cfg = TrainConfig(epochs=120, learning_rate=0.02, seed=0, weight_decay=0.0)
        model, history = train_retriever(texts, matrix, base, cfg)
        final = min(e["validation_loss_mean"] for e in history.epochs)
        assert final < history.initial_validation_loss
        assert model.weights.shape == (16, 16)

    def test_missing_text_rejected(self):
        matrix = make_matrix(np.random.default_rng(0).normal(size=(3, 4)))
        with pytest.raises(ValueError, match="missing from the pool"):
            train_retriever({}, matrix, HashingEmbedder(dim=4), TrainConfig(epochs=1))


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        base = HashingEmbedder(dim=8)
        rng = np.random.default_rng(5)
        model = RetrieverModel(base=base, weights=rng.normal(size=(8, 8)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, base)
        assert np.array_equal(loaded.weights, model.weights)
        pool = [Sample("a", "one two"), Sample("b", "three four")]
        test = [Sample("t", "one three")]
        assert np.array_equal(compute_P(model, pool, test).entries,
                              compute_P(loaded, pool, test).entries)

    def test_bytes_pinned(self, tmp_path):
        # members carry a fixed timestamp, so a fixed model always writes
        # these bytes
        base = HashingEmbedder(dim=8)
        model = RetrieverModel(base=base, weights=np.random.default_rng(5).normal(size=(8, 8)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "27463f7cce2932a3c4ee5b86217979776dfcb39cee5a319b4654be6b59eb46eb")

    def test_dim_mismatch_rejected(self, tmp_path):
        base = HashingEmbedder(dim=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(RetrieverModel(base, np.eye(base.dim)), path)
        same_name = StubEmbedder({"x": [0.0] * 16}, name=base.name)
        with pytest.raises(ValueError, match=r"weights must be \(out_dim, 16\), got \(8, 8\)"):
            load_checkpoint(path, same_name)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_a_checkpoint_error(self, tmp_path, bad):
        base = HashingEmbedder(dim=4)
        weights = np.eye(base.dim)
        weights[1, 2] = bad
        path = tmp_path / "model.ckpt"
        save_arrays(path, CHECKPOINT_KIND, provider=np.array(base.name), weights=weights)
        with pytest.raises(ValueError, match="^model parameters must be finite$"):
            load_checkpoint(path, base)

    def test_provider_name_mismatch_rejected(self, tmp_path):
        base = HashingEmbedder(dim=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(RetrieverModel(base, np.eye(base.dim)), path)
        other = StubEmbedder({"x": [0.0] * 8}, name="other-8")
        with pytest.raises(ValueError, match="base provider"):
            load_checkpoint(path, other)

    def test_corruption_detected(self, tmp_path):
        base = HashingEmbedder(dim=4)
        model = RetrieverModel(base, np.eye(base.dim))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[blob.index(model.weights.tobytes()) + 8] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="damaged retriever_checkpoint artifact: Bad CRC"):
            load_checkpoint(path, base)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(ValueError, match="damaged retriever_checkpoint artifact"):
            load_checkpoint(path, HashingEmbedder(dim=4))
        PoolDistanceMatrix(("a",), [], "hash-4").save(path)
        with pytest.raises(ValueError, match="not a retriever_checkpoint artifact"):
            load_checkpoint(path, HashingEmbedder(dim=4))
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.ckpt", HashingEmbedder(dim=4))

    def test_npy_file_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "weights.npy"
        np.save(path, np.eye(4))
        with pytest.raises(ValueError, match="damaged retriever_checkpoint artifact"):
            load_checkpoint(path, HashingEmbedder(dim=4))

    @pytest.mark.parametrize("artifact", ["checkpoint", "pool_matrix"])
    def test_every_single_byte_flip_loads_the_original_or_raises(self, tmp_path, artifact):
        # a flip in a field zipfile ignores loads the original; any other is
        # caught (mostly by the members' CRC-32) and no file handle leaks
        base = HashingEmbedder(dim=4)
        if artifact == "checkpoint":
            model = RetrieverModel(base, np.random.default_rng(3).normal(size=(4, 4)))
            save_checkpoint(model, tmp_path / "saved")

            def load(path):
                return load_checkpoint(path, base).weights.tobytes()
            original = model.weights.tobytes()
        else:
            matrix = PoolDistanceMatrix(("a", "b"), [1.5], base.name)
            matrix.save(tmp_path / "saved")

            def load(path):
                loaded = PoolDistanceMatrix.load(path)
                return loaded.sample_ids, loaded.entries.tobytes(), loaded.provider
            original = matrix.sample_ids, matrix.entries.tobytes(), matrix.provider
        blob = (tmp_path / "saved").read_bytes()
        path = tmp_path / "damaged"
        outcomes = set()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for i in range(len(blob)):
                damaged = bytearray(blob)
                damaged[i] ^= 0xFF
                path.write_bytes(bytes(damaged))
                try:
                    assert load(path) == original, f"byte {i}"
                    outcomes.add("original")
                except ValueError:
                    outcomes.add("raised")
            gc.collect()
        assert outcomes == {"original", "raised"}
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_cross_dataset_application(self, tmp_path):
        # a checkpoint fit on one pool scores a completely different pool
        base = HashingEmbedder(dim=16)
        rng = np.random.default_rng(31)
        texts_a = {f"a{i}": f"first corpus sentence {i}" for i in range(8)}
        emb_a = base.embed(list(texts_a.values()))
        matrix = PoolDistanceMatrix(tuple(texts_a), distance_matrix_from(emb_a), base.name)
        model, _ = train_retriever(texts_a, matrix, base,
                                   TrainConfig(epochs=5, learning_rate=0.01, seed=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, base)
        pool_b = [Sample(f"b{i}", f"second corpus utterance {i}") for i in range(6)]
        test_b = [Sample("t", "second corpus query")]
        P = compute_P(loaded, pool_b, test_b)
        assert P.entries.shape == (6, 1) and np.all(np.isfinite(P.entries))


class TestPairwiseDistanceSet:
    def test_save_load_round_trip(self, tmp_path):
        P = PairwiseDistanceSet(("a", "b"), ("t1", "t2", "t3"),
                                np.arange(6, dtype=float).reshape(2, 3), provider="x")
        path = tmp_path / "p.npz"
        P.save(path)
        loaded = PairwiseDistanceSet.load(path)
        assert loaded.unlabeled_ids == P.unlabeled_ids
        assert loaded.test_ids == P.test_ids
        assert np.array_equal(loaded.entries, P.entries)
        assert loaded.provider == P.provider

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PairwiseDistanceSet(("a",), ("t",), np.array([[-1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries must be"):
            PairwiseDistanceSet(("a",), ("t",), np.zeros((2, 2)))
