"""Trainable sample retriever: a linear projection over a frozen base
embedder, regressed so that projected L2 distances between raw sentences
approximate the triple-set distances computed from pre-extractions.  The
trained model scores unseen test samples without any further LLM calls.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import Sample
from .similarity import (Artifact, EmbeddingProvider, PairwiseDistanceSet, PoolDistanceMatrix,
                         _text_array, load_arrays, save_arrays)

# AdamW moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 2e-5
    validation_fraction: float = 0.10
    seed: int = 0
    weight_decay: float = 0.01
    max_pairs: int = 0  # 0 = train on every pool pair

    def __post_init__(self) -> None:
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.epochs < 0 or self.batch_size < 1 or not 0 < self.learning_rate < math.inf:
            raise ValueError(
                "epochs >= 0, batch_size >= 1, learning_rate > 0 and finite required")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be >= 0 and finite")
        if self.max_pairs < 0:
            raise ValueError("max_pairs must be >= 0")


@dataclass(frozen=True)
class TrainingPairs:
    """All unordered pool pairs ``(i, j)``, ``i < j``, as ``(k, 2)`` row-index
    arrays with their target distances alongside, split so that a held-out
    sample's pairs all land in validation (no endpoint leakage)."""

    train: np.ndarray
    train_targets: np.ndarray
    validation: np.ndarray
    validation_targets: np.ndarray
    held_out: tuple[int, ...]


def make_training_pairs(matrix: PoolDistanceMatrix, validation_fraction: float = 0.10,
                        seed: int = 0, max_pairs: int = 0) -> TrainingPairs:
    n = matrix.n
    if n < 3:
        raise ValueError(f"insufficient pool: need at least 3 samples, got {n}")
    rng = random.Random(seed)
    indices = list(range(n))
    rng.shuffle(indices)
    held_count = min(max(1, round(validation_fraction * n)), n - 2)
    held = np.zeros(n, dtype=bool)
    held[indices[:held_count]] = True

    pairs = np.stack(np.triu_indices(n, 1), axis=1)  # the order of matrix.entries
    in_validation = held[pairs[:, 0]] | held[pairs[:, 1]]
    train, train_targets = pairs[~in_validation], matrix.entries[~in_validation]
    if max_pairs > 0 and len(train) > max_pairs:
        keep = sorted(rng.sample(range(len(train)), max_pairs))
        train, train_targets = train[keep], train_targets[keep]
    return TrainingPairs(train=train, train_targets=train_targets,
                         validation=pairs[in_validation],
                         validation_targets=matrix.entries[in_validation],
                         held_out=tuple(np.flatnonzero(held).tolist()))


# --- loss kernel ------------------------------------------------------------
# For a pair (i, j) with target D the loss is (D - ||W e_i - W e_j||)^2.

def _loss_and_grad(weights: np.ndarray, diffs: np.ndarray,
                   targets: np.ndarray) -> tuple[float, np.ndarray | None]:
    """``reference_batch_loss`` and its gradient in the weights from one
    forward pass, bit for bit.

    The row norms are ``np.linalg.norm``'s own ``sqrt(add.reduce(p * p))``
    and the loss is ``np.sum``'s own ``add.reduce``; ``np.vecdot`` or ``@``
    would add in another order.  ``(r - t)**2`` equals ``(t - r)**2``
    exactly, so one residual serves both results.  A non-finite loss comes
    back without a gradient, which would only raise floating-point warnings
    before the caller stops.
    """
    projected = diffs @ weights.T
    radii = np.sqrt(np.add.reduce(projected * projected, axis=1))
    residuals = radii - targets
    loss = float(np.add.reduce(residuals * residuals))
    if not math.isfinite(loss):
        return loss, None
    coeff = np.divide(2.0 * residuals, radii, out=np.zeros_like(radii), where=radii > 1e-12)
    projected *= coeff[:, None]
    return loss, projected.T @ diffs


@dataclass
class TrainingHistory:
    initial_validation_loss: float
    epochs: list[dict]
    best_epoch: int


# pairs per chunk of the validation loss, and about the rows per gather run
# of training: 128 KiB per temporary at dim 64
_LOSS_CHUNK = 256


def _project(weights: np.ndarray, embedded: np.ndarray) -> np.ndarray:
    """``weights @ row`` for every row: numpy runs a stack of (d, d) @ (d, 1)
    products as one dgemv per row; ``embedded @ weights.T`` (dgemm) is off by 2.8e-14."""
    return (weights @ embedded[:, :, None])[..., 0]


def _mean_pair_loss(weights: np.ndarray, pairs: np.ndarray, targets: np.ndarray,
                    embeddings: np.ndarray) -> float:
    """Mean squared error over all ``pairs`` of ``compute_P``'s distance (the
    norm of the difference of the projected samples), with O(``_LOSS_CHUNK``
    * dim) temporaries besides the projected samples.  Each projected row is
    a dgemv of that row alone and the rest is elementwise or a row-wise
    ``add.reduce``, so no chunk boundary moves a bit; the one ``np.sum`` runs
    over all radii in pair order."""
    projected = _project(weights, embeddings)
    radii = np.empty(len(pairs), dtype=np.float64)
    for start in range(0, len(pairs), _LOSS_CHUNK):
        chunk = pairs[start:start + _LOSS_CHUNK]
        diffs = projected.take(chunk[:, 0], axis=0)
        diffs -= projected.take(chunk[:, 1], axis=0)
        radii[start:start + len(chunk)] = np.linalg.norm(diffs, axis=1)
    return float(np.sum((targets - radii) ** 2)) / len(pairs)


def train(pairs: TrainingPairs, embeddings: np.ndarray,
          config: TrainConfig) -> tuple[np.ndarray, TrainingHistory]:
    """Mini-batch AdamW regression of the projection weights.

    Starts from the identity (so the untrained retriever reproduces raw
    base-embedding distances) and returns the weights of the epoch with the
    lowest validation loss; epoch 0 is the initialization itself.
    """
    if not len(pairs.train):
        raise ValueError("no training pairs")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    dim = embeddings.shape[1]
    weights = np.eye(dim, dtype=np.float64)

    init_val = _mean_pair_loss(weights, pairs.validation, pairs.validation_targets, embeddings)
    best_val = init_val
    best_weights = weights.copy()
    best_epoch = 0
    history: list[dict] = []

    rng = np.random.default_rng(config.seed)
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    update = np.empty_like(weights)
    scratch = np.empty_like(weights)
    step = 0
    order = np.arange(len(pairs.train))
    # The pair differences of a run of whole batches, about _LOSS_CHUNK rows,
    # are gathered at once; each batch is a row slice of them, so its
    # products are the same BLAS calls.
    run_rows = max(1, _LOSS_CHUNK // config.batch_size) * config.batch_size

    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        left, right = pairs.train[order, 0], pairs.train[order, 1]
        targets = pairs.train_targets[order]
        epoch_loss = 0.0
        for run in range(0, len(order), run_rows):
            rows = slice(run, run + run_rows)
            diffs = embeddings.take(left[rows], axis=0)
            diffs -= embeddings.take(right[rows], axis=0)
            run_targets = targets[rows]
            for start in range(0, len(diffs), config.batch_size):
                batch = slice(start, start + config.batch_size)
                loss, grad = _loss_and_grad(weights, diffs[batch], run_targets[batch])
                if not math.isfinite(loss):
                    raise RuntimeError(f"divergence: non-finite training loss at epoch {epoch}")
                epoch_loss += loss
                step += 1
                # AdamW in place, each operation in the order of
                #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
                #   w = w - lr (m_hat / (sqrt(v_hat) + eps) + wd w)
                # so the weights keep their bits.  From the step where
                # 1 - b1**t rounds to 1.0, m_hat is m itself.
                m *= ADAM_BETA1
                m += np.multiply(grad, 1 - ADAM_BETA1, out=update)
                v *= ADAM_BETA2
                np.multiply(grad, 1 - ADAM_BETA2, out=update)
                v += np.multiply(update, grad, out=update)
                np.divide(v, 1 - ADAM_BETA2 ** step, out=scratch)
                np.sqrt(scratch, out=scratch)
                scratch += ADAM_EPS
                bias1 = 1 - ADAM_BETA1 ** step
                if bias1 == 1.0:
                    np.divide(m, scratch, out=update)
                else:
                    np.divide(m, bias1, out=update)
                    update /= scratch
                update += np.multiply(weights, config.weight_decay, out=scratch)
                update *= config.learning_rate
                weights -= update
        val_loss = _mean_pair_loss(weights, pairs.validation, pairs.validation_targets,
                                   embeddings)
        if not np.isfinite(val_loss):
            raise RuntimeError(f"divergence: non-finite validation loss at epoch {epoch}")
        history.append({
            "epoch": epoch,
            "train_loss_mean": epoch_loss / len(pairs.train),
            "validation_loss_mean": val_loss,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_weights = weights.copy()
            best_epoch = epoch
    return best_weights, TrainingHistory(
        initial_validation_loss=init_val, epochs=history, best_epoch=best_epoch
    )


# --- the model ---------------------------------------------------------------

@dataclass(frozen=True)
class RetrieverModel:
    """Frozen base embedder plus a trainable linear projection."""

    base: EmbeddingProvider
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != self.base.dim:
            raise ValueError(f"weights must be (out_dim, {self.base.dim}), got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "weights", weights)

    def encode_samples(self, samples: Sequence[Sample]) -> np.ndarray:
        return _project(self.weights, self.base.embed([s.text for s in samples]))


def train_retriever(texts_by_id: Mapping[str, str], matrix: PoolDistanceMatrix,
                    base: EmbeddingProvider,
                    config: TrainConfig) -> tuple[RetrieverModel, TrainingHistory]:
    """End-to-end training against a pool distance matrix: embeds the pool
    sentences once, builds the pair split, and fits the projection."""
    missing = [sid for sid in matrix.sample_ids if sid not in texts_by_id]
    if missing:
        raise ValueError(f"matrix samples missing from the pool: {missing[:5]}")
    embeddings = base.embed([texts_by_id[sid] for sid in matrix.sample_ids])
    pairs = make_training_pairs(matrix, validation_fraction=config.validation_fraction,
                                seed=config.seed, max_pairs=config.max_pairs)
    weights, history = train(pairs, embeddings, config)
    return RetrieverModel(base=base, weights=weights), history


# --- pool-to-test distances ---------------------------------------------------

def compute_P(model: RetrieverModel, pool_samples: Sequence[Sample],
              test_samples: Sequence[Sample]) -> PairwiseDistanceSet:
    """Project every sample once and take all pool-to-test L2 distances."""
    if not pool_samples or not test_samples:
        raise ValueError("both pool and test sets must be non-empty")
    pool = model.encode_samples(pool_samples)
    test = model.encode_samples(test_samples)
    # One pool row at a time, so the temporary is (M, d), never (N, M, d).
    # Each cell must keep the bits of the defining single-pair distance, the
    # 1-D ``np.linalg.norm(pool[i] - test[j])``, which squares and sums with
    # BLAS ddot.  ``np.vecdot`` reduces each row with the same ddot, so it
    # matches; ``einsum`` and ``(diff * diff).sum(-1)`` add in another order
    # and are off by up to 6.7e-16.
    entries = np.empty((len(pool_samples), len(test_samples)), dtype=np.float64)
    diff = np.empty_like(test)
    for i, row in enumerate(pool):
        np.subtract(row, test, out=diff)
        np.sqrt(np.vecdot(diff, diff, out=entries[i]), out=entries[i])
    return PairwiseDistanceSet(
        unlabeled_ids=tuple(s.id for s in pool_samples),
        test_ids=tuple(s.id for s in test_samples),
        entries=entries,
        provider=f"retriever/{model.base.name}",
    )


# --- checkpoints ---------------------------------------------------------------

CHECKPOINT_KIND = "retriever_checkpoint"


def save_checkpoint(model: RetrieverModel, path: str | Path) -> Artifact:
    """The base provider name and the float64 weights, as a ``save_arrays``
    file of kind ``retriever_checkpoint``."""
    return save_arrays(path, CHECKPOINT_KIND, provider=_text_array(model.base.name),
                       weights=model.weights)


def load_checkpoint(path: str | Path, base: EmbeddingProvider) -> RetrieverModel:
    """The model a ``save_checkpoint`` file holds over ``base``; a file that
    is damaged, of another kind or made for another base raises ``ValueError``."""
    provider, weights = load_arrays(path, CHECKPOINT_KIND, ("provider", "weights"))
    if provider.tolist() != base.name:
        raise ValueError(
            f"checkpoint base provider {provider.tolist()!r} does not match {base.name!r}")
    if weights.dtype != np.float64:
        raise ValueError(f"checkpoint weights must be float64, got {weights.dtype}")
    return RetrieverModel(base=base, weights=weights)
