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
                         load_arrays, save_arrays)

# AdamW moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100  # full-batch steps
    learning_rate: float = 0.03
    validation_fraction: float = 0.10
    seed: int = 0
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.epochs < 0 or not 0 < self.learning_rate < math.inf:
            raise ValueError("epochs >= 0, learning_rate > 0 and finite required")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be >= 0 and finite")


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
                        seed: int = 0) -> TrainingPairs:
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
    return TrainingPairs(train=pairs[~in_validation], train_targets=matrix.entries[~in_validation],
                         validation=pairs[in_validation],
                         validation_targets=matrix.entries[in_validation],
                         held_out=tuple(np.flatnonzero(held).tolist()))


# --- loss kernel ------------------------------------------------------------
# For a pair (i, j) with target t the loss is (t - r)^2, r = ||W e_i - W e_j||.
# Every pair is a pair of pool samples, so the Gram matrix G = P P^T of the
# projected pool P = E W^T gives every radius, sqrt(G_ii + G_jj - 2 G_ij), and
# the summed gradient sum c W d d^T, d = e_i - e_j and c = 2 (r - t) / r, is
# P^T L E, with L the Laplacian of the pair weights c (Xing et al., NIPS 2002).
# A pair (i, j) is addressed by its flat cell i * n + j of an n x n matrix.

def _radii(projected: np.ndarray, *cells: np.ndarray) -> list[np.ndarray]:
    """The radii of the pairs at each array of ``cells``, from one Gram
    matrix; a pair (i, i) gets exactly 0."""
    squared = projected @ projected.T
    norms = squared.diagonal().copy()
    squared *= -2.0
    squared += norms[:, None]
    squared += norms
    return [np.sqrt(np.maximum(squared.take(c), 0.0)) for c in cells]


def _loss_and_grad(projected: np.ndarray, embeddings: np.ndarray, cells: np.ndarray,
                   radii: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The loss summed over the pairs at ``cells`` and its gradient in the
    weights.  The pair weights are scatter-added into their cells, so a
    repeated pair counts once per occurrence and a pair (i, i) adds nothing.
    Two equal rows of ``embeddings`` may get a radius of about 1e-8 where
    theirs is 0, so ``train`` merges them first.  A non-finite loss comes
    back without a gradient."""
    residuals = radii - targets
    loss = float(residuals @ residuals)
    if not math.isfinite(loss):
        return loss, None
    n = len(embeddings)
    # c / 2 scattered into A; L = D - S, with S = A + A^T and D the row sums of S
    half = np.divide(residuals, radii, out=np.zeros_like(radii), where=radii > 1e-12)
    scattered = np.bincount(cells, half, n * n).reshape(n, n)
    degree = scattered.sum(axis=0) + scattered.sum(axis=1)
    laplacian_e = (degree[:, None] * embeddings - scattered @ embeddings
                   - scattered.T @ embeddings)
    return loss, 2.0 * (projected.T @ laplacian_e)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho with ordinal ranks (ties ranked in order of position)."""
    ranks = [np.argsort(np.argsort(a, kind="stable")) for a in (x, y)]
    return float(np.corrcoef(*ranks)[0, 1])


@dataclass
class TrainingHistory:
    initial_validation_loss: float
    epochs: list[dict]
    best_epoch: int
    # Spearman's rho between the validation pairs' radii and targets
    initial_validation_rho: float
    best_validation_rho: float


def _project(weights: np.ndarray, embedded: np.ndarray) -> np.ndarray:
    """``weights @ row`` for every row: numpy runs a stack of (d, d) @ (d, 1)
    products as one dgemv per row; ``embedded @ weights.T`` (dgemm) is off by 2.8e-14."""
    return (weights @ embedded[:, :, None])[..., 0]


def train(pairs: TrainingPairs, embeddings: np.ndarray,
          config: TrainConfig) -> tuple[np.ndarray, TrainingHistory]:
    """Full-batch AdamW regression of the projection weights: each epoch is
    one step over every training pair.

    Starts from the identity (so the untrained retriever reproduces raw
    base-embedding distances) and returns the weights of the epoch with the
    lowest validation loss; epoch 0 is the initialization itself.
    """
    if not len(pairs.train):
        raise ValueError("no training pairs")
    # identical rows are merged, so a pair of them is an (i, i) pair, whose
    # radius is exactly 0 whatever order BLAS sums the Gram entries in
    embeddings, rows = np.unique(np.asarray(embeddings, dtype=np.float64), axis=0,
                                 return_inverse=True)
    rows, n = rows.reshape(-1), len(embeddings)  # numpy 2.0.0 shapes rows (n, 1)
    train_cells, validation_cells = (rows[split[:, 0]] * n + rows[split[:, 1]]
                                     for split in (pairs.train, pairs.validation))
    weights = np.eye(embeddings.shape[1])
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    history: list[dict] = []
    best_val = math.inf

    for epoch in range(config.epochs + 1):
        # one forward pass: the validation loss of this epoch's weights, and
        # the training loss and gradient of the next step
        projected = embeddings @ weights.T
        radii, train_radii = _radii(projected, validation_cells, train_cells)
        val_loss = float(np.sum((pairs.validation_targets - radii) ** 2)) / len(radii)
        if not math.isfinite(val_loss):
            raise RuntimeError(f"divergence: non-finite validation loss at epoch {epoch}")
        if epoch == 0:
            init_val, init_radii = val_loss, radii
        else:
            history.append({
                "epoch": epoch,
                "train_loss_mean": train_loss / len(train_cells),
                "validation_loss_mean": val_loss,
            })
        if val_loss < best_val:
            best_val, best_epoch, best_weights, best_radii = val_loss, epoch, weights, radii
        if epoch == config.epochs:
            break
        train_loss, grad = _loss_and_grad(projected, embeddings, train_cells, train_radii,
                                          pairs.train_targets)
        if grad is None:
            raise RuntimeError(f"divergence: non-finite training loss at epoch {epoch + 1}")
        step = epoch + 1
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
        m_hat = m / (1 - ADAM_BETA1 ** step)
        v_hat = v / (1 - ADAM_BETA2 ** step)
        weights = weights - config.learning_rate * (
            m_hat / (np.sqrt(v_hat) + ADAM_EPS) + config.weight_decay * weights)

    return best_weights, TrainingHistory(
        initial_validation_loss=init_val, epochs=history, best_epoch=best_epoch,
        initial_validation_rho=_spearman(init_radii, pairs.validation_targets),
        best_validation_rho=_spearman(best_radii, pairs.validation_targets),
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
                                seed=config.seed)
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
    return save_arrays(path, CHECKPOINT_KIND, provider=model.base.name, weights=model.weights)


def load_checkpoint(path: str | Path, base: EmbeddingProvider) -> RetrieverModel:
    """The model a ``save_checkpoint`` file holds over ``base``; a file that
    is damaged, of another kind or made for another base raises ``ValueError``."""
    provider, weights = load_arrays(path, CHECKPOINT_KIND, ("provider", "weights"))
    if provider != base.name:
        raise ValueError(f"checkpoint base provider {provider!r} does not match {base.name!r}")
    if weights.dtype != np.float64:
        raise ValueError(f"checkpoint weights must be float64, got {weights.dtype}")
    return RetrieverModel(base=base, weights=weights)
