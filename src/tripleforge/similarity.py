"""Embedding providers and triple-set distances.

A sample's pre-extracted triples are verbalized, embedded, and compared with
the average Pompeiu-Hausdorff set distance: the mean nearest-neighbor
distance taken in both directions, which is symmetric and robust to outlier
triples (unlike the classical max-of-min form).
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol, Sequence

import numpy as np
import requests

from .gateway import API_KEY_ENV, GatewayError


class EmbeddingProvider(Protocol):
    name: str
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic feature-hashing sentence embedder.

    Token unigrams and bigrams are hashed into a fixed-dimension signed
    count vector which is then L2-normalized.  Needs no weights or network,
    so it is the default for tests and offline runs; hashes come from
    blake2b, not the salted builtin ``hash``.
    """

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.name = f"hash-{dim}"

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        tokens = text.split()
        grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
        for gram in grams:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            index = int.from_bytes(digest[:4], "little") % self.dim
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            vec[index] += sign
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec


class HttpEmbeddingProvider:
    """Embeddings over an HTTP endpoint: POSTs ``{model, input}`` and reads
    ``data[i].embedding``."""

    def __init__(self, endpoint_url: str, model_id: str, dim: int,
                 api_key: Optional[str] = None, api_key_env: str = API_KEY_ENV,
                 timeout: float = 60.0, post: Callable = requests.post):
        if not endpoint_url:
            raise GatewayError("embedding provider requires an endpoint URL")
        key = api_key if api_key is not None else os.environ.get(api_key_env, "")
        if not key:
            raise GatewayError(f"missing API key: set the {api_key_env} environment variable")
        self.name = f"http-{model_id}"
        self.dim = dim
        self._endpoint = endpoint_url
        self._model_id = model_id
        self._key = key
        self._timeout = timeout
        self._post = post

    def embed(self, text: str) -> np.ndarray:
        response = self._post(
            self._endpoint,
            json={"model": self._model_id, "input": [text]},
            headers={"Authorization": f"Bearer {self._key}"},
            timeout=self._timeout,
        )
        if response.status_code != 200:
            raise GatewayError(f"embedding HTTP {response.status_code}", status=response.status_code)
        vec = np.asarray(response.json()["data"][0]["embedding"], dtype=np.float64)
        if vec.shape != (self.dim,):
            raise GatewayError(f"embedding dim mismatch: expected {self.dim}, got {vec.shape}")
        return vec


def set_distance(zi: Sequence[np.ndarray] | np.ndarray,
                 zj: Sequence[np.ndarray] | np.ndarray) -> float:
    """Average Pompeiu-Hausdorff distance between two sets of embeddings:
    mean over each set of the distance to its nearest neighbor in the other,
    summed over both directions."""
    return float(set_distances([zi], [zj])[0, 0])


# Largest (A rows, B rows, dim) block of triple differences built at once,
# in float64 elements (512 KiB).  Each block costs a few dozen NumPy calls,
# so smaller blocks are slower: a 400-sample pool takes 0.31 s at 128 KiB,
# 0.11 s here and 0.10 s at 1 MiB (2-vCPU x86 host, one BLAS thread).
_BLOCK_ELEMENTS = 1 << 16


def _stack(sets: Sequence[Sequence[np.ndarray] | np.ndarray]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated embeddings of the sets, with each set's first row and
    size (the segment offsets)."""
    arrays = [np.atleast_2d(np.asarray(z, dtype=np.float64)) for z in sets]
    if any(a.size == 0 for a in arrays):
        raise ValueError("set distance undefined for empty triple set")
    sizes = np.array([a.shape[0] for a in arrays], dtype=np.intp)
    starts = np.zeros_like(sizes)
    np.cumsum(sizes[:-1], out=starts[1:])
    return np.concatenate(arrays), starts, sizes


def _segment_means(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``out[r, s] = values[r, starts[s]:starts[s] + sizes[s]].mean()``, bit
    for bit: each segment is reduced as a contiguous last axis of its own
    length, which sums in the same order as the 1-D ``mean``.  A single
    ``np.add.reduceat`` does not (it differs in the last ulp on 3-row sets)."""
    out = np.empty((values.shape[0], len(starts)), dtype=np.float64)
    for size in sorted(set(sizes.tolist())):
        segs = np.flatnonzero(sizes == size)
        out[:, segs] = values.take(starts[segs, None] + np.arange(size), axis=1).mean(axis=-1)
    return out


def _set_distance_block(a: np.ndarray, a_starts: np.ndarray, a_sizes: np.ndarray,
                        b: np.ndarray, b_starts: np.ndarray, b_sizes: np.ndarray) -> np.ndarray:
    """Set distances between every A set and every B set of one block."""
    diff = a[:, None, :] - b[None, :, :]
    # ``np.linalg.norm(diff, axis=-1)`` with the square taken in place: the
    # same multiply and last-axis ``add.reduce``, so the same bits
    np.multiply(diff, diff, out=diff)
    pairwise = np.sqrt(np.add.reduce(diff, axis=-1))
    row_min = np.minimum.reduceat(pairwise, b_starts, axis=1)  # each A row to each B set
    col_min = np.minimum.reduceat(pairwise, a_starts, axis=0)  # each A set to each B row
    return (_segment_means(row_min.T, a_starts, a_sizes).T
            + _segment_means(col_min, b_starts, b_sizes))


def _runs(starts: np.ndarray, sizes: np.ndarray, rows: int) -> list[tuple[int, int]]:
    """Split the sets into consecutive runs ``[s0, s1)`` of at most ``rows``
    embedding rows each; a larger set gets a run of its own."""
    ends = starts + sizes
    runs = []
    s0 = 0
    while s0 < len(starts):
        s1 = max(s0 + 1, int(np.searchsorted(ends, starts[s0] + rows, side="right")))
        runs.append((s0, s1))
        s0 = s1
    return runs


def set_distances(A_sets: Sequence[Sequence[np.ndarray] | np.ndarray],
                  B_sets: Sequence[Sequence[np.ndarray] | np.ndarray]) -> np.ndarray:
    """``len(A_sets) x len(B_sets)`` matrix of ``set_distance`` values.

    Each side is concatenated into one embedding array, with segment offsets
    per set, and the matrix is filled block by block so that a block's triple
    differences stay near ``_BLOCK_ELEMENTS``.  Every cell has the bits a
    single-pair computation gives (see ``_segment_means``).
    """
    out = np.zeros((len(A_sets), len(B_sets)), dtype=np.float64)
    if not len(A_sets) or not len(B_sets):
        return out
    a, a_starts, a_sizes = _stack(A_sets)
    b, b_starts, b_sizes = _stack(B_sets)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"embedding dim mismatch: {a.shape[1]} vs {b.shape[1]}")
    side = max(1, math.isqrt(_BLOCK_ELEMENTS // a.shape[1]))
    b_runs = _runs(b_starts, b_sizes, side)
    for s0, s1 in _runs(a_starts, a_sizes, side):
        ra = slice(a_starts[s0], a_starts[s1 - 1] + a_sizes[s1 - 1])
        for t0, t1 in b_runs:
            rb = slice(b_starts[t0], b_starts[t1 - 1] + b_sizes[t1 - 1])
            out[s0:s1, t0:t1] = _set_distance_block(
                a[ra], a_starts[s0:s1] - ra.start, a_sizes[s0:s1],
                b[rb], b_starts[t0:t1] - rb.start, b_sizes[t0:t1])
    return out


# --- distance matrices ----------------------------------------------------
# The pool x pool matrix that the retriever regresses onto and the pool x test
# matrix that selection reads share one validator and one file format.

POOL_KIND = "pool_distance_matrix"
PAIRWISE_KIND = "pairwise_distance_set"
_MEMBERS = ("kind", "provider", "row_ids", "col_ids", "entries")


def _checked_entries(entries, rows: int, cols: int) -> np.ndarray:
    """``entries`` as a ``rows x cols`` float64 array of distances."""
    entries = np.asarray(entries, dtype=np.float64)
    if entries.shape != (rows, cols):
        raise ValueError(f"entries must be {rows}x{cols}, got {entries.shape}")
    if not np.all(np.isfinite(entries)) or np.any(entries < 0):
        raise ValueError("entries must be finite and non-negative")
    return entries


def _text_array(value: str | list[str]) -> np.ndarray:
    array = np.array(value, dtype=np.str_)
    if array.tolist() != value:
        raise ValueError("numpy string arrays drop a trailing NUL of an id or provider")
    return array


def save_distances(path: str | Path, kind: str, row_ids: Sequence[str],
                   col_ids: Sequence[str], entries: np.ndarray, provider: str) -> None:
    """Write a distance matrix as one uncompressed ``.npz`` of ``_MEMBERS``.
    ``zipfile`` stamps every member with a fixed 1980 date, so equal
    matrices save to equal bytes."""
    arrays = {"kind": _text_array(kind), "provider": _text_array(provider),
              "row_ids": _text_array(list(row_ids)), "col_ids": _text_array(list(col_ids)),
              "entries": _checked_entries(entries, len(row_ids), len(col_ids))}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_distances(path: str | Path, kind: str
                   ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, str]:
    """``(row_ids, col_ids, entries, provider)`` of a ``save_distances`` file
    of the given kind; refuses pickled members and any other kind."""
    with np.load(path, allow_pickle=False) as data:
        stored, provider, rows, cols, entries = (data[name] for name in _MEMBERS)
    if stored.tolist() != kind:
        raise ValueError(f"{path}: not a {kind} artifact: kind={stored.tolist()!r}")
    if entries.dtype != np.float64:
        raise ValueError(f"{path}: entries must be float64, got {entries.dtype}")
    return tuple(rows.tolist()), tuple(cols.tolist()), entries, str(provider)


@dataclass(frozen=True)
class PoolDistanceMatrix:
    """Symmetric pairwise set distances over the candidate pool."""

    sample_ids: tuple[str, ...]
    entries: np.ndarray
    provider: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        entries = _checked_entries(self.entries, self.n, self.n)
        if not np.allclose(entries, entries.T, atol=1e-9) or np.any(np.diag(entries) != 0):
            raise ValueError("entries must be symmetric with a zero diagonal")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    def save(self, path: str | Path) -> None:
        save_distances(path, POOL_KIND, self.sample_ids, self.sample_ids, self.entries,
                       self.provider)

    @classmethod
    def load(cls, path: str | Path) -> "PoolDistanceMatrix":
        rows, _, entries, provider = load_distances(path, POOL_KIND)
        return cls(rows, entries, provider)


@dataclass(frozen=True)
class PairwiseDistanceSet:
    """N x M distances between candidate-pool samples and test samples."""

    unlabeled_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    entries: np.ndarray
    provider: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "unlabeled_ids", tuple(self.unlabeled_ids))
        object.__setattr__(self, "test_ids", tuple(self.test_ids))
        object.__setattr__(self, "entries", _checked_entries(self.entries, self.n, self.m))

    @property
    def n(self) -> int:
        return len(self.unlabeled_ids)

    @property
    def m(self) -> int:
        return len(self.test_ids)

    def save(self, path: str | Path) -> None:
        save_distances(path, PAIRWISE_KIND, self.unlabeled_ids, self.test_ids, self.entries,
                       self.provider)

    @classmethod
    def load(cls, path: str | Path) -> "PairwiseDistanceSet":
        return cls(*load_distances(path, PAIRWISE_KIND))


# Pool rows per band of the upper triangle: smaller bands compute fewer cells
# below the diagonal, larger ones restack the remaining sets less often.
_TRIANGLE_BAND = 32


def embed_triple_sets(preextracted: Mapping[str, Sequence[str]],
                      provider: EmbeddingProvider) -> dict[str, np.ndarray]:
    """Embed each sample's verbalized triples, with one provider call per
    unique verbalization."""
    memo: dict[str, np.ndarray] = {}
    out: dict[str, np.ndarray] = {}
    for sid, verbalizations in preextracted.items():
        if not verbalizations:
            raise ValueError(
                f"sample {sid!r} has no pre-extracted triples; exclude it from the pool first"
            )
        rows = []
        for text in verbalizations:
            if text not in memo:
                memo[text] = provider.embed(text)
            rows.append(memo[text])
        out[sid] = np.stack(rows)
    return out


def pool_distances(preextracted: Mapping[str, Sequence[str]],
                   provider: EmbeddingProvider) -> PoolDistanceMatrix:
    """All-pairs set distances over the pool, in the mapping's id order.

    Only the upper triangle is computed, in bands of rows, and then mirrored;
    ``set_distance`` is symmetric to the bit."""
    embedded = embed_triple_sets(preextracted, provider)
    ids = list(embedded.keys())
    sets = list(embedded.values())
    n = len(ids)
    upper = np.zeros((n, n), dtype=np.float64)
    for s0 in range(0, n, _TRIANGLE_BAND):
        upper[s0:s0 + _TRIANGLE_BAND, s0:] = set_distances(sets[s0:s0 + _TRIANGLE_BAND], sets[s0:])
    upper = np.triu(upper, 1)
    return PoolDistanceMatrix(sample_ids=tuple(ids), entries=upper + upper.T,
                              provider=provider.name)
