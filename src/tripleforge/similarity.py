"""Embedding providers and triple-set distances.

A sample's pre-extracted triples are verbalized, embedded, and compared with
the average Pompeiu-Hausdorff set distance: the mean nearest-neighbor
distance taken in both directions, which is symmetric and robust to outlier
triples (unlike the classical max-of-min form).
"""
from __future__ import annotations

import hashlib
import io
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from .gateway import GatewayError, JsonEndpoint


class EmbeddingProvider(Protocol):
    name: str
    dim: int

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...  # (len(texts), dim) float64


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

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # Each distinct gram of the batch is hashed once.  The counts are small
        # integers, so every sum and sum of squares is exact in any order and
        # each row has the bits of the text embedded on its own.
        slots: dict[str, int] = {}  # distinct gram -> position of its digest
        rows: list[int] = []
        grams: list[int] = []  # the slot of each gram, text by text
        for row, text in enumerate(texts):
            tokens = text.split()
            for gram in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
                rows.append(row)
                grams.append(slots.setdefault(gram, len(slots)))
        digests = b"".join(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
                           for gram in slots)
        index = np.frombuffer(digests, dtype="<u4")[::2] % self.dim  # digest[:4]
        sign = np.where(np.frombuffer(digests, dtype=np.uint8)[4::8] % 2 == 0, 1.0, -1.0)
        slot = np.asarray(grams, dtype=np.intp)
        counts = np.bincount(np.asarray(rows, dtype=np.intp) * self.dim + index[slot],
                             weights=sign[slot], minlength=len(texts) * self.dim)
        counts = counts.reshape(len(texts), self.dim)
        norms = np.linalg.norm(counts, axis=1)[:, None]
        return np.divide(counts, norms, out=np.zeros(counts.shape), where=norms > 0)


# Texts per embedding request
HTTP_EMBED_CHUNK = 64


class HttpEmbeddingProvider:
    """Embeddings over an HTTP endpoint: POSTs ``{model, input}`` and reads
    ``data[i].embedding``."""

    def __init__(self, endpoint_url: str, model_id: str, dim: int,
                 api_key: Optional[str] = None, post: Optional[Callable] = None):
        self.name = f"http-{model_id}"
        self.dim = dim
        self._endpoint = JsonEndpoint(endpoint_url, api_key, post)
        self._model_id = model_id

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One POST per ``HTTP_EMBED_CHUNK`` texts; no POST for an empty batch."""
        out = np.empty((len(texts), self.dim), dtype=np.float64)
        for start in range(0, len(texts), HTTP_EMBED_CHUNK):
            chunk = list(texts[start:start + HTTP_EMBED_CHUNK])
            body = self._endpoint({"model": self._model_id, "input": chunk})
            try:
                vecs = [np.asarray(item["embedding"], dtype=np.float64) for item in body["data"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise GatewayError(f"malformed embedding response: {exc}") from exc
            if len(vecs) != len(chunk):
                raise GatewayError(f"expected {len(chunk)} embeddings, got {len(vecs)}")
            for row, vec in enumerate(vecs, start):
                if vec.shape != (self.dim,):
                    raise GatewayError(
                        f"embedding dim mismatch: expected {self.dim}, got {vec.shape}")
                if not np.all(np.isfinite(vec)):  # JSON null, NaN, Infinity or 1e400
                    raise GatewayError(f"malformed embedding response: row {row} is not finite")
                out[row] = vec
        return out


def set_distance(zi: Sequence[np.ndarray] | np.ndarray,
                 zj: Sequence[np.ndarray] | np.ndarray) -> float:
    """Average Pompeiu-Hausdorff distance between two sets of embeddings:
    mean over each set of the distance to its nearest neighbor in the other,
    summed over both directions."""
    return float(set_distances([zi], [zj])[0, 0])


# Largest (A rows, B rows, dim) chunk of triple differences built at once, in
# float64 elements (512 KiB); a run of A sets spans about sqrt(this / dim) rows.
# A chunk costs four NumPy calls and each strip is reduced once: a 400-sample
# pool takes 68 ms at 128 KiB, 59 ms at 256 KiB, 60 ms here and 69 ms at 1 MiB
# (median of 15; dim 64, 1-3 triples each; 2-vCPU x86 host, one BLAS thread).
_BLOCK_ELEMENTS = 1 << 16


def _stack(sets: Sequence[Sequence[np.ndarray] | np.ndarray]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated embeddings of the sets, with each set's first row and
    size (the segment offsets)."""
    arrays = [np.array(z, dtype=np.float64, ndmin=2, copy=None) for z in sets]
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


def _set_distance_strip(a: np.ndarray, a_starts: np.ndarray, a_sizes: np.ndarray,
                        b: np.ndarray, b_starts: np.ndarray, b_sizes: np.ndarray) -> np.ndarray:
    """Set distances between every A set of one run and every B set: the
    triple distances are filled a chunk of B rows at a time and then reduced
    once for the whole strip."""
    pairwise = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_ELEMENTS // a.size)
    for c0 in range(0, len(b), step):
        diff = a[:, None, :] - b[None, c0:c0 + step, :]
        # ``np.linalg.norm(diff, axis=-1)`` with the square taken in place: the
        # same multiply and last-axis ``add.reduce``, so the same bits
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(diff, axis=-1), out=pairwise[:, c0:c0 + step])
    row_min = np.minimum.reduceat(pairwise, b_starts, axis=1)  # each A row to each B set
    col_min = np.minimum.reduceat(pairwise, a_starts, axis=0)  # each A set to each B row
    return (_segment_means(row_min.T, a_starts, a_sizes).T
            + _segment_means(col_min, b_starts, b_sizes))


def _runs(sizes: np.ndarray, dim: int) -> list[tuple[int, int, slice]]:
    """Split the sets into consecutive runs ``[s0, s1)`` of at most one block
    side of embedding rows each, with the slice of their rows; a larger set
    gets a run of its own."""
    rows = max(1, math.isqrt(_BLOCK_ELEMENTS // dim))
    ends = np.cumsum(sizes)
    runs = []
    s0 = 0
    while s0 < len(sizes):
        first = ends[s0] - sizes[s0]
        s1 = max(s0 + 1, int(np.searchsorted(ends, first + rows, side="right")))
        runs.append((s0, s1, slice(first, ends[s1 - 1])))
        s0 = s1
    return runs


def set_distances(A_sets: Sequence[Sequence[np.ndarray] | np.ndarray],
                  B_sets: Sequence[Sequence[np.ndarray] | np.ndarray]) -> np.ndarray:
    """``len(A_sets) x len(B_sets)`` matrix of ``set_distance`` values.

    Each side is concatenated into one embedding array, with segment offsets
    per set, and the matrix is filled one strip at a time, one run of A sets
    against every B set, with the triple differences built about
    ``_BLOCK_ELEMENTS`` at a time.  Every cell has the bits a
    single-pair computation gives (see ``_segment_means``).
    """
    out = np.zeros((len(A_sets), len(B_sets)), dtype=np.float64)
    if not len(A_sets) or not len(B_sets):
        return out
    a, a_starts, a_sizes = _stack(A_sets)
    b, b_starts, b_sizes = _stack(B_sets)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"embedding dim mismatch: {a.shape[1]} vs {b.shape[1]}")
    for s0, s1, rows in _runs(a_sizes, a.shape[1]):
        out[s0:s1] = _set_distance_strip(a[rows], a_starts[s0:s1] - rows.start, a_sizes[s0:s1],
                                         b, b_starts, b_sizes)
    return out


# --- numeric artifacts ------------------------------------------------------
# Both distance matrices and the retriever checkpoint are stored the same way:
# one uncompressed ``.npz`` whose first member, ``kind``, names what it holds.
# Text is stored as numpy unicode arrays: ``kind`` and ``provider`` 0-D, the
# ids 1-D.
_TEXT_RANKS = {"kind": 0, "provider": 0, "row_ids": 1, "col_ids": 1}

# What ``np.load`` and ``zipfile`` raise on a damaged archive; RuntimeError is
# a member whose flags claim it is encrypted
_DAMAGE = (ValueError, zipfile.BadZipFile, EOFError, NotImplementedError, KeyError, OSError,
           RuntimeError)


def _text_array(value: str | list[str]) -> np.ndarray:
    array = np.array(value, dtype=np.str_)
    if array.tolist() != value:
        raise ValueError("numpy string arrays drop a trailing NUL of an id or provider")
    return array


class Artifact(NamedTuple):
    """A file the pipeline wrote and the sha256 of the bytes it holds."""

    path: Path
    sha256: str


def write_artifact(path: str | Path, data: bytes) -> Artifact:
    """Make ``path`` hold ``data``: equal bytes are left alone, other bytes go
    through ``replace_file``."""
    path = Path(path)
    written = Artifact(path, hashlib.sha256(data).hexdigest())
    if path.is_file() and path.stat().st_size == len(data) and path.read_bytes() == data:
        return written
    replace_file(path, data)
    return written


def replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``<name>.tmp`` and rename it over ``path``, so a
    crash never leaves a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    path.unlink(missing_ok=True)  # a rename over the old file costs more on ext4
    tmp.rename(path)


def save_arrays(path: str | Path, kind: str, **members) -> Artifact:
    """Write ``kind`` and then ``members`` as one uncompressed ``.npz``, a
    ``str`` or a list of ``str`` as a numpy unicode array (``_text_array``).
    ``zipfile`` stamps every member with a fixed 1980 date, so equal arrays
    save to equal bytes."""
    buf = io.BytesIO()
    np.savez(buf, kind=_text_array(kind), **{
        name: _text_array(value) if isinstance(value, (str, list)) else value
        for name, value in members.items()})
    return write_artifact(path, buf.getvalue())


def _member(data: np.lib.npyio.NpzFile, name: str) -> np.ndarray | str | list[str]:
    """Member ``name`` of an open archive; a text member comes back as a
    ``str`` or a list of ``str`` and must be a unicode array of its rank."""
    array = np.asarray(data[name])  # np.load hands back a member that is not ``.npy`` as bytes
    rank = _TEXT_RANKS.get(name)
    if rank is None:
        return array
    if array.dtype.kind != "U" or array.ndim != rank:
        raise ValueError(f"{name} must be a {rank}-D unicode string array, "
                         f"got {array.dtype} of shape {array.shape}")
    return array.tolist()


def load_arrays(path: str | Path, kind: str, names: Sequence[str]) -> tuple:
    """The ``names`` members of a ``save_arrays`` file of the given kind,
    each text member as a ``str`` or a list of ``str`` (see ``_member``).

    A missing file raises ``FileNotFoundError``; any other kind, a pickled
    member and every sort of damage raise ``ValueError``, whose message
    leaves the path to the caller, which names it once.  The file is opened
    here because ``np.load(path)`` lets go of its handle before ``zipfile``
    parses the archive, and so leaks it when parsing fails.
    """
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                # NPY bytes load as a bare array, which is no context manager
                raise ValueError("an .npy array, not an .npz archive")
            with data:
                stored = _member(data, "kind")
                if stored == kind:
                    return tuple(_member(data, name) for name in names)
        except _DAMAGE as exc:
            raise ValueError(f"damaged {kind} artifact: {exc}") from exc
    raise ValueError(f"not a {kind} artifact: kind={stored!r}")


# The pool x pool matrix that the retriever regresses onto and the pool x test
# matrix that selection reads share one validator and one set of members.

POOL_KIND = "pool_distance_matrix"
PAIRWISE_KIND = "pairwise_distance_set"


def _checked_entries(entries, shape: tuple[int, ...]) -> np.ndarray:
    """``entries`` as a float64 array of distances of the given shape."""
    entries = np.asarray(entries, dtype=np.float64)
    if entries.shape != shape:
        want = f"hold {shape[0]} values" if len(shape) == 1 else "be {}x{}".format(*shape)
        raise ValueError(f"entries must {want}, got {entries.shape}")
    if not np.all(np.isfinite(entries)) or np.any(entries < 0):
        raise ValueError("entries must be finite and non-negative")
    return entries


def load_distances(path: str | Path, kind: str) -> tuple[list[str], list[str], np.ndarray, str]:
    """``(row_ids, col_ids, entries, provider)`` of a distance file."""
    provider, rows, cols, entries = load_arrays(
        path, kind, ("provider", "row_ids", "col_ids", "entries"))
    if entries.dtype != np.float64:
        raise ValueError(f"entries must be float64, got {entries.dtype}")
    return rows, cols, entries, provider


@dataclass(frozen=True)
class PoolDistanceMatrix:
    """Symmetric pairwise set distances over the candidate pool, held as the
    strict upper triangle, row-major: ``entries[k]`` is the distance of the
    k-th pair of ``np.triu_indices(n, 1)``, as in the file."""

    sample_ids: tuple[str, ...]
    entries: np.ndarray
    provider: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "entries",
                           _checked_entries(self.entries, (self.n * (self.n - 1) // 2,)))

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    def save(self, path: str | Path) -> Artifact:
        ids = list(self.sample_ids)
        return save_arrays(path, POOL_KIND, provider=self.provider, row_ids=ids, col_ids=ids,
                           entries=_checked_entries(self.entries, self.entries.shape))

    @classmethod
    def load(cls, path: str | Path) -> "PoolDistanceMatrix":
        rows, cols, entries, provider = load_distances(path, POOL_KIND)
        matrix = cls(rows, entries, provider)
        if cols != rows:
            raise ValueError("col_ids must equal row_ids")
        return matrix


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
        object.__setattr__(self, "entries", _checked_entries(self.entries, (self.n, self.m)))

    @property
    def n(self) -> int:
        return len(self.unlabeled_ids)

    @property
    def m(self) -> int:
        return len(self.test_ids)

    def save(self, path: str | Path) -> Artifact:
        return save_arrays(path, PAIRWISE_KIND, provider=self.provider,
                           row_ids=list(self.unlabeled_ids), col_ids=list(self.test_ids),
                           entries=_checked_entries(self.entries, (self.n, self.m)))

    @classmethod
    def load(cls, path: str | Path) -> "PairwiseDistanceSet":
        return cls(*load_distances(path, PAIRWISE_KIND))


def embed_triple_sets(preextracted: Mapping[str, Sequence[str]],
                      provider: EmbeddingProvider) -> dict[str, np.ndarray]:
    """Embed each sample's verbalized triples, with one provider call for the
    distinct verbalizations of all samples."""
    for sid, verbalizations in preextracted.items():
        if not verbalizations:
            raise ValueError(
                f"sample {sid!r} has no pre-extracted triples; exclude it from the pool first"
            )
    row_of = {text: row for row, text in enumerate(dict.fromkeys(
        text for verbalizations in preextracted.values() for text in verbalizations))}
    vectors = provider.embed(list(row_of))
    return {sid: vectors[[row_of[text] for text in verbalizations]]
            for sid, verbalizations in preextracted.items()}


def pool_distances(preextracted: Mapping[str, Sequence[str]],
                   provider: EmbeddingProvider) -> PoolDistanceMatrix:
    """All-pairs set distances over the pool, in the mapping's id order: the
    pool is stacked once, and the upper triangle is filled one strip at a
    time, one block run of sets against themselves and every later set."""
    embedded = embed_triple_sets(preextracted, provider)
    n = len(embedded)
    upper = np.empty(n * (n - 1) // 2)
    if n:
        z, starts, sizes = _stack(list(embedded.values()))
        k = 0
        for s0, s1, rows in _runs(sizes, z.shape[1]):
            rest = starts[s0:] - rows.start  # the strip's B side: this run and every later set
            strip = _set_distance_strip(z[rows], rest[:s1 - s0], sizes[s0:s1],
                                        z[rows.start:], rest, sizes[s0:])
            cells = strip[np.triu_indices(len(strip), 1, strip.shape[1])]
            upper[k:k + len(cells)] = cells
            k += len(cells)
    return PoolDistanceMatrix(sample_ids=tuple(embedded), entries=upper, provider=provider.name)
