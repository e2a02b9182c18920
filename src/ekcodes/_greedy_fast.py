"""Seeded greedy engine: one permuted word stream, one distance rule.

Every greedy reads its universe once, in the seeded order of
_permuted_chunks.  Pairs stream all ordered (A, B) index pairs and drop
the copy with min(A) > min(B), which leaves each unordered word once;
s-tuples (s != 2) and q-ary words permute their enumerated universe.
greedy_by_distance accepts a row of incidence ids iff it keeps distance
>= d to every accepted row; for pairs, greedy_pairs accepts the same
words by claiming witnesses as integer keys in a dense array.  Every word
is examined, so the output is maximal.

Universes beyond the in-memory shuffle cap are permuted by a Feistel
network on the index space (images >= M are skipped, which still visits
each index exactly once).  The permutation is deterministic in the seed
and needs O(chunk) memory.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import ParameterError, word_count
from .metric import _min_cost_matching, witness_splits

SHUFFLE_CAP = 1 << 22
SPACE_CAP = 1 << 26
STREAM_CAP = 1 << 30
_CHUNK = 1 << 20


def applicable(n: int, k: int, d: int) -> bool:
    """True when the witness key spaces for (n, k, d) fit in dense arrays."""
    try:
        splits = witness_splits(k, d)
    except ParameterError:
        return False
    t = 2 * k - d + 1
    if 2 * word_count(n, k, 2) > STREAM_CAP:
        return False
    return len(splits) * n**t <= SPACE_CAP


def _feistel32(values: np.ndarray, nbits: int, keys: np.ndarray) -> np.ndarray:
    half = nbits // 2
    hmask = np.uint32((1 << half) - 1)
    left = (values >> np.uint32(half)).astype(np.uint32)
    right = (values & hmask).astype(np.uint32)
    for key in keys:
        mix = right * np.uint32(2654435761) + key
        mix ^= mix >> np.uint32(15)
        mix *= np.uint32(0x846CA68B)
        mix ^= mix >> np.uint32(13)
        left, right = right, left ^ (mix & hmask)
    return (left.astype(np.uint64) << np.uint64(half)) | right


def _permuted_chunks(m: int, seed: int, chunk: int):
    """Yield a seeded permutation of range(m) in chunks."""
    rng = np.random.default_rng(seed)
    if m <= SHUFFLE_CAP:
        perm = rng.permutation(m)
        for lo in range(0, m, chunk):
            yield perm[lo : lo + chunk].astype(np.uint64)
        return
    nbits = max(2, m.bit_length())
    if nbits % 2:
        nbits += 1
    domain = 1 << nbits
    # _stream_words caps m at STREAM_CAP = 2^30, so nbits <= 32
    keys = rng.integers(0, 2**31, size=4, dtype=np.uint32)
    for lo in range(0, domain, chunk):
        block = np.arange(lo, min(lo + chunk, domain), dtype=np.uint32)
        vals = _feistel32(block, nbits, keys)
        vals = vals[vals < m]
        if vals.size:
            yield vals


def _lex_columns(n: int, k: int) -> list[np.ndarray]:
    """Element columns of every k-subset of [0, n), in lex (rank) order.

    Unranking a stream index is then one gather per column.
    """
    table = np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(-1, k)
    return [np.ascontiguousarray(col) for col in table.T]


class _KeyBuilder:
    """Turns part element columns into witness key columns."""

    def __init__(self, n: int, k: int, d: int):
        self.n = n
        self.k = k
        self.splits = witness_splits(k, d)
        self.space = n ** (2 * k - d + 1)
        self.total_space = len(self.splits) * self.space
        self.plans = []
        for si, (u, v) in enumerate(self.splits):
            offset = si * self.space
            sides = ((0, 1),) if u == v else ((0, 1), (1, 0))
            for small_side, _ in sides:
                for uidx in combinations(range(self.k), u):
                    for vidx in combinations(range(self.k), v):
                        self.plans.append((offset, u == v, small_side, uidx, vidx))

    def build(self, a_cols: list[np.ndarray], b_cols: list[np.ndarray]) -> list[np.ndarray]:
        n = np.int64(self.n)
        sides = (a_cols, b_cols)

        def encode(cols: list[np.ndarray], idx: tuple[int, ...]):
            enc = np.int64(0)
            for pos in idx:
                enc = enc * n + cols[pos]
            return enc

        keys = []
        for offset, symmetric, small_side, uidx, vidx in self.plans:
            small = sides[small_side]
            large = sides[1 - small_side]
            enc_u = encode(small, uidx)
            enc_v = encode(large, vidx)
            if symmetric:
                enc_u, enc_v = np.minimum(enc_u, enc_v), np.maximum(enc_u, enc_v)
            shift = np.int64(self.n ** len(vidx))
            keys.append(enc_u * shift + enc_v + np.int64(offset))
        return keys


def _stream_words(n: int, k: int, seed: int, chunk: int = _CHUNK):
    """Yield the seeded word stream as (a_cols, b_cols) element columns.

    The order depends on the seed alone, not on `chunk`.  Intermediates are
    dropped before each yield, so only one chunk's kept columns stay alive.
    """
    if 2 * k > n:
        return
    n_second = math.comb(n - k, k)
    m = math.comb(n, k) * n_second
    if m > STREAM_CAP:
        raise ParameterError(f"stream of {m} ordered words exceeds the cap {STREAM_CAP}")
    lex_a = _lex_columns(n, k)
    lex_b = _lex_columns(n - k, k)
    for ids in _permuted_chunks(m, seed, chunk):
        idx_a, idx_b = np.divmod(ids.astype(np.int64), np.int64(n_second))
        del ids
        a_cols = [col[idx_a] for col in lex_a]
        b_cols = [col[idx_b] for col in lex_b]
        del idx_a, idx_b
        # lift B out of the complement of A (shifts applied in ascending-A order)
        for aj in a_cols:
            for i in range(k):
                b_cols[i] = b_cols[i] + (b_cols[i] >= aj)
        keep = a_cols[0] < b_cols[0]
        if not keep.any():
            continue
        a_cols = [c[keep] for c in a_cols]
        b_cols = [c[keep] for c in b_cols]
        del keep
        yield a_cols, b_cols


def _rows(cols: list[np.ndarray], picks) -> list[tuple[int, ...]]:
    return list(zip(*(c[picks].tolist() for c in cols)))


def greedy_pairs(n: int, k: int, d: int, seed: int, chunk: int = _CHUNK):
    """Witness-claim greedy over the stream; returns accepted (a_tuple, b_tuple) rows.

    Each chunk is screened in slices of 256 words, doubling up to `chunk`.
    The words a slice leaves unblocked can only collide with claims made
    inside that slice, so they are resolved one by one against those.
    """
    builder = _KeyBuilder(n, k, d)
    claimed = np.zeros(builder.total_space, dtype=bool)
    accepted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for a_cols, b_cols in _stream_words(n, k, seed, chunk):
        keys = builder.build(a_cols, b_cols)
        size = len(keys[0])
        lo, step = 0, 256
        while lo < size:
            hi = min(lo + step, size)
            blocked = claimed[keys[0][lo:hi]]
            for key in keys[1:]:
                blocked |= claimed[key[lo:hi]]
            free = np.flatnonzero(~blocked) + lo
            lo, step = hi, min(2 * step, chunk)
            if not free.size:
                continue
            taken: set[int] = set()
            hits = []
            for i, row in zip(free.tolist(), _rows(keys, free)):
                if taken.isdisjoint(row):
                    taken.update(row)
                    hits.append(i)
            claimed[list(taken)] = True
            accepted.extend(zip(_rows(a_cols, hits), _rows(b_cols, hits)))
    return accepted


def greedy_by_distance(chunks, s: int, limit: int) -> list[list[int]]:
    """Distance-rule greedy over chunks of incidence rows, in stream order.

    A row is s parts of w distinct ids, as search._incidence_rows builds
    them.  It is accepted iff its best part matching with every accepted
    row shares at most `limit` = s*w - d ids: max(straight, crossed) at
    s = 2; otherwise the shared ids of the two unions, which decide s = 1,
    and above `limit` the Hungarian matching.  Returns the accepted rows.
    """
    masks: list = []
    accepted: list[list[int]] = []
    for rows in chunks:
        bits = np.array([1 << e for e in range(int(rows.max()) + 1)], dtype=object)
        parts = bits[rows].reshape(len(rows), s, -1).sum(axis=2)
        hits = []
        if s == 2:
            for i, (a1, a2) in enumerate(parts.tolist()):
                for b1, b2 in masks:
                    straight = (a1 & b1).bit_count() + (a2 & b2).bit_count()
                    crossed = (a1 & b2).bit_count() + (a2 & b1).bit_count()
                    if straight > limit or crossed > limit:
                        break
                else:
                    masks.append((a1, a2))
                    hits.append(i)
        else:
            for i, (union, a) in enumerate(zip(parts.sum(axis=1).tolist(), parts.tolist())):
                for other_union, b in masks:
                    if (union & other_union).bit_count() > limit and (
                        s == 1 or -_min_cost_matching([[-(x & y).bit_count() for y in b] for x in a]) > limit
                    ):
                        break
                else:
                    masks.append((union, a))
                    hits.append(i)
        accepted.extend(rows[hits].tolist())
    return accepted
