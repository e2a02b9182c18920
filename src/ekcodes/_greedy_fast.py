"""Seeded greedy engine: one permuted word stream, one distance rule.

Every greedy reads its universe once, in the seeded order of
_permuted_chunks.  Pairs stream all ordered (A, B) index pairs and drop
the copy with min(A) > min(B), which leaves each unordered word once;
the drop is decided from the two rank indices alone, so only the kept
half is gathered and lifted.  s-tuples (s != 2) and q-ary words permute
their universe's incidence rows.  greedy_by_distance accepts a row of
incidence ids iff it keeps distance >= d to every accepted row, and
tries cheap bounds on the best part matching before the Hungarian
method; for pairs, greedy_pairs accepts the same words by claiming
witnesses as integer keys in a dense array.  Every word is examined, so
the output is maximal.

Universes beyond the in-memory shuffle cap are permuted by a Feistel
network on the index space (images >= M are skipped, which still visits
each index exactly once; lanes whose image cannot fall below M are
dropped before the last round).  One helper thread computes the next
Feistel chunk while the caller screens the current one.  The permutation
is deterministic in the seed and needs O(chunk) memory.
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
_FEISTEL_BLOCK = 1 << 15


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


def _feistel_round(left: np.ndarray, right: np.ndarray, key, hmask, mix: np.ndarray, spare: np.ndarray) -> None:
    """left ^= F(right, key), in place; mix and spare are scratch of the same size."""
    np.multiply(right, np.uint32(2654435761), out=mix)
    mix += key
    np.right_shift(mix, np.uint32(15), out=spare)
    mix ^= spare
    mix *= np.uint32(0x846CA68B)
    np.right_shift(mix, np.uint32(13), out=spare)
    mix ^= spare
    mix &= hmask
    left ^= mix


def _feistel_images(lo: int, hi: int, nbits: int, keys: np.ndarray, m: int) -> np.ndarray:
    """Images below m of the domain positions [lo, hi), in position order, as int64.

    Four balanced rounds on nbits-bit values, run in place on blocks of
    _FEISTEL_BLOCK lanes so the round buffers stay in cache.  The right
    half entering the last round becomes the image's high half, so a lane
    whose right half is above (m - 1) >> half can never map below m: it is
    dropped before the last round, and only the survivors run it and the
    exact test.
    """
    half = nbits // 2
    hmask = np.uint32((1 << half) - 1)
    top = np.uint32((m - 1) >> half)
    size = min(_FEISTEL_BLOCK, hi - lo)
    offsets = np.arange(size, dtype=np.uint32)
    buffers = [np.empty(size, dtype=np.uint32) for _ in range(4)]
    images = []
    for start in range(lo, hi, size):
        left, right, mix, spare = (buf[: min(size, hi - start)] for buf in buffers)
        np.add(offsets[: left.size], np.uint32(start), out=left)
        np.bitwise_and(left, hmask, out=right)
        left >>= np.uint32(half)
        for key in keys[:-1]:
            _feistel_round(left, right, key, hmask, mix, spare)
            left, right = right, left
        live = right <= top
        if not live.all():
            left, right = np.compress(live, left), np.compress(live, right)
            mix, spare = mix[: left.size], spare[: left.size]
        _feistel_round(left, right, keys[-1], hmask, mix, spare)
        vals = right.astype(np.int64) << half
        vals |= left
        images.append(np.compress(vals < m, vals))
    return np.concatenate(images)


def _permuted_chunks(m: int, seed: int, chunk: int):
    """Yield a seeded permutation of range(m) in int64 chunks.

    Up to SHUFFLE_CAP (read at call time) the permutation is shuffled in
    memory.  Above it, each chunk is a block of `chunk` Feistel domain
    positions with its images >= m dropped, and one helper thread computes
    the next block while the caller works on this one.  The blocks keep
    their order, at most one is in flight, and the thread is joined when
    the generator finishes or is closed.
    """
    rng = np.random.default_rng(seed)
    if m <= SHUFFLE_CAP:
        perm = rng.permutation(m)
        for lo in range(0, m, chunk):
            yield perm[lo : lo + chunk]
        return
    # imported here: concurrent.futures (and the logging it loads) would add ~10 ms to every import
    from concurrent.futures import ThreadPoolExecutor

    nbits = max(2, m.bit_length())
    if nbits % 2:
        nbits += 1
    domain = 1 << nbits
    # _stream_words caps m at STREAM_CAP = 2^30, so nbits <= 32
    keys = rng.integers(0, 2**31, size=4, dtype=np.uint32)
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(_feistel_images, 0, min(chunk, domain), nbits, keys, m)
        for lo in range(chunk, domain + chunk, chunk):
            vals = ahead.result()
            if lo < domain:
                ahead = pool.submit(_feistel_images, lo, min(lo + chunk, domain), nbits, keys, m)
            if vals.size:
                yield vals
            del vals  # hold no chunk while waiting for the next


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

    Index i of the stream is the ordered pair (A, B) with A of lex rank
    i // C(n-k, k) among the k-subsets of [0, n) and B the k-subset of
    lex rank i % C(n-k, k) of [0, n-k), lifted into the complement of A.
    The mirrored copy, min(A) > min(B), is dropped before any gather:
    the complement of A has exactly min(A) elements below min(A), so the
    lifted B starts above min(A) iff B's own first element is >= min(A).
    The order depends on the seed alone, not on `chunk`.  Intermediates
    are dropped before each yield, so only one chunk's kept columns stay
    alive.
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
        idx_a, idx_b = np.divmod(ids, np.int64(n_second))
        del ids
        keep = lex_b[0][idx_b] >= lex_a[0][idx_a]
        if not keep.any():
            continue
        idx_a, idx_b = np.compress(keep, idx_a), np.compress(keep, idx_b)
        del keep
        a_cols = [col[idx_a] for col in lex_a]
        b_cols = [col[idx_b] for col in lex_b]
        del idx_a, idx_b
        # lift B out of the complement of A (shifts applied in ascending-A order)
        for aj in a_cols:
            for b in b_cols:
                b += b >= aj
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


def _matching_upper(common: list[list[int]]) -> int:
    """Upper bound on the best matching: the smaller of the row-maxima and column-maxima sums."""
    return min(sum(map(max, common)), sum(map(max, zip(*common))))


def _greedy_matching(common: list[list[int]]) -> int:
    """Lower bound on the best matching: each row in turn takes its largest free column."""
    free = list(range(len(common)))
    shared = 0
    for row in common:
        j = max(free, key=row.__getitem__)
        free.remove(j)
        shared += row[j]
    return shared


def _shares_above(a: list[int], b: list[int], limit: int) -> bool:
    """True iff the best matching of parts a to parts b shares more than limit ids.

    Parts are id bitmasks.  The s x s common counts are built once; only a
    pair whose two bounds leave `limit` between them runs the Hungarian
    method.
    """
    common = [[(x & y).bit_count() for y in b] for x in a]
    if _matching_upper(common) <= limit:
        return False
    if _greedy_matching(common) > limit:
        return True
    return -_min_cost_matching([[-c for c in row] for row in common]) > limit


def greedy_by_distance(chunks, s: int, limit: int) -> list[list[int]]:
    """Distance-rule greedy over chunks of incidence rows, in stream order.

    A row is s parts of w distinct ids, as search._incidence_rows builds
    them.  It is accepted iff its best part matching with every accepted
    row shares at most `limit` = s*w - d ids: max(straight, crossed) at
    s = 2; otherwise the shared ids of the two unions, which decide s = 1,
    and above `limit` the matching bounds of _shares_above, with the
    Hungarian method only where they leave the pair open.  Returns the
    accepted rows.
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
                    if (union & other_union).bit_count() > limit and (s == 1 or _shares_above(a, b, limit)):
                        break
                else:
                    masks.append((union, a))
                    hits.append(i)
        accepted.extend(rows[hits].tolist())
    return accepted
