"""Seeded greedy engine: one permuted word stream, one distance rule.

Every greedy reads its universe once, in the seeded order of
_permuted_chunks.  Pairs stream all ordered (A, B) index pairs and drop
the copy with min(A) > min(B), which leaves each unordered word once;
the drop is decided from the two rank indices alone, so only the kept
half is gathered and lifted.  s-tuples (s != 2) and q-ary words permute
their universe's incidence rows.  greedy_by_distance keeps the first
live row of the stream and strikes, in one numpy pass (far_rows, which
also builds search's key-heavy graphs), every later row closer than d to
it, through metric._best_shares, the matching test of verify_code's
incidence kernel (search._best_common); for pairs, greedy_pairs accepts
the same words by claiming witnesses as integer keys in a dense array
(claim_greedy, which greedy_packing shares).  Every word is examined, so
the output is maximal.

Universes up to SHUFFLE_CAP are shuffled in memory as one int32 array,
4 bytes per index.  Larger ones are permuted by a Feistel network on the
index space (images >= M are skipped, which still visits each index
exactly once; lanes whose image cannot fall below M are dropped before
the last round).  One helper thread computes the next Feistel chunk of
_CHUNK domain positions while the caller screens the current one.  The
pair stream unranks, lifts and keys each chunk in slices of _SLICE
indices, so besides the permutation only one slice's temporaries are
alive.  The permutation is deterministic in the seed, and no output
depends on the chunk or slice sizes.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations

import numpy as np

from .core import ParameterError, word_count
from .metric import _best_shares, witness_splits

SHUFFLE_CAP = 1 << 22
SPACE_CAP = 1 << 26
STREAM_CAP = 1 << 30
_CHUNK = 1 << 20
_SLICE = 1 << 16
_FEISTEL_BLOCK = 1 << 17


def applicable(n: int, k: int, d: int) -> bool:
    """True when the witness key spaces for (n, k, d), 1 <= d <= 2k, fit in dense arrays."""
    if 2 * word_count(n, k, 2) > STREAM_CAP:
        return False
    return len(witness_splits(k, d)) * n ** (2 * k - d + 1) <= SPACE_CAP


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
    _FEISTEL_BLOCK lanes: small enough that the round buffers stay in
    cache, and large enough that the helper thread makes few numpy calls,
    each of which must win the interpreter lock back from the caller
    screening the previous chunk in slices.  The right
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
    """Yield a seeded permutation of range(m) in chunks of at most `chunk` indices.

    Up to SHUFFLE_CAP (read at call time) the permutation is shuffled in
    memory and the chunks are int32 views of it.  The shuffle draws do not
    depend on the dtype, so this is rng.permutation(m) at half its memory.
    Above the cap, each int64 chunk is a block of `chunk` Feistel domain
    positions with its images >= m dropped, and one helper thread computes
    the next block while the caller works on this one.  The blocks keep
    their order, at most one is in flight, and the thread is joined when
    the generator finishes or is closed.
    """
    rng = np.random.default_rng(seed)
    if m <= SHUFFLE_CAP:
        perm = np.arange(m, dtype=np.int32)
        rng.shuffle(perm)
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
    flat = chain.from_iterable(combinations(range(n), k))
    table = np.fromiter(flat, dtype=np.int64, count=math.comb(n, k) * k).reshape(-1, k)
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
            for small_side in (0,) if u == v else (0, 1):
                for uidx in combinations(range(self.k), u):
                    for vidx in combinations(range(self.k), v):
                        self.plans.append((offset, u == v, small_side, uidx, vidx))

    def build(self, a_cols: list[np.ndarray], b_cols: list[np.ndarray]) -> list[np.ndarray]:
        n = np.int64(self.n)
        sides = (a_cols, b_cols)
        encoded: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        uses = Counter(key for _, _, side, uidx, vidx in self.plans for key in ((side, uidx), (1 - side, vidx)))

        def encode(side: int, idx: tuple[int, ...]):
            # encode each (side, index tuple) once, and hold it only until its last plan
            key = side, idx
            if key not in encoded:
                enc = sides[side][idx[0]] if idx else np.int64(0)
                for pos in idx[1:]:
                    enc = enc * n + sides[side][pos]
                encoded[key] = enc
            uses[key] -= 1
            return encoded[key] if uses[key] else encoded.pop(key)

        keys = []
        for offset, symmetric, small_side, uidx, vidx in self.plans:
            enc_u = encode(small_side, uidx)
            enc_v = encode(1 - small_side, vidx)
            if symmetric:
                enc_u, enc_v = np.minimum(enc_u, enc_v), np.maximum(enc_u, enc_v)
            keys.append(enc_u * np.int64(self.n ** len(vidx)) + enc_v + np.int64(offset))
        return keys


def _stream_words(n: int, k: int, seed: int, chunk: int = _CHUNK):
    """Yield the seeded word stream as (a_cols, b_cols) element columns.

    Index i of the stream is the ordered pair (A, B) with A of lex rank
    i // C(n-k, k) among the k-subsets of [0, n) and B the k-subset of
    lex rank i % C(n-k, k) of [0, n-k), lifted into the complement of A.
    The mirrored copy, min(A) > min(B), is dropped before any gather:
    the complement of A has exactly min(A) elements below min(A), so the
    lifted B starts above min(A) iff B's own first element is >= min(A).
    Each permutation chunk is walked in slices of _SLICE (read at call
    time) indices, and each slice with a kept word is yielded on its own,
    so the unrank, gather and lift temporaries and the caller's keys are
    sized by the slice.  The order depends on the seed alone, not on
    `chunk` or _SLICE.
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
        for lo in range(0, ids.size, _SLICE):
            part = ids[lo : lo + _SLICE]
            # a Python-int divisor keeps int32 ids in int32, where floor division is cheapest
            idx_a = part // n_second
            idx_b = part - idx_a * n_second
            keep = lex_b[0][idx_b] >= lex_a[0][idx_a]
            if not keep.any():
                continue
            idx_a, idx_b = np.compress(keep, idx_a), np.compress(keep, idx_b)
            a_cols = [col[idx_a] for col in lex_a]
            b_cols = [col[idx_b] for col in lex_b]
            # lift B out of the complement of A (shifts applied in ascending-A order)
            for aj in a_cols:
                for b in b_cols:
                    b += b >= aj
            yield a_cols, b_cols


def _rows(cols: list[np.ndarray], picks) -> list[tuple[int, ...]]:
    return list(zip(*(c[picks].tolist() for c in cols)))


def claim_greedy(keys: list[np.ndarray], claimed: np.ndarray) -> list[int]:
    """Keep each row, in order, whose keys key[i] are all unclaimed; return the kept indices.

    A kept row marks its keys in `claimed`.  Rows are screened in slices
    of 256, doubling.  The rows a slice leaves unblocked can only collide
    with claims made inside that slice, so they are resolved one by one.
    """
    size = len(keys[0])
    hits: list[int] = []
    lo, step = 0, 256
    while lo < size:
        hi = min(lo + step, size)
        blocked = claimed[keys[0][lo:hi]]
        for key in keys[1:]:
            blocked |= claimed[key[lo:hi]]
        free = np.flatnonzero(~blocked) + lo
        lo, step = hi, 2 * step
        if not free.size:
            continue
        taken: set[int] = set()
        for i, row in zip(free.tolist(), _rows(keys, free)):
            if taken.isdisjoint(row):
                taken.update(row)
                hits.append(i)
        claimed[list(taken)] = True
    return hits


def greedy_pairs(n: int, k: int, d: int, seed: int, chunk: int = _CHUNK):
    """Witness-claim greedy over the stream; returns accepted (a_tuple, b_tuple) rows."""
    builder = _KeyBuilder(n, k, d)
    claimed = np.zeros(builder.total_space, dtype=bool)
    accepted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for a_cols, b_cols in _stream_words(n, k, seed, chunk):
        hits = claim_greedy(builder.build(a_cols, b_cols), claimed)
        accepted.extend(zip(_rows(a_cols, hits), _rows(b_cols, hits)))
    return accepted


def far_rows(s: int, width: int, ids: int, limit: int):
    """The distance rule's test: far(row, columns) marks the rows of `columns`
    (one per column) at distance >= d from `row`.

    A row is s parts of width / s distinct ids below `ids`, as
    core._incidence_rows builds them; two rows are closer than d iff their
    best part matching shares more than `limit` = width - d ids.  A column
    is far when it holds at most `limit` of row's ids (a bound on the
    matching, exact at s = 1) or its s x s common counts share at most
    that under metric._best_shares.
    """
    count = np.min_scalar_type(width)  # every count below is at most width
    parts = np.arange(1, s + 1, dtype=np.min_scalar_type(s))
    labels = np.repeat(parts, width // s)
    part_of = np.zeros(ids, dtype=parts.dtype)  # 1 + the row's part holding an id, or 0

    def test(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
        part_of[row] = labels
        held = part_of.take(columns)
        part_of[row] = 0
        far = (held != 0).sum(axis=0, dtype=count) <= limit
        if s > 1:
            near = ~far
            common = np.compress(near, held, axis=1).reshape(s, width // s, 1, -1) == parts[:, None]
            far[near] = _best_shares(common.sum(axis=1, dtype=count), limit) <= limit
        return far

    return test


def greedy_by_distance(rows: np.ndarray, s: int, limit: int) -> np.ndarray:
    """Distance-rule greedy over a table of incidence rows in stream order; returns the kept rows.

    The first live row is kept, as every row too close to an earlier kept
    row is already struck, and strikes each later live row that far_rows'
    test finds closer than d.  Live rows are columns, so every reduction
    runs along a leading axis.
    """
    width = rows.shape[1]
    far = far_rows(s, width, int(rows.max(initial=0)) + 1, limit)
    kept = []
    live = rows.T.copy()
    while live.shape[1]:
        row, live = live[:, 0], live[:, 1:]
        kept.append(row.tolist())
        live = np.compress(far(row, live), live, axis=1)
    return np.array(kept, dtype=np.int32).reshape(-1, width)
