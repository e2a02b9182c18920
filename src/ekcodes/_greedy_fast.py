"""Seeded greedy engine: one permuted word stream, one distance rule.

Every greedy reads its universe once, in the seeded order of
_permuted_chunks.  Pairs stream all ordered (A, B) index pairs and drop
the copy with min(A) > min(B), which leaves each unordered word once.
One start table over A's ranks decides which indices survive before any
unrank, gather or lift; where some witness keys read A alone
(d >= k + 1), greedy_pairs' A-side screen folds into it every A with a
claimed key, so the stream also drops the words that A would block.
s-tuples (s != 2) and q-ary words permute
their universe's incidence rows; those rows and the pairs' unrank tables
come from core._universe_rows.  greedy_by_distance keeps the first
live row of the stream and strikes, in one numpy pass (far_rows, which
also builds search's key-heavy graphs), every later row closer than d to
it.  From s = 2 to 4 that pass takes every live row's best part
matching directly, the best of its s! matchings from
metric._best_matchings; above, it settles the rows that share enough
ids through metric._best_shares, the matching test of verify_code's
incidence kernel (search._best_common).  For
pairs, greedy_pairs accepts the same words by claiming witnesses as
integer keys in a dense array (claim_greedy, which greedy_packing
shares).  Every word is examined, or dropped where a claim already
blocks it, so the output is maximal.

Universes up to SHUFFLE_CAP are shuffled in memory as one int32 array,
4 bytes per index.  Larger ones are permuted by a Feistel network on the
index space (images >= M are skipped, which still visits each index
exactly once).  Its first round is read from a table over the right
halves, since the left half is constant along each row of positions;
the other three run on every lane, and one compress keeps the images
below M.  One helper thread computes the next Feistel chunk of
_CHUNK domain positions while the caller screens the current one.  The
pair stream unranks, lifts and keys each chunk in slices of _SLICE
indices, so besides the permutation only one slice's temporaries are
alive.  The permutation is deterministic in the seed, and no output
depends on _CHUNK or _SLICE, which the stream reads at call time.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

from . import metric
from .core import ParameterError, _universe_rows, word_count
from .metric import witness_splits

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


def _first_round(start: int, cols: np.ndarray, first: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Positions start, start + 1, ... after round 1, written into left and right (one per lane).

    Position row * width + col (width = first.size) leaves round 1 as
    left = col and right = row ^ first[col], with first[col] = F(col, key):
    the left half is constant along a row.  Whole rows are broadcast; a
    partial row at either end takes a slice of `first`.
    """
    width = first.size
    row, col = divmod(start, width)
    head = min(left.size, width - col)  # the lanes left in start's row
    left[:head] = cols[col : col + head]
    np.bitwise_xor(first[col : col + head], np.uint32(row), out=right[:head])
    rows, tail = divmod(left.size - head, width)
    end = head + rows * width
    if rows:
        left[head:end].reshape(rows, width)[:] = cols
        row_ids = np.arange(row + 1, row + 1 + rows, dtype=np.uint32)[:, None]
        np.bitwise_xor(first, row_ids, out=right[head:end].reshape(rows, width))
    if tail:
        left[end:] = cols[:tail]
        np.bitwise_xor(first[:tail], np.uint32(row + rows + 1), out=right[end:])


def _feistel_images(lo: int, hi: int, nbits: int, keys: np.ndarray, m: int) -> np.ndarray:
    """Images below m of the domain positions [lo, hi), in position order, as int64.

    Four balanced rounds on nbits-bit values.  Round 1 comes from a table:
    first = F(col, keys[0]) over the 2^half right halves, computed once per
    call and laid along each row of 2^half positions (_first_round), so
    no lane outside [lo, hi) is computed.  Rounds 2-4 run in place on
    blocks of _FEISTEL_BLOCK lanes: small enough that the round buffers
    stay in cache, and large enough that the helper thread makes few numpy
    calls, each of which must win the interpreter lock back from the caller
    screening the previous chunk in slices.  The image right << half | left
    is formed in uint32 (nbits <= 32), one compress keeps the images below
    m, and only those are cast to int64.
    """
    half = nbits // 2
    hmask = np.uint32((1 << half) - 1)
    cols = np.arange(1 << half, dtype=np.uint32)
    first = np.zeros(cols.size, dtype=np.uint32)
    _feistel_round(first, cols, keys[0], hmask, np.empty_like(first), np.empty_like(first))
    size = min(_FEISTEL_BLOCK, hi - lo)
    buffers = [np.empty(size, dtype=np.uint32) for _ in range(4)]
    images = []
    for start in range(lo, hi, size):
        left, right, mix, spare = (buf[: min(size, hi - start)] for buf in buffers)
        _first_round(start, cols, first, left, right)
        for key in keys[1:-1]:
            _feistel_round(left, right, key, hmask, mix, spare)
            left, right = right, left
        _feistel_round(left, right, keys[-1], hmask, mix, spare)
        np.left_shift(right, np.uint32(half), out=mix)
        mix |= left
        images.append(np.compress(mix < m, mix).astype(np.int64))
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
        # the plans that read side 0 alone: one key per t-subset of A, which exist iff d >= k + 1
        self.first_part = [(offset, vidx) for offset, _, side, uidx, vidx in self.plans if side == 1 and not uidx]

    def encode(self, cols: list[np.ndarray], idx: tuple[int, ...]):
        """The elements cols[idx] as one base-n number (0 for no index): a key's share from one side."""
        n = np.int64(self.n)
        enc = cols[idx[0]] if idx else np.int64(0)
        for pos in idx[1:]:
            enc = enc * n + cols[pos]
        return enc

    def build(self, a_cols: list[np.ndarray], b_cols: list[np.ndarray]) -> list[np.ndarray]:
        sides = (a_cols, b_cols)
        encoded: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        uses = Counter(key for _, _, side, uidx, vidx in self.plans for key in ((side, uidx), (1 - side, vidx)))

        def encode(side: int, idx: tuple[int, ...]):
            # encode each (side, index tuple) once, and hold it only until its last plan
            key = side, idx
            if key not in encoded:
                encoded[key] = self.encode(sides[side], idx)
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


def _stream_words(n: int, k: int, seed: int, dead: np.ndarray | None = None):
    """Yield the seeded word stream as (a_cols, b_cols) element columns.

    Index i of the stream is the ordered pair (A, B) with A of lex rank
    a = i // C(n-k, k) among the k-subsets of [0, n) and B the k-subset of
    lex rank i % C(n-k, k) of [0, n-k), lifted into the complement of A.
    The mirrored copy, min(A) > min(B), is dropped before any unrank: the
    complement of A has exactly min(A) elements below min(A), so the
    lifted B starts above min(A) iff B's own first element is >= min(A).
    Since B's first elements are sorted by rank, index i survives iff
    i >= start[a], where start[a] = a * C(n-k, k) + the first B rank whose
    first element is >= min(A): one int32 table, built once.

    `dead`, a bool per A rank that the caller may set between slices, drops
    every later word with a dead A: after each yielded slice it is folded
    into the table as start[a] = (a + 1) * C(n-k, k).  Only the surviving
    ids are unranked, gathered and lifted.

    Each permutation chunk of _CHUNK indices is walked in slices of _SLICE
    indices (both read at call time), and each slice with a kept word is
    yielded on its own, so the unrank, gather and lift temporaries and the
    caller's keys are sized by the slice.  The order depends on the seed
    alone, not on _CHUNK or _SLICE.
    """
    if 2 * k > n:
        return
    n_second = math.comb(n - k, k)
    m = math.comb(n, k) * n_second
    if m > STREAM_CAP:
        raise ParameterError(f"stream of {m} ordered words exceeds the cap {STREAM_CAP}")
    lex_a = [col.astype(np.int64) for col in _universe_rows(n, k, 1, 0).T]
    lex_b = [col.astype(np.int64) for col in _universe_rows(n - k, k, 1, 0).T]
    ends = np.arange(1, len(lex_a[0]) + 1, dtype=np.int32) * np.int32(n_second)  # m <= STREAM_CAP = 2^30
    start = ends - np.int32(n_second) + np.searchsorted(lex_b[0], lex_a[0]).astype(np.int32)
    for ids in _permuted_chunks(m, seed, _CHUNK):
        for lo in range(0, ids.size, _SLICE):
            part = ids[lo : lo + _SLICE]
            # a Python-int divisor keeps int32 ids in int32, where floor division is cheapest
            part = np.compress(part >= start[part // n_second], part)
            if not part.size:
                continue
            idx_a = part // n_second
            idx_b = part - idx_a * n_second
            a_cols = [col[idx_a] for col in lex_a]
            b_cols = [col[idx_b] for col in lex_b]
            # lift B out of the complement of A (shifts applied in ascending-A order)
            for aj in a_cols:
                for b in b_cols:
                    b += b >= aj
            yield a_cols, b_cols
            if dead is not None:
                np.putmask(start, dead, ends)


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


def greedy_pairs(n: int, k: int, d: int, seed: int):
    """Witness-claim greedy over the stream; returns accepted (a_tuple, b_tuple) rows.

    Where some key plans read A alone (d >= k + 1), `dead` marks each A
    rank one of whose first_part keys is claimed, and the stream drops
    every later word with that A before unranking it.  Claims only grow,
    so each such word would have been blocked anyway.  Claims change only
    when a slice accepts a word, so only then is `dead` refreshed, one
    plan's C(n, k) keys at a time.
    """
    builder = _KeyBuilder(n, k, d)
    claimed = np.zeros(builder.total_space, dtype=bool)
    accepted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    dead = first_cols = None
    if builder.first_part and 2 * k <= n:
        first_cols = list(_universe_rows(n, k, 1, 0).T)
        dead = np.zeros(len(first_cols[0]), dtype=bool)
    for a_cols, b_cols in _stream_words(n, k, seed, dead):
        hits = claim_greedy(builder.build(a_cols, b_cols), claimed)
        accepted.extend(zip(_rows(a_cols, hits), _rows(b_cols, hits)))
        if hits and dead is not None:
            for offset, vidx in builder.first_part:
                dead |= claimed[builder.encode(first_cols, vidx) + np.int64(offset)]
    return accepted


def far_rows(s: int, width: int, ids: int, limit: int):
    """The distance rule's test: far(row, columns) marks the rows of `columns`
    (one per column) at distance >= d from `row`.

    A row is s parts of width / s distinct ids below `ids`, as
    core._incidence_rows builds them; two rows are closer than d iff their
    best part matching shares more than `limit` = width - d ids.  At s = 1
    a column is far when it holds at most `limit` of row's ids.  From s = 2
    to metric._TUPLE_ENUMERATION_LIMIT every column's s x s common counts
    go to metric._best_matchings, the best of all s! matchings, which is
    compared with `limit`.  Above, a column is far when it holds at most
    `limit` of row's ids (a bound on the matching) or its common counts
    share at most that under metric._best_shares.
    """
    count = np.min_scalar_type(width)  # every count below is at most width
    parts = np.arange(1, s + 1, dtype=np.min_scalar_type(s))
    labels = np.repeat(parts, width // s)
    part_of = np.zeros(ids, dtype=parts.dtype)  # 1 + the row's part holding an id, or 0
    direct = 2 <= s <= metric._TUPLE_ENUMERATION_LIMIT

    def test(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
        part_of[row] = labels
        held = part_of.take(columns)
        part_of[row] = 0
        if direct:
            common = (held.reshape(s, width // s, 1, -1) == parts[:, None]).sum(axis=1, dtype=count)
            return metric._best_matchings(common.transpose(2, 0, 1)) <= limit
        far = (held != 0).sum(axis=0, dtype=count) <= limit
        if s > 1:
            near = ~far
            common = np.compress(near, held, axis=1).reshape(s, width // s, 1, -1) == parts[:, None]
            far[near] = metric._best_shares(common.sum(axis=1, dtype=count), limit) <= limit
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
