"""Differential tests of the greedy engine's stream, Feistel permutation, witness keys and matching test.

Each fast path is checked against a plain oracle: the
stream against unrank -> lift -> drop the mirrored copies, the Feistel
chunks against four full-domain rounds followed by the `< m` filter, the
witness key columns against one encoding per plan, the threshold-matching
tail against the Hungarian method and the permutation oracle, and the
universe rows and the enumerators built on them against a brute-force
enumeration through the public constructors.
"""

from __future__ import annotations

import math
import random
import threading
import tracemalloc
import warnings
from itertools import combinations, permutations, product

import numpy as np
import pytest

from ekcodes import QaryWord, _greedy_fast, canonicalize, core, metric
from ekcodes.core import enumerate_qary_words, enumerate_words, word_count
from ekcodes.metric import _min_cost_matching
from ekcodes.search import greedy_code


def _feistel32(values, nbits, keys):
    """Oracle: four balanced rounds over whole uint32 blocks."""
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


def _feistel_chunks(m, seed, chunk):
    """Oracle: every domain block through all four rounds, then `vals < m`."""
    rng = np.random.default_rng(seed)
    nbits = max(2, m.bit_length())
    nbits += nbits % 2
    keys = rng.integers(0, 2**31, size=4, dtype=np.uint32)
    for lo in range(0, 1 << nbits, chunk):
        block = np.arange(lo, min(lo + chunk, 1 << nbits), dtype=np.uint32)
        vals = _feistel32(block, nbits, keys)
        vals = vals[vals < m]
        if vals.size:
            yield vals


def _stream_oracle(n, k, seed, chunk):
    """Oracle: unrank and lift every index, then drop the mirrored copies with c[keep].

    Returns the yielded chunks and the number of chunks in which no word was kept.
    """
    n_second = math.comb(n - k, k)
    m = math.comb(n, k) * n_second
    lex_a = [col.astype(np.int64) for col in core._universe_rows(n, k, 1, 0).T]
    lex_b = [col.astype(np.int64) for col in core._universe_rows(n - k, k, 1, 0).T]
    chunks, empty = [], 0
    for ids in _greedy_fast._permuted_chunks(m, seed, chunk):
        idx_a, idx_b = np.divmod(ids.astype(np.int64), np.int64(n_second))
        a_cols = [col[idx_a] for col in lex_a]
        b_cols = [col[idx_b] for col in lex_b]
        for aj in a_cols:
            for i in range(k):
                b_cols[i] = b_cols[i] + (b_cols[i] >= aj)
        keep = a_cols[0] < b_cols[0]
        if not keep.any():
            empty += 1
            continue
        chunks.append(([c[keep] for c in a_cols], [c[keep] for c in b_cols]))
    return chunks, empty


def _stream_cases():
    for k in (1, 2, 3):
        for n in (2 * k, 2 * k + 1, 12):
            chunks = (1, 7, 300, _greedy_fast._CHUNK) if n < 12 or k == 1 else (7, 300, _greedy_fast._CHUNK)
            for chunk in chunks:
                for cap in (_greedy_fast.SHUFFLE_CAP, 8):
                    yield n, k, chunk, cap


@pytest.mark.parametrize("n,k,chunk,cap", list(_stream_cases()))
def test_stream_matches_unrank_lift_keep_oracle(monkeypatch, n, k, chunk, cap):
    # cap 8 forces the Feistel branch, since _permuted_chunks reads SHUFFLE_CAP at call time
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", cap)
    monkeypatch.setattr(_greedy_fast, "_CHUNK", chunk)  # read at call time, as SHUFFLE_CAP is
    seed = 100 * n + k
    expected, empty = _stream_oracle(n, k, seed, chunk)
    got = list(_greedy_fast._stream_words(n, k, seed))
    assert len(got) == len(expected)
    for (a_cols, b_cols), (a_ref, b_ref) in zip(got, expected):
        for col, ref in zip(a_cols + b_cols, a_ref + b_ref):
            assert col.dtype == ref.dtype
            np.testing.assert_array_equal(col, ref)
    if chunk == 1:
        assert empty  # a one-index chunk holding a mirrored copy keeps no word
    assert sum(len(a[0]) for a, _ in got) == word_count(n, k, 2)


def _concatenated(chunks):
    """The a and b columns of a list of (a_cols, b_cols) chunks, each joined into one array."""
    return [np.concatenate(cols) for cols in zip(*(a + b for a, b in chunks))]


@pytest.mark.parametrize("n,k", [(12, 2), (9, 3), (9, 1), (4, 2)])
@pytest.mark.parametrize("cap", [_greedy_fast.SHUFFLE_CAP, 8], ids=["shuffle", "feistel"])
@pytest.mark.parametrize("size", [1, 7, 300])
def test_sliced_stream_matches_unrank_lift_keep_oracle(monkeypatch, n, k, cap, size):
    # cap 8 forces the Feistel branch; chunks of 1000 make slices of 300 end inside and at chunk ends
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", cap)
    monkeypatch.setattr(_greedy_fast, "_SLICE", size)  # the oracle walks whole chunks
    seed = 10 * n + k
    for chunk in (1000, _greedy_fast._CHUNK):
        monkeypatch.setattr(_greedy_fast, "_CHUNK", chunk)
        expected, _ = _stream_oracle(n, k, seed, chunk)
        got = list(_greedy_fast._stream_words(n, k, seed))
        assert all(0 < len(a[0]) <= size for a, _ in got)  # no empty slice is yielded
        for col, ref in zip(_concatenated(got), _concatenated(expected), strict=True):
            assert col.dtype == ref.dtype
            np.testing.assert_array_equal(col, ref)


@pytest.mark.parametrize("cap", [_greedy_fast.SHUFFLE_CAP, 8], ids=["shuffle", "feistel"])
def test_greedy_pairs_independent_of_slice(monkeypatch, cap):
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", cap)
    default = _greedy_fast._SLICE
    for n, k, d, seed in ((12, 2, 3, 9), (9, 3, 4, 2), (9, 1, 2, 5), (40, 2, 3, 3)):
        monkeypatch.setattr(_greedy_fast, "_SLICE", default)
        rows = _greedy_fast.greedy_pairs(n, k, d, seed)
        # one index per slice is too slow for the 548,340-index stream of n = 40
        for size in (1, 7, 300) if n < 40 else (300, 4099):
            monkeypatch.setattr(_greedy_fast, "_SLICE", size)
            assert _greedy_fast.greedy_pairs(n, k, d, seed) == rows


@pytest.mark.parametrize("m", [1, 2, 5, 4099, 65537])
def test_int32_shuffle_is_the_seeded_permutation(m):
    """_permuted_chunks shuffles an int32 arange in place; it must draw rng.permutation(m)."""
    for seed in (0, 5, 2**40):
        perm = np.arange(m, dtype=np.int32)
        np.random.default_rng(seed).shuffle(perm)
        np.testing.assert_array_equal(perm, np.random.default_rng(seed).permutation(m))
        chunks = list(_greedy_fast._permuted_chunks(m, seed, 1000))
        assert all(c.dtype == np.int32 for c in chunks)
        np.testing.assert_array_equal(np.concatenate(chunks), perm)


@pytest.mark.parametrize("cap", [_greedy_fast.SHUFFLE_CAP, 1], ids=["shuffle", "feistel"])
def test_greedy_pairs_working_set_is_bounded(monkeypatch, cap):
    """The traced peak (tracemalloc sees numpy's buffers) of a 548,340-index pair stream stays small.

    16 MiB is about half of what unranking, lifting and keying the whole
    stream at once takes, so a stage that stops slicing fails here.
    """
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", cap)  # cap 1 forces the Feistel branch
    tracemalloc.start()
    try:
        _greedy_fast.greedy_pairs(40, 2, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m", [2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 1000, 4099])
def test_feistel_chunks_match_full_domain_oracle(monkeypatch, m):
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", 1)
    for seed, chunk in ((0, 5), (3, 64), (11, _greedy_fast._CHUNK)):
        got = list(_greedy_fast._permuted_chunks(m, seed, chunk))
        expected = list(_feistel_chunks(m, seed, chunk))
        assert len(got) == len(expected)
        for vals, ref in zip(got, expected):
            assert vals.dtype == np.int64
            np.testing.assert_array_equal(vals, ref)
        flat = np.concatenate(got)
        np.testing.assert_array_equal(np.sort(flat), np.arange(m))


def _feistel_windows():
    """(nbits, lo, hi) windows that start and end mid-row, one row being 2^(nbits // 2) positions."""
    for nbits in (4, 10, 24, 30):
        width = 1 << nbits // 2
        yield nbits, 3, 5  # inside one row
        yield nbits, width - 1, width + 1  # across one row boundary
        yield nbits, width // 2 + 1, 3 * width + 3  # a partial row, whole rows, a partial row
    yield 24, 4096 * 7 + 100, 4096 * 8 + 100  # 4,096 lanes, the smallest greedy_packing Feistel chunk
    yield 30, (1 << 15) * 9 + 77, (1 << 15) * 9 + 77 + 4096
    yield 24, 5, 5 + _greedy_fast._FEISTEL_BLOCK + 4099  # a ragged window over two blocks
    yield 30, 0, (1 << 15) * 3  # whole rows only


@pytest.mark.parametrize("nbits,lo,hi", list(_feistel_windows()))
def test_feistel_windows_match_oracle(nbits, lo, hi):
    keys = np.random.default_rng(nbits + lo).integers(0, 2**31, size=4, dtype=np.uint32)
    ref = _feistel32(np.arange(lo, hi, dtype=np.uint32), nbits, keys)
    for m in (1 << nbits - 1, (1 << nbits) - 3, 1 << nbits):
        got = _greedy_fast._feistel_images(lo, hi, nbits, keys, m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref[ref < m])


def test_feistel_helper_thread_keeps_streams_apart(monkeypatch):
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", 1)
    alone = [np.concatenate(list(_greedy_fast._permuted_chunks(4099, seed, 97))) for seed in (1, 2)]
    first = _greedy_fast._permuted_chunks(4099, 1, 97)
    second = _greedy_fast._permuted_chunks(4099, 2, 97)
    runs: tuple[list, list] = ([], [])
    for a, b in zip(first, second):
        runs[0].append(a)
        runs[1].append(b)
    runs[0].extend(first)
    runs[1].extend(second)
    for run, ref in zip(runs, alone):
        np.testing.assert_array_equal(np.concatenate(run), ref)


def test_feistel_helper_thread_ends_with_the_stream(monkeypatch):
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", 1)
    before = threading.active_count()
    for _ in _greedy_fast._permuted_chunks(1 << 20, 5, 1 << 12):
        break
    assert threading.active_count() == before
    stream = _greedy_fast._permuted_chunks(1 << 20, 5, 1 << 12)
    next(stream)
    assert threading.active_count() == before + 1
    stream.close()
    assert threading.active_count() == before
    list(_greedy_fast._permuted_chunks(4099, 5, 1000))
    assert threading.active_count() == before


def _random_common(rng, s):
    """The s x s common-count matrix of two random s-part words."""
    width = rng.randint(1, 4)
    n = rng.randint(s * width, s * width + 6)
    a = rng.sample(range(n), s * width)
    b = rng.sample(range(n), s * width)
    a_parts = [set(a[i * width : (i + 1) * width]) for i in range(s)]
    b_parts = [set(b[i * width : (i + 1) * width]) for i in range(s)]
    return [[len(x & y) for y in b_parts] for x in a_parts]


@pytest.mark.parametrize("s", range(1, 8))
def test_matching_bounds_bracket_the_optimum(s):
    """The threshold-matching tail of verify and greedy against exact matchings, at every limit."""
    rng = random.Random(900 + s)
    draws = [_random_common(rng, s) for _ in range(300)]
    if s <= 6:
        best = [max(sum(c[i][p[i]] for i in range(s)) for p in permutations(range(s))) for c in draws]
    else:
        best = [-_min_cost_matching([[-x for x in row] for row in c]) for c in draws]
    best = np.array(best)
    common = np.array(draws).transpose(1, 2, 0)  # (s, s, batch), as the kernels pass it
    lower, upper = metric._matching_bounds(common)
    assert (lower <= best).all() and (best <= upper).all()
    for limit in range(-1, int(common.sum(axis=(0, 1)).max()) + 2):
        shares = metric._best_shares(common, limit)
        np.testing.assert_array_equal(shares > limit, best > limit)
        exact = slice(None) if s <= 2 else (lower <= limit) & (limit < upper)
        np.testing.assert_array_equal(shares[exact], best[exact])
    if s >= 3:
        assert (lower < best).any() and (best < upper).any()  # neither bound is always exact on these draws


def test_two_part_closed_form_matches_best_matchings():
    rng = np.random.default_rng(21)
    for high in (2, 4, 7):
        weights = rng.integers(0, high, size=(400, 2, 2))
        expected = metric._best_matchings(weights)
        for floor in (-1, 0, 1, 3, 2 * high):
            np.testing.assert_array_equal(metric._best_shares(weights.transpose(1, 2, 0), floor), expected)


@pytest.mark.parametrize("tile", [1, 97, metric._MATCHING_TILE_CELLS], ids=["tile1", "tile97", "default"])
@pytest.mark.parametrize("s", range(1, 6))
def test_far_rows_matches_tuple_distance(monkeypatch, s, tile):
    """The distance rule's far test against tuple_distance, on both sides of the enumeration limit.

    Random words, some far apart and some close, are tested as rows
    against random live column sets, the empty set included, at every d;
    one far test serves several rows in turn, as in greedy_by_distance.
    """
    monkeypatch.setattr(metric, "_MATCHING_TILE_CELLS", tile)
    rng = random.Random(700 + s)
    for k in (1, 2, 3):
        n = s * k + 2
        drawn = [rng.sample(range(n), s * k) for _ in range(40)]
        words = [canonicalize([ids[i : i + k] for i in range(0, s * k, k)], n) for ids in drawn]
        rows = core._incidence_rows(words, n, k, s, 0)
        for d in range(1, s * k + 1):
            far = _greedy_fast.far_rows(s, s * k, n, s * k - d)
            for i in range(4):
                live = sorted(rng.sample(range(len(words)), rng.randint(0, len(words)))) if i else []
                got = far(rows[i], rows[live].T)
                assert got.dtype == bool and got.shape == (len(live),)
                assert got.tolist() == [metric.tuple_distance(words[i], words[j]) >= d for j in live]


def _loop_keys(builder, a_cols, b_cols):
    """Oracle: the key columns encoded afresh for every plan, each from 0 * n + the first column."""
    n = np.int64(builder.n)
    sides = (a_cols, b_cols)

    def encode(cols, idx):
        enc = np.int64(0)
        for pos in idx:
            enc = enc * n + cols[pos]
        return enc

    keys = []
    for offset, symmetric, small_side, uidx, vidx in builder.plans:
        enc_u = encode(sides[small_side], uidx)
        enc_v = encode(sides[1 - small_side], vidx)
        if symmetric:
            enc_u, enc_v = np.minimum(enc_u, enc_v), np.maximum(enc_u, enc_v)
        keys.append(enc_u * np.int64(builder.n ** len(vidx)) + enc_v + np.int64(offset))
    return keys


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_key_builder_matches_per_plan_encoding(monkeypatch, k):
    n = 2 * k + 5
    monkeypatch.setattr(_greedy_fast, "_CHUNK", 200)
    a_cols, b_cols = next(_greedy_fast._stream_words(n, k, 40 + k))
    for d in range(1, 2 * k + 1):
        builder = _greedy_fast._KeyBuilder(n, k, d)
        got = builder.build(a_cols, b_cols)
        expected = _loop_keys(builder, a_cols, b_cols)
        assert len(got) == len(expected) == len(builder.plans)
        for col, ref in zip(got, expected):
            assert col.dtype == ref.dtype == np.int64
            np.testing.assert_array_equal(col, ref)


def _universe_cases():
    cases = []
    for s in range(1, 6):
        for k in (1, 2, 3):
            # wider n where the last part and the one-pass table carry many rows
            wider = (20, 70) if s == 1 else (12,) if (s, k) == (2, 2) else ()
            for n in (*range(max(0, s * k - 2), s * k + 3), *wider):
                if word_count(n, k, s) <= 20_000:
                    cases.append((n, k, s, 0))
    # k = 1 pairs on both sides of 64 elements and up to 100, four parts at n = 8-10, and s*k > n
    extra = [(n, 1, 2) for n in (63, 64, 65, 100)] + [(n, k, 4) for k in (1, 2) for n in (8, 9, 10)]
    extra += [(0, 3, 5), (2, 1, 5), (5, 2, 4), (3, 3, 2)]
    # wide parts at n = s*k, where few of the C(n, k) subsets complete a row
    extra += [(14, 7, 2), (12, 4, 3)]
    cases += [(n, k, s, 0) for n, k, s in extra if (n, k, s, 0) not in cases]
    for q in (2, 3, 4):
        for k in (0, 1, 2, 3):
            for n in range(max(0, k - 2), k + 4):
                cases.append((n, k, 1, q))
    return cases


def _disjoint_combinations(parts, s):
    """The s-combinations of `parts` whose members are pairwise disjoint, in lex order."""
    if s == 0:
        yield ()
        return
    for i, part in enumerate(parts):
        rest = [other for other in parts[i + 1 :] if set(other).isdisjoint(part)]
        for tail in _disjoint_combinations(rest, s - 1):
            yield (part, *tail)


def _brute_universe(n, k, s, q):
    """Oracle: every word of a universe in enumeration order, built through the public constructors."""
    if q:
        rows = [row for row in product(range(q), repeat=n) if n - row.count(0) == k]
        rows.sort(key=lambda row: ([i for i, x in enumerate(row) if x], [x for x in row if x]))
        return [QaryWord(n, q, row) for row in rows]
    if s * k > n:  # no s disjoint parts fit
        return []
    return [canonicalize(combo, n, k) for combo in _disjoint_combinations(list(combinations(range(n), k)), s)]


@pytest.mark.parametrize("n,k,s,q", list(_universe_cases()))
def test_universe_rows_match_enumerated_words(n, k, s, q):
    expected = _brute_universe(n, k, s, q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate enumerations warn
        words = list(enumerate_qary_words(n, k, q) if q else enumerate_words(n, k, s))
    assert words == expected
    got = core._universe_rows(n, k, s, q)
    assert got.dtype == np.int32
    assert got.shape == (len(expected), 2 * k if q else s * k)
    np.testing.assert_array_equal(got, core._incidence_rows(expected, n, k, s, q))


def test_weight_zero_universe_is_one_word():
    assert core._universe_rows(3, 0, 1, 2).shape == (1, 0)
    assert list(enumerate_qary_words(3, 0, 2)) == [QaryWord(3, 2, (0, 0, 0))]


@pytest.mark.parametrize(
    "n,k,d,kwargs",
    [(3, 2, 3, {}), (3, 2, 3, {"mode": "distance"}), (5, 2, 3, {"s": 3}), (2, 1, 1, {"s": 4}), (2, 3, 4, {"q": 3})],
)
def test_degenerate_greedy_is_empty_without_warning(n, k, d, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = greedy_code(n, k, d, 1, **kwargs)
    assert len(code) == 0
