import hashlib
import math
import random
import time
from itertools import permutations

import numpy as np
import pytest

from ekcodes import (
    Code,
    CyclicGeneratorPair,
    KSubset,
    ParameterError,
    QaryPairWord,
    QaryWord,
    STuple,
    affine_plane,
    canonicalize,
    code_to_json,
    compose_code,
    enumerate_qary_words,
    enumerate_words,
    exact_max_code,
    exhaustive_max_code,
    greedy_code,
    min_distance_at_least,
    multi_orbit_code,
    orbit_code,
    pair_distance,
    qary_distance,
    qary_pair_distance,
    qary_word_count,
    ratio_experiment,
    tuple_distance,
    upper_bound,
    verify_code,
    witness_set,
    word_count,
    zero_sum_quadruples,
)
from ekcodes import _greedy_fast, core, metric, search


def test_verify_orbit_codes():
    code = orbit_code(CyclicGeneratorPair(9, (1, 8), (2, 3)))
    assert verify_code(code) == 3
    code17 = multi_orbit_code(17, [((0, 7), (2, 6)), ((0, 11), (7, 8))], d=3)
    assert code17.verified_min_distance == 3


def test_verify_single_word_is_infinite():
    word = canonicalize([(0, 1), (2, 3)], 6)
    code = Code(6, 2, 2, 0, 3, frozenset({word}))
    assert math.isinf(verify_code(code))
    empty = Code(6, 2, 2, 0, 3, frozenset())
    assert math.isinf(verify_code(empty))


def test_verify_matches_brute_force_tuple_distance():
    rng = random.Random(3)
    words = rng.sample(list(enumerate_words(8, 2, 2)), 40)
    code = Code(8, 2, 2, 0, 1, frozenset(words))
    brute = min(
        pair_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
    )
    assert verify_code(code) == brute


def _random_pair_codes(count: int, seed: int) -> list[Code]:
    rng = random.Random(seed)
    disjoint = [canonicalize([(4 * i, 4 * i + 1), (4 * i + 2, 4 * i + 3)], 12) for i in range(3)]
    crossed = [canonicalize([(0, 1), (2, 3)], 6), canonicalize([(2, 3), (4, 5)], 6)]
    codes = [
        # no two words share an element: distance 2k
        Code(12, 2, 2, 0, 1, frozenset(disjoint)),
        # the crossed matching beats the straight one
        Code(6, 2, 2, 0, 1, frozenset(crossed)),
    ]
    while len(codes) < count:
        k = rng.randint(1, 4)
        n = rng.choice([2 * k, 2 * k + 1, rng.randint(2 * k, 12), 63, 64, 65, 130, 361])
        words = set()
        for _ in range(rng.randint(2, 60)):
            elements = rng.sample(range(n), 2 * k)
            words.add(canonicalize([elements[:k], elements[k:]], n))
        codes.append(Code(n, k, 2, 0, 1, frozenset(words)))
    return codes


def _random_tuple_codes(s: int, count: int, seed: int) -> list[Code]:
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        k = rng.randint(1, 3)
        n = rng.choice([s * k, s * k + 1, rng.randint(s * k, s * k + 8), max(40, s * k)])
        words = set()
        for _ in range(rng.randint(2, 30)):
            elements = rng.sample(range(n), s * k)
            words.add(canonicalize([elements[i * k : (i + 1) * k] for i in range(s)], n))
        codes.append(Code(n, k, s, 0, 1, frozenset(words)))
    return codes


def _random_qary_word(rng, n: int, q: int, support: list[int]) -> QaryWord:
    symbols = [0] * n
    for i in support:
        symbols[i] = rng.randint(1, q - 1)
    return QaryWord(n, q, tuple(symbols))


def _random_qary_codes(s: int, count: int, seed: int) -> list[Code]:
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        q = rng.randint(2, 4)
        k = rng.randint(1, 3)
        n = rng.randint(s * k, s * k + 6)
        words = set()
        for _ in range(rng.randint(2, 40)):
            positions = rng.sample(range(n), s * k)
            members = [_random_qary_word(rng, n, q, positions[i * k : (i + 1) * k]) for i in range(s)]
            words.add(members[0] if s == 1 else QaryPairWord(*members))
        codes.append(Code(n, k, s, q, 1, frozenset(words)))
    return codes


def _shared_nothing_codes() -> list[Code]:
    """One code of each kind whose words share no incidence: distance s * w."""
    rng = random.Random(5)
    tuples = [canonicalize([(6 * i + j,) for j in range(3)], 18) for i in range(3)]
    singles = [_random_qary_word(rng, 9, 4, [3 * i, 3 * i + 1, 3 * i + 2]) for i in range(3)]
    pairs = [
        QaryPairWord(
            _random_qary_word(rng, 12, 3, [4 * i, 4 * i + 1]),
            _random_qary_word(rng, 12, 3, [4 * i + 2, 4 * i + 3]),
        )
        for i in range(3)
    ]
    return [
        Code(18, 1, 3, 0, 1, frozenset(tuples)),
        Code(9, 3, 1, 4, 1, frozenset(singles)),
        Code(12, 2, 2, 3, 1, frozenset(pairs)),
    ]


def _brute_min_distance(code: Code) -> int | float:
    if code.q == 0:
        distance = tuple_distance
    elif code.s == 1:
        distance = qary_distance
    else:
        distance = qary_pair_distance
    words = list(code.words)
    return min(
        (distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :]),
        default=math.inf,
    )


@pytest.mark.parametrize("tile", [1, 3, 64, search._PAIR_TILE])
def test_verify_pair_codes_match_brute_force(monkeypatch, tile):
    """The incidence kernel against brute force on every kind of code."""
    monkeypatch.setattr(search, "_PAIR_TILE", tile)
    codes = _random_pair_codes(100, seed=11)
    for s in (1, 3, 4, 5, 12, 20):
        codes += _random_tuple_codes(s, 15, seed=20 + s)
    codes += _random_qary_codes(1, 25, seed=31) + _random_qary_codes(2, 25, seed=32)
    codes += _shared_nothing_codes()
    for code in codes:
        brute = _brute_min_distance(code)
        assert verify_code(code) == brute, (code.n, code.k, code.s, code.q, sorted(map(repr, code.words)))
    assert [c.verified_min_distance for c in codes[:2]] == [4, 2]
    assert [c.verified_min_distance for c in codes[-3:]] == [3, 6, 8]


def test_best_matchings_against_permutations(monkeypatch):
    """Tiled enumeration (s <= 6) and per-matrix Hungarian (s = 7) against all s! matchings."""
    rng = np.random.default_rng(3)

    def expected(weights):
        s = weights.shape[1]
        return [max(sum(w[i][p[i]] for i in range(s)) for p in permutations(range(s))) for w in weights.tolist()]

    for s in range(1, 7):
        for high in (2, 5):
            weights = rng.integers(0, high, size=(60, s, s))
            assert metric._best_matchings(weights).tolist() == expected(weights)
    weights = rng.integers(0, 5, size=(4, 7, 7))
    assert metric._best_matchings(weights).tolist() == expected(weights)
    # matrices per tile at s = 4, 5, 6: 1 -> 1, 1, 1; 500 -> 5, 1, 1; 2000 -> 20, 3, 1;
    # 10000 -> 104, 16, 2; 2^20 -> all 23 in one tile
    for tile in (1, 500, 2000, 10000, 1 << 20):
        monkeypatch.setattr(metric, "_MATCHING_TILE_CELLS", tile)
        for s in range(1, 8):
            assert metric._best_matchings(np.zeros((0, s, s), dtype=np.int64)).tolist() == []
        for s in (4, 5, 6):
            weights = rng.integers(0, 5, size=(s, s, 23)).transpose(2, 0, 1)  # a view, as the kernels pass it
            assert metric._best_matchings(weights).tolist() == expected(weights)


def test_best_common_keeps_the_best_over_later_tiles(monkeypatch):
    """A later pair whose bounds beat the best so far but whose matching does not.

    Rows 0 and 1 keep 5 ids in one matching.  Rows 2 and 3 share 4, 2, 2
    and 0 ids across their parts: row and column maxima sum to 6, yet each
    matching keeps 4.
    """
    monkeypatch.setattr(search, "_PAIR_TILE", 1)
    rows = np.array(
        [
            list(range(12)),
            [0, 1, 2, 3, 4, 20, 21, 22, 23, 24, 25, 26],
            list(range(100, 112)),
            [100, 101, 102, 103, 106, 107, 104, 105, 200, 201, 202, 203],
        ],
        dtype=np.int32,
    )
    assert search._best_common(rows, 2) == 5
    assert search._best_common(rows[2:], 2) == 4


def _oracle_min_distance(code: Code) -> int:
    """Minimum distance of a pair code from the incidence kernel, called directly."""
    rows = core._incidence_rows(list(code.words), code.n, code.k, 2, 0)
    return 2 * code.k - search._best_common(rows, 2)


def _run_code(n: int, k: int, starts: list[tuple[int, int]]) -> Code:
    """The pair code of words {a, ..., a+k-1 | b, ..., b+k-1}, one per (a, b)."""
    return Code(n, k, 2, 0, 1, frozenset(canonicalize([range(a, a + k), range(b, b + k)], n) for a, b in starts))


def _walk_codes(seed: int) -> list[Code]:
    """Pair codes for the key walk: random ones, and ones whose minimum sits at a known place."""
    rng = random.Random(seed)
    codes = []
    for k in range(1, 5):
        # no shared element (minimum 2k), two words only (minimum 1), and the crossed matching beating the straight one
        codes.append(_run_code(6 * k, k, [(0, k), (2 * k, 3 * k), (4 * k, 5 * k)]))
        codes.append(_run_code(2 * k + 1, k, [(0, k), (0, k + 1)]))
        codes.append(_run_code(3 * k, k, [(0, k), (k, 2 * k)]))
    while len(codes) < 120:
        k = rng.randint(1, 4)
        n = rng.randint(2 * k, 14)
        words = set()
        for _ in range(rng.randint(2, 60)):
            elements = rng.sample(range(n), 2 * k)
            words.add(canonicalize([elements[:k], elements[k:]], n))
        if len(words) >= 2:
            codes.append(Code(n, k, 2, 0, 1, frozenset(words)))
    return codes


def test_witness_walk_matches_best_common(monkeypatch):
    """The key walk against the incidence kernel at every claimed d, from far below the truth to above 2k."""
    codes = _walk_codes(seed=41)
    truths = [_oracle_min_distance(c) for c in codes]
    assert truths[:3] == [2, 1, 1] and truths[9:12] == [8, 1, 4]
    assert min(map(len, codes[12:])) == 2 and max(map(len, codes)) > 40 and {c.k for c in codes[12:]} == {1, 2, 3, 4}
    oracle = search._best_common
    fallbacks = []
    monkeypatch.setattr(search, "_best_common", lambda rows, s: fallbacks.append(s) or oracle(rows, s))
    for code, truth in zip(codes, truths):
        for d in range(1, 2 * code.k + 4):
            claimed = Code(code.n, code.k, 2, 0, d, code.words)
            assert verify_code(claimed) == claimed.verified_min_distance == truth, (d, sorted(code.words))
    assert fallbacks == []


def test_witness_walk_falls_back_to_best_common(monkeypatch):
    """Keys over the cap or outside int64, at the walk's first step or midway, hand the code to the incidence kernel."""
    code = greedy_code(10, 2, 2, seed=3)
    truth = _oracle_min_distance(code)
    assert truth == 2
    oracle = search._best_common
    fallbacks = []
    monkeypatch.setattr(search, "_best_common", lambda rows, s: fallbacks.append(s) or oracle(rows, s))
    # at k = 2 a step holds 4, 6 and 4 keys per word at t = 1, 2, 3, and every walk here ends at t = 2
    k, words = code.k, len(code)
    cases = [(cap, d) for cap in (0, 4 * words) for d in range(1, 2 * k + 2)]
    for cap, d in cases:
        monkeypatch.setattr(search, "_WITNESS_KEY_CAP", cap)
        fallbacks.clear()
        claimed = Code(code.n, code.k, 2, 0, d, code.words)
        assert verify_code(claimed) == claimed.verified_min_distance == truth, (cap, d)
        assert fallbacks == [2], (cap, d)
    monkeypatch.setattr(search, "_WITNESS_KEY_CAP", 4 * words - 1)
    assert search._witness_keys(core._incidence_rows(list(code.words), code.n, k, 2, 0), code.n, k, 2) is None
    # 600^7 overflows int64 and 600^6 does not: a walk that reaches t = 7 falls back, at its first step or midway
    n = 600
    assert _greedy_fast._KeyBuilder(n, 4, 2).total_space >= 1 << 63 > _greedy_fast._KeyBuilder(n, 4, 3).total_space
    monkeypatch.setattr(search, "_WITNESS_KEY_CAP", 1 << 24)
    near = canonicalize([range(4), range(4, 8)], n)
    far = canonicalize([range(100, 104), range(200, 204)], n)
    for shared, d, expected in ((6, 1, [2]), (6, 3, [2]), (5, 2, [2]), (5, 3, [])):
        other = canonicalize([range(4), [*range(4, shared), *range(300, 304 + 4 - shared)]], n)
        fallbacks.clear()
        claimed = Code(n, 4, 2, 0, d, frozenset([near, other, far]))
        assert verify_code(claimed) == claimed.verified_min_distance == 8 - shared, (shared, d)
        assert fallbacks == expected, (shared, d)
    # the exact search's graph takes the row tests when its keys do not fit
    monkeypatch.setattr(search, "_WITNESS_KEY_CAP", 0)
    rows = core._universe_rows(8, 2, 2, 0)
    assert search._compatibility_masks(rows, 8, 2, 3) == _pair_distance_graphs(8, 2)[3]


def test_verify_stuple_code():
    words = frozenset(list(enumerate_words(7, 2, 3))[:12])
    code = Code(7, 2, 3, 0, 1, words)
    listed = sorted(words)
    brute = min(
        tuple_distance(a, b) for i, a in enumerate(listed) for b in listed[i + 1 :]
    )
    assert verify_code(code) == brute


def test_verify_qary_code():
    words = frozenset(enumerate_qary_words(4, 2, 3))
    code = Code(4, 2, 1, 3, 1, words)
    listed = sorted(words, key=lambda w: w.symbols)
    brute = min(
        qary_distance(a, b) for i, a in enumerate(listed) for b in listed[i + 1 :]
    )
    assert verify_code(code) == brute == 1


def _no_shared_witness(code, d):
    """Oracle: min distance >= d iff no two words share a witness."""
    claimed: set = set()
    for word in sorted(code.words):
        wits = witness_set(word, d)
        if not claimed.isdisjoint(wits):
            return False
        claimed |= wits
    return True


def test_witness_route_agrees_with_all_pairs():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(6, 10)
        words = rng.sample(list(enumerate_words(n, 2, 2)), rng.randint(3, 25))
        code = Code(n, 2, 2, 0, 1, frozenset(words))
        minimum = verify_code(code)
        for d in range(1, 5):
            assert min_distance_at_least(code, d) == (minimum >= d) == _no_shared_witness(code, d)


def test_greedy_witness_and_distance_modes_identical():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(6, 14)
        k = rng.randint(1, 3)
        if 2 * k > n:
            continue
        d = rng.randint(2, 2 * k)  # d=1 accepts everything in both modes
        seed = rng.randint(0, 10**6)
        via_witness = greedy_code(n, k, d, seed, mode="witness")
        via_distance = greedy_code(n, k, d, seed, mode="distance")
        assert via_witness.words == via_distance.words


def test_greedy_d1_accepts_whole_universe():
    code = greedy_code(6, 2, 1, seed=4)
    assert len(code) == 45
    assert greedy_code(6, 2, 1, seed=4, mode="distance").words == code.words


def test_greedy_is_valid_and_maximal_small():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(6, 12)
        k = rng.randint(1, 3)
        if 2 * k > n:
            continue
        d = rng.randint(2, 2 * k)
        code = greedy_code(n, k, d, rng.randint(0, 10**6))
        assert verify_code(code) >= d
        # maximality: every unused word conflicts with an accepted one
        claimed = set()
        for word in code.words:
            claimed |= witness_set(word, d)
        for word in enumerate_words(n, k, 2):
            if word not in code.words:
                assert not claimed.isdisjoint(witness_set(word, d))


def test_greedy_bound_at_9_2_3():
    code = greedy_code(9, 2, 3, seed=0)
    assert len(code) <= 9
    assert verify_code(code) >= 3


def test_greedy_disjoint_support_sizes():
    # at d = 2k the greedy always packs floor(n / 2k) disjoint-support words
    for n, k, seed in ((11, 1, 0), (29, 2, 1), (40, 2, 2), (19, 3, 3), (24, 3, 4)):
        code = greedy_code(n, k, 2 * k, seed)
        assert len(code) == n // (2 * k)
        assert verify_code(code) >= 2 * k


def _pair_stream(n, k, seed):
    """The pair words of _stream_words, in stream order."""
    for a_cols, b_cols in _greedy_fast._stream_words(n, k, seed):
        for a, b in zip(zip(*(c.tolist() for c in a_cols)), zip(*(c.tolist() for c in b_cols))):
            yield STuple((KSubset(n, a), KSubset(n, b)))


def _stream_witness_greedy(n, k, d, seed):
    """Oracle: walk the engine's word stream one word at a time, claiming witness_set."""
    claimed: set = set()
    accepted = set()
    for word in _pair_stream(n, k, seed):
        wits = witness_set(word, d)
        if claimed.isdisjoint(wits):
            claimed |= wits
            accepted.add(word)
    return frozenset(accepted)


@pytest.mark.parametrize("n,k,d,first_part", [(12, 2, 3, True), (9, 3, 4, True), (9, 1, 2, True), (10, 3, 5, True), (12, 2, 2, False), (9, 3, 3, False)])
@pytest.mark.parametrize("cap", [_greedy_fast.SHUFFLE_CAP, 8], ids=["shuffle", "feistel"])
@pytest.mark.parametrize("size", [1, 7, 300])
def test_greedy_pairs_with_first_part_screen_match_stream_oracle(monkeypatch, n, k, d, first_part, cap, size):
    """Where keys read A alone, the stream drops words whose A is dead; the greedy must not change.

    A slice's accepted words may drop A's only from the next slice on, so
    one-index slices check that the dead table is refreshed after every
    accepting slice, and longer ones that it is not refreshed mid-slice.
    """
    monkeypatch.setattr(_greedy_fast, "SHUFFLE_CAP", cap)  # cap 8 forces the Feistel branch
    monkeypatch.setattr(_greedy_fast, "_SLICE", size)
    seed = 10 * n + d
    expected = _stream_witness_greedy(n, k, d, seed)
    streamed = []
    real = _greedy_fast._stream_words
    monkeypatch.setattr(
        _greedy_fast, "_stream_words", lambda *args: (streamed.append(len(a[0])) or (a, b) for a, b in real(*args))
    )
    rows = _greedy_fast.greedy_pairs(n, k, d, seed)
    assert frozenset(STuple((KSubset(n, a), KSubset(n, b))) for a, b in rows) == expected
    assert len(rows) == len(expected)
    assert bool(_greedy_fast._KeyBuilder(n, k, d).first_part) == first_part
    # the screen drops words only where keys read A alone, and only from a stream's second slice on
    several = math.comb(n, k) * math.comb(n - k, k) > size
    assert (sum(streamed) < word_count(n, k, 2)) == (first_part and several)


def _small_draws(count, seed):
    draws = [(7, 1, 1, 3), (9, 1, 2, 8), (8, 2, 1, 5), (11, 2, 4, 6), (12, 3, 6, 2)]
    rng = random.Random(seed)
    while len(draws) < count:
        n = rng.randint(4, 12)
        k = rng.randint(1, 3)
        if 2 * k <= n:
            draws.append((n, k, rng.randint(1, 2 * k), rng.randint(0, 10**6)))
    return draws


@pytest.mark.parametrize("n,k,d,seed", _small_draws(30, 43))
def test_greedy_matches_sequential_stream_oracle(n, k, d, seed):
    expected = _stream_witness_greedy(n, k, d, seed)
    assert greedy_code(n, k, d, seed).words == expected
    assert greedy_code(n, k, d, seed, mode="distance").words == expected


def _stream_distance_greedy(stream, distance, d):
    """Oracle: walk the words in stream order, one distance call per pair."""
    accepted = []
    for word in stream:
        if all(distance(word, other) >= d for other in accepted):
            accepted.append(word)
    return frozenset(accepted)


def _permuted(universe, seed, chunk=_greedy_fast._CHUNK):
    """The universe in _permuted_chunks order."""
    return [universe[i] for ids in _greedy_fast._permuted_chunks(len(universe), seed, chunk) for i in ids.tolist()]


# the oracle is quadratic in the words kept, so the universe is capped per d (d = 1 keeps every word)
_PAIR_ORACLE_CAP = {1: 400, 2: 2_500}


@pytest.mark.parametrize("n,k", [(n, k) for n in range(6, 15) for k in (1, 2, 3) if word_count(n, k, 2) <= 10_000])
@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_distance_mode_pairs_match_per_pair_oracle(n, k, seed):
    size = word_count(n, k, 2)
    stream = list(_pair_stream(n, k, seed))
    for d in range(1, 2 * k + 1):
        if size <= _PAIR_ORACLE_CAP.get(d, size):
            code = greedy_code(n, k, d, seed, mode="distance")
            assert code.words == _stream_distance_greedy(stream, pair_distance, d), d


def _tuple_and_qary_draws(count, seed):
    # k = 1, d = 1 and d = s*k (2k for q-ary) among the fixed draws
    draws = [(6, 1, 1, 3, 0, 4), (9, 1, 3, 3, 0, 5), (8, 2, 6, 3, 0, 6), (9, 2, 8, 4, 0, 7), (11, 2, 10, 5, 0, 8)]
    draws += [(5, 1, 1, 1, 2, 4), (6, 1, 2, 1, 3, 5), (6, 2, 4, 1, 4, 6), (7, 3, 1, 1, 3, 7), (3, 4, 2, 1, 3, 9)]
    rng = random.Random(seed)
    while len(draws) < count:
        s, q = rng.choice([(3, 0), (4, 0), (5, 0), (1, 2), (1, 3), (1, 4)])
        k = rng.randint(1, 3 if s == 1 else 2)
        n = rng.randint(s * k if q == 0 else k, s * k + 4)
        width = 2 * k if q else s * k
        if (qary_word_count(n, k, q) if q else word_count(n, k, s)) <= 1_500:
            draws.append((n, k, rng.randint(1, width), s, q, rng.randint(0, 10**6)))
    return draws


@pytest.mark.parametrize("n,k,d,s,q,seed", _tuple_and_qary_draws(40, 47))
def test_greedy_tuples_and_qary_match_per_pair_oracle(n, k, d, s, q, seed):
    distance = qary_distance if q else tuple_distance
    universe = list(enumerate_qary_words(n, k, q) if q else enumerate_words(n, k, s))
    code = greedy_code(n, k, d, seed, s=s, q=q)
    assert code.words == _stream_distance_greedy(_permuted(universe, seed), distance, d)
    assert verify_code(code) >= d
    # maximal: every word left out is closer than d to a kept one
    for word in universe:
        if word not in code.words:
            assert any(distance(word, other) < d for other in code.words)


@pytest.mark.parametrize(
    "n,k,d,s,seed",
    [
        (9, 3, 5, 3, 1), (10, 3, 5, 3, 2), (10, 3, 7, 3, 0), (12, 3, 7, 4, 1), (12, 3, 9, 4, 0), (10, 2, 4, 5, 0),
        (12, 2, 6, 6, 0),
    ],
)
def test_greedy_with_open_matching_bounds_matches_per_pair_oracle(monkeypatch, n, k, d, s, seed):
    batches, screened = [], []

    def counted(weights):
        batches.append(len(weights))
        return best_matchings(weights)

    def shares(common, floor):
        screened.append(common.shape[2])
        return best_shares(common, floor)

    best_matchings, best_shares = metric._best_matchings, metric._best_shares
    monkeypatch.setattr(metric, "_best_matchings", counted)
    monkeypatch.setattr(metric, "_best_shares", shares)
    expected = _stream_distance_greedy(_permuted(list(enumerate_words(n, k, s)), seed), tuple_distance, d)
    assert greedy_code(n, k, d, seed, s=s).words == expected
    if s <= metric._TUPLE_ENUMERATION_LIMIT:
        assert not screened  # every live column's matchings are summed directly
    else:
        assert batches  # some pairs fell between the largest cell and the row/column-maxima bound


def _verified(code):
    verify_code(code)
    return code


_PAIR19 = CyclicGeneratorPair(19, (1, 5, 19), (2, 13, 15))


def _sqs64_composition():
    base = _verified(Code(4, 2, 2, 0, 2, frozenset(enumerate_words(4, 2, 2))))
    return compose_code(zero_sum_quadruples(6), base, k=2, d=2)


@pytest.mark.parametrize(
    "build, length, digest",
    [
        pytest.param(
            lambda: orbit_code(_PAIR19),
            467, "302817ee9856fc0755cdda1aabd31d6c29624574866458c30cedf118a3e56c5c", id="pair19-orbit",
        ),
        pytest.param(
            lambda: multi_orbit_code(17, [((0, 7), (2, 6)), ((0, 11), (7, 8))], d=3),
            600, "ef00f46f57426777b69b0950e2f77ae1300424f82fb59f283145efeeb446ea97", id="multi-orbit-17",
        ),
        pytest.param(
            lambda: compose_code(affine_plane(19), _verified(orbit_code(_PAIR19)), k=3, d=5),
            203472, "b5dd9f9a2366495791f3f891a846e803a06c29a0a10c1f3bc43d7c5ad5e779e0", id="ag19-composition",
        ),
        pytest.param(
            _sqs64_composition,
            543005, "dafcc626022954a9e9445ade4ceebf7989314bdc5d138ea52a01d57fea26a253", id="sqs64-composition",
        ),
        pytest.param(
            lambda: greedy_code(12, 2, 3, 1, mode="witness"),
            262, "741ee1a71cf6f2db7339104b52027e6316ec69658b64ad1e1d16e25335e198ce", id="greedy-12-2-3-witness",
        ),
        pytest.param(
            lambda: greedy_code(12, 2, 3, 1, mode="distance"),
            262, "741ee1a71cf6f2db7339104b52027e6316ec69658b64ad1e1d16e25335e198ce", id="greedy-12-2-3-distance",
        ),
        pytest.param(
            lambda: greedy_code(9, 2, 3, 1, q=3),
            268, "ddf6b4501549125aacce9ae37523bf768ad68fd93d37658e3d0f4f68505911eb", id="greedy-q3-9-2-3",
        ),
        pytest.param(
            lambda: exact_max_code(8, 2, 3).best_code,
            154, "f5b3eae979d6b1f396bdbcb9c1caf3e7e177433be3a276d3667e4f245fa54504", id="exact-8-2-3",
        ),
        pytest.param(  # 293 words
            lambda: greedy_code(11, 3, 3, 1, s=3),
            7930, "e2a07032e803ba0bc09d50b05da377af0f0da78b9f1295fc961363c5c23ec16a", id="greedy-s3-11-3-3",
        ),
        pytest.param(
            lambda: greedy_code(9, 2, 3, 1, s=4),
            1214, "5e98e70c8f9e7fc6c81eac07d146ec45661d43b9765faf4b57407268f0c64ee1", id="greedy-s4-9-2-3",
        ),
        pytest.param(
            lambda: greedy_code(10, 2, 3, 1, s=3),
            911, "b9234631303a7a43b22c7d05b127f3e0d00626563b714222411f8f537b1b1916", id="greedy-s3-10-2-3",
        ),
        pytest.param(
            lambda: greedy_code(17, 2, 3, 1, mode="distance"),
            509, "f0e1b3c8809e53c597a3b69c197cff06a7b7794ae12506690d3bab207ecc5200", id="greedy-17-2-3-distance",
        ),
        pytest.param(  # k = 1 pairs on 66 elements, whose universe table is built past 64 elements
            lambda: exact_max_code(66, 1, 2, node_budget=2000).best_code,
            457, "ac1573fe2b2e2360eb7d31e6331dc7e36363c532b6a0faf3418cbb5b6aeb0867", id="exact-66-1-2",
        ),
        pytest.param(  # the pair stream's in-memory shuffle, with the A-side screen (d >= k + 1)
            lambda: greedy_code(61, 2, 3, 1),
            7430, "450b4393171c7ff807bddcf3786b354270aef64066c84eea0e883bd5f6af1d51", id="greedy-61-2-3",
        ),
        pytest.param(  # the pair stream's Feistel branch: 4.3M ordered words, above SHUFFLE_CAP
            lambda: greedy_code(66, 2, 3, 1),
            8661, "29deb5ba31dc3407c626239b36ef226d758a011ac99009cc30c43ef5e5a036e0", id="greedy-66-2-3",
        ),
        pytest.param(  # A-side keys at k = 3: one per 2-subset of the first part
            lambda: greedy_code(30, 3, 4, 2),
            7043, "7a879b4292a546457812c2732f43ec54824613736f49ad7436e5102cfcb9c592", id="greedy-30-3-4",
        ),
        pytest.param(  # d <= k: no key reads the first part alone, so no A-side screen
            lambda: greedy_code(20, 3, 3, 4),
            17359, "4c38920b9b766b4268bcaa1556d7bbf9178e13067116758b226ee3f8d3af26f1", id="greedy-20-3-3",
        ),
    ],
)
def test_code_json_is_pinned(build, length, digest):
    """Every producer's JSON bytes, pinned: length and SHA-256."""
    text = code_to_json(build())
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_greedy_by_distance_independent_of_chunk():
    for n, k, d, seed in ((9, 2, 3, 4), (10, 2, 4, 11), (7, 1, 2, 5)):
        universe = list(enumerate_words(n, k, 3))
        table = core._incidence_rows(universe, n, k, 3, 0)
        runs = []
        for chunk in (1, 7, _greedy_fast._CHUNK):
            rows = table[np.concatenate(list(_greedy_fast._permuted_chunks(len(table), seed, chunk)))]
            runs.append(_greedy_fast.greedy_by_distance(rows, 3, 3 * k - d).tolist())
        assert runs[0] == runs[1] == runs[2]
        expected = _stream_distance_greedy(_permuted(universe, seed, chunk=7), tuple_distance, d)
        assert greedy_code(n, k, d, seed, s=3).words == expected


def test_greedy_pairs_independent_of_chunk(monkeypatch):
    default = _greedy_fast._CHUNK
    for n, k, d, seed in ((12, 2, 3, 9), (9, 3, 4, 2), (9, 1, 2, 5)):
        monkeypatch.setattr(_greedy_fast, "_CHUNK", default)
        rows = _greedy_fast.greedy_pairs(n, k, d, seed)
        for chunk in (1, 7, 300):
            monkeypatch.setattr(_greedy_fast, "_CHUNK", chunk)
            assert _greedy_fast.greedy_pairs(n, k, d, seed) == rows


def test_greedy_distance_route_when_keys_do_not_fit(monkeypatch):
    draws = ((14, 2, 3, 9), (12, 3, 2, 4), (10, 2, 1, 7))
    vectorized = [greedy_code(n, k, d, seed).words for n, k, d, seed in draws]
    monkeypatch.setattr(_greedy_fast, "SPACE_CAP", 1)
    for (n, k, d, seed), words in zip(draws, vectorized):
        assert not _greedy_fast.applicable(n, k, d)
        assert greedy_code(n, k, d, seed, mode="witness").words == words


@pytest.mark.parametrize("n,k,d,seed", [(36, 2, 3, 5), (35, 2, 4, 5)])
def test_greedy_modes_agree_on_large_universe(n, k, d, seed):
    via_witness = greedy_code(n, k, d, seed, mode="witness")
    assert via_witness.words == greedy_code(n, k, d, seed, mode="distance").words


def test_greedy_fast_engine_valid_and_maximal():
    # a 176,715-word universe, screened over many doubling slices
    code = greedy_code(36, 2, 3, seed=5)
    assert verify_code(code) >= 3
    assert len(code) <= upper_bound(36, 2, 3).floor_value
    claimed = set()
    for word in code.words:
        claimed |= witness_set(word, 3)
    missed = sum(
        1
        for word in enumerate_words(36, 2, 2)
        if word not in code.words and claimed.isdisjoint(witness_set(word, 3))
    )
    assert missed == 0


def test_greedy_stuple_and_qary_modes():
    rng = random.Random(41)
    code = greedy_code(9, 2, 2, seed=1, s=3)
    assert code.s == 3
    assert verify_code(code) >= 2
    qcode = greedy_code(8, 2, 3, seed=1, q=3)
    assert qcode.q == 3 and qcode.s == 1
    assert verify_code(qcode) >= 3
    with pytest.raises(ParameterError):
        greedy_code(8, 2, 3, seed=1, q=3, s=2)


def test_greedy_deterministic():
    a = greedy_code(12, 2, 3, seed=9)
    b = greedy_code(12, 2, 3, seed=9)
    assert a.words == b.words


def test_greedy_rejects_negative_seed():
    for kwargs in ({}, {"s": 3}, {"q": 3}):
        with pytest.raises(ParameterError, match="seed"):
            greedy_code(9, 2, 3, seed=-1, **kwargs)


def test_greedy_rejects_negative_ground_set():
    # at d = 2 the pairs' witness space n^(2k - d + 1) is negative, at d = 3 positive
    for kwargs in ({}, {"mode": "distance"}, {"s": 3}, {"q": 3}):
        for d in (2, 3):
            with pytest.raises(ParameterError, match="n=-1"):
                greedy_code(-1, 2, d, 0, **kwargs)


def test_greedy_witness_mode_only_for_set_pairs():
    with pytest.raises(ParameterError, match="witness"):
        greedy_code(7, 2, 3, 0, s=3, mode="witness")
    for kwargs in ({"s": 1}, {"s": 3}, {"s": 4, "k": 1}, {"q": 3}):
        params = {"n": 7, "k": 2, "d": 2, "seed": 0, **kwargs}
        with pytest.raises(ParameterError, match="witness"):
            greedy_code(mode="witness", **params)
        # the distance rule serves every kind
        assert greedy_code(mode="distance", **params).words == greedy_code(**params).words


def test_greedy_universe_cap():
    with pytest.raises(ParameterError):
        greedy_code(40, 3, 5, seed=0, mode="distance")


@pytest.mark.parametrize(
    "n,k,d",
    [(6, 2, 3), (7, 2, 3), (6, 2, 4), (4, 2, 2), (5, 2, 2)],
)
def test_exact_matches_exhaustive(n, k, d):
    report = exact_max_code(n, k, d)
    assert report.optimal
    assert len(report.best_code) == exhaustive_max_code(n, k, d)
    assert verify_code(report.best_code) >= d or len(report.best_code) <= 1


def test_exact_9_2_3_is_optimal_nine():
    report = exact_max_code(9, 2, 3)
    assert report.optimal
    assert len(report.best_code) == 9
    assert verify_code(report.best_code) >= 3


def test_exact_respects_upper_bound_and_maximality():
    report = exact_max_code(7, 2, 3)
    best = report.best_code
    assert len(best) <= upper_bound(7, 2, 3).floor_value
    # maximality audit: no unused word extends the optimum
    for word in enumerate_words(7, 2, 2):
        if word not in best.words:
            assert any(pair_distance(word, other) < 3 for other in best.words)


def test_exact_trivial_disjoint_case():
    report = exact_max_code(4, 2, 4)
    assert report.optimal and len(report.best_code) == 1


def test_exact_word_ceiling():
    with pytest.raises(ParameterError):
        exact_max_code(12, 2, 3, word_ceiling=100)


def test_exact_node_budget_clears_optimal_flag():
    report = exact_max_code(8, 2, 3, node_budget=5)
    assert not report.optimal
    assert report.node_budget_hit
    assert len(report.best_code) >= 1  # incumbent still returned


@pytest.mark.parametrize("budget", [2.5, 3.0, "5"])
def test_exact_node_budget_must_be_an_integer(budget):
    with pytest.raises(TypeError):
        exact_max_code(8, 2, 3, node_budget=budget)


def test_exact_reads_an_integer_like_node_budget():
    report = exact_max_code(8, 2, 3, node_budget=np.int64(3))
    assert report.nodes_explored == exact_max_code(8, 2, 3, node_budget=3).nodes_explored == 4


def test_ratio_experiment_table():
    rows = ratio_experiment(2, 3, [12, 16], seed=1, repetitions=2)
    assert [row["n"] for row in rows] == [12, 16]
    for row in rows:
        assert row["greedy_size"] <= row["upper_bound_floor"]
        assert 0 < row["ratio_to_bound"] <= 1
        assert row["limit_constant"] == 0.125
    again = ratio_experiment(2, 3, [12, 16], seed=1, repetitions=2)
    assert rows == again


def _pair_distance_graphs(n, k):
    """Per d in 1..2k, the distance->=d graph of the pair universe as adjacency bitsets,
    from pair_distance on every pair of enumerate_words."""
    words = list(enumerate_words(n, k, 2))
    graphs = {d: [0] * len(words) for d in range(1, 2 * k + 1)}
    for i, p in enumerate(words):
        for j in range(i + 1, len(words)):
            for d in range(1, pair_distance(p, words[j]) + 1):
                graphs[d][i] |= 1 << j
                graphs[d][j] |= 1 << i
    return graphs


@pytest.mark.parametrize(
    "k,n_values",
    [(1, [*range(2, 13), 66]), (2, range(4, 12)), (3, range(6, 10)), (5, [10]), (6, [12])],
)
def test_witness_graph_matches_pairwise_graph(monkeypatch, k, n_values):
    """Both routes of the exact search's graph, the witness keys where they are few
    enough and the row tests (forced by a zero key cap), equal the word-level graph."""
    for n in n_values:
        rows = core._universe_rows(n, k, 2, 0)
        graphs = _pair_distance_graphs(n, k)
        for cap in (search._WITNESS_KEY_CAP, 0):
            monkeypatch.setattr(search, "_WITNESS_KEY_CAP", cap)
            for d in range(1, 2 * k + 1):
                assert search._compatibility_masks(rows, n, k, d) == graphs[d], (n, k, d, cap)


@pytest.mark.parametrize("n,k,d", [(6, 2, 3), (7, 2, 3), (8, 2, 3), (6, 2, 4), (4, 2, 2)])
def test_exact_on_the_row_tests_matches_exhaustive(monkeypatch, n, k, d):
    """C07's universes with the graph forced onto the row tests: the search
    against the word-level oracle, which shares no graph code with it."""
    monkeypatch.setattr(search, "_WITNESS_KEY_CAP", 0)
    calls, far_rows = [], _greedy_fast.far_rows
    monkeypatch.setattr(_greedy_fast, "far_rows", lambda *args: calls.append(args) or far_rows(*args))
    report = exact_max_code(n, k, d)
    assert report.optimal and len(calls) == 1
    assert len(report.best_code) == exhaustive_max_code(n, k, d)


@pytest.mark.parametrize("d", [0, 5])
def test_exact_rejects_bad_distance_before_building(monkeypatch, d):
    def unreachable(*args):
        raise AssertionError("words enumerated or graph built for a bad d")

    monkeypatch.setattr(search, "_universe_rows", unreachable)
    monkeypatch.setattr(search, "_compatibility_masks", unreachable)
    with pytest.raises(ParameterError, match="need 1 <= d <= 2k <= n"):
        exact_max_code(8, 2, d)


@pytest.mark.parametrize("n,k,d", [(5, 2, 0), (5, 2, 5), (6, 2, 0), (3, 2, 2)])
def test_exhaustive_rejects_bad_parameters_before_building(monkeypatch, n, k, d):
    def unreachable(*args):
        raise AssertionError("words enumerated or graph built for bad parameters")

    monkeypatch.setattr(search, "enumerate_words", unreachable)
    monkeypatch.setattr(search, "pair_distance", unreachable)
    with pytest.raises(ParameterError, match="need 1 <= d <= 2k <= n"):
        exhaustive_max_code(n, k, d)


def _reference_exact(n, k, d, node_budget=None, wall_budget_s=None):
    """The exact search with the full greedy colouring at every node: every word goes
    into `order`/`colors`, classes the branch loop never reaches included, and each
    class drops a word's compatible words by ~adjacency[v] & uncolored.  Returns the
    best rows, the node count and the two flags."""
    param_cap = upper_bound(n, k, d).floor_value
    rows = core._universe_rows(n, k, 2, 0)
    adjacency = search._compatibility_masks(rows, n, k, d)

    best_set = search._first_fit_clique(adjacency)
    best = best_set.bit_count()
    nodes = 0
    stop_wall = False
    stop_nodes = False
    start = time.monotonic()

    def expand(candidates: int, size: int, current: int) -> None:
        nonlocal best, best_set, nodes, stop_wall, stop_nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            stop_nodes = True
            return
        if wall_budget_s is not None and nodes % 256 == 0:
            if time.monotonic() - start > wall_budget_s:
                stop_wall = True
                return
        if size > best:
            best, best_set = size, current
        if best >= param_cap:
            return
        order: list[int] = []
        colors: list[int] = []
        uncolored = candidates
        color = 0
        while uncolored:
            color += 1
            available = uncolored
            while available:
                low = available & -available
                v = low.bit_length() - 1
                uncolored ^= low
                available &= ~adjacency[v] & uncolored
                order.append(v)
                colors.append(color)
        for idx in range(len(order) - 1, -1, -1):
            if stop_wall or stop_nodes or best >= param_cap:
                return
            if size + colors[idx] <= best:
                return
            v = order[idx]
            expand(candidates & adjacency[v], size + 1, current | (1 << v))
            candidates &= ~(1 << v)

    expand((1 << len(rows)) - 1, 0, 0)
    chosen = [i for i in range(len(rows)) if best_set >> i & 1]
    return rows[chosen].tolist(), nodes, not (stop_wall or stop_nodes), stop_nodes


# unbudgeted runs only where the whole tree takes at most a few thousand nodes
_UNBUDGETED_TOO_LONG = {(7, 2, 2), (9, 2, 2), (7, 3, 2), (8, 3, 2), (8, 3, 3)}


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (5, 1), (9, 1), (28, 1), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (6, 3), (7, 3), (8, 3)])
def test_exact_matches_full_colouring_reference(n, k):
    """The stripped colouring explores the reference's tree: the same best code, node
    count and flags at every budget, so the cut-off changes the cost of a node only."""
    for d in range(1, 2 * k + 1):
        for budget in (0, 1, 2, 3, 10, 100, 1000, 5000, None):
            if budget is None and (n, k, d) in _UNBUDGETED_TOO_LONG:
                continue
            report = exact_max_code(n, k, d, node_budget=budget)
            got = (report.best_code.rows.tolist(), report.nodes_explored, report.optimal, report.node_budget_hit)
            assert got == _reference_exact(n, k, d, node_budget=budget), (n, k, d, budget)


def test_exact_wall_budget_stops_at_the_first_check():
    report = exact_max_code(9, 2, 2, wall_budget_s=0.0)
    assert report.wall_budget_hit and not report.node_budget_hit and not report.optimal
    assert report.nodes_explored == 256  # the wall clock is read every 256 nodes
    assert len(report.best_code) >= 2 and verify_code(report.best_code) >= 2


@pytest.mark.parametrize("budgets", [{"node_budget": -1}, {"wall_budget_s": -1.0}, {"wall_budget_s": -1e-9}])
def test_exact_refuses_negative_budgets(budgets):
    with pytest.raises(ParameterError, match="budget must be nonnegative"):
        exact_max_code(8, 2, 3, **budgets)
