import math
import random
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
    canonicalize,
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
)
from ekcodes import _greedy_fast, search


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


def test_best_matchings_against_permutations():
    """The batched Hungarian method against all s! matchings, s = 1 to 6."""
    rng = np.random.default_rng(3)
    for s in range(1, 7):
        for high in (2, 5):
            weights = rng.integers(0, high, size=(60, s, s))
            expected = [max(sum(w[i, p[i]] for i in range(s)) for p in permutations(range(s))) for w in weights]
            assert search._best_matchings(weights).tolist() == expected


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


def _stream_witness_greedy(n, k, d, seed):
    """Oracle: walk the engine's word stream one word at a time, claiming witness_set."""
    claimed: set = set()
    accepted = set()
    for a_cols, b_cols in _greedy_fast._stream_words(n, k, seed):
        a_rows = zip(*(c.tolist() for c in a_cols))
        b_rows = zip(*(c.tolist() for c in b_cols))
        for a, b in zip(a_rows, b_rows):
            word = STuple((KSubset(n, a), KSubset(n, b)))
            wits = witness_set(word, d)
            if claimed.isdisjoint(wits):
                claimed |= wits
                accepted.add(word)
    return frozenset(accepted)


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


def _stream_distance_greedy(universe, distance, d, seed, chunk=_greedy_fast._CHUNK):
    """Oracle: walk the universe in _permuted_chunks order, one distance call per pair."""
    accepted = []
    for ids in _greedy_fast._permuted_chunks(len(universe), seed, chunk):
        for i in ids.tolist():
            word = universe[i]
            if all(distance(word, other) >= d for other in accepted):
                accepted.append(word)
    return frozenset(accepted)


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
    assert code.words == _stream_distance_greedy(universe, distance, d, seed)
    assert verify_code(code) >= d
    # maximal: every word left out is closer than d to a kept one
    for word in universe:
        if word not in code.words:
            assert any(distance(word, other) < d for other in code.words)


def test_greedy_by_distance_independent_of_chunk():
    for n, k, d, seed in ((9, 2, 3, 4), (10, 2, 4, 11), (7, 1, 2, 5)):
        universe = list(enumerate_words(n, k, 3))
        table = search._incidence_rows(universe, n, k, 3, 0)
        runs = []
        for chunk in (1, 7, _greedy_fast._CHUNK):
            stream = (table[ids] for ids in _greedy_fast._permuted_chunks(len(table), seed, chunk))
            runs.append(_greedy_fast.greedy_by_distance(stream, 3, 3 * k - d))
        assert runs[0] == runs[1] == runs[2]
        expected = _stream_distance_greedy(universe, tuple_distance, d, seed, chunk=7)
        assert greedy_code(n, k, d, seed, s=3).words == expected


def test_greedy_pairs_independent_of_chunk():
    for n, k, d, seed in ((12, 2, 3, 9), (9, 3, 4, 2), (9, 1, 2, 5)):
        rows = _greedy_fast.greedy_pairs(n, k, d, seed)
        for chunk in (1, 7, 300):
            assert _greedy_fast.greedy_pairs(n, k, d, seed, chunk) == rows


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


def test_greedy_universe_cap():
    with pytest.raises(ParameterError):
        greedy_code(40, 3, 5, seed=0, mode="distance", max_universe=1000)


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


def test_ratio_experiment_table():
    rows = ratio_experiment(2, 3, [12, 16], seed=1, repetitions=2)
    assert [row["n"] for row in rows] == [12, 16]
    for row in rows:
        assert row["greedy_size"] <= row["upper_bound_floor"]
        assert 0 < row["ratio_to_bound"] <= 1
        assert row["limit_constant"] == 0.125
    again = ratio_experiment(2, 3, [12, 16], seed=1, repetitions=2)
    assert rows == again


@pytest.mark.parametrize(
    "k,n_values",
    [(1, [*range(2, 13), 66]), (2, range(4, 12)), (3, range(6, 10))],
)
def test_witness_graph_matches_pairwise_graph(k, n_values):
    for n in n_values:
        words = list(enumerate_words(n, k, 2))
        for d in range(1, 2 * k + 1):
            assert search._compatibility_masks(words, n, k, d) == (
                search._pairwise_compatibility_masks(words, k, d)
            ), (n, k, d)


@pytest.mark.parametrize("d", [0, 5])
def test_exact_rejects_bad_distance_before_building(monkeypatch, d):
    def unreachable(*args):
        raise AssertionError("words enumerated or graph built for a bad d")

    monkeypatch.setattr(search, "enumerate_words", unreachable)
    monkeypatch.setattr(search, "_compatibility_masks", unreachable)
    with pytest.raises(ParameterError, match="need 1 <= d <= 2k <= n"):
        exact_max_code(8, 2, d)
