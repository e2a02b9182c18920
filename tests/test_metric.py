import math
import random
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcodes import (
    ParameterError,
    QaryPairWord,
    QaryWord,
    WitnessPair,
    canonicalize,
    enumerate_words,
    pair_distance,
    qary_distance,
    qary_pair_distance,
    tuple_distance,
    witness_set,
    witness_splits,
    words_conflict,
)
from ekcodes import metric


def oracle_pair_distance(p, q):
    """Definitional oracle: min over the two matchings of moved elements."""
    a1, a2 = (set(part.elements) for part in p.parts)
    b1, b2 = (set(part.elements) for part in q.parts)
    return min(len(a1 - b1) + len(a2 - b2), len(a1 - b2) + len(a2 - b1))


def part_costs(x, y):
    """The s x s matrix of k - |x_i & y_j|, the cost of moving part i of x onto part j of y."""
    return [[x.k - len(set(a.elements) & set(b.elements)) for b in y.parts] for a in x.parts]


def oracle_tuple_distance(x, y):
    """Definitional oracle: the cheapest of the s! part matchings."""
    cost = part_costs(x, y)
    return min(sum(cost[i][j] for i, j in enumerate(perm)) for perm in permutations(range(x.s)))


def random_word(rng, n, k, s=2):
    elems = rng.sample(range(n), s * k)
    return canonicalize([elems[i * k : (i + 1) * k] for i in range(s)], n)


def test_pair_distance_identity():
    word = canonicalize([(0, 1), (2, 3)], 8)
    assert pair_distance(word, word) == 0


def test_pair_distance_disjoint_supports():
    p = canonicalize([(0, 1), (2, 3)], 8)
    q = canonicalize([(4, 5), (6, 7)], 8)
    assert pair_distance(p, q) == 4


def test_pair_distance_single_move():
    p = canonicalize([(0, 1), (2, 3)], 5)
    q = canonicalize([(0, 1), (2, 4)], 5)
    assert pair_distance(p, q) == 1


def test_pair_distance_matches_oracle():
    rng = random.Random(42)
    for _ in range(2000):
        n = rng.randint(4, 14)
        k = rng.randint(1, n // 2)
        p, q = random_word(rng, n, k), random_word(rng, n, k)
        assert pair_distance(p, q) == oracle_pair_distance(p, q)


def test_pair_distance_parameter_mismatch():
    p = canonicalize([(0, 1), (2, 3)], 8)
    q = canonicalize([(0, 1), (2, 3)], 9)
    with pytest.raises(ParameterError):
        pair_distance(p, q)
    with pytest.raises(ParameterError):
        pair_distance(p, canonicalize([(0,), (1,)], 8))


def test_tuple_distance_identity_and_example():
    x = canonicalize([(0,), (1,), (2,)], 4)
    assert tuple_distance(x, x) == 0
    y = canonicalize([(1,), (2,), (3,)], 4)
    assert tuple_distance(x, y) == 1  # move one singleton; verified by 3! enumeration


def test_tuple_distance_coincides_with_pair_distance():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(4, 12)
        k = rng.randint(1, n // 2)
        p, q = random_word(rng, n, k), random_word(rng, n, k)
        assert tuple_distance(p, q) == pair_distance(p, q)


def test_tuple_distance_permutation_vs_assignment():
    """The Hungarian method against the s! permutation oracle, s = 1 to 7."""
    rng = random.Random(123)
    for trial in range(10_200):
        s = rng.randint(1, 6) if trial < 10_000 else 7
        k = rng.randint(1, 3)
        n = rng.randint(s * k, s * k + 6)
        x, y = random_word(rng, n, k, s), random_word(rng, n, k, s)
        oracle = oracle_tuple_distance(x, y)
        assert tuple_distance(x, y) == metric._min_cost_matching(part_costs(x, y)) == oracle


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tuple_distance_enumeration_vs_hungarian(data):
    """tuple_distance takes the best of the s! matchings up to s = 4 and runs
    the Hungarian method above; both agree with the s! oracle."""
    s = data.draw(st.integers(1, 5), label="s")
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.integers(s * k, s * k + 6), label="n")

    def word():
        elems = data.draw(st.permutations(range(n)))[: s * k]
        return canonicalize([elems[i * k : (i + 1) * k] for i in range(s)], n)

    x, y = word(), word()
    with mock.patch.object(metric, "_min_cost_matching", wraps=metric._min_cost_matching) as hungarian:
        distance = tuple_distance(x, y)
        assert hungarian.call_count == (s > 4)
    assert distance == metric._min_cost_matching(part_costs(x, y)) == oracle_tuple_distance(x, y)


@pytest.mark.parametrize("s, k", [(1, 255), (1, 256), (2, 127), (2, 128), (4, 63), (4, 64)])
def test_tuple_distance_byte_lanes_hold_every_total(s, k):
    """tuple_distance sums the matchings in one byte each while s*k < 256 and hands
    larger words to the Hungarian method.  y moves one element of x, and x
    against itself gives the largest total, s*k (255 at s=1, k=255)."""
    rng = random.Random(s * 1000 + k)
    n = s * k + 2
    x = random_word(rng, n, k, s)
    parts = [list(p.elements) for p in x.parts]
    parts[-1][-1] = next(e for e in range(n) if not any(e in p for p in x.parts))
    y = canonicalize(parts, n)
    with mock.patch.object(metric, "_min_cost_matching", wraps=metric._min_cost_matching) as hungarian:
        assert tuple_distance(x, y) == 1 and tuple_distance(x, x) == 0
        assert hungarian.call_count == 2 * (s * k >= 256)
    assert metric._min_cost_matching(part_costs(x, y)) == oracle_tuple_distance(x, y) == 1


@pytest.mark.parametrize(
    "other, n",
    [
        ([(0, 1), (2, 3)], 9),
        ([(0,), (1,)], 8),
        ([(0, 1), (2, 3), (4, 5)], 8),
    ],
    ids=["n", "k", "s"],
)
def test_distances_reject_each_single_mismatch(other, n):
    x = canonicalize([(0, 1), (2, 3)], 8)
    y = canonicalize(other, n)
    for distance in (pair_distance, tuple_distance):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ParameterError, match="mismatched parameters"):
                distance(a, b)


def test_tuple_distance_at_large_s():
    """A closed form at s = 30, far beyond s! matchings or 2^s subsets of parts.

    Part i of y holds the second element of part i of x and the first of
    part i + 1, so every part of y keeps one element at best.
    """
    s = 30
    x = canonicalize([(2 * i, 2 * i + 1) for i in range(s)], 2 * s)
    y = canonicalize([(2 * i + 1, (2 * i + 2) % (2 * s)) for i in range(s)], 2 * s)
    assert tuple_distance(x, y) == tuple_distance(y, x) == s
    assert tuple_distance(x, x) == 0


def test_qary_distance_examples():
    u = QaryWord(3, 3, (1, 0, 2))
    assert qary_distance(u, u) == 0
    assert qary_distance(u, QaryWord(3, 3, (1, 2, 0))) == 2
    a = QaryWord(4, 2, (1, 1, 0, 0))
    b = QaryWord(4, 2, (0, 0, 1, 1))
    assert qary_distance(a, b) == 4
    with pytest.raises(ParameterError):
        qary_distance(u, QaryWord(4, 3, (1, 0, 2, 0)))


def test_qary_pair_distance_example():
    x = QaryPairWord(QaryWord(4, 3, (1, 2, 0, 0)), QaryWord(4, 3, (0, 0, 1, 1)))
    y = QaryPairWord(QaryWord(4, 3, (1, 1, 0, 0)), QaryWord(4, 3, (0, 0, 1, 1)))
    assert qary_pair_distance(x, x) == 0
    assert qary_pair_distance(x, y) == 1


def binary_pair(word):
    """Set-world word -> disjoint-support binary pair word."""
    n = word.n
    rows = []
    for part in word.parts:
        symbols = [0] * n
        for e in part.elements:
            symbols[e] = 1
        rows.append(QaryWord(n, 2, tuple(symbols)))
    return QaryPairWord(*rows)


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (6, 3), (8, 2), (8, 3)])
def test_q2_doubling_identity_exhaustive(n, k):
    words = list(enumerate_words(n, k, 2))
    pairs = [binary_pair(w) for w in words]
    for i in range(len(words)):
        for j in range(i, len(words)):
            assert qary_pair_distance(pairs[i], pairs[j]) == 2 * pair_distance(words[i], words[j])


def test_metric_axioms_random_sample():
    rng = random.Random(99)
    for _ in range(3000):
        n = rng.randint(4, 16)
        k = rng.randint(1, min(4, n // 2))
        x, y, z = (random_word(rng, n, k) for _ in range(3))
        assert pair_distance(x, y) == pair_distance(y, x)
        assert (pair_distance(x, y) == 0) == (x == y)
        assert pair_distance(x, z) <= pair_distance(x, y) + pair_distance(y, z)


def test_witness_splits():
    assert witness_splits(2, 3) == [(0, 2), (1, 1)]
    assert witness_splits(2, 4) == [(0, 1)]
    assert witness_splits(3, 3) == [(1, 3), (2, 2)]
    with pytest.raises(ParameterError):
        witness_splits(2, 5)


def test_witness_pair_canonical_and_disjoint():
    w = WitnessPair((4, 2), (1,))
    assert w.u_set == (1,) and w.v_set == (2, 4)
    assert WitnessPair((1, 2), (3, 4)) == WitnessPair((4, 3), (2, 1))
    with pytest.raises(ParameterError):
        WitnessPair((1, 2), (2, 3))


def test_witness_set_single_element_witnesses():
    word = canonicalize([(0, 1), (2, 3)], 6)
    wits = witness_set(word, 4)
    assert wits == {WitnessPair((), (e,)) for e in (0, 1, 2, 3)}


def test_witness_set_k1_d1():
    word = canonicalize([(0,), (1,)], 3)
    assert witness_set(word, 1) == {WitnessPair((0,), (1,))}


def ordered_witness_count(word, u, v):
    """Brute count of ordered (U, V) with U in one side, V in the other."""
    a, b = (part.elements for part in word.parts)
    count = 0
    for s1, s2 in ((a, b), (b, a)):
        count += sum(1 for _ in combinations(s1, u)) * sum(1 for _ in combinations(s2, v))
    return count


def test_fixed_split_counting_formula():
    word = canonicalize([(0, 1), (2, 3)], 8)
    # ordered counting: 2 * C(k,u) * C(k,v); at u=v the unordered family halves
    assert ordered_witness_count(word, 1, 1) == 2 * 2 * 2 == 8
    unordered_11 = {w for w in witness_set(word, 3) if len(w.u_set) == 1 and len(w.v_set) == 1}
    assert len(unordered_11) == 4
    word3 = canonicalize([(0, 1, 2), (3, 4, 5)], 9)
    for u, v in ((1, 2), (0, 3), (1, 3), (2, 3)):
        assert ordered_witness_count(word3, u, v) == 2 * math.comb(3, u) * math.comb(3, v)


def test_witness_family_size_formula():
    # |witnesses of one word| = sum over splits: 2 C(k,u) C(k,v) if u < v else C(k,u)^2
    for k, d, n in ((2, 3, 8), (2, 2, 8), (3, 4, 10), (3, 6, 10)):
        word = canonicalize([range(k), range(k, 2 * k)], n)
        expected = 0
        for u, v in witness_splits(k, d):
            if u == v:
                expected += math.comb(k, u) ** 2
            else:
                expected += 2 * math.comb(k, u) * math.comb(k, v)
        assert len(witness_set(word, d)) == expected


def test_witness_universe_size_formula():
    # all disjoint {U, V} with |U| + |V| = t in [n], counted unordered
    n, k, d = 7, 2, 3
    t = 2 * k - d + 1
    universe = set()
    for u in range(t + 1):
        for us in combinations(range(n), u):
            rest = [x for x in range(n) if x not in us]
            for vs in combinations(rest, t - u):
                universe.add(WitnessPair(us, vs))
    formula = sum(math.comb(n, u) * math.comb(n - u, t - u) for u in range(t + 1)) // 2
    assert len(universe) == formula


@pytest.mark.parametrize("d", (2, 3, 4))
def test_conflict_iff_distance_below_d_small_exhaustive(d):
    words = list(enumerate_words(6, 2, 2))
    wits = [witness_set(w, d) for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            close = pair_distance(words[i], words[j]) <= d - 1
            assert close == bool(wits[i] & wits[j])
            assert words_conflict(words[i], words[j], d) == close


def test_words_conflict_rejects_bad_parameters():
    word = canonicalize([(0, 1), (2, 3)], 6)
    for d in (0, 5):
        with pytest.raises(ParameterError):
            words_conflict(word, word, d)
    triple = canonicalize([(0, 1), (2, 3), (4, 5)], 6)
    with pytest.raises(ParameterError):
        words_conflict(triple, triple, 2)
    # mismatched worlds: another ground set, another part size
    for other in (canonicalize([(0, 1), (2, 3)], 7), canonicalize([(0,), (2,)], 6)):
        with pytest.raises(ParameterError):
            words_conflict(word, other, 2)


def test_witness_set_rejects_bad_d():
    word = canonicalize([(0, 1), (2, 3)], 6)
    for d in (0, 5):
        with pytest.raises(ParameterError):
            witness_set(word, d)
