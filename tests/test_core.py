import json
import math
import random
import warnings
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekcodes
from ekcodes import core
from ekcodes import (
    Code,
    DegenerateParametersWarning,
    DisjointPair,
    ElementRangeError,
    KSubset,
    OverlapError,
    ParameterError,
    PartSizeError,
    QaryPairWord,
    QaryWord,
    STuple,
    canonicalize,
    code_from_json,
    code_to_json,
    enumerate_qary_words,
    enumerate_words,
    qary_word_count,
    word_count,
)


def test_canonicalize_sorts_elements():
    word = canonicalize([{3, 1}, {2, 4}], 5)
    assert word.as_lists() == [[1, 3], [2, 4]]


def test_canonicalize_unordered_pair_symmetry():
    assert canonicalize([(2, 4), (1, 3)], 5) == canonicalize([(1, 3), (2, 4)], 5)


def test_canonicalize_overlap_error():
    with pytest.raises(OverlapError):
        canonicalize([(1, 2), (2, 3)], 5)


def test_canonicalize_range_error():
    with pytest.raises(ElementRangeError):
        canonicalize([(1, 5), (2, 3)], 5)
    with pytest.raises(ElementRangeError):
        canonicalize([(-1, 2), (3, 4)], 5)


def test_canonicalize_part_size_error():
    with pytest.raises(PartSizeError):
        canonicalize([(1,), (2, 3)], 5)
    with pytest.raises(PartSizeError):
        canonicalize([(1, 2), (3, 4)], 5, k=3)
    with pytest.raises(PartSizeError):
        canonicalize([(1, 1, 2), (3, 4, 5)], 6)


def test_canonicalize_idempotent():
    word = canonicalize([(7, 2), (0, 4)], 8)
    again = canonicalize(word.as_lists(), 8)
    assert word == again


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonicalize_invariant_under_permutations(data):
    n = data.draw(st.integers(4, 10))
    k = data.draw(st.integers(1, n // 3 if n >= 6 else 2))
    s = data.draw(st.integers(2, min(3, n // k)))
    elems = data.draw(
        st.lists(st.integers(0, n - 1), min_size=s * k, max_size=s * k, unique=True)
    )
    parts = [elems[i * k : (i + 1) * k] for i in range(s)]
    base = canonicalize(parts, n)
    for perm in permutations(range(s)):
        shuffled = [list(reversed(parts[i])) for i in perm]
        assert canonicalize(shuffled, n) == base


def test_word_count_small_values():
    assert word_count(9, 2, 2) == 378  # (1/2) * 36 * 21
    assert word_count(2, 1, 2) == 1
    assert word_count(4, 2, 2) == 3
    assert word_count(3, 2, 2) == 0


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("s", (2, 3))
def test_enumeration_matches_multinomial_count(n, k, s):
    if s * k > n:
        with pytest.warns(DegenerateParametersWarning):
            assert list(enumerate_words(n, k, s)) == []
        return
    words = list(enumerate_words(n, k, s))
    expected = math.prod(math.comb(n - i * k, k) for i in range(s)) // math.factorial(s)
    assert len(words) == expected
    assert len(set(words)) == expected


def test_enumeration_round_trip():
    for word in enumerate_words(7, 2, 2):
        assert canonicalize(word.as_lists(), 7) == word


def test_enumerate_trivial_cases():
    assert [w.as_lists() for w in enumerate_words(2, 1, 2)] == [[[0], [1]]]
    words = [w.as_lists() for w in enumerate_words(4, 2, 2)]
    assert words == [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]


def _count_conversions(monkeypatch):
    """Record the number of words each core._row_words call builds."""
    converted = []
    real = core._row_words

    def counting(rows, *args):
        words = real(rows, *args)
        converted.append(len(words))
        return words

    monkeypatch.setattr(core, "_row_words", counting)
    return converted


def test_enumerators_convert_one_block_for_the_first_word(monkeypatch):
    converted = _count_conversions(monkeypatch)
    assert list(islice(enumerate_words(36, 2, 2), 1)) == [canonicalize([[0, 1], [2, 3]], 36)]
    assert len(converted) == 1 and converted[0] <= core._ROW_BLOCK < word_count(36, 2, 2)
    converted.clear()
    assert list(islice(enumerate_qary_words(30, 3, 3), 1)) == [QaryWord(30, 3, (1, 1, 1) + (0,) * 27)]
    assert len(converted) == 1 and converted[0] <= core._ROW_BLOCK < qary_word_count(30, 3, 3)


def test_degenerate_enumeration_warns_and_yields_nothing(monkeypatch):
    converted = _count_conversions(monkeypatch)
    for n, k, s in ((5, 2, 3), (0, 1, 1), (7, 4, 2)):
        with pytest.warns(DegenerateParametersWarning):
            assert list(enumerate_words(n, k, s)) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(enumerate_qary_words(3, 4, 2)) == []
    assert converted == []


@pytest.mark.parametrize("k, s", [(0, 2), (2, 0), (-1, 1), (1, -2)])
def test_enumeration_rejects_empty_parts_or_words(k, s):
    with pytest.raises(ParameterError):
        list(enumerate_words(6, k, s))


def test_qary_enumeration_rejects_bad_parameters():
    for k, q in ((-1, 3), (2, 1)):
        with pytest.raises(ParameterError):
            list(enumerate_qary_words(6, k, q))


def test_ksubset_validation():
    with pytest.raises(ParameterError):
        KSubset(5, (2, 1))
    with pytest.raises(PartSizeError):
        KSubset(5, (1, 1))
    with pytest.raises(ElementRangeError):
        KSubset(5, (1, 7))
    sub = KSubset.of([4, 0, 2], 5)
    assert sub.elements == (0, 2, 4)
    assert sub.mask == 0b10101


def test_disjoint_pair_round_trips_with_stuple():
    pair = DisjointPair.from_sets([4, 1], [2, 3], 6)
    word = canonicalize([[1, 4], [2, 3]], 6)
    assert pair == word
    assert word.as_pair() == pair
    assert pair.a.elements == (1, 4)
    assert pair.b.elements == (2, 3)
    assert hash(pair) == hash(word)
    assert len({pair, word}) == 1


def test_disjoint_pair_needs_two_parts():
    with pytest.raises(ParameterError):
        DisjointPair((KSubset(5, (0, 1)),))


def test_qary_word_validation():
    word = QaryWord(4, 3, (1, 0, 2, 0))
    assert word.weight == 2
    assert word.support == (0, 2)
    assert QaryWord(3, 3, (0, 0, 0)).weight == 0 and QaryWord(3, 3, (2, 1, 2)).weight == 3
    with pytest.raises(ElementRangeError):
        QaryWord(3, 3, (1, 0, 3))
    with pytest.raises(ParameterError):
        QaryWord(3, 1, (0, 0, 0))


def test_qary_pair_canonical_order_and_disjointness():
    u = QaryWord(4, 3, (1, 2, 0, 0))
    v = QaryWord(4, 3, (0, 0, 2, 1))
    pair = QaryPairWord(u, v)
    assert pair.u == v and pair.v == u  # lexicographically smaller first
    assert pair == QaryPairWord(v, u)
    with pytest.raises(OverlapError):
        QaryPairWord(QaryWord(3, 2, (1, 1, 0)), QaryWord(3, 2, (0, 1, 1)))


def test_qary_enumeration_count():
    for n, k, q in ((4, 2, 3), (5, 1, 4), (5, 3, 2)):
        words = list(enumerate_qary_words(n, k, q))
        assert len(words) == qary_word_count(n, k, q) == math.comb(n, k) * (q - 1) ** k
        assert len(set(words)) == len(words)
        assert all(w.weight == k for w in words)


def test_code_json_round_trip_and_stability():
    words = frozenset(enumerate_words(6, 2, 2))
    code = Code(6, 2, 2, 0, 3, words, verified_min_distance=None)
    text = code_to_json(code)
    parsed = json.loads(text)
    assert list(parsed) == ["n", "k", "s", "q", "d", "words", "verified_min_distance"]
    assert parsed["words"] == sorted(parsed["words"])
    back = code_from_json(text)
    assert back.words == code.words
    assert code_to_json(back) == text  # byte-stable


def test_code_json_qary_round_trip():
    words = frozenset(enumerate_qary_words(4, 2, 3))
    code = Code(4, 2, 1, 3, 2, words)
    back = code_from_json(code_to_json(code))
    assert back.words == words

    u = QaryWord(4, 3, (1, 2, 0, 0))
    v = QaryWord(4, 3, (0, 0, 1, 1))
    pairs = frozenset({QaryPairWord(u, v)})
    code2 = Code(4, 2, 2, 3, 1, pairs)
    back2 = code_from_json(code_to_json(code2))
    assert back2.words == pairs


def _random_words(rng, n, k, s, q, size):
    """Up to `size` distinct random words of one kind (fewer if 200 draws find no more)."""
    words = set()
    for _ in range(200):
        if len(words) == size:
            break
        elements = rng.sample(range(n), s * k)
        if q == 0:
            words.add(canonicalize([elements[i * k : (i + 1) * k] for i in range(s)], n))
            continue
        members = []
        for i in range(s):
            symbols = [0] * n
            for position in elements[i * k : (i + 1) * k]:
                symbols[position] = rng.randint(1, q - 1)
            members.append(QaryWord(n, q, tuple(symbols)))
        words.add(members[0] if s == 1 else QaryPairWord(*members))
    return words


def _json_rows(word):
    """A word's row in the wire format, from its objects."""
    if isinstance(word, STuple):
        return word.as_lists()
    return [list(word.symbols)] if isinstance(word, QaryWord) else [list(word.u.symbols), list(word.v.symbols)]


def test_row_and_word_constructors_agree():
    """Code(words) and the trusted Code._from_rows(rows) hold the same code, observably."""
    rng = np.random.default_rng(22)
    draws = random.Random(22)
    kinds = [(s, 0) for s in (1, 2, 3, 4)] + [(1, q) for q in (2, 3, 4)] + [(2, q) for q in (2, 3)]
    for s, q in kinds:
        for size in (0, 1, 2, 9, 40):
            k = draws.randint(1, 3)
            n = s * k + draws.randint(0, 6)
            d = draws.randint(1, 2 * s * k if q else s * k)
            words = _random_words(draws, n, k, s, q, size)
            public = Code(n, k, s, q, d, frozenset(words))
            rows = core._incidence_rows(list(words), n, k, s, q)
            repeats = rng.integers(0, max(len(rows), 1), size=len(rows) // 2)
            trusted = Code._from_rows(n, k, s, q, d, rows[np.concatenate([rng.permutation(len(rows)), repeats])])
            case = (n, k, s, q, d, size)
            assert len(trusted) == len(public) == len(words), case
            assert trusted.rows.dtype == np.int32 and not trusted.rows.flags.writeable, case
            np.testing.assert_array_equal(trusted.rows, public.rows)
            assert trusted.words == public.words == words, case
            assert trusted == public, case
            text = code_to_json(trusted)
            assert code_to_json(public) == text, case
            assert json.loads(text)["words"] == sorted(map(_json_rows, words)), case
            back = code_from_json(text)
            assert back == trusted and code_to_json(back) == text, case


def test_code_rejects_mismatched_words():
    words = frozenset(enumerate_words(6, 2, 2))
    with pytest.raises(ParameterError):
        Code(7, 2, 2, 0, 3, words)
    with pytest.raises(ParameterError):
        Code(6, 2, 2, 1, 3, words)  # q=1 invalid


def test_code_built_from_an_iterator_keeps_its_words():
    words = frozenset(enumerate_words(6, 2, 2))
    for source in ((w for w in sorted(words)), enumerate_words(6, 2, 2)):
        code = Code(6, 2, 2, 0, 3, source)
        assert len(code) == word_count(6, 2, 2) and code.words == words
        assert code == Code(6, 2, 2, 0, 3, words)
    with pytest.raises(ParameterError, match=r"^word \[1, 2\] does not match code parameters$"):
        Code(6, 2, 2, 0, 3, iter([[1, 2]]))


@pytest.mark.parametrize(
    "row, error",
    [([0, 1, 1, 2], OverlapError), ([0, 1, 2, 7], ElementRangeError)],
    ids=["overlapping-parts", "element-outside"],
)
def test_bad_trusted_row_is_caught_at_the_words(row, error):
    code = Code._from_rows(6, 2, 2, 0, 3, np.array([row]))
    with pytest.raises(error):
        code.words


def test_code_infinite_sentinel_serializes_to_null():
    word = canonicalize([[0, 1], [2, 3]], 6)
    code = Code(6, 2, 2, 0, 3, frozenset({word}), verified_min_distance=math.inf)
    assert json.loads(code_to_json(code))["verified_min_distance"] is None


# Malformed input for every public word constructor: the exact error class,
# and a message fragment that names the bad element, symbol or parameter.
_BAD_CONSTRUCTIONS = [
    ("KSubset unsorted", lambda: KSubset(5, (2, 1)), ParameterError, "(2, 1)"),
    ("KSubset duplicate", lambda: KSubset(5, (1, 1)), PartSizeError, "duplicate element 1"),
    ("KSubset negative", lambda: KSubset(5, (-1, 2)), ElementRangeError, "element -1"),
    ("KSubset >= n", lambda: KSubset(5, (1, 5)), ElementRangeError, "element 5"),
    ("KSubset n < 0", lambda: KSubset(-1, ()), ParameterError, "n=-1"),
    ("KSubset n < 0 with elements", lambda: KSubset(-2, (0,)), ParameterError, "n=-2"),
    ("KSubset duplicate before range", lambda: KSubset(5, (1, 1, 9)), PartSizeError, "duplicate element 1"),
    ("of duplicate", lambda: KSubset.of([2, 1, 2], 5), PartSizeError, "duplicate element 2"),
    ("of negative", lambda: KSubset.of([3, -2], 5), ElementRangeError, "element -2"),
    ("of >= n", lambda: KSubset.of([7, 1], 5), ElementRangeError, "element 7"),
    ("of n < 0", lambda: KSubset.of([], -3), ParameterError, "n=-3"),
    ("of n < 0 with elements", lambda: KSubset.of([1], -3), ParameterError, "n=-3"),
    ("of duplicate before range", lambda: KSubset.of([9, 1, 1], 5), PartSizeError, "duplicate element 1"),
    ("canonicalize overlap", lambda: canonicalize([(1, 2), (2, 3)], 5), OverlapError, "element 2"),
    ("canonicalize >= n", lambda: canonicalize([(1, 5), (2, 3)], 5), ElementRangeError, "element 5"),
    ("canonicalize negative", lambda: canonicalize([(0, 2), (-1, 3)], 5), ElementRangeError, "element -1"),
    ("canonicalize duplicate", lambda: canonicalize([(1, 1, 2), (3, 4, 5)], 6), PartSizeError, "duplicate element 1"),
    ("canonicalize mixed k", lambda: canonicalize([(1,), (2, 3)], 5), PartSizeError, "(2, 3)"),
    ("canonicalize wrong k", lambda: canonicalize([(1, 2), (3, 4)], 5, k=3), PartSizeError, "(1, 2) has size 2, expected 3"),
    ("canonicalize k, then overlap", lambda: canonicalize([(0, 1), (1, 2)], 5, k=2), OverlapError, "element 1"),
    ("canonicalize no parts", lambda: canonicalize([], 5), ParameterError, "at least one part"),
    ("canonicalize empty part", lambda: canonicalize([()], 5), PartSizeError, "k >= 1"),
    ("canonicalize n < 0", lambda: canonicalize([(0, 1)], -1), ParameterError, "n=-1"),
    ("STuple mixed n", lambda: STuple((KSubset(5, (0, 1)), KSubset(6, (2, 3)))), ParameterError, "6 != 5"),
    ("STuple wrong k", lambda: STuple((KSubset(5, (0, 1)), KSubset(5, (2,)))), PartSizeError, "(2,)"),
    ("STuple overlap", lambda: STuple((KSubset(5, (0, 1)), KSubset(5, (1, 2)))), OverlapError, "element 1"),
    ("STuple no parts", lambda: STuple(()), ParameterError, "at least one part"),
    ("DisjointPair 3 parts", lambda: DisjointPair((KSubset(6, (0,)), KSubset(6, (1,)), KSubset(6, (2,)))), ParameterError, "got 3"),
    ("DisjointPair overlap", lambda: DisjointPair.from_sets([1, 2], [2, 3], 5), OverlapError, "element 2"),
    ("DisjointPair duplicate", lambda: DisjointPair.from_sets([1, 1], [2, 3], 5), PartSizeError, "duplicate element 1"),
    ("QaryWord q < 2", lambda: QaryWord(3, 1, (0, 0, 0)), ParameterError, "q=1"),
    ("QaryWord length", lambda: QaryWord(3, 3, (1, 0)), ParameterError, "expected 3 symbols, got 2"),
    ("QaryWord symbol < 0", lambda: QaryWord(3, 3, (1, -1, 0)), ElementRangeError, "symbol -1"),
    ("QaryWord symbol >= q", lambda: QaryWord(3, 3, (1, 0, 3)), ElementRangeError, "symbol 3"),
    ("QaryWord first bad symbol", lambda: QaryWord(4, 3, (0, 5, -2, 0)), ElementRangeError, "symbol 5"),
    ("QaryWord symbol >= q >= 256", lambda: QaryWord(3, 300, (1, 300, 0)), ElementRangeError, "symbol 300"),
    ("QaryWord symbol < 0 with q >= 256", lambda: QaryWord(2, 300, (299, -3)), ElementRangeError, "symbol -3"),
    ("QaryPairWord weights", lambda: QaryPairWord(QaryWord(4, 2, (1, 1, 0, 0)), QaryWord(4, 2, (0, 0, 1, 0))), ParameterError, "equal weight"),
    ("QaryPairWord overlap", lambda: QaryPairWord(QaryWord(3, 2, (1, 1, 0)), QaryWord(3, 2, (0, 1, 1))), OverlapError, "overlap"),
    ("QaryPairWord n", lambda: QaryPairWord(QaryWord(3, 2, (1, 0, 0)), QaryWord(4, 2, (0, 1, 0, 0))), ParameterError, "(n, q)"),
    ("QaryPairWord q", lambda: QaryPairWord(QaryWord(3, 2, (1, 0, 0)), QaryWord(3, 3, (0, 2, 0))), ParameterError, "(n, q)"),
]


@pytest.mark.parametrize("build, error, fragment", [case[1:] for case in _BAD_CONSTRUCTIONS], ids=[case[0] for case in _BAD_CONSTRUCTIONS])
def test_constructors_reject_malformed_input(build, error, fragment):
    with pytest.raises(ParameterError) as caught:
        build()
    assert type(caught.value) is error
    assert fragment in str(caught.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: canonicalize([[0, 1.7], [2, 3]], 6),
        lambda: KSubset(6, (0, 1.9)),
        lambda: QaryWord(4, 3, (0, 1.5, 2, 0)),
        lambda: ekcodes.CyclicGeneratorPair(9, (1.5, 8), (2, 3)),
        lambda: ekcodes.BlockDesign(6, 2, ((0, 1.7, 3),)),
        lambda: ekcodes.develop_difference_set((0, 1.5, 3), 7),
    ],
    ids=["canonicalize", "KSubset", "QaryWord", "CyclicGeneratorPair", "BlockDesign", "develop_difference_set"],
)
def test_constructors_refuse_fractional_integers(build):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: QaryWord(3, 3, (1.0, 0, 2)),
        lambda: KSubset(6, (0, 1.0)),
        lambda: canonicalize([[0, 1.0], [2, 3]], 6),
        lambda: ekcodes.CyclicGeneratorPair(9, (1.0, 8), (2, 3)),
    ],
    ids=["QaryWord", "KSubset", "canonicalize", "CyclicGeneratorPair"],
)
def test_constructors_refuse_integral_floats(build):
    # one integer rule: an integral float is no integer either; code files turn 3.0 into 3 before any constructor
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: KSubset(6.5, (0, 1)),
        lambda: KSubset.of((1, 0), 6.5),
        lambda: canonicalize([[0, 1], [2, 3]], 6.5),
        lambda: ekcodes.BlockDesign(6.5, 2, ((0, 1),)),
        lambda: ekcodes.BlockDesign(6, 2.5, ((0, 1),)),
        lambda: Code(6.5, 2, 2, 0, 3, []),
        lambda: Code(6, 2.0, 2, 0, 3, []),
        lambda: Code(6, 2, 2.0, 0, 3, []),
        lambda: Code(6, 2, 2, 0, 3.0, []),
        lambda: ekcodes.CyclicGeneratorPair(9.0, (1, 8), (2, 3)),
        lambda: QaryWord(3, 3.5, (1, 0, 2)),
        lambda: QaryWord(3.0, 3, (1, 0, 2)),
    ],
    ids=[
        "KSubset n", "KSubset.of n", "canonicalize n", "BlockDesign v", "BlockDesign t",
        "Code n", "Code k", "Code s", "Code d", "CyclicGeneratorPair m", "QaryWord q", "QaryWord n",
    ],
)
def test_constructors_refuse_fractional_size_parameters(build):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        build()


def test_size_parameters_are_stored_as_ints():
    n = np.int64(6)
    assert type(KSubset(n, (0, 1)).n) is int
    assert type(canonicalize([[0, 1], [2, 3]], n).n) is int
    assert type(QaryWord(3, np.int64(3), (1, 0, 2)).q) is int
    assert type(ekcodes.BlockDesign(n, np.int64(2), ((0, 1),)).v) is int
    assert type(ekcodes.CyclicGeneratorPair(np.int64(9), (1, 8), (2, 3)).m) is int
    assert all(type(x) is int for x in (Code(n, 2, 2, 0, 3, []).n, Code(6, np.int64(2), 2, 0, 3, []).k))


@pytest.mark.parametrize(
    "build",
    [
        lambda: KSubset.of([4, 0, 2], 5),
        lambda: KSubset.of([], 0),
        lambda: KSubset.of([69, 3], 70),
        lambda: KSubset.of((x for x in (3, 1)), 4),
    ],
)
def test_ksubset_of_matches_the_checked_constructor(build):
    part = build()
    twin = KSubset(part.n, tuple(sorted(part.elements)))
    assert part == twin and hash(part) == hash(twin)
    assert part.mask == twin.mask == sum(1 << e for e in part.elements)
    assert all(type(e) is int for e in part.elements)


@pytest.mark.parametrize(
    "q, symbols, expected",
    [
        (3, (np.int64(2), 0, True), (2, 0, 1)),
        (3, (np.uint8(1), 0, np.int32(2)), (1, 0, 2)),
        (3, [0, 1, 2], (0, 1, 2)),
        (3, (x for x in (2, 0, 1)), (2, 0, 1)),
        (3, b"\x01\x00\x02", (1, 0, 2)),
        (300, (299, 0, 256), (299, 0, 256)),
        (2, (), ()),
    ],
)
def test_qary_word_symbols_become_python_ints(q, symbols, expected):
    word = QaryWord(len(expected), q, symbols)
    assert word.symbols == expected
    assert all(type(x) is int for x in word.symbols)
