"""Differential tests for the trusted construction path.

compose_code, greedy_code, orbit_code, multi_orbit_code and
exact_max_code build their codes from canonical rows through the trusted
`Code._from_rows`, which checks no word.  A code's words, like
enumerate_words', come from `core._row_words`, the one builder of words
from rows.  Each call site is compared here with the validated path it
replaced: every word must equal its `canonicalize`-built twin with the
same hash, masks and key, hold only Python ints, and serialize to the
same bytes.
"""

import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from ekcodes import (
    BlockDesign,
    Code,
    CyclicGeneratorPair,
    ElementRangeError,
    KSubset,
    ParameterError,
    PartSizeError,
    STuple,
    affine_plane,
    canonicalize,
    code_to_json,
    compose_code,
    develop_difference_set,
    enumerate_words,
    exact_max_code,
    greedy_code,
    multi_orbit_code,
    orbit_code,
    planar_difference_set,
    search_antagonistic,
    verify_code,
    zero_sum_quadruples,
)
from ekcodes import _greedy_fast, core, cyclic, designs
from ekcodes.designs import DesignVerification, verify_design


def _assert_same_words(code, reference):
    """code's words equal the validated reference words in every observable way."""
    twins = {w: w for w in reference}
    assert set(code.words) == set(twins)
    for word in code.words:
        twin = twins[word]
        assert type(word) is STuple
        assert hash(word) == hash(twin)
        assert word._key() == twin._key()
        assert word.masks() == twin.masks()
        for part in word.parts:
            assert type(part) is KSubset
            assert type(part.n) is int and type(part.mask) is int
            assert all(type(e) is int for e in part.elements)
    rebuilt = Code(code.n, code.k, code.s, code.q, code.d, frozenset(reference), code.verified_min_distance)
    assert code_to_json(code) == code_to_json(rebuilt)


# ------------------------------------------------------------------ the constructor


def test_canonical_words_match_canonicalize_on_random_rows():
    rng = random.Random(5)
    for _ in range(200):
        s = rng.randint(1, 4)
        k = rng.randint(1, 4)
        n = rng.randint(s * k, 70)  # masks both below and above 64 bits
        raw = []
        for _ in range(rng.randint(1, 6)):
            elements = rng.sample(range(n), s * k)
            raw.append(sorted(sorted(elements[i * k : (i + 1) * k]) for i in range(s)))
        words = core._row_words(np.array(raw, dtype=np.int64), n, k, s, 0)
        reference = [canonicalize(row, n, k) for row in raw]
        assert words == reference
        _assert_same_words(Code(n, k, s, 0, 1, frozenset(words)), set(reference))


def test_canonical_words_of_no_rows():
    assert core._row_words(np.zeros((0, 2, 3), dtype=np.intp), 10, 3, 2, 0) == []


# ------------------------------------------------------------------ compose


def _compose_reference(design, bases, k):
    """The per-word path compose_code replaced: canonicalize every image."""
    if isinstance(bases, Code):
        bases = {bases.n: bases}
    words = set()
    for block in design.blocks:
        base = bases.get(len(block))
        if base is not None:
            for word in base.words:
                words.add(canonicalize([[block[e] for e in part.elements] for part in word.parts], design.v, k))
    return words


def _verified_greedy(n, k, d, seed):
    code = greedy_code(n, k, d, seed)
    verify_code(code)
    return code


def _random_packing(rng, v, t, sizes, tries, start=()):
    """A seeded t-packing: the `start` blocks, then random blocks of the given sizes."""
    covered = set()
    blocks = []
    for i in range(len(start) + tries):
        block = start[i] if i < len(start) else tuple(sorted(rng.sample(range(v), rng.choice(sizes))))
        subs = set(combinations(block, t))
        if covered.isdisjoint(subs):
            covered |= subs
            blocks.append(block)
    return BlockDesign(v, t, tuple(blocks))


@pytest.mark.parametrize("k, d", [(1, 1), (2, 3), (3, 5)])
def test_compose_matches_canonicalize_on_steiner_systems(k, d):
    base = _verified_greedy(19 if k == 3 else 9, k, d, seed=3)
    plane = affine_plane(19) if k == 3 else develop_difference_set(planar_difference_set(8), 73)
    code = compose_code(plane, base, k, d)
    _assert_same_words(code, _compose_reference(plane, base, k))


def test_compose_matches_canonicalize_on_k1_fano():
    fano = develop_difference_set(planar_difference_set(2), 7)
    base = orbit_code(CyclicGeneratorPair(3, (1,), (2,)))
    verify_code(base)
    code = compose_code(fano, base, k=1, d=1)
    _assert_same_words(code, _compose_reference(fano, base, 1))


def test_compose_matches_canonicalize_on_quadruples():
    base = Code(4, 2, 2, 0, 2, frozenset(core.enumerate_words(4, 2, 2)))
    verify_code(base)
    sqs = zero_sum_quadruples(4)
    _assert_same_words(compose_code(sqs, base, 2, 2), _compose_reference(sqs, base, 2))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k, d", [(1, 1), (2, 3), (3, 5)])
def test_compose_matches_canonicalize_on_mixed_sizes(seed, k, d):
    rng = random.Random(100 * k + seed)
    t = 2 * k - d + 1
    sizes = [2 * k, 2 * k + 1, 2 * k + 3, 2 * k + 2]  # the last size has no base code
    # one block of each size on disjoint points, so every size occurs
    cuts = np.cumsum([0] + sizes).tolist()
    start = [tuple(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    design = _random_packing(rng, 40, t, sizes, tries=300, start=start)
    bases = {p: _verified_greedy(p, k, d, seed) for p in sizes[:3]}
    assert {len(b) for b in design.blocks} == set(sizes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = compose_code(design, bases, k, d)
    skipped = sum(len(b) == sizes[3] for b in design.blocks)
    assert sum(f"block size {sizes[3]}" in str(w.message) for w in caught) == skipped
    _assert_same_words(code, _compose_reference(design, bases, k))
    assert verify_code(code) >= d


def test_compose_length_check_catches_duplicate_words(monkeypatch):
    base = Code(4, 2, 2, 0, 2, frozenset(core.enumerate_words(4, 2, 2)))
    verify_code(base)
    twice = BlockDesign(8, 3, ((0, 1, 2, 3), (0, 1, 2, 3)))
    assert verify_design(twice).label == "invalid"
    # with the design check bypassed, the final length check still refuses
    monkeypatch.setattr(designs, "verify_design", lambda design: DesignVerification("packing"))
    with pytest.raises(ParameterError, match="duplicate"):
        compose_code(twice, base, 2, 2)


def test_composition_builds_no_words(monkeypatch):
    """Orbit, compose, verify and save of the 7,220-word AG(19) composition run on rows alone."""

    def refuse(*args):
        raise AssertionError("a word object was built")

    monkeypatch.setattr(core, "_row_words", refuse)
    base = orbit_code(CyclicGeneratorPair(19, (1, 5, 19), (2, 13, 15)))
    assert verify_code(base) == 5
    code = compose_code(affine_plane(19), base, k=3, d=5)
    assert len(code) == 7220 and verify_code(code) == 5
    assert code_to_json(code).endswith(',"verified_min_distance":5}')


# ------------------------------------------------------------------ greedy


@pytest.mark.parametrize("n, k, d", [(9, 2, 3), (12, 2, 3), (11, 3, 4), (14, 2, 2), (10, 1, 2)])
@pytest.mark.parametrize("mode", ["witness", "distance"])
def test_greedy_pairs_match_canonicalize(n, k, d, mode):
    code = greedy_code(n, k, d, seed=7, mode=mode)
    if mode == "witness" and _greedy_fast.applicable(n, k, d):
        rows = _greedy_fast.greedy_pairs(n, k, d, 7)
    else:
        stream = np.concatenate([np.column_stack(a + b) for a, b in _greedy_fast._stream_words(n, k, 7)])
        rows = [(row[:k], row[k:]) for row in _greedy_fast.greedy_by_distance(stream, 2, 2 * k - d).tolist()]
    reference = {canonicalize([a, b], n, k) for a, b in rows}
    assert len(reference) == len(rows)
    _assert_same_words(code, reference)


# ------------------------------------------------------------------ enumeration and exact search


@pytest.mark.parametrize("n, k, s", [(9, 3, 1), (70, 1, 2), (8, 2, 2), (9, 2, 3), (8, 2, 4), (9, 1, 4)])
def test_enumerate_words_matches_canonicalize(n, k, s):
    words = list(enumerate_words(n, k, s))
    assert len(words) == core.word_count(n, k, s)
    _assert_same_words(Code(n, k, s, 0, 1, frozenset(words)), {canonicalize(w.as_lists(), n, k) for w in words})


@pytest.mark.parametrize("n, k, d", [(9, 2, 3), (8, 2, 2), (7, 1, 1), (10, 3, 4), (70, 1, 2)])
def test_exact_best_code_matches_canonicalize(n, k, d):
    code = exact_max_code(n, k, d, node_budget=2_000).best_code
    reference = {canonicalize(w.as_lists(), n, k) for w in code.words}
    assert len(reference) == len(code) > 0
    _assert_same_words(code, reference)


# ------------------------------------------------------------------ orbits


def _orbit_reference(parts, m, k):
    return {canonicalize([[(x + u) % m for x in part] for part in parts], m, k) for u in range(m)}


def test_orbit_code_matches_canonicalize():
    pairs = [CyclicGeneratorPair(3, (1,), (2,)), CyclicGeneratorPair(19, (1, 5, 19), (2, 13, 15))]
    for k, m in ((2, 9), (2, 11), (3, 19), (3, 23)):
        pairs.extend(search_antagonistic(k, m).pairs)
    for pair in pairs:
        code = orbit_code(pair)
        _assert_same_words(code, _orbit_reference((pair.s_set, pair.t_set), pair.m, pair.k))


def test_multi_orbit_code_matches_canonicalize():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(8, 40)
        k = rng.randint(1, 3)
        gens = []
        reference = set()
        for _ in range(rng.randint(1, 3)):
            elements = rng.sample(range(m), 2 * k)
            gen = [elements[:k], elements[k:]]
            orbit = _orbit_reference(gen, m, k)
            if reference.isdisjoint(orbit):
                gens.append(gen)
                reference |= orbit
        code = multi_orbit_code(m, gens, d=1)
        _assert_same_words(code, reference)
        stuple_gens = [canonicalize(g, m) for g in gens]
        assert multi_orbit_code(m, stuple_gens, d=1).words == code.words


def test_multi_orbit_code_keeps_generator_checks():
    with pytest.raises(PartSizeError):
        multi_orbit_code(17, [((0, 7), (2, 6)), ((0, 1, 11), (7, 8, 9))], d=3)
    with pytest.raises(ParameterError):
        multi_orbit_code(17, [((0,), (2,), (5,))], d=1)  # three parts: not a pair code
    with pytest.raises(ElementRangeError):
        multi_orbit_code(17, [((0, 17), (2, 6))], d=3)


# ------------------------------------------------------------------ antagonistic leaves


def test_search_builds_one_generator_pair_per_class(monkeypatch):
    built = []
    real = cyclic.CyclicGeneratorPair

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cyclic, "CyclicGeneratorPair", counting)
    result = search_antagonistic(3, 19)
    assert result.exhausted and result.nodes == 5_167
    assert len(built) == len(result.pairs)
    assert [cyclic.canonical_generator_form(p) for p in result.pairs] == [(p.s_set, p.t_set) for p in result.pairs]


# ------------------------------------------------------------------ design verification


def _verify_design_oracle(design):
    """The set walk verify_design replaced: stop at the first repeated t-subset."""
    seen = set()
    for block in design.blocks:
        for sub in combinations(block, design.t):
            if sub in seen:
                return DesignVerification("invalid", violation=sub, covered=len(seen))
            seen.add(sub)
    total = len(list(combinations(range(design.v), design.t)))
    return DesignVerification("design" if len(seen) == total else "packing", covered=len(seen))


def test_verify_design_matches_oracle_on_known_families():
    families = [
        affine_plane(3),
        affine_plane(7),
        zero_sum_quadruples(3),
        zero_sum_quadruples(4),
        develop_difference_set(planar_difference_set(3), 13),
        develop_difference_set((0, 1, 2), 7),  # repeats pairs at difference 1
        BlockDesign(5, 2, ()),
        BlockDesign(4, 2, ((0, 1, 2), (1, 2, 3))),
        BlockDesign(3, 4, ((0, 1, 2),)),  # v < t
        BlockDesign(0, 1, ()),
    ]
    for design in families:
        assert verify_design(design) == _verify_design_oracle(design)


@pytest.mark.parametrize("seed", range(40))
def test_verify_design_matches_oracle_on_random_families(seed):
    rng = random.Random(seed)
    v = rng.randint(1, 16)
    t = rng.randint(1, min(4, v))
    sizes = list(range(0, min(v, t + 3) + 1))  # includes blocks smaller than t
    if seed % 3 == 0:
        design = _random_packing(rng, v, t, sizes, tries=60)
    else:
        blocks = tuple(tuple(rng.sample(range(v), rng.choice(sizes))) for _ in range(rng.randint(0, 12)))
        design = BlockDesign(v, t, blocks)
    assert verify_design(design) == _verify_design_oracle(design)


def test_verify_design_stops_ranking_at_the_pigeonhole():
    # far more t-subsets than C(v, t): the certificate is the same, and
    # only the first C(v, t) + 1 of them are ranked
    design = BlockDesign(6, 2, tuple(tuple(range(6)) for _ in range(10_000)))
    assert verify_design(design) == DesignVerification("invalid", violation=(0, 1), covered=15)


# ------------------------------------------------------------------ public KSubset


def _ksubset_oracle(n, elements):
    """The multi-pass KSubset check: the error type and message it raised, or None."""
    elems = tuple(int(e) for e in elements)
    for prev, cur in zip(elems, elems[1:]):
        if prev == cur:
            return PartSizeError, f"duplicate element {cur} in part {elems}"
        if prev > cur:
            return ParameterError, f"elements must be sorted ascending, got {elems}"
    if elems and (elems[0] < 0 or elems[-1] >= n):
        bad = elems[0] if elems[0] < 0 else elems[-1]
        return ElementRangeError, f"element {bad} outside ground set [0, {n})"
    return None


def test_ksubset_single_pass_raises_as_before():
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(0, 12)
        elements = [rng.randint(-3, 15) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            elements.sort()
        expected = _ksubset_oracle(n, elements)
        if expected is None:
            sub = KSubset(n, tuple(elements))
            assert sub.mask == sum(1 << e for e in elements)
            assert all(type(e) is int for e in sub.elements)
        else:
            with pytest.raises(ParameterError) as info:
                KSubset(n, tuple(elements))
            assert (type(info.value), str(info.value)) == expected


def test_ksubset_rejects_huge_elements_without_building_them():
    with pytest.raises(ElementRangeError):
        KSubset(5, (1, 10**18))
    with pytest.raises(ParameterError):
        KSubset(-1, ())
