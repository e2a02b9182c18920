"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact unless a runtime budget is
stated, in which case the budget is asserted too.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

from ekcodes import (
    Code,
    CyclicGeneratorPair,
    QaryPairWord,
    QaryWord,
    WitnessPair,
    asymptotic_constant,
    canonicalize,
    compose_code,
    develop_difference_set,
    affine_plane,
    enumerate_words,
    exact_max_code,
    exhaustive_max_code,
    generators_equivalent,
    greedy_code,
    is_antagonistic,
    known_value,
    orbit_code,
    multi_orbit_code,
    pair_distance,
    planar_difference_set,
    qary_distance,
    qary_pair_distance,
    ratio_experiment,
    search_antagonistic,
    tuple_distance,
    upper_bound,
    upper_bound_split,
    verify_code,
    witness_degree,
    witness_set,
    witness_splits,
    word_count,
    zero_sum_quadruples,
)

PAIR_K1 = CyclicGeneratorPair(3, (1,), (2,))
PAIR_K2 = CyclicGeneratorPair(9, (1, 8), (2, 3))
PAIR_K3 = CyclicGeneratorPair(19, (1, 5, 19), (2, 13, 15))


def _report(name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"\n{name}: PASS ({elapsed:.1f}s)")


def _random_pair_word(rng, n, k, s=2):
    elems = rng.sample(range(n), s * k)
    return canonicalize([elems[i * k : (i + 1) * k] for i in range(s)], n)


def _random_qary_word(rng, n, k, q):
    symbols = [0] * n
    for pos in rng.sample(range(n), k):
        symbols[pos] = rng.randint(1, q - 1)
    return QaryWord(n, q, tuple(symbols))


def _random_qary_pair(rng, n, k, q):
    positions = rng.sample(range(n), 2 * k)
    u = [0] * n
    v = [0] * n
    for pos in positions[:k]:
        u[pos] = rng.randint(1, q - 1)
    for pos in positions[k:]:
        v[pos] = rng.randint(1, q - 1)
    return QaryPairWord(QaryWord(n, q, tuple(u)), QaryWord(n, q, tuple(v)))


def _axioms(metric, triples):
    for x, y, z in triples:
        assert metric(x, y) == metric(y, x)
        assert (metric(x, y) == 0) == (x == y)
        assert metric(x, z) <= metric(x, y) + metric(y, z)


def test_c01_metric_axioms():
    started = time.monotonic()
    rng = random.Random(1001)
    per_family = 100_000
    seconds = {}  # per family, words built and checked

    family_started = time.monotonic()
    triples = []
    for _ in range(per_family):
        n = rng.randint(4, 20)
        k = rng.randint(1, min(4, n // 2))
        triples.append(tuple(_random_pair_word(rng, n, k) for _ in range(3)))
    _axioms(pair_distance, triples)
    seconds["pair"] = time.monotonic() - family_started

    family_started = time.monotonic()
    triples = []
    for _ in range(per_family):
        s = rng.randint(2, 4)
        k = rng.randint(1, 4)
        n = rng.randint(s * k, 20)
        triples.append(tuple(_random_pair_word(rng, n, k, s) for _ in range(3)))
    _axioms(tuple_distance, triples)
    seconds["tuple"] = time.monotonic() - family_started

    family_started = time.monotonic()
    triples = []
    for _ in range(per_family):
        n = rng.randint(2, 20)
        k = rng.randint(1, n)
        q = rng.randint(2, 4)
        triples.append(tuple(_random_qary_word(rng, n, k, q) for _ in range(3)))
    _axioms(qary_distance, triples)
    seconds["qary"] = time.monotonic() - family_started

    family_started = time.monotonic()
    triples = []
    for _ in range(per_family):
        n = rng.randint(2, 20)
        k = rng.randint(1, n // 2)
        q = rng.randint(2, 4)
        triples.append(tuple(_random_qary_pair(rng, n, k, q) for _ in range(3)))
    _axioms(qary_pair_distance, triples)
    seconds["qary_pair"] = time.monotonic() - family_started

    families = ", ".join(f"{name} {spent:.1f}s" for name, spent in seconds.items())
    _report(f"C01 metric axioms (4 x 100k random triples; {families})", started, budget=60)


def test_c02_witness_equivalence_exhaustive_n8():
    started = time.monotonic()
    words = list(enumerate_words(8, 2, 2))
    assert len(words) == 210
    distances = {}
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            distances[i, j] = pair_distance(words[i], words[j])
    assert len(distances) == 21_945
    for d in (2, 3, 4):
        witness_families = [witness_set(w, d) for w in words]
        for (i, j), dist in distances.items():
            assert (dist <= d - 1) == bool(witness_families[i] & witness_families[j])
    _report("C02 distance <= d-1 iff shared witness (n=8, k=2, d in 2..4)", started, budget=60)


def test_c03_published_pairs_and_orbit_codes():
    started = time.monotonic()
    expected = {PAIR_K1: (3, 1), PAIR_K2: (9, 3), PAIR_K3: (19, 5)}
    for pair, (size, dist) in expected.items():
        assert is_antagonistic(pair).ok
        code = orbit_code(pair)
        assert len(code) == size
        assert verify_code(code) == dist  # exactly
    _report("C03 published generator pairs and their orbit codes", started)


def test_c04_optimal_small_constructions():
    started = time.monotonic()
    orbit9 = orbit_code(PAIR_K2)
    assert verify_code(orbit9) >= 3
    assert len(orbit9) == upper_bound(9, 2, 3).floor_value == 9

    two_orbit = multi_orbit_code(17, [((0, 7), (2, 6)), ((0, 11), (7, 8))], d=3)
    assert two_orbit.verified_min_distance >= 3
    assert len(two_orbit) == upper_bound(17, 2, 3).floor_value == 34

    orbit19 = orbit_code(PAIR_K3)
    assert verify_code(orbit19) >= 5
    assert len(orbit19) == upper_bound(19, 3, 5).floor_value == 19
    _report("C04 constructions meeting the product bound exactly (9, 17, 19)", started)


@cache
def _verified_orbit(pair_key):
    pair = {"k2": PAIR_K2, "k3": PAIR_K3}[pair_key]
    code = orbit_code(pair)
    verify_code(code)
    return code


def test_c05_compositions_at_scale():
    started = time.monotonic()
    base = planar_difference_set(8)
    assert base is not None
    blocks = develop_difference_set(base, 73)
    code73 = compose_code(blocks, _verified_orbit("k2"), k=2, d=3)
    assert len(code73) == 657 == upper_bound(73, 2, 3).floor_value
    assert upper_bound(73, 2, 3).exact_value == Fraction(73 * 72, 8)
    assert verify_code(code73) >= 3
    elapsed_73 = time.monotonic() - started
    assert elapsed_73 < 30, f"73-point composition took {elapsed_73:.1f}s"

    t361 = time.monotonic()
    plane = affine_plane(19)
    code361 = compose_code(plane, _verified_orbit("k3"), k=3, d=5)
    assert len(code361) == 7220 == upper_bound(361, 3, 5).floor_value
    assert upper_bound(361, 3, 5).exact_value == Fraction(361 * 360, 18)
    assert verify_code(code361) >= 5
    assert time.monotonic() - t361 < 600
    _report("C05 657-word (73,2,3) and 7220-word (361,3,5) compositions, fully verified", started)


def test_c06_quadruple_system_composition():
    started = time.monotonic()
    sqs = zero_sum_quadruples(3)
    base = Code(4, 2, 2, 0, 2, frozenset(enumerate_words(4, 2, 2)))
    verify_code(base)
    code = compose_code(sqs, base, k=2, d=2)
    assert len(code) == 42
    assert verify_code(code) >= 2
    assert known_value(8, 2, 2).exact_value == Fraction(math.comb(8, 3) * math.comb(4, 2), 8) == 42
    assert upper_bound(8, 2, 2).floor_value == 42
    _report("C06 42-word (8,2,2) composition matching the exact value", started)


def test_c07_exact_search_oracle_agreement():
    started = time.monotonic()
    for n, k, d in ((6, 2, 3), (7, 2, 3), (8, 2, 3), (6, 2, 4), (4, 2, 2)):
        report = exact_max_code(n, k, d)
        brute = exhaustive_max_code(n, k, d)
        assert report.optimal
        assert len(report.best_code) == brute
    nine = exact_max_code(9, 2, 3)
    assert nine.optimal and len(nine.best_code) == 9
    _report("C07 branch-and-bound equals exhaustive clique search; C(9,2,3)=9", started, budget=600)


def test_c08_degree_formula_brute_force_n10():
    started = time.monotonic()
    n, k = 10, 3
    words = list(enumerate_words(n, k, 2))
    assert len(words) == word_count(n, k, 2) == 2100
    for d in (3, 4, 5):
        counts: Counter = Counter()
        for word in words:
            counts.update(witness_set(word, d))
        total_checked = 0
        for u, v in witness_splits(k, d):
            expected = witness_degree(n, k, d, u, v)
            # u = v pairs are visited twice (once per orientation); harmless
            for us in combinations(range(n), u):
                rest = [x for x in range(n) if x not in us]
                for vs in combinations(rest, v):
                    assert counts[WitnessPair(us, vs)] == expected
                    total_checked += 1
        assert total_checked > 0
    _report("C08 witness degree formula equals brute-force counts (n=10, k=3)", started)


def test_c09_bound_identities():
    started = time.monotonic()
    for n in range(2, 21):
        for k in range(1, n // 2 + 1):
            universe = Fraction(math.comb(n, k) * math.comb(n - k, k), 2)
            assert upper_bound(n, k, 1).exact_value == universe
            assert upper_bound(n, k, 2 * k).exact_value == Fraction(n, 2 * k)
    for n in range(4, 41):
        for k in range(1, 5):
            if 2 * k > n:
                continue
            for d in range(1, 2 * k + 1):
                best = min(
                    upper_bound_split(n, k, d, u, v).exact_value
                    for u, v in witness_splits(k, d)
                )
                assert upper_bound(n, k, d).exact_value == best
    _report("C09 bound identities and balanced-split minimality", started)


def test_c10_asymptotic_constant_cross_checks():
    started = time.monotonic()
    assert asymptotic_constant("pair", k=2, d=3) == Fraction(1, 8)
    assert asymptotic_constant("pair", k=3, d=5) == Fraction(1, 18)
    for k in range(1, 7):
        for d in range(1, 2 * k + 1):
            assert asymptotic_constant("stuple", k=k, d=d, s=2) == asymptotic_constant(
                "pair", k=k, d=d
            )
            doubled = asymptotic_constant("qary-pair", k=k, d=2 * d, q=2)
            assert doubled.coefficient == asymptotic_constant("pair", k=k, d=d)
            assert doubled.n_exponent == 2 * k - d + 1
    _report("C10 limiting-constant identities (exact rationals)", started)


# first run of ratio_experiment(2, 3, [50, 100, 200], seed=1) on this
# implementation; frozen as the regression values
_PINNED_RATIO_SIZES = {50: 279, 100: 1167, 200: 4803}


def test_c11_greedy_validity_and_ratio():
    started = time.monotonic()
    rng = random.Random(20260810)
    runs = 0

    def draw_set_world():
        while True:
            n = rng.randint(6, 30)
            k = rng.randint(1, 3)
            if 2 * k > n:
                continue
            d = rng.randint(2, 2 * k)
            if word_count(n, k, 2) <= 120_000 and upper_bound(n, k, d).floor_value <= 1500:
                return n, k, d

    for _ in range(90):
        n, k, d = draw_set_world()
        code = greedy_code(n, k, d, rng.randint(0, 10**9))
        assert verify_code(code) >= d
        runs += 1

    for _ in range(55):
        while True:
            k = rng.randint(1, 3)
            n = rng.randint(3 * k, 14)
            if word_count(n, k, 3) <= 60_000:
                break
        d = rng.randint(2, 3 * k)
        code = greedy_code(n, k, d, rng.randint(0, 10**9), s=3)
        assert verify_code(code) >= d
        runs += 1

    for _ in range(55):
        while True:
            k = rng.randint(1, 3)
            n = rng.randint(2 * k, 16)
            if math.comb(n, k) * 2**k <= 60_000:
                break
        d = rng.randint(2, 2 * k)
        code = greedy_code(n, k, d, rng.randint(0, 10**9), q=3)
        assert verify_code(code) >= d
        runs += 1

    assert runs == 200

    rows = ratio_experiment(2, 3, [50, 100, 200], seed=1)
    for row in rows:
        assert row["greedy_size"] == _PINNED_RATIO_SIZES[row["n"]]
    final = rows[-1]
    assert final["n"] == 200
    assert final["ratio_to_bound"] >= 0.5
    _report("C11 200 greedy runs re-verify; ratio 4803/4975 at n=200", started, budget=300)


def test_c12_search_rediscovery_and_bounded_run():
    started = time.monotonic()
    found_k2 = search_antagonistic(2, 9)
    assert found_k2.exhausted
    assert any(generators_equivalent(p, PAIR_K2) for p in found_k2.pairs)

    found_k3 = search_antagonistic(3, 19)
    assert found_k3.exhausted
    assert any(generators_equivalent(p, PAIR_K3) for p in found_k3.pairs)
    elapsed = time.monotonic() - started
    assert elapsed < 60

    bounded = search_antagonistic(4, 33, node_budget=200_000)
    assert not bounded.exhausted
    assert bounded.nodes <= 200_001
    assert bounded.pairs or bounded.frontier  # findings or a resumable frontier
    _report("C12 generator-pair searches rediscover the published pairs", started)
