import math
from fractions import Fraction
from itertools import combinations

import pytest

from ekcodes import (
    ParameterError,
    QaryConstant,
    asymptotic_constant,
    balanced_split,
    canonicalize,
    divisibility_check,
    divisibility_levels,
    enumerate_words,
    fractional_value,
    generalized_divisibility_check,
    known_value,
    packing_bound,
    upper_bound,
    upper_bound_split,
    witness_degree,
    witness_set,
    witness_splits,
)


def test_packing_bound_values():
    assert packing_bound(9, 3, 2).exact_value == Fraction(12)
    assert packing_bound(73, 9, 2).exact_value == Fraction(73)
    assert packing_bound(10, 4, 4).exact_value == Fraction(math.comb(10, 4))
    with pytest.raises(ParameterError):
        packing_bound(3, 4, 2)


def test_upper_bound_values():
    assert upper_bound(9, 2, 3).floor_value == 9
    assert upper_bound(19, 3, 5).floor_value == 19
    assert upper_bound(17, 2, 3).floor_value == 34
    assert upper_bound(73, 2, 3).exact_value == Fraction(657)
    assert upper_bound(361, 3, 5).exact_value == Fraction(7220)
    assert upper_bound(8, 2, 2).exact_value == Fraction(42)


@pytest.mark.parametrize("n", range(4, 21))
def test_upper_bound_d1_is_universe_size(n):
    for k in range(1, n // 2 + 1):
        expected = Fraction(math.comb(n, k) * math.comb(n - k, k), 2)
        assert upper_bound(n, k, 1).exact_value == expected


@pytest.mark.parametrize("n", range(2, 21))
def test_upper_bound_d2k_is_n_over_2k(n):
    for k in range(1, n // 2 + 1):
        assert upper_bound(n, k, 2 * k).exact_value == Fraction(n, 2 * k)


def _product_form(n, k, d):
    """Oracle: the upper_bound docstring's product form, as a Fraction."""
    num = math.prod(range(n - 2 * k + d, n + 1))
    den = math.prod(range(math.ceil((d + 1) / 2), k + 1)) * math.prod(range((d + 1) // 2, k + 1))
    return Fraction(num, 2 * den)


def test_upper_bound_is_the_product_form():
    for n in range(2, 40):
        for k in range(1, n // 2 + 1):
            for d in range(1, 2 * k + 1):
                bound = upper_bound(n, k, d)
                assert bound.exact_value == _product_form(n, k, d), (n, k, d)
                assert bound.floor_value == math.floor(bound.exact_value)
                assert bound.realizing_split == balanced_split(k, d)


def test_balanced_split_examples():
    assert balanced_split(2, 3) == (1, 1)
    assert balanced_split(2, 4) == (0, 1)
    assert balanced_split(3, 5) == (1, 1)
    assert balanced_split(k=3, d=1) == (3, 3)


def test_split_bound_examples():
    assert upper_bound_split(9, 2, 3, 1, 1).exact_value == Fraction(9)
    assert upper_bound_split(9, 2, 3, 0, 2).exact_value == Fraction(18)
    for n, k in ((8, 2), (12, 3), (14, 2)):
        assert upper_bound_split(n, k, 2 * k, 0, 1).exact_value == Fraction(n, 2 * k)
    with pytest.raises(ParameterError):
        upper_bound_split(9, 2, 3, 2, 0)
    with pytest.raises(ParameterError):
        upper_bound_split(9, 2, 3, 1, 2)


def test_balanced_split_minimizes_split_bound():
    for n in range(4, 41):
        for k in range(1, 5):
            if 2 * k > n:
                continue
            for d in range(1, 2 * k + 1):
                bound = upper_bound(n, k, d)
                split_values = [
                    upper_bound_split(n, k, d, u, v).exact_value
                    for u, v in witness_splits(k, d)
                ]
                assert bound.exact_value == min(split_values)
                bal = balanced_split(k, d)
                assert upper_bound_split(n, k, d, *bal).exact_value == bound.exact_value


def test_known_trivial_values():
    assert known_value(12, 2, 4).exact_value == 3
    assert known_value(12, 2, 4).kind == "exact"
    assert known_value(10, 2, 1).exact_value == Fraction(math.comb(10, 2) * math.comb(8, 2), 2)


def test_known_cyclic_family_values():
    report = known_value(9, 2, 3)
    assert report.exact_value == 9 and report.kind == "exact"
    assert known_value(17, 2, 3).exact_value == 34
    assert known_value(17, 2, 3).kind == "exact"
    assert known_value(73, 2, 3).kind == "exact"
    assert known_value(19, 3, 5).exact_value == 19
    assert known_value(361, 3, 5).exact_value == 7220
    # same congruence class but no in-package construction: conjectured
    assert known_value(25, 2, 3).kind == "conjectured-exact"
    assert known_value(25, 2, 3).exact_value == Fraction(25 * 24, 8)
    assert known_value(10, 2, 3) is None


def test_known_d2_values():
    report = known_value(8, 2, 2)
    assert report.exact_value == 42 and report.kind == "exact"
    assert known_value(16, 2, 2).kind == "exact"
    # n = 14 passes divisibility (14 = 2 mod 6) but has no construction here
    assert known_value(14, 2, 2).kind == "conjectured-exact"
    assert known_value(9, 2, 2) is None  # 9 = 3 mod 6 fails divisibility


def test_divisibility():
    assert divisibility_check(9, 3, 2) is True
    assert divisibility_check(8, 3, 2) is False
    assert divisibility_levels(8, 3, 2) == [False, False]  # 28/3 and 7/2
    assert divisibility_check(8, 4, 3) is True
    assert divisibility_check(7, 3, 2) is True  # Fano parameters


def test_generalized_divisibility():
    for v in (9, 17, 25, 33, 73, 145):
        assert generalized_divisibility_check(v, {9, 17}) is True
    for v in (10, 12, 18, 24):
        assert generalized_divisibility_check(v, {9, 17}) is False


def test_asymptotic_pair_constants():
    assert asymptotic_constant("pair", k=2, d=3) == Fraction(1, 8)
    assert asymptotic_constant("pair", k=3, d=5) == Fraction(1, 18)
    assert asymptotic_constant("pair", k=1, d=1) == Fraction(1, 2)


def test_asymptotic_stuple_reduces_to_pair():
    for k in range(1, 7):
        for d in range(1, 2 * k + 1):
            assert asymptotic_constant("stuple", k=k, d=d, s=2) == asymptotic_constant(
                "pair", k=k, d=d
            )


def test_asymptotic_qary_forms():
    const = asymptotic_constant("qary", k=3, d=3, q=4)
    assert const == QaryConstant(Fraction(1, 6), 2, 2)
    # the closed form gave (1/6, 2, 2) here; the witness bound's leading term is (1/6, 2, 1)
    with pytest.raises(ParameterError, match="even d needs q = 2"):
        asymptotic_constant("qary", k=3, d=4, q=4)
    assert asymptotic_constant("qary", k=3, d=4, q=2) == QaryConstant(Fraction(1, 6), 2, 2)
    with pytest.raises(ParameterError):
        asymptotic_constant("qary", k=3, d=3, q=1)


def test_asymptotic_constants_exact_where_the_limit_is_known():
    """At d = sk the words are element-disjoint, so C_s(n,k,sk) = floor(n/(sk)) and the limit is 1/(sk).

    Weight-1 q-ary words at distance >= 2 sit at distinct positions, so C = n.
    """
    for s in range(1, 7):
        for k in range(1, 6):
            if s <= 2:
                assert asymptotic_constant("stuple", k=k, d=s * k, s=s) == Fraction(1, s * k)
            else:
                with pytest.raises(ParameterError, match="s\\*k-d\\+1 >= s-1"):
                    asymptotic_constant("stuple", k=k, d=s * k, s=s)
    assert asymptotic_constant("qary", k=1, d=2, q=2) == QaryConstant(Fraction(1), 1, 1)
    for q in (3, 4, 5):
        with pytest.raises(ParameterError, match="even d needs q = 2"):
            asymptotic_constant("qary", k=1, d=2, q=q)
        assert asymptotic_constant("qary", k=1, d=1, q=q) == QaryConstant(Fraction(1), 1, 1)


def test_asymptotic_qary_pair_matches_pair_at_q2():
    for k in range(1, 7):
        for d_pair in range(1, 2 * k + 1):
            pair_const = asymptotic_constant("pair", k=k, d=d_pair)
            doubled = asymptotic_constant("qary-pair", k=k, d=2 * d_pair, q=2)
            assert doubled.coefficient == pair_const
            assert doubled.n_exponent == 2 * k - d_pair + 1


def test_asymptotic_qary_pair_regime_errors():
    with pytest.raises(ParameterError):
        asymptotic_constant("qary-pair", k=2, d=3, q=2)  # odd d needs q >= 3
    assert asymptotic_constant("qary-pair", k=2, d=3, q=3).n_exponent == 3
    with pytest.raises(ParameterError):
        asymptotic_constant("nonsense", k=2, d=3)


def brute_degree(n, k, d, witness):
    count = 0
    for word in enumerate_words(n, k, 2):
        if witness in witness_set(word, d):
            count += 1
    return count


@pytest.mark.parametrize("n,k,d", [(6, 2, 3), (7, 2, 2), (8, 3, 5), (6, 2, 4)])
def test_witness_degree_matches_brute_force(n, k, d):
    from ekcodes import WitnessPair

    for u, v in witness_splits(k, d):
        us = tuple(range(u))
        vs = tuple(range(u, u + v))
        witness = WitnessPair(us, vs)
        assert witness_degree(n, k, d, u, v) == brute_degree(n, k, d, witness)


def test_witness_degree_example():
    assert witness_degree(6, 2, 3, 1, 1) == math.comb(4, 1) * math.comb(3, 1) == 12


def test_witness_degree_extreme_split_closed_form():
    # at u = k the word's first side is pinned, leaving C(n-2k+d-1, d-1)
    # completions; brute force (above) confirms the same formula
    n, k = 12, 3
    for d in range(1, k + 2):
        assert witness_degree(n, k, d, k, k - d + 1) == math.comb(n - 2 * k + d - 1, d - 1)


def test_fractional_value_examples():
    # ratio f(n)/n^2 approaches 1/8 for (k, d) = (2, 3)
    ratio = fractional_value(500, 2, 3) / 500**2
    assert abs(ratio - Fraction(1, 8)) <= Fraction(1, 8) * Fraction(5, 100)
    assert fractional_value(4, 2, 2) > 0
    assert fractional_value(6, 3, 4) > 0


def test_fractional_value_below_upper_bound():
    for n in range(2, 61):
        for k in (1, 2, 3):
            if 2 * k > n:
                continue
            for d in range(1, 2 * k + 1):
                assert fractional_value(n, k, d) <= upper_bound(n, k, d).exact_value


def test_exact_rationals_no_floats():
    report = upper_bound(11, 2, 3)
    assert isinstance(report.exact_value, Fraction)
    assert report.exact_value == Fraction(11 * 10, 8)  # 2k-d+1 = 2 factors
    assert report.floor_value == 13
