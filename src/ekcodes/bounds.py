"""Exact-arithmetic bounds, known values, and counting quantities.

Everything here is big-integer rational; no floating point.  C(n, k, d)
denotes the maximum size of a family of disjoint k-subset pairs of [n]
with pairwise transportation distance >= d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import ParameterError

KIND_UPPER = "upper-bound"
KIND_EXACT = "exact"
KIND_CONJECTURED = "conjectured-exact"


@dataclass(frozen=True)
class BoundReport:
    """An exact rational value, its floor, and how it was realized."""

    exact_value: Fraction
    floor_value: int
    realizing_split: tuple[int, int] | None
    kind: str

    def __post_init__(self) -> None:
        if self.floor_value != math.floor(self.exact_value):
            raise ParameterError("floor_value must equal floor(exact_value)")


def _report(value: Fraction, kind: str, split: tuple[int, int] | None = None) -> BoundReport:
    return BoundReport(value, math.floor(value), split, kind)


def packing_bound(v: int, k: int, t: int) -> BoundReport:
    """Counting bound on packings: P(v, k, t) <= C(v, t) / C(k, t)."""
    if not v >= k >= t >= 1:
        raise ParameterError(f"need v >= k >= t >= 1, got ({v},{k},{t})")
    return _report(Fraction(math.comb(v, t), math.comb(k, t)), KIND_UPPER)


def balanced_split(k: int, d: int) -> tuple[int, int]:
    """The (u, v) split with u + v = 2k - d + 1 and u, v as close as possible."""
    u = k - math.ceil((d - 1) / 2)
    v = k - (d - 1) // 2
    return (u, v)


def upper_bound(n: int, k: int, d: int) -> BoundReport:
    """Product-form upper bound on C(n, k, d).

    Exact value (1/2) * n(n-1)...(n-2k+d) / (k(k-1)...ceil((d+1)/2) *
    k(k-1)...floor((d+1)/2)); empty denominator chains are 1.  This is
    the split form at the balanced split, which minimizes it.
    """
    return upper_bound_split(n, k, d, *balanced_split(k, d))


def upper_bound_split(n: int, k: int, d: int, u: int, v: int) -> BoundReport:
    """Split-form upper bound C(n,u) C(n-u,v) / (2 C(k,u) C(k,v)).

    Valid for any split u + v = 2k - d + 1 with 0 <= u <= v <= k; for
    u = v the unordered witness count halves both sides, so the same
    expression applies.
    """
    if not 1 <= d <= 2 * k or 2 * k > n:
        raise ParameterError(f"need 1 <= d <= 2k <= n, got ({n},{k},{d})")
    if u + v != 2 * k - d + 1 or not 0 <= u <= v <= k:
        raise ParameterError(
            f"split ({u},{v}) must satisfy u+v=2k-d+1={2 * k - d + 1}, 0 <= u <= v <= k"
        )
    num = math.comb(n, u) * math.comb(n - u, v)
    den = 2 * math.comb(k, u) * math.comb(k, v)
    return _report(Fraction(num, den), KIND_UPPER, (u, v))


# Parameter sets whose optimal codes this package can construct and verify
# end to end: the cyclic orbit codes, their two-orbit variant, and the
# compositions with S(73,9,2), S(361,19,2), and S(8,4,3).
_CERTIFIED = {
    (9, 2, 3),
    (17, 2, 3),
    (73, 2, 3),
    (19, 3, 5),
    (361, 3, 5),
    (8, 2, 2),
}


def known_value(n: int, k: int, d: int) -> BoundReport | None:
    """The exact C(n, k, d) where one is known, else None.

    Values backed by a construction this package can build and verify are
    tagged exact; values that additionally assume a large-n design
    existence theorem (with an unspecified threshold) are tagged
    conjectured-exact.
    """
    if not 1 <= d <= 2 * k or 2 * k > n:
        return None
    if d == 1:
        value = Fraction(math.comb(n, k) * math.comb(n - k, k), 2)
        return _report(value, KIND_EXACT)
    if d == 2 * k:
        return _report(Fraction(n // (2 * k)), KIND_EXACT)
    if d == 2:
        # needs a Steiner system S(n, 2k, 2k-1)
        if divisibility_check(n, 2 * k, 2 * k - 1):
            value = Fraction(math.comb(n, 2 * k - 1) * math.comb(2 * k, k), 4 * k)
            constructible = (n, k, d) in _CERTIFIED or (k == 2 and _is_power_of_two(n))
            return _report(value, KIND_EXACT if constructible else KIND_CONJECTURED)
        return None
    if d == 2 * k - 1:
        if k == 2 and n % 8 == 1:
            kind = KIND_EXACT if (n, k, d) in _CERTIFIED else KIND_CONJECTURED
            return _report(Fraction(n * (n - 1), 8), kind)
        if k == 3 and n % 342 in (1, 19):
            kind = KIND_EXACT if (n, k, d) in _CERTIFIED else KIND_CONJECTURED
            return _report(Fraction(n * (n - 1), 18), kind)
    return None


def _is_power_of_two(n: int) -> bool:
    return n >= 4 and n & (n - 1) == 0


def divisibility_levels(v: int, k: int, t: int) -> list[bool]:
    """Integrality of C(v-i, t-i) / C(k-i, t-i) for each level i < t."""
    if not v >= k >= t >= 1:
        raise ParameterError(f"need v >= k >= t >= 1, got ({v},{k},{t})")
    return [math.comb(v - i, t - i) % math.comb(k - i, t - i) == 0 for i in range(t)]


def divisibility_check(v: int, k: int, t: int) -> bool:
    """True iff all t divisibility conditions for an S(v, k, t) hold."""
    return all(divisibility_levels(v, k, t))


def generalized_divisibility_check(v: int, K: list[int] | set[int]) -> bool:
    """Mixed-block-size conditions at strength 2: gcd over K of C(k,2)
    divides C(v,2), and gcd over K of (k-1) divides v-1."""
    sizes = sorted(set(int(k) for k in K))
    if not sizes or sizes[0] < 2:
        raise ParameterError(f"need block sizes >= 2, got {sorted(K)}")
    g_pairs = math.gcd(*(math.comb(k, 2) for k in sizes))
    g_degree = math.gcd(*(k - 1 for k in sizes))
    return math.comb(v, 2) % g_pairs == 0 and (v - 1) % g_degree == 0


class QaryConstant(NamedTuple):
    """Symbolic asymptotic value: coefficient * n^n_exponent * (q-1)^q1_exponent."""

    coefficient: Fraction
    n_exponent: int
    q1_exponent: int


def asymptotic_constant(
    variant: str,
    *,
    k: int,
    d: int,
    s: int | None = None,
    q: int | None = None,
) -> Fraction | QaryConstant:
    """The limiting constant of the named family of maximum code sizes.

    variant "pair": limit of C(n,k,d) / n^(2k-d+1), an exact rational.
    variant "stuple": limit of C_s(n,k,d) / n^(sk-d+1); requires s and
    sk-d+1 >= s-1.
    variants "qary" and "qary-pair": limits for constant-weight q-ary
    codes and disjoint-support pairs, returned symbolically as a
    (coefficient, n exponent, (q-1) exponent) triple since they depend
    on q; "qary" at even d requires q = 2.  Regimes outside a theorem's
    hypotheses raise ParameterError, including those where the closed
    form is refuted by codes the package builds.
    """
    if variant == "pair":
        if not 1 <= d <= 2 * k:
            raise ParameterError(f"theorem does not apply: need 1 <= d <= 2k, got d={d}, k={k}")
        u, v = balanced_split(k, d)  # the leading coefficient of upper_bound's split form
        return Fraction(1, 2 * math.perm(k, u) * math.perm(k, v))
    if variant == "stuple":
        if s is None or s < 1:
            raise ParameterError("stuple variant needs s >= 1")
        if not 1 <= d <= s * k:
            raise ParameterError(f"theorem does not apply: need 1 <= d <= s*k, got d={d}")
        if s * k - d + 1 <= s - 2:
            # the form drops a factor for the parts a witness of sk-d+1 elements leaves empty:
            # at (s,k,d) = (3,1,3) it gives 1/6, yet floor(n/3) disjoint triples give 1/3
            raise ParameterError(f"theorem does not apply: need s*k-d+1 >= s-1, got {s * k - d + 1} < {s - 1}")
        num = math.prod(math.factorial(max(0, math.ceil((d - i) / s))) for i in range(1, s + 1))
        return Fraction(num, math.factorial(s) * math.factorial(k) ** s)
    if variant == "qary":
        if q is None or q < 2:
            raise ParameterError("theorem does not apply: need q >= 2")
        if not 1 <= d <= 2 * k:
            raise ParameterError(f"theorem does not apply: need 1 <= d <= 2k, got d={d}")
        if d % 2 == 1:
            e = k - (d - 1) // 2
            return QaryConstant(Fraction(math.factorial((d - 1) // 2), math.factorial(k)), e, e)
        if q >= 3:
            # the (q-1) exponent is one too high: at k = 1, d = 2 words need distinct positions, so C = n, not n(q-1)
            raise ParameterError("theorem does not apply: even d needs q = 2")
        e = k - d // 2 + 1
        return QaryConstant(Fraction(math.factorial(d // 2 - 1), math.factorial(k)), e, e)
    if variant == "qary-pair":
        if q is None or q < 2:
            raise ParameterError("theorem does not apply: need q >= 2")
        if d % 2 == 1:
            if q < 3:
                raise ParameterError("theorem does not apply: odd d needs q >= 3")
            e = 2 * k - (d - 1) // 2
            coeff = Fraction(
                math.factorial((d - 1) // 4) * math.factorial(math.ceil((d - 1) / 4)),
                2 * math.factorial(k) ** 2,
            )
            return QaryConstant(coeff, e, e)
        if d < 2:
            raise ParameterError("theorem does not apply: even case needs d >= 2")
        coeff = Fraction(
            math.factorial(d // 4) * math.factorial(math.ceil(d / 4) - 1),
            2 * math.factorial(k) ** 2,
        )
        return QaryConstant(coeff, 2 * k - d // 2 + 1, 2 * k - d // 2)
    raise ParameterError(f"unknown variant {variant!r}")


def witness_degree(n: int, k: int, d: int, u: int, v: int) -> int:
    """Number of words whose witness family contains a fixed {U, V} with
    |U| = u, |V| = v: C(n-u-v, k-u) * C(n-k-v, k-v)."""
    if u + v != 2 * k - d + 1 or not 0 <= u <= k or not 0 <= v <= k:
        raise ParameterError(
            f"split ({u},{v}) must satisfy u+v=2k-d+1={2 * k - d + 1}, 0 <= u, v <= k"
        )
    return math.comb(n - u - v, k - u) * math.comb(n - k - v, k - v)


def fractional_value(n: int, k: int, d: int) -> Fraction:
    """Total weight of the constant fractional matching on the conflict
    hypergraph: |Y| * ceil((d-1)/2)! * floor((d-1)/2)! / n^(d-1)."""
    if not 1 <= d <= 2 * k or 2 * k > n:
        raise ParameterError(f"need 1 <= d <= 2k <= n, got ({n},{k},{d})")
    n_words = Fraction(math.comb(n, k) * math.comb(n - k, k), 2)
    weight = Fraction(
        math.factorial(math.ceil((d - 1) / 2)) * math.factorial((d - 1) // 2),
        n ** (d - 1),
    )
    return n_words * weight
