"""Exact distances between codewords, and the witness families behind them.

The transportation distance between two words is the minimum, over
matchings of their parts, of the number of elements that must move.  For
pairs this is min(|A1-B1|+|A2-B2|, |A1-B2|+|A2-B1|); for s-tuples the
minimum runs over all part matchings (an assignment problem).

A witness of a pair-word {A, B} at design distance d is an unordered pair
{U, V} of disjoint sets with |U|+|V| = 2k-d+1 embedded in the word's two
sides.  Two words are at distance <= d-1 exactly when they share a
witness, which turns distance-threshold checks into set intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from .core import ParameterError, QaryPairWord, QaryWord, STuple

_PERMUTATION_LIMIT = 8


def _check_same_world(x: STuple, y: STuple) -> None:
    if (x.n, x.k, x.s) != (y.n, y.k, y.s):
        raise ParameterError(
            f"mismatched parameters: ({x.n},{x.k},{x.s}) vs ({y.n},{y.k},{y.s})"
        )


def pair_distance(p: STuple, q: STuple) -> int:
    """Transportation distance between two 2-part words; 0 iff p == q."""
    _check_same_world(p, q)
    if p.s != 2:
        raise ParameterError(f"pair_distance needs 2-part words, got s={p.s}")
    a1, a2 = p.parts[0].mask, p.parts[1].mask
    b1, b2 = q.parts[0].mask, q.parts[1].mask
    straight = (a1 & b1).bit_count() + (a2 & b2).bit_count()
    crossed = (a1 & b2).bit_count() + (a2 & b1).bit_count()
    return 2 * p.k - max(straight, crossed)


def tuple_distance(x: STuple, y: STuple, method: str = "auto") -> int:
    """Transportation distance between two s-part words.

    The cost of moving part i of x onto part j of y is k minus their common
    elements; the distance is the cheapest perfect matching of parts.
    "auto" (or "assignment") finds it exactly, in O(s^3), by the Hungarian
    method with shortest augmenting paths (`_min_cost_matching`).
    method="permutation" minimizes over all s! matchings (the oracle,
    s <= 8).  Both methods are exact and agree.
    """
    _check_same_world(x, y)
    s = x.s
    cost = [[x.k - (xp.mask & yp.mask).bit_count() for yp in y.parts] for xp in x.parts]
    if method == "permutation":
        if s > _PERMUTATION_LIMIT:
            raise ParameterError(f"permutation method limited to s <= {_PERMUTATION_LIMIT}")
        return min(sum(cost[i][perm[i]] for i in range(s)) for perm in permutations(range(s)))
    if method not in ("auto", "assignment"):
        raise ParameterError(f"unknown method {method!r}")
    return _min_cost_matching(cost)


def _min_cost_matching(cost: list[list[int]]) -> int:
    """Cheapest perfect matching of a square cost matrix (Hungarian method).

    Each row in turn joins along the cheapest path of reduced costs
    cost[i][j] - u[i] - v[j] from a virtual column 0; the potentials keep
    them nonnegative, so -v[0] ends as the cheapest total.
    """
    s = len(cost)
    u = [0] * (s + 1)
    v = [0] * (s + 1)
    match = [0] * (s + 1)  # row (1-based) held by each column; column 0 is the root
    way = [0] * (s + 1)
    for i in range(1, s + 1):
        match[0] = i
        col = 0
        minv = [math.inf] * (s + 1)
        path = [0]  # columns on the alternating tree, then the ones still off it
        free = list(range(1, s + 1))
        while match[col]:
            row = match[col]
            costs, base = cost[row - 1], u[row]
            delta, nxt = math.inf, 0
            for j in free:
                reduced = costs[j - 1] - base - v[j]
                if reduced < minv[j]:
                    minv[j], way[j] = reduced, col
                if minv[j] < delta:
                    delta, nxt = minv[j], j
            for j in path:
                u[match[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(nxt)
            path.append(nxt)
            col = nxt
        while col:
            match[col] = match[way[col]]
            col = way[col]
    return -v[0]


def qary_distance(u: QaryWord, v: QaryWord) -> int:
    """Hamming distance between two q-ary words."""
    if (u.n, u.q) != (v.n, v.q):
        raise ParameterError(f"mismatched parameters: ({u.n},{u.q}) vs ({v.n},{v.q})")
    return sum(1 for a, b in zip(u.symbols, v.symbols) if a != b)


def qary_pair_distance(x: QaryPairWord, y: QaryPairWord) -> int:
    """Minimum over the two matchings of summed Hamming distances."""
    if (x.n, x.q) != (y.n, y.q):
        raise ParameterError(f"mismatched parameters: ({x.n},{x.q}) vs ({y.n},{y.q})")
    straight = qary_distance(x.u, y.u) + qary_distance(x.v, y.v)
    crossed = qary_distance(x.u, y.v) + qary_distance(x.v, y.u)
    return min(straight, crossed)


@dataclass(frozen=True)
class WitnessPair:
    """Unordered pair {U, V} of disjoint element sets, canonically ordered.

    u_set is the side that sorts first by (size, elements); either side
    may be empty.
    """

    u_set: tuple[int, ...]
    v_set: tuple[int, ...]

    def __post_init__(self) -> None:
        u = tuple(sorted(self.u_set))
        v = tuple(sorted(self.v_set))
        if set(u) & set(v):
            raise ParameterError(f"witness sides overlap: {u} and {v}")
        if (len(v), v) < (len(u), u):
            u, v = v, u
        object.__setattr__(self, "u_set", u)
        object.__setattr__(self, "v_set", v)


def witness_splits(k: int, d: int) -> list[tuple[int, int]]:
    """Admissible (u, v) size splits with u <= v, u + v = 2k - d + 1."""
    if not 1 <= d <= 2 * k:
        raise ParameterError(f"need 1 <= d <= 2k, got d={d}, k={k}")
    t = 2 * k - d + 1
    return [(u, t - u) for u in range(max(0, t - k), t // 2 + 1)]


def witness_set(p: STuple, d: int) -> frozenset[WitnessPair]:
    """All witnesses {U, V} of a 2-part word at design distance d.

    U sits inside one side of the word and V inside the other, over all
    admissible size splits (empty sides included, so the family stays
    intersection-complete at d = 2k).
    """
    if p.s != 2:
        raise ParameterError(f"witness_set needs 2-part words, got s={p.s}")
    a, b = p.parts[0].elements, p.parts[1].elements
    out: set[WitnessPair] = set()
    for u, v in witness_splits(p.k, d):
        for side1, side2 in ((a, b), (b, a)):
            for us in combinations(side1, u):
                for vs in combinations(side2, v):
                    out.add(WitnessPair(us, vs))
    return frozenset(out)


def words_conflict(p: STuple, q: STuple, d: int) -> bool:
    """True iff pair_distance(p, q) <= d - 1, i.e. p and q share a witness."""
    witness_splits(p.k, d)  # ParameterError unless 1 <= d <= 2k
    return pair_distance(p, q) <= d - 1
