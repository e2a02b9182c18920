"""Exact distances between codewords, and the witness families behind them.

The transportation distance between two words is the minimum, over
matchings of their parts, of the number of elements that must move.  For
pairs this is min(|A1-B1|+|A2-B2|, |A1-B2|+|A2-B1|); for s-tuples the
minimum runs over all part matchings (an assignment problem).
`tuple_distance` takes the best of the s! matchings up to s = 4 and solves
it by the Hungarian method (`_min_cost_matching`) above; the batch kernel
`_best_matchings` sums all s! matchings up to s = 6 and calls the same
method above.

A witness of a pair-word {A, B} at design distance d is an unordered pair
{U, V} of disjoint sets with |U|+|V| = 2k-d+1 embedded in the word's two
sides.  Two words are at distance <= d-1 exactly when they share a
witness, which turns distance-threshold checks into set intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from operator import mul, ne

import numpy as np

from .core import ParameterError, QaryPairWord, QaryWord, STuple

_TUPLE_ENUMERATION_LIMIT = 4  # tuple_distance takes the best of all s! matchings up to this s
_ENUMERATION_LIMIT = 6  # _best_matchings sums all s! matchings up to this s
_MATCHING_TILE_CELLS = 1 << 20  # cells one enumeration tile may gather


def _check_same_world(x: STuple, y: STuple) -> tuple[int, int]:
    """The shared (k, s) of two words; ParameterError unless their (n, k, s) agree."""
    xs, ys = x.parts, y.parts
    k, s = len(xs[0].elements), len(xs)
    if xs[0].n != ys[0].n or k != len(ys[0].elements) or s != len(ys):
        raise ParameterError(
            f"mismatched parameters: ({x.n},{x.k},{x.s}) vs ({y.n},{y.k},{y.s})"
        )
    return k, s


def pair_distance(p: STuple, q: STuple) -> int:
    """Transportation distance between two 2-part words; 0 iff p == q."""
    k, s = _check_same_world(p, q)
    if s != 2:
        raise ParameterError(f"pair_distance needs 2-part words, got s={s}")
    a1, a2 = p.parts[0].mask, p.parts[1].mask
    b1, b2 = q.parts[0].mask, q.parts[1].mask
    straight = (a1 & b1).bit_count() + (a2 & b2).bit_count()
    crossed = (a1 & b2).bit_count() + (a2 & b1).bit_count()
    return 2 * k - max(straight, crossed)


def tuple_distance(x: STuple, y: STuple) -> int:
    """Transportation distance between two s-part words.

    The cost of moving part i of x onto part j of y is k minus their common
    elements; the distance is the cheapest perfect matching of parts.  Up
    to s = 4 it takes the best of the s! matchings, summed at once, one
    byte per matching, while s*k < 256; above, the Hungarian method with
    shortest augmenting paths (`_min_cost_matching`, O(s^3)).
    """
    k, s = _check_same_world(x, y)
    y_masks = [yp.mask for yp in y.parts]
    common = [(xp.mask & mask).bit_count() for xp in x.parts for mask in y_masks]
    if s <= _TUPLE_ENUMERATION_LIMIT and s * k < 256:
        lanes, count = _matching_lanes(s)
        return s * k - max(sum(map(mul, common, lanes)).to_bytes(count, "little"))
    return _min_cost_matching([[k - c for c in common[i : i + s]] for i in range(0, s * s, s)])


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


@cache
def _matching_cells(s: int) -> np.ndarray:
    """The s! matchings of an s x s matrix, one row each of flat cells i*s + p(i)."""
    cells = np.array(list(permutations(range(s)))) + s * np.arange(s)
    cells.setflags(write=False)  # one table serves every call
    return cells


@cache
def _matching_lanes(s: int) -> tuple[list[int], int]:
    """Per cell of a flat s*s list, the int with a 1 in the byte of each of the
    s! matchings that uses the cell; and s!.

    Summing count * lane over the cells puts each matching's total in its
    own byte, which holds it while the totals stay below 256.
    """
    lanes = [0] * (s * s)
    for matching, cells in enumerate(_matching_cells(s).tolist()):
        for cell in cells:
            lanes[cell] += 1 << 8 * matching
    return lanes, math.factorial(s)


def _best_matchings(weights: np.ndarray) -> np.ndarray:
    """Maximum-weight perfect matching of each s x s matrix in a batch.

    Up to s = 6, the best of the s! matchings, summed over their cells in
    tiles that gather at most `_MATCHING_TILE_CELLS` cells each.  Above,
    the Hungarian method (`_min_cost_matching`) on each negated matrix.
    """
    batch, s, _ = weights.shape
    if s > _ENUMERATION_LIMIT:
        negated = np.negative(weights, dtype=np.int64).tolist()
        return np.array([-_min_cost_matching(cost) for cost in negated], dtype=np.int64)
    cells = _matching_cells(s)
    flat = weights.reshape(batch, s * s)
    step = max(1, _MATCHING_TILE_CELLS // cells.size)
    best = np.empty(batch, dtype=np.int64)
    for lo in range(0, batch, step):
        best[lo : lo + step] = flat[lo : lo + step, cells].sum(axis=2, dtype=np.int64).max(axis=1)
    return best


def _matching_bounds(common: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the best matching of each (s, s, batch) count matrix: its largest
    cell, and the smaller of its row-maxima and column-maxima sums."""
    rows, cols = (common.max(axis=axis).sum(axis=0, dtype=common.dtype) for axis in (1, 0))
    return common.max(axis=(0, 1)), np.minimum(rows, cols)


def _best_shares(common: np.ndarray, floor: int) -> np.ndarray:
    """Best part matching of each (s, s, batch) count matrix, as far as `floor` needs it.

    The result exceeds floor exactly where the best matching does.  It is
    the best matching at s <= 2 (two diagonals, in closed form) and, above,
    where `_matching_bounds` leave floor between them; elsewhere it is the
    largest cell.  An open matrix whose row-maxima and column-maxima sums
    both equal its total has at most one nonzero cell per row and column,
    so its total is its best matching (always so at k = 1); the others go
    to `_best_matchings`.
    """
    if len(common) == 2:
        return np.maximum(common[0, 0] + common[1, 1], common[0, 1] + common[1, 0])
    best, upper = _matching_bounds(common)
    open_ = (best <= floor) & (upper > floor)
    if open_.any():
        batch, shares = common[:, :, open_], upper[open_]
        solve = shares != batch.sum(axis=(0, 1), dtype=common.dtype)
        if solve.any():
            shares[solve] = _best_matchings(batch[:, :, solve].transpose(2, 0, 1))
        best[open_] = shares
    return best


def qary_distance(u: QaryWord, v: QaryWord) -> int:
    """Hamming distance between two q-ary words."""
    if u.n != v.n or u.q != v.q:
        raise ParameterError(f"mismatched parameters: ({u.n},{u.q}) vs ({v.n},{v.q})")
    return sum(map(ne, u.symbols, v.symbols))


def qary_pair_distance(x: QaryPairWord, y: QaryPairWord) -> int:
    """Minimum over the two matchings of summed Hamming distances."""
    xu, yu = x.u, y.u  # the members of one pair share (n, q)
    if xu.n != yu.n or xu.q != yu.q:
        raise ParameterError(f"mismatched parameters: ({x.n},{x.q}) vs ({y.n},{y.q})")
    a1, a2, b1, b2 = xu.symbols, x.v.symbols, yu.symbols, y.v.symbols
    straight = sum(map(ne, a1, b1)) + sum(map(ne, a2, b2))
    crossed = sum(map(ne, a1, b2)) + sum(map(ne, a2, b1))
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
