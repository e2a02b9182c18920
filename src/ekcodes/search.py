"""Verification, randomized greedy construction, and exact maximum search.

verify_code computes the exact minimum pairwise distance of a code (for
2-part set words, over the pairs that share an element);
min_distance_at_least is the equivalent witness-overlap route for 2-part
set-world codes.  greedy_code builds a maximal code from a seeded random
permutation of the word universe.  exact_max_code is a
branch-and-bound clique search over the compatibility graph, which it
builds from shared witness keys; exhaustive_max_code, a plain enumeration
over a graph built by comparing every pair of words, is kept alongside as
an independent oracle.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import _greedy_fast
from .bounds import asymptotic_constant, upper_bound
from .core import (
    Code,
    KSubset,
    ParameterError,
    QaryWord,
    STuple,
    enumerate_qary_words,
    enumerate_words,
    qary_word_count,
    word_count,
)
from .metric import qary_distance, qary_pair_distance, tuple_distance, witness_set

_PAIR_TILE = 1 << 13
_SEQUENTIAL_UNIVERSE_CAP = 2_000_000
_DEFAULT_WORD_CEILING = 5_000


def _pair_best_common(words: list[STuple], n: int, k: int) -> int:
    """Largest matched-common-element count over all pairs of 2-part words.

    Two words overlap only through elements they share, so the pairs that
    matter are generated per element: incidences are sorted by element
    (stably, so each element lists its words in ascending order, each at
    most once since a word's parts are disjoint), and each incidence is
    paired with every later one under the same element.  A pair (i, j)
    keyed by straight (same side) or crossed (opposite sides) then occurs
    once per common element, so the longest run of equal sorted keys is
    the best common count.  Rows are walked in tiles of about
    _PAIR_TILE generated pairs, which bounds the temporaries.
    """
    n_words = len(words)
    width = 2 * k
    rows = [w.parts[0].elements + w.parts[1].elements for w in words]
    flat = np.array(rows, dtype=np.int32).ravel()
    order = np.argsort(flat, kind="stable").astype(np.int32)
    sorted_words = order // width
    sorted_sides = order % width >= k
    # partners of each incidence: the later incidences under its element
    ends = np.cumsum(np.bincount(flat, minlength=n), dtype=np.int32)[flat[order]]
    position = np.empty_like(order)
    position[order] = np.arange(order.size, dtype=np.int32)
    partners = (ends - 1)[position] - position
    row_end = np.cumsum(partners.reshape(n_words, width).sum(axis=1, dtype=np.int64))

    best = 0
    lo = 0
    while lo < n_words:
        done = row_end[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(row_end, done + _PAIR_TILE, side="right")), lo + 1)
        counts = partners[lo * width : hi * width]
        total = int(counts.sum())
        if total:
            first = position[lo * width : hi * width] + 1
            starts = np.cumsum(counts) - counts
            partner = np.repeat(first - starts, counts) + np.arange(total, dtype=np.int32)
            incidence = np.repeat(np.arange(lo * width, hi * width, dtype=np.int32), counts)
            keys = (incidence // width - lo).astype(np.int64) * n_words + sorted_words[partner]
            keys = keys * 2 + ((incidence % width >= k) != sorted_sides[partner])
            keys.sort()
            cuts = np.flatnonzero(keys[1:] != keys[:-1])
            runs = np.diff(cuts, prepend=-1, append=keys.size - 1)
            best = max(best, int(runs.max()))
        lo = hi
    return best


def verify_code(code: Code, threads: int = 1) -> int | float:
    """Exact minimum pairwise distance; stored on the code as a side effect.

    Codes with fewer than two words verify to the +infinity sentinel.
    Pair codes run one single-threaded numpy kernel over shared elements
    (`_pair_best_common`).  `threads` is validated but changes nothing.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    words = list(code.words)
    if len(words) < 2:
        code.verified_min_distance = math.inf
        return math.inf

    if code.q == 0 and code.s == 2:
        minimum = 2 * code.k - _pair_best_common(words, code.n, code.k)
    elif code.q == 0:
        minimum = min(
            tuple_distance(words[i], words[j])
            for i in range(len(words) - 1)
            for j in range(i + 1, len(words))
        )
    elif code.s == 1:
        rows = np.array([w.symbols for w in words], dtype=np.int16)
        minimum = min(
            int((rows[i] != rows[i + 1 :]).sum(axis=1).min()) for i in range(len(words) - 1)
        )
    else:
        minimum = min(
            qary_pair_distance(words[i], words[j])
            for i in range(len(words) - 1)
            for j in range(i + 1, len(words))
        )
    code.verified_min_distance = minimum
    return minimum


def min_distance_at_least(code: Code, d: int) -> bool:
    """Witness route: min distance >= d iff no two words share a witness."""
    if code.q != 0 or code.s != 2:
        raise ParameterError("witness check applies to 2-part set-world codes")
    claimed: set = set()
    for word in sorted(code.words):
        wits = witness_set(word, d)
        if not claimed.isdisjoint(wits):
            return False
        claimed |= wits
    return True


def _greedy_tuples(n: int, k: int, d: int, s: int, seed: int) -> frozenset[STuple]:
    universe = list(enumerate_words(n, k, s))
    random.Random(seed).shuffle(universe)
    accepted: list[STuple] = []
    for word in universe:
        if all(tuple_distance(word, other) >= d for other in accepted):
            accepted.append(word)
    return frozenset(accepted)


def _greedy_qary(n: int, k: int, d: int, q: int, seed: int) -> frozenset[QaryWord]:
    universe = list(enumerate_qary_words(n, k, q))
    random.Random(seed).shuffle(universe)
    accepted: list[QaryWord] = []
    for word in universe:
        if all(qary_distance(word, other) >= d for other in accepted):
            accepted.append(word)
    return frozenset(accepted)


def greedy_code(
    n: int,
    k: int,
    d: int,
    seed: int,
    *,
    s: int | None = None,
    q: int = 0,
    mode: str = "auto",
    max_universe: int = _SEQUENTIAL_UNIVERSE_CAP,
) -> Code:
    """Seeded random-permutation greedy; the output is maximal.

    Set-world pairs read one seeded word stream (`_greedy_fast`) and accept
    a word iff none of its witnesses is already claimed, equivalently iff
    it keeps distance >= d to every accepted word; the two acceptance
    rules coincide word for word.  mode forces "witness" or "distance"
    acceptance for pairs; "auto" uses the witness rule.  The witness rule
    needs dense key arrays; where they do not fit, the distance rule runs.
    s-tuple and q-ary modes use the direct distance rule over a shuffled
    universe.  The distance rule refuses universes above `max_universe`
    words.  s defaults to 2 in the set world and to 1 (single words) for
    q-ary alphabets.
    """
    if mode not in ("auto", "witness", "distance"):
        raise ParameterError(f"unknown mode {mode!r}")
    if s is None:
        s = 1 if q else 2
    if q:
        if s != 1:
            raise ParameterError("q-ary greedy builds single-word codes (s=1)")
        if not 1 <= d <= 2 * k:
            raise ParameterError(f"need 1 <= d <= 2k, got d={d}")
        if qary_word_count(n, k, q) > max_universe:
            raise ParameterError(f"universe exceeds {max_universe} words")
        return Code(n, k, 1, q, d, _greedy_qary(n, k, d, q, seed))
    if not 1 <= d <= s * k:
        raise ParameterError(f"need 1 <= d <= s*k, got d={d}")
    size = word_count(n, k, s)
    if s != 2:
        if size > max_universe:
            raise ParameterError(f"universe exceeds {max_universe} words")
        return Code(n, k, s, 0, d, _greedy_tuples(n, k, d, s, seed))
    if mode != "distance" and _greedy_fast.applicable(n, k, d):
        rows = _greedy_fast.greedy_pairs(n, k, d, seed)
    else:
        if size > max_universe:
            raise ParameterError(f"universe exceeds {max_universe} words")
        rows = _greedy_fast.greedy_pairs_by_distance(n, k, d, seed)
    words = frozenset(STuple((KSubset(n, a), KSubset(n, b))) for a, b in rows)
    return Code(n, k, 2, 0, d, words)


@dataclass
class SearchReport:
    """Outcome of an exact search; optimal only when the tree was exhausted."""

    best_code: Code
    optimal: bool
    nodes_explored: int
    wall_budget_hit: bool = False
    node_budget_hit: bool = False


def _compatibility_masks(words: list[STuple], n: int, k: int, d: int) -> list[int]:
    """Adjacency bitsets of the distance->=d compatibility graph, from shared witnesses.

    Two words are at distance <= d - 1 iff they share a witness, so the
    witness keys of all words are sorted and each group of equal keys is
    ORed into its members' conflict masks; a word is adjacent to every word
    outside its own conflict mask.
    """
    builder = _greedy_fast._KeyBuilder(n, k, d)
    # With more witnesses per word than half the words, the key arrays
    # outgrow the pairwise comparison: (14,7,7) has 3003 keys per word and
    # peaks near 400 MB, against 30 MB pairwise.  Keys must also fit int64.
    if 2 * len(builder.plans) > len(words) or builder.total_space >= 1 << 63:
        return _pairwise_compatibility_masks(words, k, d)
    a_cols = [np.array(col, dtype=np.int64) for col in zip(*(w.parts[0].elements for w in words))]
    b_cols = [np.array(col, dtype=np.int64) for col in zip(*(w.parts[1].elements for w in words))]
    keys = np.stack(builder.build(a_cols, b_cols), axis=1).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    owners = (order // len(builder.plans)).tolist()
    cuts = [0, *(np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist(), len(owners)]
    conflict = [0] * len(words)
    for lo, hi in zip(cuts, cuts[1:]):
        group = owners[lo:hi]
        mask = 0
        for i in group:
            mask |= 1 << i
        for i in group:
            conflict[i] |= mask
    full = (1 << len(words)) - 1
    return [full & ~mask for mask in conflict]


def _pairwise_compatibility_masks(words: list[STuple], k: int, d: int) -> list[int]:
    """Adjacency bitsets of the distance->=d graph, one bitmask comparison per pair."""
    limit = 2 * k - d
    masks = [(w.parts[0].mask, w.parts[1].mask) for w in words]
    adjacency = [0] * len(words)
    for i in range(len(words)):
        a1, a2 = masks[i]
        for j in range(i + 1, len(words)):
            b1, b2 = masks[j]
            straight = (a1 & b1).bit_count() + (a2 & b2).bit_count()
            crossed = (a1 & b2).bit_count() + (a2 & b1).bit_count()
            if max(straight, crossed) <= limit:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


def _first_fit_clique(adjacency: list[int]) -> int:
    chosen = 0
    candidates = (1 << len(adjacency)) - 1
    i = 0
    while candidates:
        low = candidates & -candidates
        i = low.bit_length() - 1
        chosen |= low
        candidates &= adjacency[i]
    return chosen


def exact_max_code(
    n: int,
    k: int,
    d: int,
    *,
    word_ceiling: int = _DEFAULT_WORD_CEILING,
    node_budget: int | None = None,
    wall_budget_s: float | None = None,
) -> SearchReport:
    """Branch-and-bound maximum code over the canonical word order.

    Candidates are pruned by greedy-coloring bounds per node and by the
    global split-form upper bound on C(n, k, d) (any subset of words is a
    code, so the parameter bound caps every branch).  Exceeding a budget
    returns the incumbent with optimal=False.
    """
    param_cap = upper_bound(n, k, d).floor_value
    total = word_count(n, k, 2)
    if total > word_ceiling:
        raise ParameterError(f"universe has {total} words, above the ceiling {word_ceiling}")
    words = list(enumerate_words(n, k, 2))
    adjacency = _compatibility_masks(words, n, k, d)

    best_set = _first_fit_clique(adjacency)
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

    expand((1 << len(words)) - 1, 0, 0)
    chosen = frozenset(words[i] for i in range(len(words)) if best_set >> i & 1)
    code = Code(n, k, 2, 0, d, chosen)
    optimal = not (stop_wall or stop_nodes)
    return SearchReport(
        best_code=code,
        optimal=optimal,
        nodes_explored=nodes,
        wall_budget_hit=stop_wall,
        node_budget_hit=stop_nodes,
    )


def exhaustive_max_code(n: int, k: int, d: int, word_ceiling: int = 2_000) -> int:
    """Independent oracle: enumerate every clique, no pruning at all."""
    total = word_count(n, k, 2)
    if total > word_ceiling:
        raise ParameterError(f"universe has {total} words, above the ceiling {word_ceiling}")
    words = list(enumerate_words(n, k, 2))
    adjacency = _pairwise_compatibility_masks(words, k, d)
    best = 0

    def extend(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            extend(candidates & adjacency[v], size + 1)

    extend((1 << len(words)) - 1, 0)
    return best


def ratio_experiment(
    k: int,
    d: int,
    n_list: list[int],
    seed: int,
    repetitions: int = 1,
) -> list[dict]:
    """Greedy sizes against the upper bound and the limiting constant.

    One row per n: the best greedy size over `repetitions` seeded runs
    (seeds seed, seed+1, ...), the bound floor, and the two ratios.
    Deterministic given seed.
    """
    if repetitions < 1:
        raise ParameterError(f"repetitions must be >= 1, got {repetitions}")
    constant = asymptotic_constant("pair", k=k, d=d)
    rows = []
    for n in n_list:
        best = 0
        for rep in range(repetitions):
            best = max(best, len(greedy_code(n, k, d, seed + rep)))
        bound = upper_bound(n, k, d).floor_value
        rows.append(
            {
                "n": n,
                "greedy_size": best,
                "upper_bound_floor": bound,
                "ratio_to_bound": best / bound,
                "normalized_ratio": best / n ** (2 * k - d + 1),
                "limit_constant": float(constant),
            }
        )
    return rows
