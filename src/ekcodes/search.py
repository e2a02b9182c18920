"""Verification, randomized greedy construction, and exact maximum search.

verify_code computes the exact minimum pairwise distance of a code (the
all-pairs route); min_distance_at_least is the equivalent witness-overlap
route for 2-part set-world codes.  greedy_code builds a maximal code from
a seeded random permutation of the word universe.  exact_max_code is a
branch-and-bound clique search over the compatibility graph, with a plain
exhaustive enumeration kept alongside as an independent oracle.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
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

_NUMPY_PAIR_THRESHOLD = 3_000_000
_SEQUENTIAL_UNIVERSE_CAP = 2_000_000
_DEFAULT_WORD_CEILING = 5_000


def _pair_common_rows(masks: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Largest matched-common-element count over pairs (i, j), lo <= i < hi <= j."""
    best = 0
    n_words = len(masks)
    for i in range(lo, hi):
        a1, a2 = masks[i]
        for j in range(i + 1, n_words):
            b1, b2 = masks[j]
            straight = (a1 & b1).bit_count() + (a2 & b2).bit_count()
            crossed = (a1 & b2).bit_count() + (a2 & b1).bit_count()
            if crossed > straight:
                straight = crossed
            if straight > best:
                best = straight
    return best


def _pair_common_worker(args: tuple[list[tuple[int, int]], int, int]) -> int:
    return _pair_common_rows(*args)


def _pack_parts(masks: list[tuple[int, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    width = (n + 63) // 64
    first = np.zeros((len(masks), width), dtype=np.uint64)
    second = np.zeros_like(first)
    chunk_mask = (1 << 64) - 1
    for row, (m1, m2) in enumerate(masks):
        for w in range(width):
            first[row, w] = (m1 >> (64 * w)) & chunk_mask
            second[row, w] = (m2 >> (64 * w)) & chunk_mask
    return first, second


def _pair_common_numpy(masks: list[tuple[int, int]], n: int) -> int:
    first, second = _pack_parts(masks, n)
    best = 0
    for i in range(len(masks) - 1):
        c11 = np.bitwise_count(first[i + 1 :] & first[i]).sum(axis=1, dtype=np.int64)
        c22 = np.bitwise_count(second[i + 1 :] & second[i]).sum(axis=1, dtype=np.int64)
        c12 = np.bitwise_count(second[i + 1 :] & first[i]).sum(axis=1, dtype=np.int64)
        c21 = np.bitwise_count(first[i + 1 :] & second[i]).sum(axis=1, dtype=np.int64)
        row_best = int(np.maximum(c11 + c22, c12 + c21).max())
        if row_best > best:
            best = row_best
    return best


def verify_code(code: Code, threads: int = 1) -> int | float:
    """Exact minimum pairwise distance; stored on the code as a side effect.

    Codes with fewer than two words verify to the +infinity sentinel.
    `threads` only affects wall time, never the result: it parallelizes
    the pure-Python path for pair codes of at most 3M word pairs; above
    that, numpy runs single-threaded.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    words = list(code.words)
    if len(words) < 2:
        code.verified_min_distance = math.inf
        return math.inf

    if code.q == 0 and code.s == 2:
        masks = [(w.parts[0].mask, w.parts[1].mask) for w in words]
        pairs = len(words) * (len(words) - 1) // 2
        if pairs > _NUMPY_PAIR_THRESHOLD:
            best_common = _pair_common_numpy(masks, code.n)
        elif threads > 1:
            bounds = _row_chunks(len(words), threads)
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = pool.map(_pair_common_worker, [(masks, lo, hi) for lo, hi in bounds])
            best_common = max(results)
        else:
            best_common = _pair_common_rows(masks, 0, len(words) - 1)
        minimum = 2 * code.k - best_common
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


def _row_chunks(n_words: int, parts: int) -> list[tuple[int, int]]:
    """Split rows 0..n_words-2 into ranges of roughly equal pair counts."""
    total = n_words * (n_words - 1) // 2
    target = total / parts
    bounds = []
    lo = 0
    done = 0.0
    for _ in range(parts - 1):
        hi = lo
        load = 0.0
        while hi < n_words - 1 and load < target:
            load += n_words - 1 - hi
            hi += 1
        bounds.append((lo, hi))
        lo = hi
    bounds.append((lo, n_words - 1))
    return [(a, b) for a, b in bounds if a < b]


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


def _compatibility_masks(words: list[STuple], k: int, d: int) -> list[int]:
    """Adjacency bitsets of the distance->=d compatibility graph."""
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
    total = word_count(n, k, 2)
    if total > word_ceiling:
        raise ParameterError(f"universe has {total} words, above the ceiling {word_ceiling}")
    words = list(enumerate_words(n, k, 2))
    adjacency = _compatibility_masks(words, k, d)
    param_cap = upper_bound(n, k, d).floor_value

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
    adjacency = _compatibility_masks(words, k, d)
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
