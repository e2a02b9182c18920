"""Verification, randomized greedy construction, and exact maximum search.

verify_code computes the exact minimum pairwise distance of every code
with one numpy kernel.  Each word becomes a row of incidence ids: a set
word's part elements, a q-ary word's support positions i followed by
n + i*q + symbol, and a q-ary pair's two words in turn; only pairs of
words that share an id are examined, and only those that could be the
closest get an exact part matching.  min_distance_at_least is a thin
threshold test over verify_code for 2-part set-world codes.
greedy_code builds a maximal code by reading a seeded permutation of the
word universe, as incidence rows of the same kind, through one distance
rule (`_greedy_fast`).  exact_max_code is a
branch-and-bound clique search over the compatibility graph, which it
builds from shared witness keys; exhaustive_max_code, a plain enumeration
over a graph built by comparing every pair of words, is kept alongside as
an independent oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _greedy_fast
from .bounds import asymptotic_constant, upper_bound
from .core import (
    Code,
    ParameterError,
    QaryWord,
    STuple,
    _canonical_words,
    enumerate_qary_words,
    enumerate_words,
    qary_word_count,
    word_count,
)

_PAIR_TILE = 1 << 13
_SEQUENTIAL_UNIVERSE_CAP = 2_000_000
_DEFAULT_WORD_CEILING = 5_000


def _best_matchings(weights: np.ndarray) -> np.ndarray:
    """Maximum-weight perfect matching of each s x s matrix in a batch.

    The Hungarian method by shortest augmenting paths, as in
    metric.tuple_distance, run on the whole batch at once: each step grows
    every unfinished path by one column (a finished one idles), so a batch
    takes O(s^2) numpy steps of O(batch * s) work.  Costs are the negated
    weights, and -v[0] ends as the cheapest cost, so v[0] is the best weight.
    """
    batch, s, _ = weights.shape
    cost = np.zeros((batch, s + 1, s + 1), dtype=np.int64)
    cost[:, 1:, 1:] = -weights
    u = np.zeros((batch, s + 1), dtype=np.int64)
    v = np.zeros_like(u)
    match = np.zeros((batch, s + 1), dtype=np.intp)  # row held by each column; column 0 is the root
    way = np.zeros_like(match)
    b = np.arange(batch)
    inf = np.iinfo(np.int64).max // 2
    for i in range(1, s + 1):
        match[:, 0] = i
        col = np.zeros(batch, dtype=np.intp)
        minv = np.full((batch, s + 1), inf)
        used = np.zeros((batch, s + 1), dtype=bool)
        grow = np.ones(batch, dtype=bool)
        while grow.any():
            used[b, col] = True
            row = match[b, col]
            reduced = cost[b, row] - u[b, row][:, None] - v
            closer = grow[:, None] & ~used & (reduced < minv)
            minv = np.where(closer, reduced, minv)
            way = np.where(closer, col[:, None], way)
            nxt = np.where(used, inf, minv).argmin(axis=1)
            delta = np.where(grow, minv[b, nxt], 0)
            held = np.nonzero(used)
            u[held[0], match[held]] += delta[held[0]]
            v -= np.where(used, delta[:, None], 0)
            minv -= np.where(used, 0, delta[:, None])
            col = np.where(grow, nxt, col)
            grow &= match[b, col] != 0
        while col.any():
            back = way[b, col]
            match[b, col] = np.where(col != 0, match[b, back], match[b, col])
            col = back
    return v[:, 0]


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a nonempty array."""
    starts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))
    return starts, np.diff(starts, append=values.size)


def _best_common(rows: np.ndarray, s: int) -> int:
    """Largest matched-incidence count over all pairs of rows of s equal parts.

    Two words interact only through incidence ids they share, so the pairs
    that matter are generated per id: incidences are sorted by id (stably,
    so each id lists its rows in ascending order, each at most once since a
    row's ids are distinct), and each incidence is paired with every later
    one under the same id.  A shared incidence of parts (pi, pj) keys the
    pair of rows (i, j) once, as i*W + j shifted left by `shift` bits plus
    the cell pi*s + pj.  After sorting, a pair's keys are contiguous and
    its cells' runs are its s x s matrix of common counts.  A pair can beat
    the best so far only if it shares more incidences than that.  For those
    pairs, the largest cell is a lower bound (any one cell extends to a
    full matching), and only pairs whose row maxima and column maxima both
    sum higher than the best go on to the exact matching.  Rows are walked
    in tiles of about _PAIR_TILE generated keys, which bounds the
    temporaries at every s.
    """
    n_rows, width = rows.shape
    part_width = width // s
    shift = (s * s - 1).bit_length()
    flat = rows.ravel()
    order = np.argsort(flat, kind="stable").astype(np.int32)
    sorted_keys = ((order // width).astype(np.int64) << shift) + order % width // part_width
    # partners of each incidence: the later incidences under its id
    ends = np.cumsum(np.bincount(flat), dtype=np.int32)[flat[order]]
    position = np.empty_like(order)
    position[order] = np.arange(order.size, dtype=np.int32)
    partners = (ends - 1)[position] - position
    row_end = np.cumsum(partners.reshape(n_rows, width).sum(axis=1, dtype=np.int64))
    # each incidence's own share of its keys: its row's pair offset and its part's row of cells
    own_keys = np.repeat(np.arange(n_rows, dtype=np.int64) * n_rows << shift, width)
    own_keys += np.tile(np.arange(width) // part_width * s, n_rows)

    best = 0
    lo = 0
    while lo < n_rows:
        done = row_end[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(row_end, done + _PAIR_TILE, side="right")), lo + 1)
        span = slice(lo * width, hi * width)
        counts = partners[span]
        total = int(counts.sum())
        if total:
            starts = np.cumsum(counts) - counts
            partner = np.repeat(position[span] + 1 - starts, counts) + np.arange(total, dtype=np.int32)
            keys = np.repeat(own_keys[span], counts) + sorted_keys[partner]
            keys.sort()
            _, shared = _runs(keys >> shift)
            if shared.max() > best:
                keys = keys[np.repeat(shared > best, shared)]
                firsts, runs = _runs(keys)
                best = max(best, int(runs.max()))
                _, cells = _runs(keys[firsts] >> shift)
                common = np.zeros((s * s, cells.size), dtype=np.int64)
                common[keys[firsts] & (1 << shift) - 1, np.repeat(np.arange(cells.size), cells)] = runs
                common = common.reshape(s, s, -1)
                bound = np.minimum(common.max(axis=1).sum(axis=0), common.max(axis=0).sum(axis=0))
                if bound.max() > best:
                    best = max(best, int(_best_matchings(common[:, :, bound > best].transpose(2, 0, 1)).max()))
        lo = hi
    return best


def _incidence_rows(words: list, n: int, k: int, s: int, q: int) -> np.ndarray:
    """Each word as one row of distinct incidence ids, s parts of equal width.

    A set-world part lists its elements.  A weight-k q-ary word lists its
    support positions i and then n + i*q + u_i, so two words share
    |supp u & supp v| + |{i : u_i = v_i != 0}| = 2k - d_H(u, v) ids; a
    q-ary pair lists u's ids and then v's.
    """
    if q == 0:
        elements = chain.from_iterable([part.elements for w in words for part in w.parts])
        return np.fromiter(elements, dtype=np.int32).reshape(len(words), s * k)
    members = [(w,) if s == 1 else (w.u, w.v) for w in words]
    symbols = np.array([[m.symbols for m in ms] for ms in members], dtype=np.int32).reshape(len(words), s, n)
    support = np.nonzero(symbols)[2].reshape(len(words), s, k).astype(np.int32)
    values = np.take_along_axis(symbols, support, axis=2)
    return np.concatenate([support, n + support * q + values], axis=2).reshape(len(words), 2 * s * k)


def verify_code(code: Code) -> int | float:
    """Exact minimum pairwise distance; stored on the code as a side effect.

    Codes with fewer than two words verify to the +infinity sentinel.  Every
    kind of code runs one numpy kernel (`_best_common`) over its words'
    incidence rows (`_incidence_rows`): s-tuples of k-subsets have s parts
    of k elements, q-ary words one part of 2k ids, and q-ary pairs two
    parts of 2k ids.  The distance of two rows of width w is w minus their
    best part matching of shared ids, so the minimum is w minus the kernel.
    """
    words = list(code.words)
    if len(words) < 2:
        code.verified_min_distance = math.inf
        return math.inf
    rows = _incidence_rows(words, code.n, code.k, code.s, code.q)
    minimum = rows.shape[1] - _best_common(rows, code.s)
    code.verified_min_distance = minimum
    return minimum


def min_distance_at_least(code: Code, d: int) -> bool:
    """verify_code(code) >= d for 2-part set-world codes; stores the minimum as verify_code does."""
    if code.q != 0 or code.s != 2:
        raise ParameterError("witness check applies to 2-part set-world codes")
    return verify_code(code) >= d


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

    Every kind of word reads one seeded stream (`_greedy_fast`) and keeps a
    word iff it has distance >= d to every word kept before it.  Set-world
    pairs stream the ordered index pairs; s-tuples (s != 2) and q-ary words
    permute their enumerated universe.  Pairs can also be accepted by the
    witness rule (a word is kept iff none of its witnesses is already
    claimed), which keeps the same words: mode forces "witness" or
    "distance", and "auto" uses the witness rule where its dense key arrays
    fit and the distance rule elsewhere.  The distance rule refuses
    universes above `max_universe` words.  s defaults to 2 in the set world
    and to 1 (single words) for q-ary alphabets.
    """
    if mode not in ("auto", "witness", "distance"):
        raise ParameterError(f"unknown mode {mode!r}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if s is None:
        s = 1 if q else 2
    if q and s != 1:
        raise ParameterError("q-ary greedy builds single-word codes (s=1)")
    width = 2 * k if q else s * k
    if not 1 <= d <= width:
        raise ParameterError(f"need 1 <= d <= {'2k' if q else 's*k'} = {width}, got d={d}")
    size = qary_word_count(n, k, q) if q else word_count(n, k, s)
    if not q and s == 2 and mode != "distance" and _greedy_fast.applicable(n, k, d):
        rows = _greedy_fast.greedy_pairs(n, k, d, seed)
    else:
        if size > max_universe:
            raise ParameterError(f"universe exceeds {max_universe} words")
        if not q and s == 2:
            stream = (np.column_stack(a + b) for a, b in _greedy_fast._stream_words(n, k, seed))
        else:
            universe = list(enumerate_qary_words(n, k, q) if q else enumerate_words(n, k, s))
            table = _incidence_rows(universe, n, k, s, q)
            stream = (table[ids] for ids in _greedy_fast._permuted_chunks(size, seed, _greedy_fast._CHUNK))
        rows = _greedy_fast.greedy_by_distance(stream, s, width - d)
    rows = np.array(rows, dtype=np.intp).reshape(-1, width)
    if q:  # invert _incidence_rows: support positions i, then n + i*q + symbol
        symbols = np.zeros((len(rows), n), dtype=np.int64)
        np.put_along_axis(symbols, rows[:, :k], rows[:, k:] - n - rows[:, :k] * q, axis=1)
        words = [QaryWord(n, q, tuple(row)) for row in symbols.tolist()]
    else:  # canonical rows: each part sorted, parts ordered by their first element
        words = _canonical_words(n, rows.reshape(-1, s, k))
    return Code(n, k, s, q, d, frozenset(words))


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
