"""Verification, randomized greedy construction, and exact maximum search.

verify_code computes the exact minimum pairwise distance of every code.
Each word becomes a row of incidence ids: a set word's part elements, a
q-ary word's support positions i followed by n + i*q + symbol, and a
q-ary pair's two words in turn.  Set-world pairs are at distance <= d - 1
iff they share a witness, so their minimum comes from a walk over the
witness size, one sort of all words' witness keys per step, started at
the claimed distance.  Every other code, and pair codes whose keys do not
fit, runs the incidence kernel over the pairs of words that share an id,
in which only the pairs that could be the closest get an exact part
matching.
min_distance_at_least is a thin threshold test over verify_code for
2-part set-world codes.
greedy_code builds a maximal code by reading a seeded permutation of the
word universe, as incidence rows of the same kind, through one distance
rule (`_greedy_fast`), in which each kept word strikes its conflicts
through the incidence kernel's matching test.  exact_max_code is a
branch-and-bound clique search over the compatibility graph, which it
builds from the universe rows' witness keys or, with too many keys per
word, by that same test; each node's greedy colouring strips, unrecorded,
the classes its branch loop can never reach, one AND per coloured word,
and the tree is that of the full colouring.  exhaustive_max_code, a
plain enumeration over the pair_distance graph of `enumerate_words`, is
kept alongside as an independent oracle.  Every other function here
reads and builds codes as rows (`Code.rows`, `Code._from_rows`); none
builds a word.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import _greedy_fast
from .bounds import asymptotic_constant, upper_bound
from .core import Code, ParameterError, _universe_rows, enumerate_words, qary_word_count, word_count
from .metric import _best_shares, pair_distance

_PAIR_TILE = 1 << 13
_WITNESS_KEY_CAP = 1 << 24  # keys in one witness-key table: 128 MB of int64
_DISTANCE_UNIVERSE_CAP = 2_000_000
_DEFAULT_WORD_CEILING = 5_000


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
    the best so far only if it shares more incidences than that.  Their
    largest cell raises the best (any one cell extends to a full matching),
    and metric._best_shares, greedy_code's matching test too, finds any
    pair that still beats it.  Rows are walked
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
                best = max(best, int(_best_shares(common.reshape(s, s, -1), best).max()))
        lo = hi
    return best


def _witness_keys(rows: np.ndarray, n: int, k: int, d: int) -> np.ndarray | None:
    """Witness keys of pair rows at distance d: row i holds word i's C(2k, t) keys, t = 2k - d + 1.

    Two words share a key iff they share a witness, i.e. iff they are at
    distance <= d - 1.  None when the keys do not fit: the key space must
    fit int64, and the table must hold at most _WITNESS_KEY_CAP keys.
    """
    builder = _greedy_fast._KeyBuilder(n, k, d)
    if builder.total_space >= 1 << 63 or len(rows) * len(builder.plans) > _WITNESS_KEY_CAP:
        return None
    columns = list(rows.T.astype(np.int64, order="C"))
    return np.stack(builder.build(columns[:k], columns[k:]), axis=1)


def _shares_witness(rows: np.ndarray, n: int, k: int, t: int) -> bool | None:
    """True iff two pair rows share a t-element witness; None when the keys do not fit."""
    keys = _witness_keys(rows, n, k, 2 * k - t + 1)
    if keys is None:
        return None
    keys = keys.ravel()
    keys.sort()
    return bool((keys[1:] == keys[:-1]).any())


def _witness_best_common(rows: np.ndarray, n: int, k: int, d: int) -> int | None:
    """Largest matched-element count over all pairs of pair rows, by a walk over witness sizes.

    Two words share a t-element witness iff their best matching shares at
    least t elements, so the answer is the largest t at which two rows
    share a witness, or 0.  A code's words are distinct, so no two share
    all 2k elements, and t stops at 2k - 1; t = 2k would only add the
    largest key space, the first to outgrow int64.  The walk starts at
    the claimed distance d, t = 2k - d + 1 clamped into [1, 2k - 1], and
    moves up while rows collide or down until they do; a code that meets
    its claim exactly costs two sorts.  None when some step's keys do not
    fit (_witness_keys).
    """
    top = 2 * k - 1
    t = min(max(2 * k - d + 1, 1), top)
    hit = _shares_witness(rows, n, k, t)
    if hit is None:
        return None
    step = 1 if hit else -1
    while 1 <= t + step <= top:
        beyond = _shares_witness(rows, n, k, t + step)
        if beyond is None:
            return None
        if beyond != hit:
            break
        t += step
    # t is the last size on the starting side: the largest that collides, or the smallest that does not
    return t if hit else t - 1


def verify_code(code: Code) -> int | float:
    """Exact minimum pairwise distance; stored on the code as a side effect.

    Codes with fewer than two words verify to the +infinity sentinel.  The
    kernels read the code's rows of incidence ids (`Code.rows`): s-tuples
    of k-subsets have s parts of k elements, q-ary words one part of 2k
    ids, and q-ary pairs two parts of 2k ids.  The distance of two rows of
    width w is w minus their best part matching of shared ids, so the
    minimum is w minus the largest such matching over all pairs.
    Set-world pairs find it by the witness-key walk
    (`_witness_best_common`), a few sorts of the words' witness keys
    starting from the claimed distance.  Every other kind, and pairs
    whose keys outgrow int64 or _WITNESS_KEY_CAP, run the incidence kernel
    (`_best_common`) over the rows.
    """
    if len(code) < 2:
        code.verified_min_distance = math.inf
        return math.inf
    rows = code.rows
    best = None
    if code.q == 0 and code.s == 2:
        best = _witness_best_common(rows, code.n, code.k, code.d)
    if best is None:
        best = _best_common(rows, code.s)
    minimum = rows.shape[1] - best
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
) -> Code:
    """Seeded random-permutation greedy; the output is maximal.

    Every kind of word reads one seeded stream (`_greedy_fast`) and keeps a
    word iff it has distance >= d to every word kept before it.  Set-world
    pairs stream the ordered index pairs; s-tuples (s != 2) and q-ary words
    permute their universe's incidence rows (`_universe_rows`).  The
    distance rule holds the stream as one int32 table, in which each kept
    word strikes every later word closer than d to it.  Pairs can
    also be accepted by the witness rule (a word is kept iff none of its
    witnesses is already claimed), which keeps the same words.
    mode="distance" forces the distance rule; "auto" and "witness" take
    the witness rule where its dense key arrays fit and the distance rule
    elsewhere.  The witness rule exists only for set-world pairs, so
    mode="witness" raises for any other kind.  The distance rule refuses
    universes above `_DISTANCE_UNIVERSE_CAP` words.  s defaults to 2 in the
    set world and to 1 (single words) for q-ary alphabets.  Degenerate
    parameters give an empty code.
    """
    if mode not in ("auto", "witness", "distance"):
        raise ParameterError(f"unknown mode {mode!r}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if s is None:
        s = 1 if q else 2
    if q and s != 1:
        raise ParameterError("q-ary greedy builds single-word codes (s=1)")
    if mode == "witness" and (q or s != 2):
        raise ParameterError("the witness rule applies only to set-world pairs (s=2, q=0)")
    width = 2 * k if q else s * k
    if not 1 <= d <= width:
        raise ParameterError(f"need 1 <= d <= {'2k' if q else 's*k'} = {width}, got d={d}")
    size = qary_word_count(n, k, q) if q else word_count(n, k, s)
    if not q and s == 2 and mode != "distance" and _greedy_fast.applicable(n, k, d):
        rows = _greedy_fast.greedy_pairs(n, k, d, seed)
    else:
        if size > _DISTANCE_UNIVERSE_CAP:
            raise ParameterError(f"universe exceeds {_DISTANCE_UNIVERSE_CAP} words")
        if not q and s == 2:
            chunks = [np.column_stack(a + b).astype(np.int32) for a, b in _greedy_fast._stream_words(n, k, seed)]
        else:
            table = _universe_rows(n, k, s, q)
            chunks = [table[ids] for ids in _greedy_fast._permuted_chunks(size, seed, _greedy_fast._CHUNK)]
        stream = np.concatenate([np.empty((0, width), dtype=np.int32), *chunks])
        rows = _greedy_fast.greedy_by_distance(stream, s, width - d)
    return Code._from_rows(n, k, s, q, d, np.array(rows, dtype=np.int32).reshape(-1, width))


@dataclass
class SearchReport:
    """Outcome of an exact search; optimal only when the tree was exhausted."""

    best_code: Code
    optimal: bool
    nodes_explored: int
    wall_budget_hit: bool = False
    node_budget_hit: bool = False


def _compatibility_masks(rows: np.ndarray, n: int, k: int, d: int) -> list[int]:
    """Adjacency bitsets of the distance->=d compatibility graph of pair rows.

    Two words are at distance <= d - 1 iff they share a witness, so the
    witness keys of all words are sorted and each group of equal keys is
    ORed into its members' conflict masks; a word is adjacent to every word
    outside its own conflict mask.  With more keys per word than half the
    words, or keys that do not fit, each row is tested against every row
    by the distance greedy's `_greedy_fast.far_rows`: (14,7,7) has 3003
    keys per word and the keys peak near 400 MB, the row tests at 0.3 MB.
    """
    keys = None if 2 * math.comb(2 * k, 2 * k - d + 1) > len(rows) else _witness_keys(rows, n, k, d)
    if keys is None:
        far = _greedy_fast.far_rows(2, 2 * k, int(rows.max(initial=0)) + 1, 2 * k - d)
        columns = rows.T.copy()
        return [int.from_bytes(np.packbits(far(row, columns), bitorder="little").tobytes(), "little") for row in rows]
    per_word = keys.shape[1]
    keys = keys.ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    owners = (order // per_word).tolist()
    cuts = [0, *(np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist(), len(owners)]
    conflict = [0] * len(rows)
    for lo, hi in zip(cuts, cuts[1:]):
        group = owners[lo:hi]
        mask = 0
        for i in group:
            mask |= 1 << i
        for i in group:
            conflict[i] |= mask
    full = (1 << len(rows)) - 1
    return [full & ~mask for mask in conflict]


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

    Each node colours its candidates greedily, lowest word first, into
    classes of pairwise conflicting words, and branches on them from the
    last coloured down while size + colour beats the best code so far.
    Classes 1..best - size can never be branched on, since best only
    grows, so they are stripped without being recorded; each coloured word
    costs one AND with its conflict mask.  The tree, and so the best code,
    the node count and the flags, are those of recording the full
    colouring.  Branches are also capped by the global split-form upper
    bound on C(n, k, d) (any subset of words is a code, so the parameter
    bound caps every branch).  Exceeding a budget returns the incumbent
    with optimal=False.  The node budget is read as an integer, so a float
    or a string raises TypeError; a negative budget raises ParameterError.
    """
    budget = math.inf if node_budget is None else operator.index(node_budget)
    if budget < 0:
        raise ParameterError(f"node budget must be nonnegative, got {node_budget}")
    if wall_budget_s is not None and wall_budget_s < 0:
        raise ParameterError(f"wall budget must be nonnegative, got {wall_budget_s}")
    param_cap = upper_bound(n, k, d).floor_value
    total = word_count(n, k, 2)
    if total > word_ceiling:
        raise ParameterError(f"universe has {total} words, above the ceiling {word_ceiling}")
    rows = _universe_rows(n, k, 2, 0)
    adjacency = _compatibility_masks(rows, n, k, d)
    full = (1 << len(rows)) - 1
    # the words in conflict with v, v itself excluded: a colour class's remaining candidates
    apart = [full & ~mask & ~(1 << v) for v, mask in enumerate(adjacency)]

    best_set = _first_fit_clique(adjacency)
    best = best_set.bit_count()
    nodes = 0
    stop_wall = False
    stop_nodes = False
    start = time.monotonic()

    def expand(candidates: int, size: int, current: int) -> None:
        nonlocal best, best_set, nodes, stop_wall, stop_nodes
        nodes += 1
        if nodes > budget:
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
        uncolored = candidates
        color = 0
        # classes 1..best - size, never branched on; inside a class, available
        # stays within uncolored, so apart[v] alone updates it
        while uncolored and color < best - size:
            color += 1
            available = uncolored
            while available:
                low = available & -available
                uncolored ^= low
                available &= apart[low.bit_length() - 1]
        order: list[int] = []
        colors: list[int] = []
        while uncolored:
            color += 1
            available = uncolored
            while available:
                low = available & -available
                v = low.bit_length() - 1
                uncolored ^= low
                available &= apart[v]
                order.append(v)
                colors.append(color)
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] <= best:
                return
            v = order[idx]
            expand(candidates & adjacency[v], size + 1, current | (1 << v))
            if stop_wall or stop_nodes or best >= param_cap:
                return
            candidates &= ~(1 << v)

    expand(full, 0, 0)
    chosen = [i for i in range(len(rows)) if best_set >> i & 1]
    code = Code._from_rows(n, k, 2, 0, d, rows[chosen])
    optimal = not (stop_wall or stop_nodes)
    return SearchReport(
        best_code=code,
        optimal=optimal,
        nodes_explored=nodes,
        wall_budget_hit=stop_wall,
        node_budget_hit=stop_nodes,
    )


def exhaustive_max_code(n: int, k: int, d: int, word_ceiling: int = 2_000) -> int:
    """Independent oracle: every clique of the pair_distance graph of all words, no pruning at all."""
    if not 1 <= d <= 2 * k <= n:
        raise ParameterError(f"need 1 <= d <= 2k <= n, got ({n},{k},{d})")
    total = word_count(n, k, 2)
    if total > word_ceiling:
        raise ParameterError(f"universe has {total} words, above the ceiling {word_ceiling}")
    words = list(enumerate_words(n, k, 2))
    adjacency = [0] * len(words)
    for i, p in enumerate(words):
        for j in range(i + 1, len(words)):
            if pair_distance(p, words[j]) >= d:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
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

    extend((1 << len(adjacency)) - 1, 0)
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
